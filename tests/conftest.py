import numpy as np
import pytest

import capgraph as cg


@pytest.fixture(scope="session")
def euclid1():
    return cg.MetricField.euclidean(1)


@pytest.fixture(scope="session")
def euclid2():
    return cg.MetricField.euclidean(2)


@pytest.fixture(scope="session")
def disk_01():
    return cg.generate_disk_mesh(1.0, 0.1)


@pytest.fixture(scope="session")
def interval_64():
    return cg.generate_interval_mesh(0.0, 1.0, 64)


def zero_data(x, s):
    """phi = d phi / ds = 0 at the rows of ``x`` (shape (n, dim))."""
    return np.zeros(len(x))


def cap_values(points, radius=2.0):
    """Nodal values of the spherical cap of the given radius."""
    points = np.asarray(points, dtype=float)
    return np.sqrt(radius**2 - (points**2).sum(axis=1))


def cap_gradient(points, radius=2.0):
    points = np.asarray(points, dtype=float)
    return -points / cap_values(points, radius)[:, None]
