"""capgraph: capillary Killing-graph solver on warped-product leaves.

Computes graphs of prescribed mean curvature with prescribed contact angle
along the boundary cylinder, by damped Newton iteration inside an adaptive
homotopy in the data-scaling parameter, and certifies the a-priori height
and gradient behaviour of the computed solutions.
"""

__version__ = "0.1.0"

from .expressions import Expression, parse_expression, symbolic_s_derivative
from .geometry import MetricField, slope_factor, mean_curvature_strong
from .meshing import (
    Mesh,
    ScalarField,
    DomainSpec,
    generate_disk_mesh,
    generate_interval_mesh,
    geodesic_distance_field,
    boundary_distance_field,
    read_mesh,
    write_mesh,
    write_vtk,
)
from .problem import CapillaryProblem, ValidationReport, validate_conditions, height_bound
from .assembly import residual, jacobian, energy
from .solver import (
    ContinuationConfig,
    ContinuationState,
    NewtonReport,
    newton_solve,
    continuation_solve,
    uniqueness_probe,
)
from .verify import (
    Certificate,
    check_height,
    interior_gradient_certificate,
    boundary_gradient_certificate,
    contact_angle_residual,
    strong_form_residual,
    separation_rate_check,
    mms_manufacture,
    oracle_1d_solve,
)

__all__ = [
    "Expression",
    "parse_expression",
    "symbolic_s_derivative",
    "MetricField",
    "slope_factor",
    "mean_curvature_strong",
    "Mesh",
    "ScalarField",
    "DomainSpec",
    "generate_disk_mesh",
    "generate_interval_mesh",
    "geodesic_distance_field",
    "boundary_distance_field",
    "read_mesh",
    "write_mesh",
    "write_vtk",
    "CapillaryProblem",
    "ValidationReport",
    "validate_conditions",
    "height_bound",
    "residual",
    "jacobian",
    "energy",
    "ContinuationConfig",
    "ContinuationState",
    "NewtonReport",
    "newton_solve",
    "continuation_solve",
    "uniqueness_probe",
    "Certificate",
    "check_height",
    "interior_gradient_certificate",
    "boundary_gradient_certificate",
    "contact_angle_residual",
    "strong_form_residual",
    "separation_rate_check",
    "mms_manufacture",
    "oracle_1d_solve",
]
