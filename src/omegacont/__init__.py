"""Computing with holomorphic germs whose singular support is prescribed:
analytic continuation along paths, Borel-plane convolution, and the symmetric
homotopies that transport convolution integrals along arbitrary admissible
paths."""

__version__ = "0.1.0"

from .continuation import (
    ContinuationResult,
    continue_along,
    continue_with_stops,
    monodromy_delta,
)
from .convolution import (
    TwoPoleBranch,
    continue_convolution,
    convolve_entire,
    fiber_convolution_at,
    naive_endpoint_convolution,
    two_pole_oracle,
)
from .germs import DEFAULT_ORDER, Germ, convolve_at_origin, named_germ
from .homotopy import (
    HomotopyOptions,
    HomotopyReport,
    SymmetricHomotopy,
    build_flow_homotopy,
    build_linear_homotopy,
    build_symmetric_homotopy,
    flow,
    validate_homotopy,
    vector_field,
)
from .mollifier import Mollifier, build_mollifier
from .omega import Lattice, OmegaSet, Ray, StabilityReport
from .paths import (
    PiecewisePath,
    Segmentation,
    clearance,
    segment_around_zeros,
    winding_number,
)

__all__ = [
    "__version__",
    "OmegaSet",
    "Ray",
    "Lattice",
    "StabilityReport",
    "PiecewisePath",
    "Segmentation",
    "clearance",
    "winding_number",
    "segment_around_zeros",
    "Germ",
    "convolve_at_origin",
    "named_germ",
    "DEFAULT_ORDER",
    "ContinuationResult",
    "continue_along",
    "continue_with_stops",
    "monodromy_delta",
    "Mollifier",
    "build_mollifier",
    "HomotopyOptions",
    "HomotopyReport",
    "SymmetricHomotopy",
    "vector_field",
    "flow",
    "build_flow_homotopy",
    "build_linear_homotopy",
    "build_symmetric_homotopy",
    "validate_homotopy",
    "fiber_convolution_at",
    "continue_convolution",
    "convolve_entire",
    "naive_endpoint_convolution",
    "TwoPoleBranch",
    "two_pole_oracle",
]
