"""Exact rational tools for inner-harmonic matrices and discrete harmonic
polynomial interpolation on the square lattice.

Everything is computed in arbitrary-precision rational arithmetic; no
floating point exists anywhere in the package.  All values are immutable and
all operations are pure functions, so the library is safe to use from any
number of threads.
"""

from .completion import (
    BorderSpec,
    border_positions,
    complete,
    extract_border,
)
from .errors import (
    InvariantError,
    ParseError,
    PreconditionError,
    SizeError,
)
from .grid import (
    RatMatrix,
    discrete_laplacian_matrix,
    evaluate_on_lattice,
    interpolates,
    is_inner_harmonic,
    lattice_to_matrix,
    matrix_to_lattice,
)
from .interpolate import (
    ImpulseSet,
    bilinear,
    build_impulse_set,
    extend,
    extension_coefficients,
    interpolate_3x3,
    telescopic,
)
from .poly import (
    BiPoly,
    DHBasis,
    X,
    Y,
    discrete_laplacian_poly,
    generate_basis,
    is_discrete_harmonic,
    laplacian_monomial,
    tabulated_basis,
)
from .sandpile import (
    SandConfig,
    check_conservation,
    orbit,
    phi,
    random_config,
    standard_gf,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "BorderSpec",
    "DHBasis",
    "ImpulseSet",
    "InvariantError",
    "ParseError",
    "PreconditionError",
    "RatMatrix",
    "SandConfig",
    "SizeError",
    "X",
    "Y",
    "bilinear",
    "border_positions",
    "build_impulse_set",
    "check_conservation",
    "complete",
    "discrete_laplacian_matrix",
    "discrete_laplacian_poly",
    "evaluate_on_lattice",
    "extend",
    "extension_coefficients",
    "extract_border",
    "generate_basis",
    "interpolate_3x3",
    "interpolates",
    "is_discrete_harmonic",
    "is_inner_harmonic",
    "laplacian_monomial",
    "lattice_to_matrix",
    "matrix_to_lattice",
    "orbit",
    "phi",
    "random_config",
    "standard_gf",
    "step",
    "tabulated_basis",
    "telescopic",
]
