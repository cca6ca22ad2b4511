"""Geometric constants of smooth Jordan curves and explicit gradient
bounds for quasiconformal harmonic maps of the unit disk.

The package is organized around five layers: curve geometry
(:mod:`qcharm.curves`), harmonic extension (:mod:`qcharm.poisson`),
the chord-tangent kernel and its singular boundary integral
(:mod:`qcharm.kernels`), the explicit bound formulas
(:mod:`qcharm.bounds`), and closed-form test scenarios with a full
verification pipeline (:mod:`qcharm.scenarios`).
"""

from .bounds import (
    BoundInputs,
    IsoperimetricReport,
    LipschitzBound,
    isoperimetric_check,
    isoperimetric_coefficient,
    lipschitz_bound,
    minimal_surface_bound,
    mori_constant,
    mori_exponent,
    surface_area,
)
from .curves import (
    CurveConstants,
    JordanCurve,
    ScanResult,
    TabulatedModulus,
    TrigPolynomial,
    arc_length_reparametrize,
    build_curve,
    chord_arc_constant,
    circle,
    compute_curve_constants,
    curve_length,
    dini_modulus_table,
    ellipse,
    fourier_curve,
    holder_derivative_constant,
    max_curvature,
)
from .errors import (
    ConsistencyError,
    DegenerateSurfaceError,
    DomainError,
    InjectivityError,
    QcharmError,
    RefinementError,
    RegularityError,
)
from .kernels import (
    boundary_jacobian_bound,
    chord_tangent_kernel,
    kernel_bound_dini,
    kernel_bound_holder,
    kernel_composition_residual,
)
from .poisson import (
    AngleMap,
    BoundaryMap,
    CheckRecord,
    QuadratureSpec,
    gradient_frames,
    poisson_extend,
)
from .scenarios import (
    NormalizationWitness,
    Scenario,
    VerificationReport,
    make_scenario,
    normalization_witness,
    scenario_catalog,
    verify,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
