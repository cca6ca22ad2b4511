"""Closed-form harmonic test maps with known constants, and the
end-to-end verification pipeline that checks every implemented inequality
on them.

The planar maps are given as f = h + conj(g) by the Taylor coefficients of
h and g (``_planar``); ``make_scenario`` holds every parameter default.

Catalog
-------
(parameter defaults in brackets)
identity            h = z
affine(c)           h = z, g = conj(c) z, |c| < 1 [c = 0.2]
conformal_poly(e,m) h = z + e z^m / m, |e m| < 1 [e = 0.3, m = 2]
harmonic_graph(e,m) (x, y, e Re z^m) into R^3: the identity's boundary and
                    the height e cos(mt), |e m| < 1 [e = 0.3, m = 2]
fourier(...)        arbitrary trigonometric boundary data, numeric only
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor  # read by bench/tracing.py; ROADMAP item 8 deletes it
from dataclasses import dataclass

import numpy as np

from .bounds import (
    _GATE,
    BoundInputs,
    LipschitzBound,
    isoperimetric_check,
    isoperimetric_coefficient,
    lipschitz_bound,
    mori_constant,
    mori_exponent,
    surface_area,
)
from .curves import (
    TWO_PI,
    CurveConstants,
    TrigPolynomial,
    _MAX_FIT,
    _extreme_nodes,
    _norms,
    build_curve,
    compute_curve_constants,
    fourier_curve,
)
from .errors import DomainError, RefinementError
from .kernels import _chordal, boundary_jacobian_bound
from .poisson import (
    BoundaryMap,
    CheckRecord,
    _circle_frames,
    _dilatations,
    gradient_frames,
    poisson_extend,
)

# R2 low-discrepancy sequence constants (plastic-number based)
_LD_A1 = 0.7548776662466927
_LD_A2 = 0.5698402909980532

# fixed sample sizes of the verification stages
_GRID_RADII = 32  # polar grid of the quasiconformality check
_GRID_ANGLES = 32
_GRID_RMAX = 0.9  # outer radius of that grid and of the interior pairs
_BOUNDARY_PAIRS = 10_000  # boundary Hölder pairs, of which
_NEAR_DIAGONAL_PAIRS = 1_000  # these are near the diagonal
_INTERIOR_PAIRS = 10_000  # displacement pairs
_JACOBIAN_TAUS = 32  # angles of the boundary-Jacobian bound


@dataclass
class NormalizationWitness:
    """Three boundary preimages whose images cut the curve into equal arcs."""

    preimage_angles: np.ndarray
    target_points: np.ndarray
    arc_lengths: np.ndarray


@dataclass
class Scenario:
    """A boundary map and the numbers known about its extension: plain data, no callables.
    The ``*_exact`` fields are closed-form scalars of the catalog maps (None for ``fourier``
    input), reported beside the estimates and read by no check; the rest comes from ``boundary``."""

    name: str
    params: dict
    boundary: BoundaryMap
    surface_class: str
    k_exact: float | None = None
    sup_grad_exact: float | None = None
    normalization: NormalizationWitness | None = None


@dataclass
class VerificationReport:
    scenario: str
    params: dict
    constants: CurveConstants
    length: float
    area: float
    area_rule: dict
    k_exact: float | None
    k_estimate: float
    sup_grad_extrapolated: float  # sup |grad u| on |z| = 1, named as its report key
    sup_grad_exact: float | None
    upsilon: float
    alpha: float
    mori_growth: float
    bound: LipschitzBound
    checks: list
    worst_margin: float
    all_passed: bool
    series_degree: int
    series_tail: float


def worker_count() -> int:
    """1: ``verify`` runs its stages in order in one thread.  Read by bench/run.py; ROADMAP
    item 8 deletes it."""
    return 1


# ---------------------------------------------------------------------------
# catalog


def _order(m, what: str) -> int:
    """m as a positive integer order, checked before it is converted or anything is allocated:
    ``DomainError`` for a fraction, NaN, an infinity, anything not a real number, or an order
    above _MAX_FIT // 4, the largest degree any fit of the program resolves."""
    if not (isinstance(m, numbers.Real) and math.isfinite(m) and m >= 1 and m == int(m)):
        raise DomainError(f"{what} order must be a positive integer, got {m!r}")
    if m > _MAX_FIT // 4:
        raise DomainError(f"{what} order {m!r} exceeds {_MAX_FIT // 4}, the largest resolvable degree")
    return int(m)


def _planar(h, g) -> TrigPolynomial:
    """The boundary values of the harmonic map f = h + conj(g) of the disk, from the Taylor
    coefficients h_j and g_j (j = 0, 1, ...): h_j e^{ijt} has cosine coefficients (Re, Im) h_j and
    sine coefficients (-Im, Re) h_j; conj(g_j e^{ijt}) has (Re, -Im) g_j and (-Im, -Re) g_j."""
    h, g = (np.asarray(c, dtype=complex) for c in (h, g))
    cos_c = np.zeros((max(h.size, g.size), 2))
    sin_c = np.zeros_like(cos_c)
    cos_c[: h.size] += np.stack([h.real, h.imag], axis=1)
    sin_c[: h.size] += np.stack([-h.imag, h.real], axis=1)
    cos_c[: g.size] += np.stack([g.real, -g.imag], axis=1)
    sin_c[: g.size] += np.stack([-g.imag, -g.real], axis=1)
    return TrigPolynomial(cos_c, sin_c)


def make_scenario(name: str, **params) -> Scenario:
    """Build a catalog scenario; see the module docstring for the list.  Every parameter
    default of the catalog lives here."""
    surface_class, k_exact, sup_grad_exact = "qc_harmonic", None, None
    if name == "identity":
        poly, params = _planar([0.0, 1.0], []), {}
        surface_class, k_exact, sup_grad_exact = "minimal", 1.0, 1.0
    elif name == "affine":
        c = complex(params.get("c", 0.2))
        if abs(c) >= 1.0:
            raise DomainError("affine coefficient must satisfy |c| < 1")
        poly, params = _planar([0.0, 1.0], [0.0, c.conjugate()]), {"c": c.real if c.imag == 0 else c}
        k_exact, sup_grad_exact = (1.0 + abs(c)) / (1.0 - abs(c)), 1.0 + abs(c)
    elif name == "conformal_poly":
        eps = complex(params.get("eps", 0.3))
        order = _order(params.get("m", 2), "polynomial")
        if abs(eps) * order >= 1.0:
            raise DomainError("require |eps * m| < 1 for an embedded image curve")
        h = np.zeros(order + 1, dtype=complex)
        h[1] = 1.0
        h[order] += eps / order
        poly, params = _planar(h, []), {"eps": eps.real if eps.imag == 0 else eps, "m": order}
        surface_class, k_exact, sup_grad_exact = "minimal", 1.0, 1.0 + abs(eps)
    elif name == "harmonic_graph":
        eps = float(params.get("eps", 0.3))
        order = _order(params.get("m", 2), "graph")
        if abs(eps) * order >= 1.0:
            raise DomainError("require |eps * m| < 1 for a mild graph scenario")
        # the identity's planar boundary, padded to degree m, and the height eps cos(mt)
        disk = _planar(np.arange(order + 1) == 1, [])
        height = np.zeros((order + 1, 1))
        height[order] = eps
        poly = TrigPolynomial(np.hstack([disk.cos_coeffs, height]), np.hstack([disk.sin_coeffs, np.zeros_like(height)]))
        params = {"eps": eps, "m": order}
        k_exact = sup_grad_exact = math.sqrt(1.0 + (abs(eps) * order) ** 2)
    elif name == "fourier":
        cos_c = np.asarray(params["cos_coeffs"], dtype=float)
        sin_c = np.asarray(params["sin_coeffs"], dtype=float)
        poly, params = fourier_curve(cos_c, sin_c), {"cos_coeffs": cos_c.tolist(), "sin_coeffs": sin_c.tolist()}
    else:
        raise DomainError(f"unknown scenario {name!r}")

    boundary = BoundaryMap(build_curve(poly))
    return Scenario(
        name=name,
        params=params,
        boundary=boundary,
        surface_class=surface_class,
        k_exact=k_exact,
        sup_grad_exact=sup_grad_exact,
        normalization=normalization_witness(boundary),
    )


def scenario_catalog() -> list[dict]:
    """Names, parameters and exact fields of the built-in scenarios."""
    return [
        {"name": "identity", "params": {}, "exact": ["K", "sup_grad"]},
        {"name": "affine", "params": {"c": "complex, |c| < 1"}, "exact": ["K", "sup_grad"]},
        {
            "name": "conformal_poly",
            "params": {"eps": "complex, |eps*m| < 1", "m": "integer >= 1"},
            "exact": ["K", "sup_grad"],
        },
        {
            "name": "harmonic_graph",
            "params": {"eps": "real, |eps*m| < 1", "m": "integer >= 1"},
            "exact": ["K", "sup_grad"],
        },
        {"name": "fourier", "params": {"cos_coeffs": "(J+1, n) array", "sin_coeffs": "(J+1, n) array"}, "exact": []},
    ]


def normalization_witness(boundary: BoundaryMap) -> NormalizationWitness:
    """Preimages of three points cutting the image curve into equal arcs.

    Anchored at parameter 0; the other two preimages invert the cumulative
    length of the boundary series through its length table, the one the
    curve constants read when the series is the curve's own polynomial.
    """
    table = boundary.series()._length
    t, (cum, *_) = table.invert(table.length * np.array([1.0, 2.0]) / 3.0)
    angles = np.concatenate([[0.0], t])
    arc = np.diff(np.concatenate([[0.0], cum, [table.length]]))
    return NormalizationWitness(preimage_angles=angles, target_points=boundary.values(angles), arc_lengths=arc)


# ---------------------------------------------------------------------------
# verification pipeline


def _low_discrepancy(n: int, offset: int = 0):
    """Fractional parts of k a1 and k a2, k = offset + 1 .. offset + n: x - floor(x) is
    ``np.mod(x, 1.0)`` to the bit for x >= 0, at a fraction of its cost."""
    k = np.arange(offset + 1, offset + n + 1)
    x1, x2 = k * _LD_A1, k * _LD_A2
    return x1 - np.floor(x1), x2 - np.floor(x2)


def _boundary_pair_angles(n_pairs: int, n_near: int):
    u1, u2 = _low_discrepancy(n_pairs - n_near)
    t1 = TWO_PI * u1
    t2 = TWO_PI * u2
    u3, u4 = _low_discrepancy(n_near, offset=77_777)
    base = TWO_PI * u3
    gaps = np.logspace(-8, -2, n_near) * (1.0 + u4)
    return np.concatenate([t1, base]), np.concatenate([t2, base + gaps])


def _interior_points(n: int, r_max: float, offset: int = 0):
    u1, u2 = _low_discrepancy(n, offset)
    return np.sqrt(u1) * r_max * np.exp(1j * TWO_PI * u2)


def verify(scenario: Scenario, mu: float = 1.0) -> VerificationReport:
    """Run the full inequality suite on one scenario with Hölder exponent mu.

    Stages, in order and in one thread: (1) curve constants; (2)
    gradient/dilatation sups, evaluated on the unit circle from the boundary
    series; (3) quasiconformality on a polar grid; (4) boundary Hölder
    estimate on sampled pairs; (5) boundary Jacobian bound at sampled
    angles, the Jacobian read from the series frames at e^{i tau}; (6)
    isoperimetric ratio; (7) gradient and displacement bounds.  The K of
    stage (2) feeds every later stage, for catalog and ``fourier`` input alike.
    Inequality violations are recorded, not raised; an inequality check
    passes down to the margin -1e-9 (``_GATE``).  The curve constants are
    computed once, on the boundary's curve: ``DomainError`` when the
    boundary has none (``BoundaryMap.from_values``), and ``RefinementError``
    when any constant does not converge.
    """
    checks: list[CheckRecord] = []
    boundary = scenario.boundary
    if boundary.curve is None:
        raise DomainError("verify needs boundary data with a curve; BoundaryMap.from_values has none")

    # (1) curve constants
    constants = compute_curve_constants(boundary.curve, mu=mu)
    if not constants.all_converged():
        raise RefinementError(f"curve constants did not converge: {constants.converged}")
    length = constants.length

    # area is shared by stages (4) and (6)
    area, area_rule = surface_area(boundary)

    # (2) gradient and dilatation sups
    sup_grad, k_boundary = _gradient_sups(boundary)
    k_estimate = max(k_boundary, 1.0)

    # constants of stages (4), (6) and (7): an input they reject raises before stage (3) runs
    upsilon = isoperimetric_coefficient(scenario.surface_class, K=k_estimate)
    alpha = mori_exponent(k_estimate, constants.chord_arc, upsilon)
    growth = mori_constant(k_estimate, constants.chord_arc, upsilon, area)
    bound = lipschitz_bound(
        BoundInputs(
            K=k_estimate,
            mu=mu,
            upsilon=upsilon,
            lam=constants.chord_arc,
            # the unit tangent's constant in true arc length (length^-mu), as the theorem states it
            c_gamma=constants.holder_constant / (length / TWO_PI) ** (1.0 + mu),
            length=length,
        )
    )

    # (3) quasiconformality on a polar grid
    radii = np.linspace(_GRID_RMAX / _GRID_RADII, _GRID_RMAX, _GRID_RADII)
    angles = TWO_PI * np.arange(_GRID_ANGLES) / _GRID_ANGLES
    grid = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    _, _, jac, hs2 = _dilatations(*gradient_frames(boundary, grid))
    # hs^2 <= (K + 1/K)/2 J is sigma_1/sigma_2 <= K; it implies |u_t|^2 <= r^2 sigma_1^2 <= r^2 K J
    checks.append(_worst_record("quasiconformality", hs2, 0.5 * (k_estimate + 1.0 / k_estimate) * jac))

    # (4) boundary Hölder estimate
    t1, t2 = _boundary_pair_angles(_BOUNDARY_PAIRS, _NEAR_DIAGONAL_PAIRS)
    lhs = _norms(boundary.values(t1) - boundary.values(t2))
    checks.append(_worst_record("boundary_holder", lhs, growth * _chordal(t1, t2) ** alpha))

    # (5) boundary Jacobian
    taus = TWO_PI * np.arange(_JACOBIAN_TAUS) / _JACOBIAN_TAUS
    _, _, jac, _ = _dilatations(*gradient_frames(boundary, np.exp(1j * taus)))
    checks.append(_worst_record("boundary_jacobian", jac, boundary_jacobian_bound(boundary, taus, mu=mu)))

    # (6) isoperimetric ratio
    rep = isoperimetric_check(boundary, upsilon=upsilon, area=area)
    checks.append(_worst_record("isoperimetric", np.array([rep.ratio]), np.array([rep.bound])))

    # (7) gradient and displacement bounds
    checks.append(_worst_record("gradient_bound", np.array([sup_grad]), np.array([bound.value])))
    z1 = _interior_points(_INTERIOR_PAIRS, _GRID_RMAX)
    z2 = _interior_points(_INTERIOR_PAIRS, _GRID_RMAX, offset=314_159)
    lhs = _norms(poisson_extend(boundary, z1) - poisson_extend(boundary, z2))
    checks.append(_worst_record("displacement_bound", lhs, k_estimate * bound.value * np.abs(z1 - z2)))

    worst_margin = min(rec.margin for rec in checks)
    return VerificationReport(
        scenario=scenario.name,
        params=scenario.params,
        constants=constants,
        length=length,
        area=area,
        area_rule=area_rule,
        k_exact=scenario.k_exact,
        k_estimate=k_estimate,
        sup_grad_extrapolated=sup_grad,
        sup_grad_exact=scenario.sup_grad_exact,
        upsilon=upsilon,
        alpha=alpha,
        mori_growth=growth,
        bound=bound,
        checks=checks,
        worst_margin=worst_margin,
        all_passed=all(rec.passed for rec in checks),
        series_degree=boundary.series().degree,
        series_tail=boundary.series_tail,
    )


def _worst_record(name: str, lhs, rhs) -> CheckRecord:
    """The check lhs <= rhs over all samples, reported at the first sample whose
    margin rhs - lhs is within 1e-9 (``_GATE``) of the smallest, so roundoff ties
    do not pick it; it passes when every margin is at least -1e-9."""
    margins = rhs - lhs
    worst = int(np.argmax(margins <= np.min(margins) + _GATE))
    return CheckRecord(
        name=name,
        lhs=float(lhs[worst]),
        rhs=float(rhs[worst]),
        margin=float(margins[worst]),
        passed=bool(np.all(margins >= -_GATE)),
    )


def _gradient_sups(boundary: BoundaryMap):
    """Sups of |grad u| and of the dilatation over the unit circle: maxima of the series
    frames on the ``curves._extreme_nodes`` grid of the series degree, by one inverse FFT.

    The operator norm of a harmonic gradient is subharmonic, so its disk
    supremum lies on the circle; the dilatation is taken there as well.
    """
    op, mn, _, _ = _dilatations(*_circle_frames(boundary, [1.0], _extreme_nodes(boundary.series().degree)))
    with np.errstate(divide="ignore", invalid="ignore"):
        dil = np.where(mn > 0, op / mn, np.inf)
    return float(np.max(op)), float(np.max(dil))

