"""Explicit constants: isoperimetric coefficients, the boundary Hölder
exponent/constant pair, the gradient Lipschitz bound, and its
minimal-surface specialization.

All bound values are assembled in log space and exponentiated on demand;
the exponents grow like (1/2 + lambda)^2, so the plain values routinely
overflow while the logs stay tame.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .curves import curve_length
from .errors import DegenerateSurfaceError, DomainError, RefinementError
from .poisson import BoundaryMap, _circle_frames, _dilatations

LOG2 = math.log(2.0)
LOG4 = math.log(4.0)

_AREA_BLOCK = 1 << 16
# largest relative correction of the doubled area rule
_AREA_TOL = 1e-6
# an inequality check passes down to this negative margin
_GATE = 1e-9


@dataclass(frozen=True)
class BoundInputs:
    """Inputs of the explicit gradient bound.

    ``area`` defaults to length^2 / 4, the curve-only majorant of the
    enclosed area for the surfaces in scope (isoperimetric coefficient at
    least one).
    """

    K: float
    mu: float
    upsilon: float
    lam: float
    c_gamma: float
    length: float
    area: float | None = None

    def __post_init__(self):
        for name in ("K", "mu", "upsilon", "lam", "c_gamma", "length", "area"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise DomainError(f"bound input {name} must be finite, got {value!r}")
        if self.K < 1.0:
            raise DomainError("dilatation bound K must be at least 1")
        if not 0.0 < self.mu <= 1.0:
            raise DomainError("mu must lie in (0, 1]")
        if not 0.0 < self.upsilon <= math.pi:
            raise DomainError("isoperimetric coefficient must lie in (0, pi]")
        if self.lam < 1.0:
            raise DomainError("chord-arc constant must be at least 1")
        if self.c_gamma < 0.0:
            raise DomainError("holder constant must be nonnegative")
        if self.length <= 0.0:
            raise DomainError("length must be positive")
        if self.area is not None:
            if self.area < 0.0:
                raise DomainError("area must be nonnegative")
            if self.area > self.length**2 / 4.0 * (1.0 + 1e-9):
                raise DomainError("area exceeds its curve-only majorant length^2 / 4")

    @property
    def effective_area(self) -> float:
        return self.area if self.area is not None else self.length**2 / 4.0


@dataclass(frozen=True)
class LipschitzBound:
    alpha: float
    log_value: float
    value: float
    inputs: BoundInputs


@dataclass
class IsoperimetricReport:
    area: float
    length: float
    ratio: float
    bound: float
    margin: float
    passed: bool
    area_rule: dict  # surface_area's rule sizes and correction; empty for a given area


def isoperimetric_coefficient(surface_class: str, K: float | None = None) -> float:
    """Catalog coefficient by surface class.

    minimal -> pi; harmonic -> 1; qc_harmonic -> max(2*pi/(1+K^2), 1).
    """
    if surface_class == "minimal":
        return math.pi
    if surface_class == "harmonic":
        return 1.0
    if surface_class == "qc_harmonic":
        if K is None or K < 1.0:
            raise DomainError("qc_harmonic needs a dilatation bound K >= 1")
        return max(2.0 * math.pi / (1.0 + K * K), 1.0)
    raise DomainError(f"unknown surface class {surface_class!r}")


def mori_exponent(K: float, lam: float, upsilon: float) -> float:
    """Boundary Hölder exponent 8*upsilon / (pi*K*(1 + 2*lambda)^2).

    At most 1 for K >= 1, lambda >= 1, upsilon <= pi; ``DomainError`` when it is not positive
    in floating point (K or lambda so large that it underflows or the square overflows).
    """
    if K < 1.0 or lam < 1.0 or not 0.0 < upsilon <= math.pi:
        raise DomainError("require K >= 1, lambda >= 1, upsilon in (0, pi]")
    try:
        alpha = 8.0 * upsilon / (math.pi * K * (1.0 + 2.0 * lam) ** 2)
    except OverflowError:
        alpha = 0.0
    if not alpha > 0.0:
        raise DomainError(f"Hölder exponent is not positive in floating point at K = {K!r}, lambda = {lam!r}")
    return alpha


def mori_constant(K: float, lam: float, upsilon: float, area: float, variant: str = "statement") -> float:
    """Growth constant of the boundary Hölder estimate.

    The default carries the factor 2^alpha; ``variant="proof"`` exposes the
    smaller 2^(alpha/2) version that the derivation actually produces (the
    default is the conservative one, so inequalities verified against it
    remain valid for both readings).
    """
    if area <= 0.0:
        raise DomainError("surface area must be positive")
    alpha = mori_exponent(K, lam, upsilon)
    if variant == "statement":
        factor = 2.0**alpha
    elif variant == "proof":
        factor = 2.0 ** (alpha / 2.0)
    else:
        raise DomainError(f"unknown variant {variant!r}")
    return 4.0 * (1.0 + 2.0 * lam) * factor * math.sqrt(2.0 * math.pi * K * area / LOG2)


def lipschitz_bound(inputs: BoundInputs) -> LipschitzBound:
    """Explicit gradient bound for normalized maps onto surfaces with
    isoperimetric coefficient at least one.

    log L = log 8 + ((2-a)/(mu*a)) * log(K*C*pi*(2-a)/(2*mu*a))
          + (2/a) * log(4*(1+2*lambda)*sqrt(4*area*pi*K/log 4)),
    with a the exponent from ``mori_exponent``.  C = 0 collapses the bound
    to zero (the first factor is a positive power of C).
    """
    if inputs.upsilon < 1.0:
        raise DomainError("the gradient bound needs an isoperimetric coefficient >= 1")
    alpha = mori_exponent(inputs.K, inputs.lam, inputs.upsilon)
    if inputs.c_gamma == 0.0:
        return _exponentiated(alpha, float("-inf"), inputs)
    e1 = (2.0 - alpha) / (inputs.mu * alpha)
    b1 = inputs.K * inputs.c_gamma * math.pi * (2.0 - alpha) / (2.0 * inputs.mu * alpha)
    b2 = 4.0 * (1.0 + 2.0 * inputs.lam) * math.sqrt(4.0 * inputs.effective_area * math.pi * inputs.K / LOG4)
    log_l = math.log(8.0) + e1 * math.log(b1) + (2.0 / alpha) * math.log(b2)
    return _exponentiated(alpha, log_l, inputs)


def _exponentiated(alpha: float, log_l: float, inputs: BoundInputs) -> LipschitzBound:
    """The bound of log value ``log_l``: exp(log_l), inf where that overflows, 0 at -inf."""
    try:
        value = math.exp(log_l)
    except OverflowError:
        value = float("inf")
    return LipschitzBound(alpha=alpha, log_value=log_l, value=value, inputs=inputs)


def minimal_surface_bound(lam: float, mu: float, c_slot: float, length: float) -> LipschitzBound:
    """Gradient bound for normalized conformal parametrizations of minimal
    surfaces, in terms of the boundary curve only.

    ``c_slot`` is the derivative Hölder constant for exponent mu; at mu = 1
    the caller passes the largest curvature instead.  Matches the general
    bound at K = 1, upsilon = pi, area = length^2/(4*pi).  The inputs are
    validated as ``BoundInputs`` (``DomainError`` for lambda < 1, mu outside
    (0, 1], a negative c_slot or a nonpositive length).
    """
    inputs = BoundInputs(
        K=1.0, mu=mu, upsilon=math.pi, lam=lam, c_gamma=c_slot, length=length, area=length**2 / (4.0 * math.pi)
    )
    p = lam * (1.0 + lam) - 0.75
    alpha = 8.0 / (1.0 + 2.0 * lam) ** 2
    if c_slot == 0.0:
        return _exponentiated(alpha, float("-inf"), inputs)
    b1 = c_slot * p * math.pi / (2.0 * mu)
    b2 = 4.0 * (1.0 + 2.0 * lam) * length / math.sqrt(LOG4)
    log_l = math.log(8.0) + (p / mu) * math.log(b1) + (0.5 + lam) ** 2 * math.log(b2)
    return _exponentiated(alpha, log_l, inputs)


# ---------------------------------------------------------------------------
# surface area and the isoperimetric ratio check


def surface_area(boundary: BoundaryMap) -> tuple[float, dict]:
    """Area of the harmonic extension's image counted with multiplicity:
    the integral of the Jacobian over the disk.

    Polar rule on the full disk: Gauss-Legendre in r on [0, 1] and the
    trapezoid rule in angle.  From the series degree J the sizes are
    J + 8 radial and 4J + 16 angular nodes, which integrate the polynomial
    Jacobian of a sense-preserving planar map (degree 2J - 2) exactly.
    Each circle of the rule is one inverse FFT of the series
    (``poisson._circle_frames``), so a rule costs O(J^2 log J), not the
    O(J^3) of Horner's rule at every node.  The rule of twice the size in
    each direction gives the returned area; its difference from the first
    rule is the reported correction, and ``RefinementError`` is raised
    when it exceeds 1e-6 relative.
    """
    degree = boundary.series().degree
    n_r, n_t = degree + 8, 4 * degree + 16
    coarse = _polar_area(boundary, n_r, n_t)
    area = _polar_area(boundary, 2 * n_r, 2 * n_t)
    correction = abs(area - coarse)
    if correction > _AREA_TOL * max(1.0, abs(area)):
        raise RefinementError(f"area rule did not settle: doubled-rule correction {correction:.3e}")
    return area, {"radial_nodes": 2 * n_r, "angular_nodes": 2 * n_t, "correction": correction}


@functools.cache
def _gauss_rule(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order: the arrays are only read."""
    return np.polynomial.legendre.leggauss(order)


def _polar_area(boundary: BoundaryMap, n_r: int, n_t: int) -> float:
    x, w = _gauss_rule(n_r)
    r = 0.5 * (x + 1.0)
    # whole circles at a time, at most _AREA_BLOCK points per evaluation:
    # the grid grows like the squared series degree
    step = max(1, _AREA_BLOCK // n_t)
    total = 0.0
    for lo in range(0, n_r, step):
        rb = r[lo : lo + step]
        _, _, jac, _ = _dilatations(*_circle_frames(boundary, rb, n_t))
        total += float(np.sum(w[lo : lo + step] * rb * jac.reshape(rb.size, n_t).mean(axis=1)))
    return math.pi * total


def isoperimetric_check(boundary: BoundaryMap, upsilon: float = 1.0, area: float | None = None) -> IsoperimetricReport:
    """Ratio area / length^2 against the ceiling 1 / (4*upsilon); the check
    passes down to the margin -1e-9 (``_GATE``).  ``DegenerateSurfaceError`` when
    the curve's length is not at least 1e-12 of its scale max_k sum_j |c_jk|, the largest
    coordinate bound, or that scale is zero: relative, so a curve at any scale passes."""
    if not 0.0 < upsilon <= math.pi:
        raise DomainError("isoperimetric coefficient must lie in (0, pi]")
    if boundary.curve is None:
        raise DegenerateSurfaceError("boundary data has no curve; the length ratio is undefined")
    length = curve_length(boundary.curve)
    scale = float(np.max(np.sum(np.abs(boundary.curve.poly.complex_coeffs), axis=0)))
    if not length >= 1e-12 * scale > 0:
        raise DegenerateSurfaceError("boundary curve has no length; ratio undefined")
    if area is None:
        area_val, rule = surface_area(boundary)
    else:
        area_val, rule = float(area), {}
    ratio = area_val / length**2
    bound = 1.0 / (4.0 * upsilon)
    margin = bound - ratio
    return IsoperimetricReport(
        area=area_val,
        length=length,
        ratio=ratio,
        bound=bound,
        margin=margin,
        passed=margin >= -_GATE,
        area_rule=rule,
    )
