"""Chord-tangent kernel of a curve, its modulus-of-continuity majorants,
and the singular integral bounding the boundary Jacobian.

The kernel measures the area spanned by the chord h(t) - h(s) and the
tangent h'(s); it vanishes quadratically on the diagonal, which makes the
boundary integral integrable, and for Hölder-smooth curves it is majorized
by explicit modulus integrals.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .curves import TWO_PI, JordanCurve, TabulatedModulus, _extreme_nodes, _norms, holder_derivative_constant
from .errors import ConsistencyError, DomainError, RefinementError
from .poisson import BoundaryMap, QuadratureSpec

RADICAND_FLOOR = -1e-14
# a kernel may exceed its majorant by this much before it is inconsistent
_MAJORANT_TOL = 1e-9
# the boundary-Jacobian rule has settled when doubling its node count moves it
# by at most this much relative
_SETTLE = 1e-11
# angles are taken in chunks whose chord block (points x angles x dim) holds at most this
# many entries, so that memory does not grow with the number of angles
_CHORD_BLOCK = 1 << 15


def _cross_norm(x, y):
    """sqrt(|x|^2 |y|^2 - <x, y>^2) over the last axis, x and y broadcast together.

    The raw radicand is kept for the consistency check (tolerating only a
    relative -1e-14 dip), but the returned value uses the equivalent
    projection form |y| * |x - proj_y x|, which does not suffer from
    cancellation when x is nearly parallel to y.
    """
    x2 = np.einsum("...i,...i->...", x, x)
    y2 = np.einsum("...i,...i->...", y, y)
    xy = np.einsum("...i,...i->...", x, y)
    rad = x2 * y2 - xy**2
    floor = RADICAND_FLOOR * np.maximum(1.0, x2 * y2)
    if np.any(rad < floor):
        raise ConsistencyError(f"kernel radicand fell to {float(np.min(rad)):.3e}; inconsistent derivative data")
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(y2 > 0.0, xy / np.where(y2 > 0.0, y2, 1.0), 0.0)
    p = x - coef[..., None] * y
    return np.sqrt(y2 * np.einsum("...i,...i->...", p, p))


def chord_tangent_kernel(curve: JordanCurve, s, t):
    """Kernel value(s) at angle pair(s): area of (h(t) - h(s)) against h'(s), shaped like
    the broadcast pairs; a scalar pair gives a float."""
    shape, _, _, chord, vel = _pairs(curve, s, t)
    out = _cross_norm(chord, vel)
    return float(out[0]) if not shape else out.reshape(shape)


def _pairs(curve: JordanCurve, s, t):
    """The shape of the broadcast angle pairs, s and t flattened, and the chords h(t) - h(s)
    and velocities h'(s) there, from one ``JordanCurve.frame`` evaluation of both ends."""
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    shape, n = s.shape, s.size
    s, t = s.ravel(), t.ravel()
    pos, vel = curve.frame(np.concatenate([s, t]))
    return shape, s, t, pos[n:] - pos[:n], vel[:n]


def _chordal(s, t):
    return 2.0 * np.abs(np.sin((np.asarray(s) - np.asarray(t)) / 2.0))


def _checked_majorant(curve: JordanCurve, s, t, majorant, what: str):
    """majorant(|h(s) - h(t)|, |e^{is} - e^{it}|) at broadcast angle pairs,
    0 on the diagonal; the kernel is recomputed at every pair, from one
    ``JordanCurve.frame`` evaluation of both ends (``_pairs``), and a pair
    where it exceeds the majorant by more than 1e-9 raises ConsistencyError
    naming the worst one.  Scalar pairs give a float."""
    shape, s, t, chord, vel = _pairs(curve, s, t)
    chord_circle = _chordal(s, t)
    off = chord_circle > 0.0
    bound = np.zeros(s.size)
    bound[off] = majorant(_norms(chord[off]), chord_circle[off])
    value = _cross_norm(chord, vel)
    k = int(np.argmax(value - bound))
    if value[k] > bound[k] + _MAJORANT_TOL:
        raise ConsistencyError(f"kernel {value[k]:.6e} exceeds {what} bound {bound[k]:.6e} at ({s[k]}, {t[k]})")
    return float(bound[0]) if not shape else bound.reshape(shape)


def kernel_bound_dini(curve: JordanCurve, omega, s, t):
    """Modulus-integral majorant of the kernel at angle pairs.

    bound = (|h(s) - h(t)| / |e^{is} - e^{it}|) * integral_0^{pi |e^{is}-e^{it}|} omega
    for a ``TabulatedModulus`` omega (``dini_modulus_table``), whose piecewise-linear
    integral is exact; ``DomainError`` for anything else.  For a power modulus c x^mu
    this is ``kernel_bound_holder`` with c_h = c pi^(1 + mu) / (1 + mu).  s and t
    broadcast; the kernel value is recomputed and checked against the bound at every pair.
    """
    if not isinstance(omega, TabulatedModulus):
        raise DomainError("modulus of continuity must be a TabulatedModulus")

    def majorant(chord, circ):
        return (chord / circ) * omega.integral_to(np.pi * circ)

    return _checked_majorant(curve, s, t, majorant, "modulus")


def kernel_bound_holder(curve: JordanCurve, mu: float, s, t, c_h: float | None = None):
    """Hölder-form majorant c_h |h(s) - h(t)| |e^{is} - e^{it}|^mu at angle pairs.

    c_h = (1 / (1 + mu)) * sup |h'(x) - h'(y)| / dist(x, y)^mu is computed
    from the curve when not supplied.  s and t broadcast.  Returns (bound, c_h).
    """
    if not 0.0 < mu <= 1.0:
        raise DomainError("holder exponent mu must lie in (0, 1]")
    c_h = _holder_coefficient(curve, mu, c_h)
    return _checked_majorant(curve, s, t, lambda chord, circ: c_h * chord * circ**mu, "holder"), c_h


def _holder_coefficient(curve: JordanCurve, mu: float, c_h: float | None) -> float:
    """c_h when supplied, else (1 / (1 + mu)) sup |h'(x) - h'(y)| / dist(x, y)^mu of the curve."""
    return holder_derivative_constant(curve, mu).value / (1.0 + mu) if c_h is None else c_h


def kernel_composition_residual(curve: JordanCurve, angle_map, s, t) -> float:
    """|K_{h o e^{if}}(s, t) - |f'(s)| K_h(f(s), f(t))| for a smooth circle map f."""
    s = float(s)
    t = float(t)
    fs = float(angle_map(s))
    ft = float(angle_map(t))
    fps = float(angle_map.derivative(s))
    x = (curve.position(ft) - curve.position(fs))[None, :]
    y = (curve.velocity(fs) * fps)[None, :]
    lhs = float(_cross_norm(x, y)[0])
    rhs = abs(fps) * chord_tangent_kernel(curve, fs, ft)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# boundary Jacobian bound


@functools.cache
def _periodic_rule(n: int, mu: float):
    """Midpoint nodes x_k = -pi + (k + 1/2) 2 pi / n and weights of the product rule for the
    integral over the circle of f |2 sin(x/2)|^s, s = mu - 1, computed once per (n, mu): the
    arrays are only read.

    The weights integrate the trigonometric interpolant of f at the nodes exactly against
    the Fourier coefficients of the factor, w_0 = Gamma(1 + s) / Gamma(1 + s/2)^2 and
    w_{k+1} = w_k (k - s/2) / (k + 1 + s/2), summed at every node by one inverse FFT.  They
    are divided by the factor at the nodes, so they multiply f |2 sin(x/2)|^s itself; at
    mu = 1 they are the midpoint rule's 2 pi / n.
    """
    s = mu - 1.0
    x = -np.pi + (np.arange(n) + 0.5) * (TWO_PI / n)
    k = np.arange(n // 2)
    ratios = (k[:-1] - s / 2.0) / (k[:-1] + 1.0 + s / 2.0)
    w = math.exp(math.lgamma(1.0 + s) - 2.0 * math.lgamma(1.0 + s / 2.0)) * np.concatenate(([1.0], np.cumprod(ratios)))
    # e^{ijx_k} = (-1)^j e^{ij pi/n} e^{2 pi i jk/n}; the Nyquist term vanishes at the nodes
    weights = TWO_PI * np.fft.irfft(w * np.where(k % 2, -1.0, 1.0) * np.exp(1j * np.pi * k / n), n)
    return x, weights / np.abs(2.0 * np.sin(x / 2.0)) ** s


def boundary_jacobian_bound(
    boundary: BoundaryMap,
    tau,
    spec: QuadratureSpec = QuadratureSpec(),
    mu: float = 1.0,
    method: str = "graded",
    form: str = "kernel",
    c_h: float | None = None,
):
    """Singular integral bounding the boundary Jacobian at angle tau, a float,
    or at each angle of a 1-D array tau, an array.

    value = |f'(tau)| * integral of |P(x) ^ h'(f(tau))| / (4*pi*sin^2(x/2))
    dx, with the chord P(x) = F(tau + x) - F(tau) of the boundary series
    (``TrigPolynomial.increments``, accurate relative to |P| as x -> 0).
    ``form="holder"`` evaluates the companion majorant built from the same
    chord, |P(x)|^(1+mu), instead of the kernel.

    The default method (named "graded" for its former graded Gauss panels)
    is one periodic product-midpoint rule (``_periodic_rule``).  The
    boundary series is a trigonometric polynomial, so the kernel integrand
    is bounded and periodic, and its rule is the midpoint rule whatever mu
    is.  The Hölder form's integrand is a smooth function times
    |2 sin(x/2)|^(mu-1), and its rule integrates that factor exactly.  The
    node count doubles from the least power of two above twice the series
    degree J, up to twice ``curves._extreme_nodes(J)``; each angle keeps
    the first value that moved by at most 1e-11 relative from the count
    before, and ``RefinementError`` names the first angle that does not
    settle.  The "majorant" method instead replaces the inner piece by its
    closed-form Hölder majorant, giving a slightly larger, conservative
    value from the sampled extremes ``JordanCurve.speed_range`` and
    ``AngleMap.derivative_range``; ``spec.m`` sizes its trapezoid rule only.

    Every angle shares the quadrature nodes, one power table of them and
    the curve-wide constants.
    """
    if not 0.0 < mu <= 1.0:
        raise DomainError("holder exponent mu must lie in (0, 1]")
    if method not in ("graded", "majorant"):
        raise DomainError(f"unknown method {method!r}")
    if form not in ("kernel", "holder"):
        raise DomainError(f"unknown form {form!r}")
    taus = np.asarray(tau, dtype=float)
    if taus.ndim > 1:
        raise DomainError(f"tau must be a scalar or a 1-D array, not of shape {taus.shape}")
    if boundary.curve is None:
        raise DomainError("boundary-Jacobian bound needs a curve-backed boundary map")
    curve = boundary.curve
    fmap = boundary.angle_map
    at = np.atleast_1d(taus)
    fp_tau = np.abs(fmap.derivative(at))
    vel_tau = curve.velocity(fmap(at))
    series = boundary.series()
    if form == "holder" or method == "majorant":
        c_h = _holder_coefficient(curve, mu, c_h)
        holder_const = c_h / curve.speed_range[0]

    def integrand(x, rows):
        """Integrand at the points x for the angles at[rows], one contiguous row per angle, so
        that each sum runs as it does in one dimension."""
        p = series.increments(at[rows])(x)
        denom = 4.0 * np.pi * np.sin(x / 2.0) ** 2
        if form == "kernel":
            vals = _cross_norm(p, vel_tau[rows]) / denom[:, None]
        else:
            vals = _norms(p) ** (1.0 + mu) * (holder_const / denom)[:, None]
        return np.ascontiguousarray(vals.T)

    def in_chunks(points: int, rows, rule):
        """rule(chunk) over chunks of the angles at[rows] whose chord block (points x angles x
        dim) holds at most _CHORD_BLOCK entries; one value per angle."""
        step = max(1, _CHORD_BLOCK // (points * curve.dim))
        return np.concatenate([rule(rows[lo : lo + step]) for lo in range(0, rows.size, step)])

    if method == "majorant":
        eps = TWO_PI / spec.m
        t_out = np.linspace(eps, TWO_PI - eps, spec.m + 1)
        h = (TWO_PI - 2.0 * eps) / spec.m

        def trapezoid(rows):
            vals = integrand(t_out, rows)
            return h * (np.sum(vals, axis=1) - 0.5 * (vals[:, 0] + vals[:, -1]))

        outer = in_chunks(t_out.size, np.arange(at.size), trapezoid)
        max_speed = curve.speed_range[1]
        sup_fp = fmap.derivative_range[1]
        if form == "kernel":
            coef = (np.pi / 4.0) * c_h * max_speed * sup_fp ** (1.0 + mu)
        else:
            coef = (np.pi / 4.0) * holder_const * (max_speed * sup_fp) ** (1.0 + mu)
        inner = coef * (2.0 / mu) * eps**mu
        return _shaped(taus, fp_tau * (outer + inner))

    def periodic(n: int, rows):
        # the kernel form's integrand carries no singular factor: the rule of mu = 1
        x, w = _periodic_rule(n, mu if form == "holder" else 1.0)
        return in_chunks(n, rows, lambda chunk: np.sum(w * integrand(x, chunk), axis=1))

    # more than 2J nodes integrate exactly the mu = 1 Hölder integrand, of degree 2J - 1, and the
    # planar kernel integrand |Q| / (2 pi), Q = (P ^ F') / (1 - cos x) of degree J - 1, where Q keeps one sign
    n, cap = max(32, 1 << (2 * series.degree).bit_length()), 2 * _extreme_nodes(series.degree)
    values = np.empty(at.size)
    live = np.arange(at.size)
    prev = periodic(n, live)
    while live.size:
        if 2 * n > cap:
            raise RefinementError(
                f"boundary integral at tau={float(at[live[0]])!r}, mu={mu!r} did not settle:"
                f" {n // 2} and {n} nodes gave {float(last[0])!r} and {float(prev[0])!r}"
            )
        n *= 2
        cur = periodic(n, live)
        settled = np.abs(cur - prev) <= _SETTLE * (1.0 + np.abs(cur))
        values[live[settled]] = cur[settled]
        live, prev, last = live[~settled], cur[~settled], prev[~settled]
    return _shaped(taus, fp_tau * values)


def _shaped(taus, values):
    """A float for a scalar tau, else the array of values."""
    return float(values[0]) if taus.ndim == 0 else values
