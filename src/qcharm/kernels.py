"""Chord-tangent kernel of a curve, its modulus-of-continuity majorants,
and the singular integral bounding the boundary Jacobian.

The kernel measures the area spanned by the chord h(t) - h(s) and the
tangent h'(s); it vanishes quadratically on the diagonal, which makes the
boundary integral integrable, and for Hölder-smooth curves it is majorized
by explicit modulus integrals.
"""

from __future__ import annotations

import functools

import numpy as np

from .curves import TWO_PI, JordanCurve, _norms, _require_modulus, holder_derivative_constant
from .errors import ConsistencyError, DomainError, RefinementError
from .poisson import BoundaryMap, QuadratureSpec

RADICAND_FLOOR = -1e-14
# a kernel may exceed its majorant by this much before it is inconsistent
_MAJORANT_TOL = 1e-9
# the boundary-Jacobian rule has settled when doubling its order moves it
# by at most this much relative
_SETTLE = 1e-11
# Gauss orders per panel of the graded rule, lowest first
_ORDERS = (16, 32, 64, 128)
# graded nodes x = sigma^(1/mu) below this are evaluated at it: x underflows at mu <= 0.02,
# and here the Hölder form's bounded factors |P(x)|/|x| and |x|/(2 sin(|x|/2)) already
# equal their limits |F'(tau)| and 1 to double precision
_TINY = 1e-100
# angles are taken in chunks whose chord block (points x angles x dim) holds at most this
# many entries: the 32 angles of verify then peak at the memory of one angle at a time
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
    for a ``TabulatedModulus`` or ``PowerModulus`` omega (``DomainError`` for
    anything else).  s and t broadcast; the kernel value is recomputed and
    checked against the bound at every pair.
    """
    _require_modulus(omega)

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
def _gauss_rule(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order for every
    caller (the graded rule here, the area rule of ``bounds``): the arrays are only read."""
    return np.polynomial.legendre.leggauss(order)


def _gauss_panels(edges, order: int):
    """Gauss-Legendre rule of the given order on each panel between consecutive edges."""
    nodes, weights = _gauss_rule(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return x, w


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
    The boundary series is a trigonometric polynomial, so the kernel
    integrand is bounded at x = 0 whatever mu is, and its rule does not
    read mu.  The Hölder form's integrand grows like |x|^(mu-1) near 0, so
    its inner piece is computed after the substitution x = sigma^(1/mu)
    which makes it bounded ("graded").  The "majorant" method
    instead replaces the inner piece by its closed-form Hölder majorant,
    giving a slightly larger, conservative value from the sampled extremes
    ``JordanCurve.speed_range`` and ``AngleMap.derivative_range``.

    ``form="holder"`` evaluates the companion majorant built from the same
    chord, |P(x)|^(1+mu), instead of the kernel.

    Every angle shares the quadrature nodes, one power table of them and
    the curve-wide constants.  The graded rule runs at Gauss orders 16, 32,
    64 and 128 per panel over the angles not yet settled, and each angle
    keeps the first value that moved by at most 1e-11 relative from the
    order before; ``RefinementError`` names the first angle that does not
    settle.  ``spec.m`` sizes the trapezoid rule of the majorant method only.
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

    def integrand(x, rows, graded: int):
        """Integrand at the points x for the angles at[rows], one contiguous row per angle; at
        the first ``graded`` points, times dx/dsigma of the grading substitution."""
        p = series.increments(at[rows])(x)
        if form == "kernel":  # graded by 1: dx/dsigma = 1
            vals = _cross_norm(p, vel_tau[rows]) / (4.0 * np.pi * np.sin(x / 2.0) ** 2)[:, None]
        else:
            norm = _norms(p)
            # on graded points the integrand times dx/dsigma = |x|^(1-mu) / mu is
            # (|P|/|x|)^(1+mu) (|x| / (2 sin(|x|/2)))^2 / (pi mu), whose factors stay bounded
            ax = np.abs(x[:graded])
            folded = (holder_const / (np.pi * mu)) * (ax / (2.0 * np.sin(ax / 2.0))) ** 2
            scale = np.concatenate((folded, holder_const / (4.0 * np.pi * np.sin(x[graded:] / 2.0) ** 2)))
            norm[:graded] /= ax[:, None]
            vals = norm ** (1.0 + mu) * scale[:, None]
        return np.ascontiguousarray(vals.T)

    def in_chunks(points: int, rule):
        """rule(rows) over chunks of angles whose chord block (points x angles x dim) holds at
        most _CHORD_BLOCK entries; one value per angle."""
        step = max(1, _CHORD_BLOCK // (points * curve.dim))
        return np.concatenate([rule(np.arange(lo, min(lo + step, at.size))) for lo in range(0, at.size, step)])

    if method == "majorant":
        eps = TWO_PI / spec.m
        t_out = np.linspace(eps, TWO_PI - eps, spec.m + 1)
        h = (TWO_PI - 2.0 * eps) / spec.m

        def trapezoid(rows):
            vals = integrand(t_out, rows, 0)
            return h * (np.sum(vals, axis=1) - 0.5 * (vals[:, 0] + vals[:, -1]))

        outer = in_chunks(t_out.size, trapezoid)
        max_speed = curve.speed_range[1]
        sup_fp = fmap.derivative_range[1]
        if form == "kernel":
            coef = (np.pi / 4.0) * c_h * max_speed * sup_fp ** (1.0 + mu)
        else:
            coef = (np.pi / 4.0) * holder_const * (max_speed * sup_fp) ** (1.0 + mu)
        inner = coef * (2.0 / mu) * eps**mu
        return _shaped(taus, fp_tau * (outer + inner))

    eps = 0.25
    # only the Hölder form's integrand grows like |x|^(mu-1); the kernel form's is bounded
    grade = mu if form == "holder" else 1.0
    inner_edges = np.linspace(0.0, eps**grade, 5)
    # outer panels double in width away from the singular point
    outer_edges = np.append(eps * 2.0 ** np.arange(4), np.pi)

    def evaluate(order: int, rows):
        # inner piece through the grading substitution x = sigma^(1/grade)
        sigma, w_in = _gauss_panels(inner_edges, order)
        x_in = np.maximum(sigma ** (1.0 / grade), _TINY)
        x_out, w_out = _gauss_panels(outer_edges, order)
        # both sides of both pieces in one call, each angle one contiguous row, so that
        # each sum runs as it does in one dimension
        n = x_in.size
        x = np.concatenate((x_in, -x_in, x_out, -x_out))
        vals = integrand(x, rows, 2 * n)
        inner = np.sum(w_in * (vals[:, :n] + vals[:, n : 2 * n]), axis=1)
        outer = np.sum(w_out * (vals[:, 2 * n : 3 * n] + vals[:, 3 * n :]), axis=1)
        return inner + outer

    def ladder(rows):
        values = np.empty(rows.size)
        live = np.arange(rows.size)
        prev = evaluate(_ORDERS[0], rows)
        for order in _ORDERS[1:]:
            cur = evaluate(order, rows[live])
            settled = np.abs(cur - prev) <= _SETTLE * (1.0 + np.abs(cur))
            values[live[settled]] = cur[settled]
            live, prev, last = live[~settled], cur[~settled], prev[~settled]
            if not live.size:
                return values
        raise RefinementError(
            f"boundary integral at tau={float(at[rows[live[0]]])!r}, mu={mu!r} did not settle:"
            f" Gauss orders {_ORDERS[-2]} and {_ORDERS[-1]} gave {float(last[0])!r} and {float(prev[0])!r}"
        )

    points = 2 * (inner_edges.size + outer_edges.size - 2) * _ORDERS[-1]
    return _shaped(taus, fp_tau * in_chunks(points, ladder))


def _shaped(taus, values):
    """A float for a scalar tau, else the array of values."""
    return float(values[0]) if taus.ndim == 0 else values
