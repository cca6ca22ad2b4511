"""Standalone reference computations used to pin expected test values.

This module must stay independent of qcharm: it imports only numpy/scipy
and evaluates every reference quantity by brute force (dense scans,
adaptive quadrature) or by direct arithmetic on the closed-form bound
expressions.  Run it directly to print the frozen table:

    python tests/oracles.py
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# curve geometry oracles (brute force)


def ellipse_perimeter(a: float, b: float) -> float:
    """Adaptive quadrature of the elliptic arc-length integrand."""
    val, _ = quad(lambda t: math.hypot(a * math.sin(t), b * math.cos(t)), 0.0, TWO_PI, epsabs=1e-13, epsrel=1e-13, limit=400)
    return val


def ellipse_chord_arc_dense(a: float, b: float, m: int = 4096) -> float:
    """Exhaustive pair search for the chord-arc constant of an ellipse.

    Works on the arc-length parametrization obtained by inverting the
    cumulative length on a very fine grid.
    """
    fine = 1 << 16
    t = TWO_PI * np.arange(fine + 1) / fine
    speed = np.hypot(a * np.sin(t), b * np.cos(t))
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * np.diff(t))))
    total = cum[-1]
    targets = total * np.arange(m) / m
    ts = np.interp(targets, cum, t)
    pts = np.stack([a * np.cos(ts), b * np.sin(ts)], axis=1)

    best = 1.0
    arcs = total * np.minimum(np.arange(m), m - np.arange(m)) / m
    for i in range(m):
        chord = np.linalg.norm(pts - pts[i], axis=1)
        lag = np.minimum((np.arange(m) - i) % m, (i - np.arange(m)) % m)
        arc = total * lag / m
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(chord > 0, arc / chord, 0.0)
        best = max(best, float(np.max(r)))
    return best


def circle_holder_half_dense() -> float:
    """1-D scan of 2 sin(d/2) / sqrt(d) over d in (0, pi] plus golden polish."""
    d = np.linspace(1e-9, math.pi, 2_000_001)
    f = 2.0 * np.sin(d / 2.0) / np.sqrt(d)
    k = int(np.argmax(f))
    lo, hi = d[max(k - 1, 0)], d[min(k + 1, d.size - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    g = lambda x: 2.0 * math.sin(x / 2.0) / math.sqrt(x)
    x1, x2 = hi - phi * (hi - lo), lo + phi * (hi - lo)
    f1, f2 = g(x1), g(x2)
    for _ in range(200):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + phi * (hi - lo)
            f2 = g(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - phi * (hi - lo)
            f1 = g(x1)
    return max(f1, f2)


def _trig_derivative(cos_coeffs, sin_coeffs, t, order: int):
    """order-th derivative of sum_j A_j cos(jt) + B_j sin(jt) at t, one row per t."""
    a = np.atleast_2d(np.asarray(cos_coeffs, dtype=float))
    b = np.atleast_2d(np.asarray(sin_coeffs, dtype=float))
    j = np.arange(a.shape[0])
    phase = np.outer(t, j) + order * math.pi / 2.0
    return (j**order * np.cos(phase)) @ a + (j**order * np.sin(phase)) @ b


def disk_extension(cos_coeffs, sin_coeffs, z):
    """u = Re f, ux = Re f' and uy = -Im f' of f(z) = sum_j c_j z^j, c_j = A_j - i B_j (the
    imaginary part of c_0 dropped), one row per z, summed term by term with
    z^j = |z|^j e^{ij arg z}."""
    a = np.atleast_2d(np.asarray(cos_coeffs, dtype=float))
    b = np.atleast_2d(np.asarray(sin_coeffs, dtype=float))
    c = a - 1j * b
    c[0] = a[0]
    j = np.arange(a.shape[0])
    r, th = np.abs(z), np.angle(z)
    f = (r[:, None] ** j * np.exp(1j * np.outer(th, j))) @ c
    k = j[1:] - 1
    df = (r[:, None] ** k * np.exp(1j * np.outer(th, k))) @ (j[1:, None] * c[1:])
    return f.real, df.real, -df.imag


def trig_increment(cos_coeffs, sin_coeffs, t0: float, x):
    """p(t0 + x) - p(t0) of sum_j A_j cos(jt) + B_j sin(jt), one row per x, summed
    term by term as Re sum_j c_j e^{ij t0} 2i sin(jx/2) e^{ijx/2}, c_j = A_j - i B_j."""
    a = np.atleast_2d(np.asarray(cos_coeffs, dtype=float))
    b = np.atleast_2d(np.asarray(sin_coeffs, dtype=float))
    j = np.arange(a.shape[0])
    c = (a - 1j * b) * np.exp(1j * j * t0)[:, None]
    half = np.outer(np.atleast_1d(x), j) / 2.0
    return (2j * np.sin(half) * np.exp(1j * half) @ c).real


def periodic_antiderivative(samples):
    """t -> integral_0^t g of the periodic g through uniform samples, from its FFT
    interpolant integrated harmonic by harmonic and summed term by term at each t."""
    g = np.asarray(samples, dtype=float)
    m = g.size
    c = np.fft.rfft(g) / m
    a, b = 2.0 * c.real, -2.0 * c.imag
    if m % 2 == 0:
        a[-1], b[-1] = c[-1].real, 0.0  # the Nyquist term carries weight 1
    j = np.arange(1, c.size)

    def integral(t):
        jt = np.multiply.outer(np.asarray(t, dtype=float), j)
        return c[0].real * np.asarray(t) + (np.sin(jt) @ (a[1:] / j) + (1.0 - np.cos(jt)) @ (b[1:] / j))

    return integral


def lag_scan_lower_bound(cos_coeffs, sin_coeffs, mu: float, n: int = 512) -> dict:
    """Brute-force lower bounds for the constants of a trigonometric curve.

    Scores every pair of n uniform parameter nodes (each lag k = 1..n-1,
    by shifting the node values): the chord-arc ratio, and the Hölder
    quotient (L/2pi)^(1+mu) |T_i - T_j| / arc^mu of the unit tangent T,
    with arc lengths accumulated by a 16-point Gauss-Legendre rule per node
    interval.  At mu = 1 the curvature times (L/2pi)^2 at the nodes joins
    the Hölder value.  ``velocity_holder`` is the Hölder quotient of the
    velocity in the curve's own parameter, |v_i - v_j| / dist^mu, joined
    at mu = 1 by |acceleration| at the nodes.  Every scored value is the
    true quotient at some pair, so each maximum is at most the supremum.
    """
    t = TWO_PI * np.arange(n) / n
    h = TWO_PI / n
    x, w = np.polynomial.legendre.leggauss(16)
    tq = (t[:, None] + 0.5 * h * (x + 1.0)[None, :]).ravel()
    speed = np.linalg.norm(_trig_derivative(cos_coeffs, sin_coeffs, tq, 1), axis=1)
    seg = 0.5 * h * (speed.reshape(n, 16) @ w)
    length = float(np.sum(seg))
    cum = np.concatenate(([0.0], np.cumsum(seg)[:-1]))
    pos = _trig_derivative(cos_coeffs, sin_coeffs, t, 0)
    vel = _trig_derivative(cos_coeffs, sin_coeffs, t, 1)
    acc = _trig_derivative(cos_coeffs, sin_coeffs, t, 2)
    speed_n = np.linalg.norm(vel, axis=1)
    tangent = vel / speed_n[:, None]
    chord_arc = 1.0
    turn = 0.0
    velocity_holder = 0.0
    for k in range(1, n):
        forward = (np.roll(cum, -k) - cum) % length
        arc = np.minimum(forward, length - forward)
        chord_arc = max(chord_arc, float(np.max(arc / np.linalg.norm(np.roll(pos, -k, axis=0) - pos, axis=1))))
        turn = max(turn, float(np.max(np.linalg.norm(np.roll(tangent, -k, axis=0) - tangent, axis=1) / arc**mu)))
        dist = h * min(k, n - k)
        velocity_holder = max(velocity_holder, float(np.max(np.linalg.norm(np.roll(vel, -k, axis=0) - vel, axis=1))) / dist**mu)
    scale = length / TWO_PI
    holder = scale ** (1.0 + mu) * turn
    if mu == 1.0:
        v2 = speed_n**2
        cross = np.sqrt(np.clip(v2 * np.sum(acc * acc, axis=1) - np.sum(vel * acc, axis=1) ** 2, 0.0, None))
        holder = max(holder, scale**2 * float(np.max(cross / speed_n**3)))
        velocity_holder = max(velocity_holder, float(np.max(np.linalg.norm(acc, axis=1))))
    return {"length": length, "chord_arc": chord_arc, "holder_constant": holder, "velocity_holder": velocity_holder}


def crease_chord_arc(cos_coeffs, sin_coeffs, n: int = 1 << 14) -> float:
    """Brute-force maximum of the chord-arc ratio over pairs exactly half the length
    apart: n length-uniform points s_k = L k / n, each paired with the point at s_k + L / 2,
    so every pair's shorter arc is L / 2.  The cumulative length is a 4-point
    Gauss-Legendre rule per interval of n uniform parameter nodes, summed with Kahan's
    compensation (a plain running sum put the ratio of 1.5:1 to 16:1 ellipses up to 6e-15
    relative off L / 4b; this one, within 2e-16); each s_k is inverted by Newton steps
    whose partial lengths are the same rule from the node below."""
    h = TWO_PI / n
    x, w = np.polynomial.legendre.leggauss(4)
    nodes = TWO_PI * np.arange(n + 1) / n  # shared interval ends, so the widths sum to 2 pi

    def speed(t):
        return np.linalg.norm(_trig_derivative(cos_coeffs, sin_coeffs, np.ravel(t), 1), axis=1).reshape(np.shape(t))

    def partial(lo, hi):
        """The rule over [lo, hi], elementwise."""
        half = 0.5 * (hi - lo)
        return half * (speed(lo[:, None] + half[:, None] * (x + 1.0)[None, :]) @ w)

    cum = [0.0]
    total = carry = 0.0
    for piece in partial(nodes[:-1], nodes[1:]).tolist():
        piece -= carry
        new = total + piece
        carry = (new - total) - piece
        total = new
        cum.append(total)
    cum = np.array(cum)
    length = float(cum[-1])
    target = length * np.arange(n) / n
    t = np.interp(target, cum, nodes)
    for _ in range(2):
        below = np.clip(np.floor(t / h).astype(int), 0, n - 1)
        t = t - (cum[below] + partial(nodes[below], t) - target) / speed(t)
    pos = _trig_derivative(cos_coeffs, sin_coeffs, t, 0)
    chord = np.linalg.norm(pos[n // 2 :] - pos[: n // 2], axis=1)
    return float(np.max(0.5 * length / chord))


# mu = 0.5 Hölder constant of the arc-length derivative of the ellipse (a cos t, sin t),
# (L / 2 pi)^1.5 max |T(t1) - T(t2)| / arc^0.5, to 20 digits: ``ellipse_holder_half_mp``
# from the pair where the lag scan of ``compute_curve_constants`` ends (mpmath is not in
# the test extra, so the values are frozen here).  Each maximum is the pair symmetric about
# the vertex of largest curvature; for 16:1 a 1-D search over that symmetric pair, with the
# arc by ``mpmath.quad``, gives the same 40 digits.
ELLIPSE_HOLDER_HALF = {4.0: "8.6130009765899169477", 16.0: "124.04175413292668512"}
ELLIPSE_HOLDER_HALF_START = {4.0: (2.9272659503062672, 3.355919356873317), 16.0: (6.230880071832966 - TWO_PI, 0.05230523534661639)}


def ellipse_holder_half_mp(a: float, b: float, t1: float, t2: float, digits: int = 40):
    """Local maximum of (L / 2 pi)^1.5 |T(u) - T(v)| / arc(u, v)^0.5 over pairs (u, v) of
    parameters of the ellipse (a cos t, b sin t), T the unit tangent and arc the shorter arc,
    by Newton steps on the gradient of its logarithm from (t1, t2), ``digits`` significant
    digits; returns (value, u, v) as mpmath numbers.  Arc lengths are incomplete elliptic
    integrals, speed a sqrt(1 - m cos^2 t), m = 1 - b^2 / a^2.  Needs mpmath:

        python -c "import oracles; print(oracles.ellipse_holder_half_mp(4, 1, *oracles.ELLIPSE_HOLDER_HALF_START[4.0])[0])"
    """
    import mpmath as mp

    with mp.workdps(digits + 20):
        a, b = mp.mpf(a), mp.mpf(b)
        m = 1 - (b / a) ** 2
        length = 4 * a * mp.ellipe(m)

        def log_score(u, v):
            forward = a * (mp.ellipe(v - mp.pi / 2, m) - mp.ellipe(u - mp.pi / 2, m))
            arc = min(forward, length - forward)
            su, sv = mp.hypot(a * mp.sin(u), b * mp.cos(u)), mp.hypot(a * mp.sin(v), b * mp.cos(v))
            dx = a * mp.sin(v) / sv - a * mp.sin(u) / su
            dy = b * mp.cos(u) / su - b * mp.cos(v) / sv
            return mp.log(mp.hypot(dx, dy)) - mp.log(arc) / 2

        def gradient(u, v):
            return [mp.diff(log_score, (u, v), (1, 0)), mp.diff(log_score, (u, v), (0, 1))]

        u, v = mp.findroot(gradient, (mp.mpf(t1), mp.mpf(t2)))
        value = (length / (2 * mp.pi)) ** 1.5 * mp.exp(log_score(u, v))
        return +value, +u, +v


def lag_maxima_roll(sample, score, here, lags, period: float, n: int = 2048):
    """Per lag d, the maximum over n uniform nodes x_i = period i / n of
    score(sample(x_i), sample(x_i + d), arc) and its node, as the lag scan first took them,
    with arc = min(d mod period, period - d mod period): ``here`` is ``sample`` at the nodes
    (a tuple of arrays, one row per node), shifted with ``np.roll`` for whole node lags;
    other lags sample the shifted nodes."""
    x = period * np.arange(n) / n
    peaks = np.empty(len(lags))
    nodes = np.empty(len(lags), dtype=int)
    for j, d in enumerate(lags):
        k = int(round(d / x[1]))
        there = tuple(np.roll(v, -k, axis=0) for v in here) if d == period * k / n else sample(x + d)
        forward = d % period
        vals = score(here, there, min(forward, period - forward))
        nodes[j] = int(np.argmax(vals))
        peaks[j] = vals[nodes[j]]
    return peaks, nodes


def sampled_self_intersection(points):
    """First pair of nodes, not neighbours, within 1e-9 of the diameter of the
    sampled closed curve (m, n), or None: full (rows, m, n) difference blocks of
    512 rows, each masked by the periodic index distance, nearest pair first."""
    m = points.shape[0]
    diam = float(np.max(np.linalg.norm(points - points.mean(axis=0), axis=1))) * 2.0
    tol = 1e-9 * max(diam, 1e-12)
    cols = np.arange(m)
    for lo in range(0, m, 512):
        hi = min(lo + 512, m)
        d = np.linalg.norm(points[lo:hi, None, :] - points[None, :, :], axis=2)
        rows = np.arange(lo, hi)[:, None]
        d[np.minimum((rows - cols) % m, (cols - rows) % m) <= 1] = np.inf
        if np.min(d) <= tol:
            i, j = np.unravel_index(np.argmin(d), d.shape)
            return lo + int(i), int(j)
    return None


def ellipse_max_curvature(a: float, b: float) -> float:
    """Dense-grid maximum of the ellipse curvature (closed form a/b^2 at the apex)."""
    t = np.linspace(0.0, TWO_PI, 1_000_001)
    num = a * b
    den = (a * a * np.sin(t) ** 2 + b * b * np.cos(t) ** 2) ** 1.5
    return float(np.max(num / den))


def harmonic_graph_dilatation_dense(eps: float, m: int, grid: int = 2001) -> float:
    """Dense-grid sup of the pointwise dilatation of (x, y, eps*Re z^m).

    Frames are exact: ux = (1, 0, d Re z^m / dx), uy = (0, 1, d Re z^m / dy).
    """
    xs = np.linspace(-1.0, 1.0, grid)
    best = 1.0
    for x in xs:
        y = np.linspace(-1.0, 1.0, grid)
        z = x + 1j * y
        inside = np.abs(z) <= 1.0
        if not np.any(inside):
            continue
        w = eps * m * z[inside] ** (m - 1)
        gx = np.stack([np.ones(w.size), np.zeros(w.size), w.real], axis=1)
        gy = np.stack([np.zeros(w.size), np.ones(w.size), -w.imag], axis=1)
        g11 = np.einsum("ij,ij->i", gx, gx)
        g22 = np.einsum("ij,ij->i", gy, gy)
        g12 = np.einsum("ij,ij->i", gx, gy)
        s = g11 + g22
        j = np.sqrt(np.clip(g11 * g22 - g12**2, 0.0, None))
        eta = j / s
        root = np.sqrt(np.clip(1.0 - 4.0 * eta**2, 0.0, None))
        op = np.sqrt(s * (1.0 + root) / 2.0)
        mn = np.sqrt(s * (1.0 - root) / 2.0)
        best = max(best, float(np.max(op / mn)))
    return best


def boundary_jacobian_integral_ellipse(c: float, tau: float, n: int = 4_000_000) -> float:
    """Fine-grid evaluation of the singular boundary integral for the curve
    h(t) = e^{it} + c e^{-it} (image of the circle under z + c*conj(z)).

    The integrand extends continuously across t = tau; the removable point
    is patched with its limit value.
    """
    x = -math.pi + TWO_PI * (np.arange(n) + 0.5) / n  # midpoint rule, avoids 0
    t = tau + x
    hs = np.array([math.cos(tau) * (1 + c), math.sin(tau) * (1 - c)])
    dhs = np.array([-math.sin(tau) * (1 + c), math.cos(tau) * (1 - c)])
    ht = np.stack([np.cos(t) * (1 + c), np.sin(t) * (1 - c)], axis=1)
    X = ht - hs
    x2 = np.einsum("ij,ij->i", X, X)
    y2 = float(dhs @ dhs)
    xy = X @ dhs
    kern = np.sqrt(np.clip(x2 * y2 - xy**2, 0.0, None))
    integrand = kern / (4.0 * math.pi * np.sin(x / 2.0) ** 2)
    return float(TWO_PI * np.mean(integrand))


def chord_over_sine(cos_coeffs, sin_coeffs, t0: float, x: float):
    """(p(t0 + x) - p(t0)) / (2 sin(x/2)) of sum_j A_j cos(jt) + B_j sin(jt), summed term by
    term as Re sum_j c_j e^{ij(t0 + x/2)} i sin(jx/2) / sin(x/2), c_j = A_j - i B_j; at x = 0
    its limit p'(t0)."""
    a = np.atleast_2d(np.asarray(cos_coeffs, dtype=float))
    b = np.atleast_2d(np.asarray(sin_coeffs, dtype=float))
    j = np.arange(a.shape[0])
    ratio = j if x == 0.0 else np.sin(j * x / 2.0) / math.sin(x / 2.0)
    return ((1j * ratio * np.exp(1j * j * (t0 + x / 2.0))) @ (a - 1j * b)).real


def boundary_jacobian_quad(
    cos_coeffs, sin_coeffs, tau: float, velocity, form: str = "kernel", mu: float = 1.0, coef: float = 1.0
) -> float:
    """Adaptive quadrature of the boundary-Jacobian integral over (-pi, pi) at tau, with the
    chord P(x) = p(tau + x) - p(tau) of the data p = sum_j A_j cos(jt) + B_j sin(jt), on
    (0, pi) for x and for -x.  With R = P / (2 sin(x/2)) from ``chord_over_sine``:

    * form "kernel": |P ^ velocity| / (4 pi sin^2(x/2)) = |R ^ velocity| / (pi |2 sin(x/2)|),
      bounded when velocity is p'(tau), the limit of R;
    * form "holder": coef |P|^(1+mu) / (4 pi sin^2(x/2))
      = (coef / pi) |R|^(1+mu) |2 sin(x/2)|^(mu-1), whose last factor is quad's algebraic
      weight |x|^(mu-1) times the bounded (2 sin(x/2) / x)^(mu-1).
    """
    v = np.asarray(velocity, dtype=float)

    def kernel(x):
        r = chord_over_sine(cos_coeffs, sin_coeffs, tau, x)
        perp = r - (r @ v) / (v @ v) * v
        return math.sqrt(v @ v) * math.sqrt(perp @ perp) / (math.pi * abs(2.0 * math.sin(x / 2.0)))

    def holder(x):
        r = chord_over_sine(cos_coeffs, sin_coeffs, tau, x)
        return coef / math.pi * math.sqrt(r @ r) ** (1.0 + mu) * float(np.sinc(x / TWO_PI)) ** (mu - 1.0)

    # the Hölder form's factor |x|^(mu-1) as quad's algebraic weight
    weight = {} if form == "kernel" else {"weight": "alg", "wvar": (mu - 1.0, 0.0)}
    f = kernel if form == "kernel" else holder
    return sum(quad(lambda x: f(sign * x), 0.0, math.pi, epsabs=0.0, epsrel=2e-14, limit=400, **weight)[0] for sign in (1.0, -1.0))


def sine_power_moment(k: int, s: float) -> float:
    """integral over (-pi, pi) of cos(kx) |2 sin(x/2)|^s, twice the one over (0, pi) by
    adaptive quadrature with quad's algebraic weight x^s times the bounded (2 sin(x/2) / x)^s."""
    f = lambda x: math.cos(k * x) * float(np.sinc(x / TWO_PI)) ** s
    return 2.0 * quad(f, 0.0, math.pi, weight="alg", wvar=(s, 0.0), epsabs=1e-13, epsrel=2e-14, limit=400)[0]


# ---------------------------------------------------------------------------
# harmonic extension by the Poisson integral (dense trapezoid rule)


def poisson_kernel(r, t):
    """(1 - r^2) / (2*pi*(1 - 2 r cos t + r^2)) for 0 <= r < 1.

    The denominator is evaluated as (1-r)^2 + 4 r sin^2(t/2), which is a
    sum of nonnegative terms and stays accurate near its minimum.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0) or np.any(r >= 1.0):
        raise ValueError("kernel radius must lie in [0, 1)")
    t = np.asarray(t, dtype=float)
    den = (1.0 - r) ** 2 + 4.0 * r * np.sin(t / 2.0) ** 2
    return (1.0 - r) * (1.0 + r) / (TWO_PI * den)


def trapezoid_extension(values, z, m: int = 1 << 14):
    """Poisson integral of boundary data and its Cartesian gradient at
    interior points z, by the m-node trapezoid rule.

    ``values`` maps an array of angles (m,) to boundary points (m, n).
    Returns (u, ux, uy), each of shape (k, n).  The rule's aliasing error
    decays like |z|^m, so the default m resolves |z| <= 0.99 to roundoff.
    The kernel gradient integrates to zero, so the gradient integrals take
    F(t) - F(arg z) in place of F(t); that keeps the large kernel values
    near t = arg z from swamping the sum with roundoff.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    r = np.abs(z)[:, None]
    phi = np.angle(z)[:, None]
    t = TWO_PI * np.arange(m) / m
    fv = np.asarray(values(t), dtype=float)
    diff = fv[None, :, :] - np.asarray(values(phi[:, 0]), dtype=float)[:, None, :]
    w = TWO_PI / m
    num = (1.0 - r) * (1.0 + r)
    den = (1.0 - r) ** 2 + 4.0 * r * np.sin((t[None, :] - phi) / 2.0) ** 2
    x = r * np.cos(phi)
    y = r * np.sin(phi)
    px = -(x * den + num * (x - np.cos(t))) / (math.pi * den**2)
    py = -(y * den + num * (y - np.sin(t))) / (math.pi * den**2)
    u = (poisson_kernel(r, t[None, :] - phi) @ fv) * w
    ux = np.einsum("km,kmn->kn", px, diff) * w
    uy = np.einsum("km,kmn->kn", py, diff) * w
    return u, ux, uy


def polar_area_horner(coeffs, n_r: int, n_t: int) -> float:
    """Area rule of the harmonic extension u = Re sum_j c_j z^j, coeffs (J+1, n): n_r
    Gauss-Legendre radii on [0, 1] times n_t uniform angles, with f'(z) evaluated by
    Horner's rule at every node, ux = Re f', uy = -Im f', and the Jacobian
    sqrt(|ux|^2 |uy|^2 - <ux, uy>^2) (the Gram determinant of the frame)."""
    c = np.asarray(coeffs, dtype=complex)
    x, w = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * (x + 1.0)
    z = (r[:, None] * np.exp(TWO_PI * 1j * np.arange(n_t) / n_t)[None, :]).ravel()
    df = np.zeros((z.size, c.shape[1]), dtype=complex)
    for j in range(c.shape[0] - 1, 0, -1):
        df = df * z[:, None] + j * c[j]
    ux, uy = df.real, -df.imag
    gram = np.sum(ux * ux, axis=1) * np.sum(uy * uy, axis=1) - np.sum(ux * uy, axis=1) ** 2
    jac = np.sqrt(np.clip(gram, 0.0, None)).reshape(n_r, n_t)
    return math.pi * float(np.sum(w * r * jac.mean(axis=1)))


# ---------------------------------------------------------------------------
# explicit bound arithmetic (direct transcription of the closed forms)


def holder_exponent(K: float, lam: float, upsilon: float) -> float:
    return 8.0 * upsilon / (math.pi * K * (1.0 + 2.0 * lam) ** 2)


def boundary_growth_constant(K: float, lam: float, upsilon: float, area: float, half_power: bool = False) -> float:
    alpha = holder_exponent(K, lam, upsilon)
    factor = 2.0 ** (alpha / 2.0) if half_power else 2.0**alpha
    return 4.0 * (1.0 + 2.0 * lam) * factor * math.sqrt(2.0 * math.pi * K * area / math.log(2.0))


def lipschitz_log(K: float, mu: float, upsilon: float, lam: float, c_gamma: float, length: float, area: float | None = None) -> float:
    """log of the explicit gradient bound; area defaults to length^2 / 4."""
    if area is None:
        area = length * length / 4.0
    alpha = holder_exponent(K, lam, upsilon)
    if c_gamma == 0.0:
        return float("-inf")
    e1 = (2.0 - alpha) / (mu * alpha)
    b1 = K * c_gamma * math.pi * (2.0 - alpha) / (2.0 * mu * alpha)
    b2 = 4.0 * (1.0 + 2.0 * lam) * math.sqrt(4.0 * area * math.pi * K / math.log(4.0))
    return math.log(8.0) + e1 * math.log(b1) + (2.0 / alpha) * math.log(b2)


def minimal_surface_log(lam: float, mu: float, c_slot: float, length: float) -> float:
    """log of the minimal-surface specialization (c_slot is the curvature at mu=1)."""
    p = lam * (1.0 + lam) - 0.75
    b1 = c_slot * p * math.pi / (2.0 * mu)
    b2 = 4.0 * (1.0 + 2.0 * lam) * length / math.sqrt(math.log(4.0))
    return math.log(8.0) + (p / mu) * math.log(b1) + (0.5 + lam) ** 2 * math.log(b2)


def main():
    a, b = 1.2, 0.8
    print("ellipse_perimeter(1.2, 0.8)        =", repr(ellipse_perimeter(a, b)))
    print("ellipse_chord_arc_dense(1.2, 0.8)  =", repr(ellipse_chord_arc_dense(a, b)))
    print("circle_holder_half_dense()          =", repr(circle_holder_half_dense()))
    print("ellipse_max_curvature(1.2, 0.8)     =", repr(ellipse_max_curvature(a, b)))
    print("harmonic_graph_dilatation(0.1, 2)   =", repr(harmonic_graph_dilatation_dense(0.1, 2)))
    for tau in (0.0, 0.7, math.pi / 2):
        print(f"boundary_jacobian_ellipse(c=0.2, tau={tau:.4f}) =", repr(boundary_jacobian_integral_ellipse(0.2, tau)))
    alpha = holder_exponent(1.0, math.pi / 2, 1.0)
    print("holder_exponent(1, pi/2, 1)         =", repr(alpha))
    print("growth_const(1, pi/2, 1, pi)        =", repr(boundary_growth_constant(1.0, math.pi / 2, 1.0, math.pi)))
    logl = lipschitz_log(1.0, 1.0, 1.0, math.pi / 2, 1.0, TWO_PI)
    print("lipschitz_log(1,1,1,pi/2,1,2pi)     =", repr(logl), "hex", logl.hex())
    msl = minimal_surface_log(math.pi / 2, 1.0, 1.0, TWO_PI)
    print("minimal_surface_log(pi/2,1,1,2pi)   =", repr(msl), "hex", msl.hex())


if __name__ == "__main__":
    main()
