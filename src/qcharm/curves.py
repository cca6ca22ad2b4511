"""Closed curves in R^n and the geometric constants attached to them.

Curves are represented by real trigonometric polynomials in each
coordinate, so positions and derivatives are available at arbitrary
parameters with spectral accuracy.  Raw periodic samples are converted to
the same representation by FFT.  All constants (length, chord-arc,
derivative Hölder constant, curvature, modulus of continuity) are
estimated by dense scans plus local refinement and carry convergence
metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, InjectivityError, RefinementError, RegularityError

TWO_PI = 2.0 * np.pi

# Absolute default tolerance for geometric constants.
CONST_TOL = 1e-6

_EVAL_CHUNK = 2048
# trailing harmonics below this fraction of the peak weight are dropped
_TRUNCATE_REL = 1e-17
# the pair scans start from at most this many uniform nodes
_COARSE_NODES = 512
# the modulus table scans this many base points and lags per step
_MODULUS_POINTS = 2048
_MODULUS_LAGS = 64


def circle_distance(s, t):
    """Distance between angles s and t measured along the unit circle."""
    d = np.abs(np.asarray(s, dtype=float) - np.asarray(t, dtype=float)) % TWO_PI
    return np.where(d > np.pi, TWO_PI - d, d)


class TrigPolynomial:
    """R^n-valued trigonometric polynomial sum_j A[j] cos(jt) + B[j] sin(jt).

    Parameters
    ----------
    cos_coeffs, sin_coeffs : (J+1, n) arrays
        Harmonic coefficients per coordinate; row j holds the degree-j
        cosine/sine coefficients.  ``sin_coeffs[0]`` is ignored.
    """

    def __init__(self, cos_coeffs, sin_coeffs):
        a = np.atleast_2d(np.asarray(cos_coeffs, dtype=float))
        b = np.atleast_2d(np.asarray(sin_coeffs, dtype=float))
        if a.shape != b.shape:
            raise DomainError(f"coefficient shapes differ: {a.shape} vs {b.shape}")
        self.cos_coeffs = a
        self.sin_coeffs = b
        self.degree = a.shape[0] - 1
        self.dim = a.shape[1]

    @classmethod
    def from_samples(cls, points):
        """Band-limited fit through uniform periodic samples (m, n)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        m = pts.shape[0]
        c = np.fft.rfft(pts, axis=0) / m
        half = m // 2
        a = np.zeros((half + 1, pts.shape[1]))
        b = np.zeros_like(a)
        a[0] = c[0].real
        a[1:] = 2.0 * c[1:].real
        b[1:] = -2.0 * c[1:].imag
        if m % 2 == 0:
            a[half] = c[half].real  # Nyquist term carries weight 1, not 2
            b[half] = 0.0
        return cls(a, b)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        out = np.empty((tt.size, self.dim))
        j = np.arange(self.degree + 1)
        for lo in range(0, tt.size, _EVAL_CHUNK):
            chunk = tt[lo : lo + _EVAL_CHUNK, None] * j[None, :]
            out[lo : lo + _EVAL_CHUNK] = np.cos(chunk) @ self.cos_coeffs + np.sin(chunk) @ self.sin_coeffs
        return out[0] if scalar else out

    def derivative(self):
        j = np.arange(self.degree + 1)[:, None]
        return TrigPolynomial(j * self.sin_coeffs, -j * self.cos_coeffs)

    def scaled(self, c):
        return TrigPolynomial(c * self.cos_coeffs, c * self.sin_coeffs)

    def resample(self, n: int) -> np.ndarray:
        """Values at n uniform nodes via the inverse FFT; needs n >= 2*degree."""
        if n < 2 * self.degree:
            raise DomainError(f"resampling {n} nodes would alias degree {self.degree}")
        coeffs = np.zeros((n // 2 + 1, self.dim), dtype=complex)
        coeffs[0] = self.cos_coeffs[0]
        if n % 2 == 0 and self.degree == n // 2:
            coeffs[1 : self.degree] = 0.5 * (self.cos_coeffs[1:-1] - 1j * self.sin_coeffs[1:-1])
            # the sine Nyquist harmonic vanishes at every aligned node
            coeffs[self.degree] = self.cos_coeffs[-1]
        else:
            coeffs[1 : self.degree + 1] = 0.5 * (self.cos_coeffs[1:] - 1j * self.sin_coeffs[1:])
        return np.fft.irfft(coeffs * n, n=n, axis=0)

    def truncated(self) -> "TrigPolynomial":
        """Drop trailing harmonics whose weight is below 1e-17 of the peak."""
        weight = np.sqrt(np.sum(self.cos_coeffs**2 + self.sin_coeffs**2, axis=1))
        floor = _TRUNCATE_REL * float(np.max(weight)) if np.max(weight) > 0 else 0.0
        keep = np.nonzero(weight > floor)[0]
        cut = int(keep[-1]) + 1 if keep.size else 1
        return TrigPolynomial(self.cos_coeffs[:cut], self.sin_coeffs[:cut])

    def shifted(self, lag: float) -> "TrigPolynomial":
        """The polynomial t -> p(t + lag), via a harmonic-wise rotation."""
        j = np.arange(self.degree + 1)[:, None]
        c = np.cos(j * lag)
        s = np.sin(j * lag)
        return TrigPolynomial(c * self.cos_coeffs + s * self.sin_coeffs, c * self.sin_coeffs - s * self.cos_coeffs)


class PeriodicAntiderivative:
    """Antiderivative t -> integral_0^t g of a smooth periodic function g.

    Built spectrally from uniform samples of g; the linear part carries the
    mean, the oscillatory part is integrated coefficient-wise (and then
    truncated, since dividing by the harmonic index only shrinks tails).
    """

    def __init__(self, samples):
        g = np.asarray(samples, dtype=float)
        fit = TrigPolynomial.from_samples(g[:, None])
        a, b = fit.cos_coeffs[:, 0], fit.sin_coeffs[:, 0]
        self.mean = a[0]
        j = np.arange(a.size, dtype=float)
        j[0] = np.inf  # the mean is the linear part, not a harmonic
        # integral of a cos(jt) + b sin(jt) is (a sin(jt) - b cos(jt)) / j
        self._osc = TrigPolynomial((-b / j)[:, None], (a / j)[:, None]).truncated()
        self._osc0 = float(self._osc(0.0)[0])
        self._grid = g.size

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        osc = self._osc(t)[..., 0] if t.ndim else float(self._osc(t)[0])
        return self.mean * t + osc - self._osc0

    def values_on_grid(self, n: int | None = None) -> np.ndarray:
        """Values at n uniform nodes in [0, 2*pi) via the inverse FFT."""
        n = n or self._grid
        t = TWO_PI * np.arange(n) / n
        osc = self._osc.resample(n)[:, 0] if n >= 2 * self._osc.degree else self._osc(t)[:, 0]
        return self.mean * t + osc - self._osc0


class _ArcLengthView:
    """Exact evaluators of the arc-length reparametrization of a curve.

    Composes the original curve with the inverse of its cumulative length
    (interpolated seeds polished by Newton steps), so positions and chain-
    rule derivatives stay accurate for arbitrarily eccentric curves where
    a band-limited refit would alias.
    """

    def __init__(self, base: "JordanCurve", fine: int = 2048):
        self.base = base
        fine = max(fine, 512)
        while True:
            speed = np.linalg.norm(base.velocity_grid(fine), axis=1)
            spec = np.abs(np.fft.rfft(speed))
            tail = float(np.sum(spec[3 * spec.size // 4 :] ** 2))
            total = float(np.sum(spec**2))
            if tail <= 1e-24 * total or fine >= (1 << 20):
                break
            fine *= 2
        if np.min(speed) <= 0:
            raise RefinementError("cumulative arc length non-monotone; refine the curve first")
        self._cum = PeriodicAntiderivative(speed)
        self.total = self._cum.mean * TWO_PI
        self.scale = self.total / TWO_PI
        self._tf = TWO_PI * np.arange(fine + 1) / fine
        self._cum_f = np.concatenate([self._cum.values_on_grid(fine), [self.total]])

    def parameter(self, theta):
        """Original-curve parameter t with cumulative length theta * scale."""
        theta = np.asarray(theta, dtype=float)
        wraps = np.floor(theta / TWO_PI)
        target = (theta - wraps * TWO_PI) * self.scale
        t = np.interp(target, self._cum_f, self._tf)
        tol = 1e-13 * max(self.total, 1.0)
        resid = self._cum(t) - target
        for _ in range(8):
            if np.max(np.abs(resid)) < tol:
                break
            t = t - resid / np.linalg.norm(self.base.velocity(t), axis=-1)
            resid = self._cum(t) - target
        if not np.max(np.abs(resid)) < tol:
            raise RefinementError(f"arc-length inversion: 8 Newton steps left residual {np.max(np.abs(resid)):.3e}")
        return t + wraps * TWO_PI

    def position(self, theta):
        return self.base.position(self.parameter(theta))

    def velocity(self, theta):
        v = self.base.velocity(self.parameter(theta))
        norms = np.linalg.norm(v, axis=-1, keepdims=True)
        return v * (self.scale / norms)

    def acceleration(self, theta):
        t = self.parameter(theta)
        v = self.base.velocity(t)
        a = self.base.acceleration(t)
        v2 = np.sum(v * v, axis=-1, keepdims=True)
        va = np.sum(v * a, axis=-1, keepdims=True)
        dt = self.scale / np.sqrt(v2)
        return a * dt**2 - v * (self.scale**2 * va / v2**2)


@dataclass(frozen=True, eq=False)
class JordanCurve:
    """Sampled closed curve in R^n with spectral evaluators.

    Attributes
    ----------
    nodes : (m,) uniform parameters in [0, 2*pi)
    points : (m, n) positions at the nodes
    derivs : (m, n) parameter derivatives at the nodes
    poly : TrigPolynomial position evaluator (band-limited fit)
    arc_length : True when |derivs| is constant within tolerance
    view : composite exact evaluators, set for reparametrized curves
    """

    nodes: np.ndarray
    points: np.ndarray
    derivs: np.ndarray
    poly: TrigPolynomial
    arc_length: bool = False
    view: _ArcLengthView | None = None
    _vel: TrigPolynomial = field(init=False, repr=False)
    _acc: TrigPolynomial = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_vel", self.poly.derivative())
        object.__setattr__(self, "_acc", self._vel.derivative())

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def node_count(self) -> int:
        return self.nodes.size

    def position(self, t):
        return self.view.position(t) if self.view is not None else self.poly(t)

    def velocity(self, t):
        return self.view.velocity(t) if self.view is not None else self._vel(t)

    def acceleration(self, t):
        return self.view.acceleration(t) if self.view is not None else self._acc(t)

    def velocity_grid(self, n: int, lag: float = 0.0) -> np.ndarray:
        """Velocity at n uniform nodes (shifted by lag), the fast way."""
        return self._on_grid(n, "velocity", self._vel, lag)

    def acceleration_grid(self, n: int) -> np.ndarray:
        return self._on_grid(n, "acceleration", self._acc)

    def _on_grid(self, n: int, name: str, poly: TrigPolynomial, lag: float = 0.0) -> np.ndarray:
        """The view's evaluator ``name`` at n uniform nodes shifted by lag,
        else ``poly`` there by inverse FFT when that does not alias."""
        t = TWO_PI * np.arange(n) / n
        if self.view is not None:
            return getattr(self.view, name)(t + lag)
        if lag != 0.0:
            poly = poly.shifted(lag)
        return poly.resample(n) if n >= 2 * poly.degree else poly(t)

    def scaled(self, c: float) -> "JordanCurve":
        if self.view is not None:
            return arc_length_reparametrize(self.view.base.scaled(c), node_count=self.node_count)
        return JordanCurve(
            nodes=self.nodes,
            points=c * self.points,
            derivs=c * self.derivs,
            poly=self.poly.scaled(c),
            arc_length=self.arc_length,
        )


@dataclass
class ScanResult:
    """Supremum estimate with refinement metadata."""

    value: float
    depth: int
    converged: bool


@dataclass
class CurveConstants:
    """Certified geometric constants of a closed curve."""

    length: float
    chord_arc: float
    holder_constant: float
    holder_exponent: float
    max_curvature: float
    refinement_depth: int
    converged: dict[str, bool]

    def all_converged(self) -> bool:
        return all(self.converged.values())


# ---------------------------------------------------------------------------
# descriptors


def circle(radius: float = 1.0, center=(0.0, 0.0)) -> TrigPolynomial:
    """Descriptor of a circle traversed counterclockwise."""
    if radius <= 0:
        raise DomainError("circle radius must be positive")
    cx, cy = center
    a = np.array([[cx, cy], [radius, 0.0]])
    b = np.array([[0.0, 0.0], [0.0, radius]])
    return TrigPolynomial(a, b)


def ellipse(a: float, b: float) -> TrigPolynomial:
    """Descriptor of the axis-aligned ellipse (a cos t, b sin t)."""
    if a <= 0 or b <= 0:
        raise DomainError("ellipse semi-axes must be positive")
    return TrigPolynomial(np.array([[0.0, 0.0], [a, 0.0]]), np.array([[0.0, 0.0], [0.0, b]]))


def fourier_curve(cos_coeffs, sin_coeffs) -> TrigPolynomial:
    """Descriptor from finite Fourier series in each coordinate."""
    return TrigPolynomial(cos_coeffs, sin_coeffs)


def build_curve(generator, node_count: int = 256) -> JordanCurve:
    """Sample a closed curve and validate regularity and sampled injectivity.

    Parameters
    ----------
    generator : TrigPolynomial or (t, points) tuple or (m, n) array
        Analytic descriptor, or raw uniform periodic samples.  Raw nodes
        must be uniform in [0, 2*pi); derivatives are then obtained by
        spectral differentiation.
    node_count : number of uniform nodes (>= 16)
    """
    if node_count < 16:
        raise DomainError("node_count must be at least 16")
    nodes = TWO_PI * np.arange(node_count) / node_count

    if isinstance(generator, TrigPolynomial):
        poly = generator
        points = poly(nodes)
    else:
        if isinstance(generator, tuple):
            t_in, pts_in = generator
            t_in = np.asarray(t_in, dtype=float)
            pts_in = np.atleast_2d(np.asarray(pts_in, dtype=float))
            expected = TWO_PI * np.arange(t_in.size) / t_in.size
            if not np.allclose(t_in, expected, atol=1e-9):
                raise DomainError("raw samples must be uniform in [0, 2*pi)")
        else:
            pts_in = np.atleast_2d(np.asarray(generator, dtype=float))
        poly = TrigPolynomial.from_samples(pts_in)
        if pts_in.shape[0] == node_count:
            points = pts_in.copy()
        else:
            points = poly(nodes)

    if points.shape[1] < 2:
        raise DomainError("curves must live in R^n with n >= 2")

    derivs = poly.derivative()(nodes)
    speeds = np.linalg.norm(derivs, axis=1)
    scale = max(float(np.max(speeds)), 1.0)
    if np.min(speeds) < 1e-9 * scale:
        raise RegularityError(f"degenerate parametrization: min |d/dt| = {np.min(speeds):.3e}")

    _check_sampled_injectivity(points)

    flat = float(np.max(speeds) - np.min(speeds)) <= CONST_TOL * float(np.mean(speeds))
    return JordanCurve(nodes=nodes, points=points, derivs=derivs, poly=poly, arc_length=flat)


def _check_sampled_injectivity(points):
    m = points.shape[0]
    diam = float(np.max(np.linalg.norm(points - points.mean(axis=0), axis=1))) * 2.0
    tol = 1e-9 * max(diam, 1e-12)
    # block the diagonal and the two adjacent bands (periodic)
    for lo in range(0, m, 512):
        hi = min(lo + 512, m)
        d = np.linalg.norm(points[lo:hi, None, :] - points[None, :, :], axis=2)
        d[_index_gap(np.arange(lo, hi), m) <= 1] = np.inf
        if np.min(d) <= tol:
            i, j = np.unravel_index(np.argmin(d), d.shape)
            raise InjectivityError(f"sampled self-intersection between nodes {lo + i} and {j}")


# ---------------------------------------------------------------------------
# length and reparametrization


def curve_length(curve: JordanCurve) -> float:
    """Total length by the periodic trapezoid rule applied to the speed."""
    if curve.view is not None:
        return curve.view.total
    m = max(curve.node_count, 1024, 2 * curve.poly.degree)
    speed = np.linalg.norm(curve.velocity_grid(m), axis=1)
    return float(TWO_PI * np.mean(speed))


def arc_length_reparametrize(curve: JordanCurve, node_count: int | None = None) -> JordanCurve:
    """Reparametrize so the parameter is proportional to arc length.

    The output runs over [0, 2*pi) with |d/dt| = length / (2*pi)
    everywhere.  Its evaluators compose the original curve with the
    Newton-inverted cumulative length, so they stay exact however uneven
    the original speed is; the band-limited fit through the new nodes is
    kept alongside for spectral resampling of well-resolved curves.
    """
    m = node_count or curve.node_count
    base = curve.view.base if curve.view is not None else curve
    view = _ArcLengthView(base, fine=max(4 * m, 2 * base.poly.degree))
    nodes = TWO_PI * np.arange(m) / m
    pts = view.position(nodes)
    derivs = view.velocity(nodes)
    poly = TrigPolynomial.from_samples(pts)
    return JordanCurve(nodes=nodes, points=pts, derivs=derivs, poly=poly, arc_length=True, view=view)


def _require_arc_length(curve: JordanCurve, who: str):
    if not curve.arc_length:
        raise DomainError(f"{who} requires an arc-length reparametrized curve")


# ---------------------------------------------------------------------------
# supremum scans over parameter pairs


def _index_gap(rows, m: int):
    """Circular distance between the node indices ``rows`` and 0..m-1 of
    an m-node grid, shape (rows, m)."""
    cols = np.arange(m)
    return np.minimum((rows[:, None] - cols[None, :]) % m, (cols[None, :] - rows[:, None]) % m)


def _pair_supremum(objective, diagonal_value, coarse_matrix, refine=40):
    """Estimate sup over angle pairs of a smooth symmetric objective.

    ``coarse_matrix`` holds the objective on the uniform pair grid; the
    near-diagonal band (10 node spacings) is replaced by the analytic
    ``diagonal_value``, then shrinking local grid searches run around the
    best local maxima.  The estimate is the running max of every pair ever
    evaluated, so it never decreases as ``refine`` grows.
    """
    vals = np.array(coarse_matrix, dtype=float, copy=True)
    m = vals.shape[0]
    theta = TWO_PI * np.arange(m) / m
    vals[_index_gap(np.arange(m), m) < 10] = -np.inf

    best = max(float(np.max(vals)), diagonal_value)

    # local maxima of the coarse grid (8-neighborhood, periodic)
    neigh = np.full_like(vals, -np.inf)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == dj == 0:
                continue
            neigh = np.maximum(neigh, np.roll(np.roll(vals, di, axis=0), dj, axis=1))
    peak_mask = (vals >= neigh) & np.isfinite(vals)
    cand = np.argwhere(peak_mask)
    order = np.argsort(vals[peak_mask])[::-1][:8]
    peaks = [(theta[i], theta[j]) for i, j in cand[order]]

    history = [best]
    depth_used = 0
    w = TWO_PI / m
    offsets = np.linspace(-1.0, 1.0, 9)
    for it in range(refine):
        if w < 1e-10:
            break
        for idx, (a, b) in enumerate(peaks):
            ti = np.repeat(a + w * offsets, 9)
            tj = np.tile(b + w * offsets, 9)
            ok = circle_distance(ti, tj) > 1e-9
            if not np.any(ok):
                continue
            block = objective(ti[ok], tj[ok])
            k = int(np.argmax(block))
            peaks[idx] = (float(ti[ok][k]), float(tj[ok][k]))
            if block[k] > best:
                best = float(block[k])
        history.append(best)
        depth_used = it + 1
        w *= 0.45
        if len(history) >= 3 and history[-1] - history[-3] < 1e-14:
            break

    converged = len(history) >= 2 and bool(history[-1] - history[-2] <= max(1e-10, 1e-9 * abs(best)))
    return ScanResult(value=best, depth=depth_used, converged=converged)


def _coarse_node_data(curve: JordanCurve, m0: int):
    """Positions and velocities on an m0 uniform grid, reusing the stored
    node samples when they align with it."""
    m = curve.node_count
    if m % m0 == 0:
        step = m // m0
        return curve.points[::step], curve.derivs[::step]
    theta = TWO_PI * np.arange(m0) / m0
    return curve.position(theta), curve.velocity(theta)


def _pair_norm_matrix(values):
    """|v_i - v_j| for every pair of rows."""
    diff = values[:, None, :] - values[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def _gap_angles(m0: int):
    return _index_gap(np.arange(m0), m0) * (TWO_PI / m0)


def chord_arc_constant(curve: JordanCurve, refine: int = 40) -> ScanResult:
    """Supremum of (shorter arc length) / (chord length) over boundary pairs.

    Requires an arc-length parametrization; the coincident-pair limit is
    the ratio of the constant speed to the local speed, which equals one.
    """
    _require_arc_length(curve, "chord_arc_constant")
    length = curve_length(curve)
    speed_scale = length / TWO_PI
    m0 = min(curve.node_count, _COARSE_NODES)

    def objective(ti, tj):
        chord = np.linalg.norm(curve.position(ti) - curve.position(tj), axis=1)
        arc = speed_scale * circle_distance(ti, tj)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(chord > 0, arc / chord, -np.inf)

    pts, _ = _coarse_node_data(curve, m0)
    chords = _pair_norm_matrix(pts)
    np.fill_diagonal(chords, np.inf)
    coarse = (speed_scale * _gap_angles(m0)) / chords

    speeds = np.linalg.norm(curve.derivs, axis=1)
    diag = float(speed_scale / np.min(speeds))
    return _pair_supremum(objective, diag, coarse, refine=refine)


def holder_derivative_constant(curve: JordanCurve, mu: float, refine: int = 40) -> ScanResult:
    """Supremum of |g'(t) - g'(s)| / dist(t, s)^mu over distinct pairs,
    for the given parametrization of the curve.

    dist is circle distance of the parameters.  Near-coincident pairs are
    scored by the second-derivative limit: for mu = 1 the limit equals the
    largest |g''| (on arc-length views, the exact curvature maximum times
    the squared speed), for mu < 1 it vanishes.
    """
    if not 0.0 < mu <= 1.0:
        raise DomainError("holder exponent mu must lie in (0, 1]")
    m0 = min(curve.node_count, _COARSE_NODES)

    def objective(ti, tj):
        dv = np.linalg.norm(curve.velocity(ti) - curve.velocity(tj), axis=1)
        d = circle_distance(ti, tj)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(d > 0, dv / d**mu, -np.inf)

    _, vel = _coarse_node_data(curve, m0)
    dist = _gap_angles(m0)
    np.fill_diagonal(dist, np.inf)
    coarse = _pair_norm_matrix(vel) / dist**mu

    if mu == 1.0:
        if curve.view is not None:
            diag = curve.view.scale**2 * _max_curvature_impl(curve.view.base)
        else:
            fine_n = max(4 * m0, 2048)
            diag = _polished_max(
                lambda t: np.linalg.norm(curve.acceleration(t), axis=1),
                np.linalg.norm(curve.acceleration_grid(fine_n), axis=1),
            )
    else:
        diag = 0.0
    return _pair_supremum(objective, diag, coarse, refine=refine)


def _polished_max(f, grid_values) -> float:
    """Maximum of a smooth periodic function f from its values on a
    uniform grid: the grid maximum, polished by shrinking 9-point searches
    around the grid argmax (the true maximum may fall between nodes)."""
    m = grid_values.size
    k = int(np.argmax(grid_values))
    w = TWO_PI / m
    center = TWO_PI * k / m
    best = float(grid_values[k])
    for _ in range(30):
        tt = center + np.linspace(-w, w, 9)
        vals = f(tt)
        j = int(np.argmax(vals))
        best = max(best, float(vals[j]))
        center = tt[j]
        w *= 0.45
        if w < 1e-12:
            break
    return best


def _curvature(v, a):
    """sqrt(|v|^2 |a|^2 - <v, a>^2) / |v|^3 rowwise."""
    v2 = np.einsum("ij,ij->i", v, v)
    a2 = np.einsum("ij,ij->i", a, a)
    va = np.einsum("ij,ij->i", v, a)
    return np.sqrt(np.clip(v2 * a2 - va**2, 0.0, None)) / v2**1.5


def _max_curvature_impl(curve: JordanCurve) -> float:
    """Polished grid max of the parametrization-invariant curvature."""
    m = max(4 * curve.node_count, 2048)
    return _polished_max(
        lambda t: _curvature(curve.velocity(t), curve.acceleration(t)),
        _curvature(curve.velocity_grid(m), curve.acceleration_grid(m)),
    )


def max_curvature(curve: JordanCurve) -> float:
    """Largest curvature, measured against true arc length.

    Uses kappa = sqrt(|g'|^2 |g''|^2 - <g', g''>^2) / |g'|^3, which is
    parametrization invariant (on an arc-length curve it reduces to the
    second derivative rescaled to unit speed); reparametrized curves are
    scanned through their exact source evaluators.
    """
    _require_arc_length(curve, "max_curvature")
    source = curve.view.base if curve.view is not None else curve
    _nyquist_check(source)
    return _max_curvature_impl(source)


def _nyquist_check(curve: JordanCurve, tail_fraction: float = 0.25, limit: float = 1e-6):
    """Reject curves whose derivative spectrum has not decayed within the
    band representable at the curve's node count."""
    acc = curve._acc
    band = curve.node_count // 2 + 1
    energy = np.zeros(max(band, acc.degree + 1))
    energy[: acc.degree + 1] = np.sum(acc.cos_coeffs**2 + acc.sin_coeffs**2, axis=1)
    total = float(np.sum(energy))
    if total == 0.0:
        return
    cut = int(np.ceil((1.0 - tail_fraction) * energy.size))
    tail = float(np.sum(energy[cut:]))
    if tail > limit * total:
        raise RefinementError(
            f"derivative data too coarse: top-band spectral energy fraction {tail / total:.2e}"
        )


# ---------------------------------------------------------------------------
# modulus of continuity


class TabulatedModulus:
    """Nondecreasing piecewise-linear modulus of continuity table.

    Interpolates linearly from (0, 0) through the table knots and extends
    by the last value beyond the largest step (the circle-distance modulus
    is constant past pi, so the constant extension is exact there).
    """

    def __init__(self, deltas, values):
        d = np.asarray(deltas, dtype=float)
        v = np.asarray(values, dtype=float)
        if d.ndim != 1 or d.size == 0 or d.size != v.size:
            raise DomainError("modulus table needs matching 1-D step and value arrays")
        if np.any(d <= 0) or np.any(np.diff(d) <= 0):
            raise DomainError("modulus steps must be positive and strictly increasing")
        if np.any(v < -1e-15) or np.any(np.diff(v) < -1e-12):
            raise DomainError("modulus values must be nonnegative and nondecreasing")
        self.deltas = np.concatenate(([0.0], d))
        self.values = np.concatenate(([0.0], np.maximum(v, 0.0)))

    def __call__(self, x):
        return np.interp(x, self.deltas, self.values)

    def integral_to(self, x):
        """Exact integral of the interpolant over [0, x], elementwise."""
        d, v = self.deltas, self.values
        x = np.asarray(x, dtype=float)
        xc = np.clip(x, 0.0, d[-1])
        idx = np.minimum(np.searchsorted(d, xc, side="right") - 1, d.size - 2)  # knot segment holding xc
        cum = np.concatenate(([0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(d))))
        total = cum[idx] + 0.5 * (v[idx] + self(xc)) * (xc - d[idx])
        return total + v[-1] * np.maximum(x - d[-1], 0.0)


class PowerModulus:
    """Modulus c * x^mu with closed-form integral (the Hölder majorant)."""

    def __init__(self, coefficient: float, mu: float):
        if coefficient < 0:
            raise DomainError("modulus coefficient must be nonnegative")
        if not 0.0 < mu <= 1.0:
            raise DomainError("modulus exponent must lie in (0, 1]")
        self.coefficient = coefficient
        self.mu = mu

    def __call__(self, x):
        return self.coefficient * np.asarray(x, dtype=float) ** self.mu

    def integral_to(self, x):
        x = np.maximum(np.asarray(x, dtype=float), 0.0)
        return self.coefficient * x ** (1.0 + self.mu) / (1.0 + self.mu)


def dini_modulus_table(curve: JordanCurve, steps) -> TabulatedModulus:
    """Modulus of continuity of the curve derivative at the given steps.

    For each step delta the table holds sup over |t - s| <= delta (circle
    distance) of |h'(t) - h'(s)|; a cumulative max enforces monotonicity.
    """
    deltas = np.sort(np.asarray(steps, dtype=float))
    if np.any(deltas <= 0):
        raise DomainError("modulus steps must be positive")
    v0 = curve.velocity_grid(_MODULUS_POINTS)
    values = np.empty(deltas.size)
    for i, delta in enumerate(deltas):
        lags = np.linspace(delta / _MODULUS_LAGS, min(delta, np.pi), _MODULUS_LAGS)
        worst = 0.0
        for lag in lags:
            dv = np.linalg.norm(curve.velocity_grid(_MODULUS_POINTS, lag=lag) - v0, axis=1)
            worst = max(worst, float(np.max(dv)))
        values[i] = worst
    values = np.maximum.accumulate(values)
    return TabulatedModulus(deltas, values)


# ---------------------------------------------------------------------------
# Dini-type double integral identity


def dini_double_integral(omega, y: float) -> float:
    """integral_{0+}^{y} x^{-2} integral_0^x omega(t) dt dx."""
    if y <= 0:
        raise DomainError("upper limit must be positive")

    def inner(x):
        val, _ = quad(lambda t: float(omega(t)), 0.0, x, epsabs=1e-13, epsrel=1e-12, limit=200)
        return val

    val, _ = quad(lambda x: inner(x) / x**2, 0.0, y, epsabs=1e-11, epsrel=1e-11, limit=200)
    return float(val)


def dini_single_integral(omega, y: float) -> float:
    """integral_{0+}^{y} (omega(x)/x - omega(x)/y) dx."""
    if y <= 0:
        raise DomainError("upper limit must be positive")
    val, _ = quad(
        lambda x: float(omega(x)) * (1.0 / x - 1.0 / y),
        0.0,
        y,
        epsabs=1e-11,
        epsrel=1e-11,
        limit=200,
    )
    return float(val)


# ---------------------------------------------------------------------------
# bundled constants


def compute_curve_constants(curve: JordanCurve, mu: float = 1.0) -> CurveConstants:
    """Length, chord-arc, derivative Hölder constant and curvature in one pass."""
    arc = curve if curve.arc_length else arc_length_reparametrize(curve)
    length = curve_length(arc)
    lam = chord_arc_constant(arc)
    hol = holder_derivative_constant(arc, mu)
    try:
        kappa = max_curvature(arc)
        kappa_ok = True
    except RefinementError:
        kappa = float("nan")
        kappa_ok = False
    return CurveConstants(
        length=length,
        chord_arc=lam.value,
        holder_constant=hol.value,
        holder_exponent=mu,
        max_curvature=kappa,
        refinement_depth=max(lam.depth, hol.depth),
        converged={
            "length": True,
            "chord_arc": lam.converged,
            "holder_constant": hol.converged,
            "max_curvature": kappa_ok,
        },
    )
