"""Closed curves in R^n and the geometric constants attached to them.

Curves are represented by real trigonometric polynomials in each
coordinate, so positions and derivatives are available at arbitrary
parameters with spectral accuracy.  Raw periodic samples are converted to
the same representation by FFT.  All constants (length, chord-arc,
derivative Hölder constant, curvature, modulus of continuity) are
estimated by dense scans plus local refinement and carry convergence
metadata; at mu = 1 the Hölder constants are their diagonal limits,
from the maximum of |g''| or of the curvature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InjectivityError, RefinementError, RegularityError

TWO_PI = 2.0 * np.pi

# points per evaluation chunk, fewer where a power table would pass 2^20 entries
_EVAL_CHUNK = 2048
# harmonics above which an evaluation splits its powers into baby steps and giant steps: from
# about 65 harmonics on, the split evaluates 2,048 points of 2 to 5 columns at least as fast
_SPLIT_ROWS = 64
# most uniform samples of a resolved FFT fit, whose kept degree is at most a quarter of them
_MAX_FIT = 1 << 16
# the lag scans pair uniform nodes t_i with t_i + k h, for node shifts k
# spaced geometrically at this many per octave
_SCAN_NODES = 2048
_LAGS_PER_OCTAVE = 16
# at most this many restarted shrinking searches polish the best pair (along the
# half-length crease, or in both ends)
_SEARCHES = 20
# a shrinking search whose best node is interior stops once its values agree to this, relative
_FLAT = 1e-13
# values per coordinate of a shrinking search, and the factor on its half-widths per step
_POLISH_NODES = 33
_SHRINK = 0.1


def _extreme_nodes(degree: int) -> int:
    """Uniform nodes that sample an extreme over the circle of a degree-``degree`` expression: the
    least multiple of _SCAN_NODES that is at least 4 degree; it holds every grid of 2^k <= _SCAN_NODES nodes."""
    return _SCAN_NODES * max(1, -(-4 * degree // _SCAN_NODES))


class TrigPolynomial:
    """R^n-valued trigonometric polynomial sum_j A[j] cos(jt) + B[j] sin(jt).

    One evaluator serves the circle and the disk: ``extension(w)`` is Re sum_j c_j w^j,
    c_j = A[j] - i B[j], at complex points w, from one power table of w per chunk
    (``_power_sum``); ``p(t)`` is ``extension(e^{it})``.

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
        # c_j = a_j - i b_j, so that p(t) = Re sum_j c_j e^{ijt}
        self.complex_coeffs = a - 1j * b
        self.complex_coeffs[0] = a[0]
        # column blocks, each its own matmul on the power table (``stack``)
        self._blocks = (self.complex_coeffs,)

    @classmethod
    def stack(cls, *polys):
        """One polynomial whose coordinates are those of ``polys`` in order, each padded with
        zero harmonics to the largest degree, so that one power table evaluates them all.  Each
        keeps its own matmul on that table, so one of the largest degree gets its values to the
        bit."""
        top = max(p.degree for p in polys) + 1

        def padded(c):
            out = np.zeros((top, c.shape[1]), dtype=c.dtype)
            out[: c.shape[0]] = c
            return out

        out = cls(np.hstack([padded(p.cos_coeffs) for p in polys]), np.hstack([padded(p.sin_coeffs) for p in polys]))
        out._blocks = tuple(padded(c) for p in polys for c in p._blocks)
        return out

    @classmethod
    def from_samples(cls, points):
        """Band-limited fit through uniform periodic samples, m rows (``_sample_rows``)."""
        pts = _sample_rows(points)
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
        return self.extension(np.exp(1j * np.asarray(t, dtype=float)))

    def extension(self, w):
        """Re sum_j c_j w^j at complex points w, shaped w.shape + (dim,): on |w| = 1 the
        polynomial's values, in the disk its harmonic extension."""
        w = np.asarray(w, dtype=complex)
        return _power_sum(w.ravel(), self._blocks).reshape(w.shape + (self.dim,))

    def increments(self, t0):
        """x -> p(t0 + x) - p(t0) for every t0 at once, shaped x.shape + t0.shape + (dim,), as
        Re sum_j c_j e^{ij t0} 2i sin(jx/2) e^{ijx/2}, from the powers of e^{ix/2}: nothing
        cancels as x -> 0, so it keeps its relative accuracy.  The rotated harmonics
        c_j e^{ij t0} are one outer product, and one power table of x serves every t0."""
        t0 = np.asarray(t0, dtype=float)
        j = np.arange(self.degree + 1)
        rotated = np.exp(1j * np.multiply.outer(j, t0.ravel()))[:, :, None] * self.complex_coeffs[:, None, :]
        blocks = (rotated.reshape(self.degree + 1, -1),)

        def chord(x):
            half = np.exp(0.5j * np.asarray(x, dtype=float))
            p = _power_sum(half.ravel(), blocks, lambda table: 2j * table * table.imag)
            return p.reshape(half.shape + t0.shape + (self.dim,))

        return chord

    def derivative(self):
        j = np.arange(self.degree + 1)[:, None]
        return TrigPolynomial(j * self.sin_coeffs, -j * self.cos_coeffs)

    def grid(self, n: int) -> np.ndarray:
        """Values at n uniform nodes in [0, 2*pi), by the inverse FFT on the
        smallest multiple m of n that does not alias (m >= 2 degree)."""
        r = max(-(-2 * self.degree // n), 1)
        m = n * r
        coeffs = np.zeros((m // 2 + 1, self.dim), dtype=complex)
        coeffs[: self.degree + 1] = self.complex_coeffs
        coeffs[1:] *= 0.5
        if m == 2 * self.degree:
            # the sine Nyquist harmonic vanishes at every aligned node
            coeffs[self.degree] = self.cos_coeffs[-1]
        return np.fft.irfft(coeffs * m, n=m, axis=0)[::r]

    @functools.cached_property
    def _length(self) -> "_LengthTable":
        """The length table of the curve with this position polynomial, built on first use:
        every reader of the curve's length shares it."""
        return _LengthTable(self)

    def truncated(self, floor: float) -> tuple["TrigPolynomial", float]:
        """Without the trailing harmonics of weight at most ``floor``, and
        sum_{j > J} j * weight_j over those."""
        weight = np.sqrt(np.sum(self.cos_coeffs**2 + self.sin_coeffs**2, axis=1))
        keep = np.nonzero(weight > floor)[0]
        cut = int(keep[-1]) + 1 if keep.size else 1
        if cut == weight.size:
            return self, 0.0
        tail = float(np.sum(np.arange(cut, weight.size) * weight[cut:]))
        return TrigPolynomial(self.cos_coeffs[:cut], self.sin_coeffs[:cut]), tail


def _doubled_powers(x, out) -> np.ndarray:
    """x^k for k < len(out), as the rows of ``out`` (count, n), by doubling: rows s .. 2s - 1
    are rows 0 .. s - 1 times x^s.  x^k is a product of k factors x, so it rounds like
    Horner's rule, by about k eps relative at most."""
    out[0] = 1.0
    s = 1
    while s < out.shape[0]:
        n = min(s, out.shape[0] - s)
        np.multiply(out[:n], out[s - 1] * x, out=out[s : s + n])
        s *= 2
    return out


def _power_sum(w, blocks, terms=None) -> np.ndarray:
    """Re sum_j c[j] terms(w^j) at the points w (k,), for each column of the complex
    coefficient blocks c (J+1, n_i), side by side: shape (k, sum n_i); one complex matmul per
    block, so a block's values do not depend on the blocks beside it.

    Chunk by chunk, the powers form a table of rows of chunk length (``_doubled_powers``).
    Up to _SPLIT_ROWS harmonics, and whenever ``terms`` is given, the table holds every power
    w^j and the matmul gives the sum.  Above, it holds the baby steps w^r, r < B =
    isqrt(J) + 1: the matmul gives the inner sums s_k = sum_r c[kB + r] w^r, and the giant
    steps (w^B)^k weight them, sum_k (w^B)^k s_k (Paterson & Stockmeyer, SIAM J. Comput.
    1973).  Then no table holds J powers per point: the J products per point run inside the
    matmul.  A chunk holds _EVAL_CHUNK points, fewer where a table would pass 2^20 entries,
    so memory does not grow with the degree."""
    rows = blocks[0].shape[0]
    baby = rows if terms is not None or rows <= _SPLIT_ROWS else math.isqrt(rows - 1) + 1
    giant = -(-rows // baby)
    inner = list(blocks)
    if giant > 1:
        for i, c in enumerate(blocks):
            # c[kB + r] at row r, column k n_i + i
            padded = np.zeros((giant * baby, c.shape[1]), dtype=complex)
            padded[:rows] = c
            inner[i] = padded.reshape(giant, baby, -1).transpose(1, 0, 2).reshape(baby, -1)
    chunk = max(1, min(_EVAL_CHUNK, (1 << 20) // max(baby, max(c.shape[1] for c in inner))))
    out = np.empty((w.size, sum(c.shape[1] for c in blocks)))
    for lo in range(0, w.size, chunk):
        x = w[lo : lo + chunk]
        table = _doubled_powers(x, np.empty((baby, x.size), dtype=complex))
        if terms is not None:
            table = terms(table)
        if giant > 1:
            steps = _doubled_powers(table[-1] * x, np.empty((giant, x.size), dtype=complex))
        col = 0
        for c, arranged in zip(blocks, inner):
            sums = table.T @ arranged
            if giant > 1:
                sums = np.einsum("kp,pkm->pm", steps, sums.reshape(x.size, giant, -1))
            out[lo : lo + chunk, col : col + c.shape[1]] = sums.real
            col += c.shape[1]
    return out


def _resolved_fit(sample, start: int) -> tuple[TrigPolynomial, float]:
    """FFT fit through ``sample(m)``, the (m, n) samples at m uniform nodes, without its
    trailing harmonics below the roundoff floor, and the tail they leave
    (``TrigPolynomial.truncated``): from m = ``start`` on, doubled until the kept degree is
    at most m / 4.  ``RefinementError`` when that needs more than _MAX_FIT samples."""
    m = start
    while True:
        fit = _sample_fit(sample(m))
        if fit[0].degree <= m // 4:
            return fit
        if m >= _MAX_FIT:
            raise RefinementError(f"FFT fit not resolved at {m} samples: degree {fit[0].degree} kept")
        m *= 2


def _chopped(poly: TrigPolynomial, values) -> tuple[TrigPolynomial, float]:
    """``poly`` at its resolved degree, and the tail it leaves (``TrigPolynomial.truncated``):
    without the trailing harmonics of weight at most the roundoff floor 1e-15 * max|value| *
    log2(m) of ``values``, the (m, n) values that ``poly`` interpolates at m uniform nodes.
    The one resolution rule of sample and coefficient input: chop where the coefficients
    reach the roundoff plateau (Aurentz & Trefethen, "Chopping a Chebyshev series", ACM
    Trans. Math. Softw. 43, 2017)."""
    return poly.truncated(1e-15 * float(np.max(_norms(values))) * np.log2(values.shape[0]))


def _sample_rows(samples) -> np.ndarray:
    """Uniform periodic samples as an (m, n) array of m rows: m scalar samples, a 1-D array,
    are one column, not one row of an m-dimensional point."""
    pts = np.asarray(samples, dtype=float)
    if pts.ndim not in (1, 2):
        raise DomainError(f"samples must be an (m,) or (m, n) array, not of shape {pts.shape}")
    return pts[:, None] if pts.ndim == 1 else pts


def _sample_fit(samples) -> tuple[TrigPolynomial, float]:
    """The FFT fit through uniform samples (m, n) or (m,), ``_chopped`` at their roundoff floor."""
    pts = _sample_rows(samples)
    return _chopped(TrigPolynomial.from_samples(pts), pts)


def _norms(v):
    """|v| over the last axis, summed coordinate by coordinate in the order of
    ``np.linalg.norm(v, axis=-1)`` (the same bits, without a reduction over a short axis)."""
    v = np.asarray(v)
    squares = v[..., 0] * v[..., 0]
    for k in range(1, v.shape[-1]):
        squares = squares + v[..., k] * v[..., k]
    return np.sqrt(squares)


class _LengthTable:
    """Cumulative length t -> mean t + osc(t) - osc0 of the curve with position polynomial
    ``poly``: the exact antiderivative of its speed fit, resolved from max(_SCAN_NODES,
    2 degree) samples on, whose mean is the linear part and whose harmonics ``osc`` are
    integrated term by term.  ``at(t)`` gives (cumulative length, speed, velocity, position)
    from one evaluation of the stacked polynomial (``osc``, velocity, position), and
    ``invert`` finds where the length reaches its targets: cubic Hermite seeds on
    max(4 _SCAN_NODES, 4 osc degree) uniform knots, slopes 1 / speed from the speed fit,
    which that one evaluation mostly confirms, and Newton steps, point by point, where a
    seed misses.  ``scan_nodes`` holds ``tangent_frame`` at the equal-length nodes of the
    lag scans, inverted once per table.  The table is also the curve's arc-length view:
    ``parameter`` is the change of parameter theta -> t with cumulative length
    theta * scale, scale = length / 2 pi, the view's constant speed."""

    def __init__(self, poly: TrigPolynomial):
        vel = poly.derivative()
        start = max(_SCAN_NODES, 2 * poly.degree)
        fit = _resolved_fit(lambda m: _norms(vel.grid(m))[:, None], start)[0]
        a, b = fit.cos_coeffs[:, 0], fit.sin_coeffs[:, 0]
        self.mean = a[0]
        self.length = self.mean * TWO_PI
        self.scale = self.length / TWO_PI
        j = np.arange(a.size, dtype=float)
        j[0] = np.inf  # the mean is the linear part, not a harmonic
        # integral of a cos(jt) + b sin(jt) is (a sin(jt) - b cos(jt)) / j
        self.osc = TrigPolynomial((-b / j)[:, None], (a / j)[:, None])
        self.osc0 = float(self.osc(0.0)[0])
        self._poly = TrigPolynomial.stack(self.osc, vel, poly)
        self._dim = poly.dim
        n = max(4 * _SCAN_NODES, 4 * self.osc.degree)
        self._seed_t = TWO_PI * np.arange(n + 1) / n
        self._seed_cum = np.append(self.mean * self._seed_t[:-1] + self.osc.grid(n)[:, 0] - self.osc0, self.length)
        speed = fit.grid(n)[:, 0]
        self._seed_slope = 1.0 / np.append(speed, speed[0])  # dt/ds
        if not np.all(np.diff(self._seed_cum) > 0):
            raise RefinementError("cumulative arc length non-monotone; refine the curve first")

    def at(self, t):
        t = np.asarray(t, dtype=float)
        v = self._poly(t)
        vel = v[..., 1 : 1 + self._dim]
        return self.mean * t + v[..., 0] - self.osc0, _norms(vel), vel, v[..., 1 + self._dim :]

    def invert(self, target):
        """Parameters where the cumulative length reaches ``target`` (any shape, within
        [0, length]), and ``at`` them: ``_seeds`` there, then at most 8 Newton steps to a
        residual below 1e-13 max(length, 1).  The seeds mostly meet it already, so an
        inversion is mostly one evaluation.  Each point stops on its own residual, so it
        takes the steps it would take alone, whatever else shares the call."""
        target = np.asarray(target, dtype=float)
        s = target.ravel()
        tol = 1e-13 * max(self.length, 1.0)
        t = self._seeds(s)
        vals = list(self.at(t))
        resid = vals[0] - s
        for _ in range(8):
            moving = np.nonzero(~(np.abs(resid) < tol))[0]
            if not moving.size:
                break
            t[moving] -= resid[moving] / vals[1][moving]
            step = self.at(t[moving])
            for v, new in zip(vals, step):
                v[moving] = new
            resid[moving] = step[0] - s[moving]
        if not np.all(np.abs(resid) < tol):
            raise RefinementError(f"arc-length inversion: 8 Newton steps left residual {np.max(np.abs(resid)):.3e}")
        return t.reshape(target.shape), [v.reshape(target.shape + v.shape[1:]) for v in vals]

    def _seeds(self, s):
        """The cubic Hermite interpolant of s -> t on the seed knots, slopes 1 / speed, at the
        cumulative lengths s: its error falls like the fourth power of the knot spacing (de
        Boor, "A Practical Guide to Splines", 1978, ch. IV)."""
        cum, knot_t, slope = self._seed_cum, self._seed_t, self._seed_slope
        k = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, cum.size - 2)
        h = cum[k + 1] - cum[k]
        u = (s - cum[k]) / h
        v = 1.0 - u
        return (
            knot_t[k] * (1.0 + 2.0 * u) * v * v
            + knot_t[k + 1] * (3.0 - 2.0 * u) * u * u
            + h * u * v * (slope[k] * v - slope[k + 1] * u)
        )

    def parameter(self, theta):
        """Parameters t with cumulative length theta * scale, each whole turn of theta adding
        2 pi, and ``at`` them: ``invert`` point by point, so a point's value does not depend
        on the other points of the call."""
        theta = np.asarray(theta, dtype=float)
        wraps = np.floor(theta / TWO_PI)
        t, vals = self.invert((theta - wraps * TWO_PI) * self.scale)
        return t + wraps * TWO_PI, vals

    def tangent_frame(self, s):
        """Position and unit tangent at cumulative lengths s (mod length)."""
        _, (_, speed, vel, pos) = self.invert(np.mod(s, self.length))
        return pos, vel / speed[..., None]

    @functools.cached_property
    def scan_nodes(self):
        """``tangent_frame`` at the _SCAN_NODES equal-length nodes length i / _SCAN_NODES, in
        slices of at least 256 nodes and, above that, of at most 2^14 power-table entries of
        the stacked polynomial: one slice up to stacked degree 7, 256 nodes from degree 63 on.
        2^14 entries are the _SPLIT_ROWS powers at 256 nodes; slices of larger tables raised
        the peak RSS (one call's power tables would cost tens of MB on eccentric curves)."""
        s = self.length * np.arange(_SCAN_NODES) / _SCAN_NODES
        size = max(256, (1 << 14) // (self._poly.degree + 1))
        slices = [self.tangent_frame(s[lo : lo + size]) for lo in range(0, s.size, size)]
        return tuple(np.concatenate(v) for v in zip(*slices))


@dataclass(frozen=True, eq=False)
class JordanCurve:
    """Closed curve in R^n given by its position polynomial, with spectral evaluators;
    ``frame(t)`` gives position and velocity from one evaluation.

    Attributes
    ----------
    poly : TrigPolynomial position evaluator (of the base curve, for an arc-length view)
    view : None, or ``poly._length`` for the arc-length view: the evaluators then compose
        the polynomial with the length table's ``parameter`` theta -> t, so they stay exact
        however uneven the speed of ``poly`` is
    fit_tail : sum_{j > J} j |c_j| over the harmonics ``build_curve`` dropped at the
        roundoff floor (``_chopped``), 0 when it kept them all; kept by the arc-length view
    """

    poly: TrigPolynomial
    view: _LengthTable | None = None
    fit_tail: float = 0.0
    _vel: TrigPolynomial = field(init=False, repr=False)
    # the acceleration of ``poly``: the curve's own only off a view
    _acc: TrigPolynomial = field(init=False, repr=False)
    # position and velocity as one polynomial of 2n coordinates
    _frame: TrigPolynomial = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_vel", self.poly.derivative())
        object.__setattr__(self, "_acc", self._vel.derivative())
        object.__setattr__(self, "_frame", TrigPolynomial.stack(self.poly, self._vel))

    @property
    def dim(self) -> int:
        return self.poly.dim

    def position(self, t):
        return self.frame(t)[0] if self.view is not None else self.poly(t)

    def velocity(self, t):
        return self.frame(t)[1] if self.view is not None else self._vel(t)

    def frame(self, t):
        """Position and velocity at t, each shaped like ``position(t)``: one evaluation of the
        stacked ``_frame`` polynomial, or one inversion of the length on an arc-length view."""
        if self.view is not None:
            _, (_, speed, v, pos) = self.view.parameter(t)
            return pos, v * (self.view.scale / speed[..., None])
        both = self._frame(t)
        return both[..., : self.dim], both[..., self.dim :]

    def velocity_grid(self, n: int) -> np.ndarray:
        """Velocity at n uniform nodes, by the inverse FFT off a view."""
        return self._vel.grid(n) if self.view is None else self.velocity(TWO_PI * np.arange(n) / n)

    @functools.cached_property
    def speed_range(self) -> tuple[float, float]:
        """Least and largest speed |d/dt|: the constant speed of an arc-length view, else
        extremes sampled once per curve on the ``_extreme_nodes`` grid of the degree."""
        if self.view is not None:
            return self.view.scale, self.view.scale
        speeds = _norms(self.velocity_grid(_extreme_nodes(self.poly.degree)))
        return float(np.min(speeds)), float(np.max(speeds))


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
    if not 0 < radius < math.inf:
        raise DomainError(f"circle radius must be positive and finite, got {radius!r}")
    cx, cy = center
    a = np.array([[cx, cy], [radius, 0.0]])
    b = np.array([[0.0, 0.0], [0.0, radius]])
    return TrigPolynomial(a, b)


def ellipse(a: float, b: float) -> TrigPolynomial:
    """Descriptor of the axis-aligned ellipse (a cos t, b sin t)."""
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise DomainError(f"ellipse semi-axes must be positive and finite, got {a!r}, {b!r}")
    return TrigPolynomial(np.array([[0.0, 0.0], [a, 0.0]]), np.array([[0.0, 0.0], [0.0, b]]))


def fourier_curve(cos_coeffs, sin_coeffs) -> TrigPolynomial:
    """Descriptor from finite Fourier series in each coordinate."""
    return TrigPolynomial(cos_coeffs, sin_coeffs)


def build_curve(generator, node_count: int = 512) -> JordanCurve:
    """The closed curve of a descriptor or of raw samples, checked for regularity on its
    ``speed_range``, which it computes, and for sampled injectivity.

    Parameters
    ----------
    generator : TrigPolynomial or (t, points) tuple or (m, n) array
        Coefficient descriptor, or raw uniform periodic samples, whose nodes
        must be uniform in [0, 2*pi) and which are fitted by FFT.  Either
        kind runs at its resolved degree by one rule (``_chopped``): the
        trailing harmonics below the roundoff floor 1e-15 * max|value| *
        log2(m) of the values it interpolates go to ``fit_tail``.  Those
        values are the m samples, or for a degree-J descriptor its values at
        the 2J nodes that a degree-J FFT fit interpolates; so the coefficients
        of the FFT fit of an even number of samples give the curve of those
        samples, and an exact descriptor, whose top harmonic is above the
        floor, is kept whole with a tail of 0.  Derivatives follow by
        spectral differentiation.  Samples only: ``RefinementError`` when
        more than 1e-6 of the fit's acceleration energy lies in the top
        quarter of the band of the m samples (harmonics 0 .. m // 2): the
        data do not resolve the curvature.  ``DomainError`` for a value that
        is not finite; ``RegularityError`` unless the least speed is at least
        1e-9 of the largest, a test relative to the curve's scale.
    node_count : number of uniform nodes (>= 16) of the sampled-injectivity
        check, which reads the raw rows when there are that many; nothing is
        stored at them, and no constant depends on it
    """
    if node_count < 16:
        raise DomainError("node_count must be at least 16")

    samples = None
    if isinstance(generator, TrigPolynomial):
        if not np.all(np.isfinite(generator.complex_coeffs)):
            raise DomainError("curve coefficients must be finite")
        poly, fit_tail = _chopped(generator, generator.grid(max(2 * generator.degree, 2)))
    else:
        if isinstance(generator, tuple):
            t_in, samples = generator
            t_in = np.asarray(t_in, dtype=float)
            samples = _sample_rows(samples)
            if t_in.size != samples.shape[0]:
                raise DomainError(f"raw samples: {t_in.size} parameters for {samples.shape[0]} sample rows")
            expected = TWO_PI * np.arange(t_in.size) / t_in.size
            if not np.allclose(t_in, expected, atol=1e-9):
                raise DomainError("raw samples must be uniform in [0, 2*pi)")
        else:
            samples = _sample_rows(generator)
        if not np.all(np.isfinite(samples)):
            raise DomainError("curve samples must be finite")
        poly, fit_tail = _sample_fit(samples)

    if poly.dim < 2:
        raise DomainError("curves must live in R^n with n >= 2")
    if samples is not None:
        _check_resolved(poly, samples.shape[0])

    curve = JordanCurve(poly=poly, fit_tail=fit_tail)
    if not curve.speed_range[0] >= 1e-9 * curve.speed_range[1] > 0:
        raise RegularityError(f"degenerate parametrization: min |d/dt| = {curve.speed_range[0]:.3e}")
    raw = samples is not None and samples.shape[0] == node_count
    _check_sampled_injectivity(samples if raw else poly(TWO_PI * np.arange(node_count) / node_count))
    return curve


def _check_resolved(poly: TrigPolynomial, m: int):
    """``RefinementError`` when more than 1e-6 of the spectral energy of the acceleration of
    ``poly``, fitted through m samples, lies in the top quarter of harmonics 0 .. m // 2."""
    band = m // 2 + 1
    j = np.arange(poly.degree + 1, dtype=float)
    energy = np.zeros(band)
    energy[: j.size] = j**4 * np.sum(poly.cos_coeffs**2 + poly.sin_coeffs**2, axis=1)
    tail, total = float(np.sum(energy[int(np.ceil(0.75 * band)) :])), float(np.sum(energy))
    if tail > 1e-6 * total:
        raise RefinementError(
            f"samples too coarse for the curvature: top-band spectral energy fraction {tail / total:.2e}"
            f" of the acceleration at {m} samples"
        )


def _check_sampled_injectivity(points):
    """InjectivityError naming the nearest pair of nodes, not neighbours, of
    the first 512-row block holding a pair within 1e-9 of the diameter.

    A pair within that tolerance projects within it onto any unit direction, so the
    quadratic scan (``_nearest_pair_scan``) runs only when two node projections on one fixed
    direction, sorted, lie within twice the tolerance."""
    centered = points - points.mean(axis=0)
    tol = 1e-9 * max(float(np.max(_norms(centered))) * 2.0, 1e-12)
    direction = np.sin(np.arange(1.0, points.shape[1] + 1.0))
    if np.min(np.diff(np.sort(centered @ (direction / np.linalg.norm(direction))))) > 2.0 * tol:
        return
    _nearest_pair_scan(points, tol)


def _nearest_pair_scan(points, tol: float):
    """The quadratic scan of ``_check_sampled_injectivity``: squared distances to every node."""
    m = points.shape[0]
    # squared distance to the nearest node, 64 rows at a time (cache-sized)
    near, nearest = np.empty(m), np.empty(m, dtype=int)
    for lo in range(0, m, 64):
        rows = np.arange(lo, min(lo + 64, m))
        d2 = np.zeros((rows.size, m))
        for x in points.T:
            d2 += (x[rows, None] - x[None, :]) ** 2
        for shift in (-1, 0, 1):  # the diagonal and the two adjacent bands (periodic)
            d2[rows - lo, (rows + shift) % m] = np.inf
        nearest[rows] = np.argmin(d2, axis=1)
        near[rows] = d2[rows - lo, nearest[rows]]
    for lo in range(0, m, 512):
        i = lo + int(np.argmin(near[lo : lo + 512]))
        if np.sqrt(near[i]) <= tol:  # sqrt is monotone: |p_i - p_j| <= tol at the nearest pair
            raise InjectivityError(f"sampled self-intersection between nodes {i} and {nearest[i]}")


# ---------------------------------------------------------------------------
# length and reparametrization


def curve_length(curve: JordanCurve) -> float:
    """Total length: 2 pi times the mean of the resolved speed fit (of the
    base curve, for an arc-length view)."""
    return curve.poly._length.length


def arc_length_reparametrize(curve: JordanCurve) -> JordanCurve:
    """Reparametrize so the parameter is proportional to arc length.

    The output runs over [0, 2*pi) with |d/dt| = length / (2*pi)
    everywhere.  It keeps the curve's polynomial, and its view is that
    polynomial's length table, whose Newton-inverted cumulative length its
    evaluators compose with; so it is idempotent, and a curve and its views
    share one table.  It keeps the curve's ``fit_tail``.
    """
    return JordanCurve(poly=curve.poly, view=curve.poly._length, fit_tail=curve.fit_tail)


# ---------------------------------------------------------------------------
# lag scans over coordinate pairs (x, x + d) of one period


def _shorter_arc(forward, length: float):
    """Shorter arc between points ``forward`` apart (mod length) on a closed curve.  Within
    one length either way, forward mod length is forward (+ length below 0), the bits of
    ``%`` with -0.0 taken to +0.0."""
    forward = np.asarray(forward)
    if np.all(np.abs(forward) < length):
        forward = np.where(forward < 0.0, forward + length, forward + 0.0)
    else:
        forward = forward % length
    return np.minimum(forward, length - forward)


def _node_lags(period: float) -> np.ndarray:
    """Lags k period / _SCAN_NODES of the scan grid for geometric node shifts k = 1 .. _SCAN_NODES / 2."""
    half = _SCAN_NODES // 2
    k = np.unique(np.rint(np.geomspace(1, half, _LAGS_PER_OCTAVE * int(np.log2(half)) + 1)))
    return period * k / _SCAN_NODES


def _lag_maxima(sample, score, here, lags, period: float):
    """Per lag d, the maximum over the nodes x_i = period i / _SCAN_NODES of score(sample(x_i),
    sample(x_i + d), _shorter_arc(d, period)) and its node.  ``here`` is ``sample`` (a tuple of
    arrays, one row per coordinate) at the nodes; whole node lags k slice rows k .. k + nodes
    of ``here`` repeated twice, others sample the shifted nodes."""
    x = period * np.arange(_SCAN_NODES) / _SCAN_NODES
    doubled = tuple(np.concatenate([v, v]) for v in here)
    here = tuple(v[:_SCAN_NODES] for v in doubled)  # contiguous, whatever ``here`` was
    arcs = _shorter_arc(np.asarray(lags, dtype=float), period)
    peaks = np.empty(len(lags))
    nodes = np.empty(len(lags), dtype=int)
    for j, d in enumerate(lags):
        k = int(round(d / x[1]))
        there = tuple(v[k : k + _SCAN_NODES] for v in doubled) if d == period * k / _SCAN_NODES else sample(x + d)
        vals = score(here, there, arcs[j])
        nodes[j] = int(np.argmax(vals))
        peaks[j] = vals[nodes[j]]
    return peaks, nodes


def _restarted_max(f, point, width, value: float):
    """``_polished_max`` restarted where the last search ended until one ends on its flat stop
    or gains at most 1e-12 relative (roundoff), at most _SEARCHES times: a ridge runs further
    than a search that ends on its width floor or step cap reaches, while a flat stop already
    sits at a smooth maximum.  Returns the running max, the last centre, the total steps and
    whether it settled."""
    depth = 0
    for _ in range(_SEARCHES):
        found, point, steps, flat = _polished_max(f, point, width, value)
        settled, value, depth = flat or found - value <= 1e-12 * abs(found), found, depth + steps
        if settled:
            break
    return value, point, depth, settled


def _pair_scores(sample, score, x, y, period: float):
    """score(sample(x), sample(y), _shorter_arc(y - x, period)) for coordinate arrays x and y
    that broadcast together: x (n, 1) against y (1, m) scores every pair, x (n,) against
    y (n,) the pairs (x_i, y_i) only, each to the bits of that pair in the grid.  ``sample``
    runs once, on x and y side by side."""
    both = sample(np.concatenate([x.ravel(), y.ravel()]))
    a = tuple(v[: x.size].reshape(x.shape + v.shape[1:]) for v in both)
    b = tuple(v[x.size :].reshape(y.shape + v.shape[1:]) for v in both)
    return score(a, b, _shorter_arc(y - x, period))


def _lag_scan(sample, score, here, period: float) -> ScanResult:
    """Supremum of a symmetric objective score(sample(x), sample(y), arc) over pairs of
    coordinates x != y of one period, arc = _shorter_arc(y - x, period): the per-lag maxima
    on the _SCAN_NODES uniform nodes (``here`` is ``sample`` there), then restarted shrinking
    searches from the best pair, spanning its neighbouring lags but under a quarter of its
    lag.  Each scan runs in the coordinate its distance is measured in: the parameter
    (period 2 pi), or cumulative length (period L), where the shorter arc's kink at half the
    length is the crease y = x + L / 2, grid lag _SCAN_NODES / 2.  A best pair whose lag is
    within two half-widths of half the period is searched along the crease first, over the
    _POLISH_NODES pairs (x, x + L / 2) of each step alone (``_pair_scores``, the diagonal of
    the grid of pairs to the bit): at a kink a search in both ends gains only linearly, so
    the crease maximum is the supremum unless a pair of the 9 x 9 box around it (a half-width
    from each end) beats it by more than 1e-12 relative.  Otherwise the search runs in both
    ends, on grids of pairs.  Converged when a search gains at most 1e-12 relative; after
    _SEARCHES searches that have not, it has not."""
    lags = _node_lags(period)
    peaks, nodes = _lag_maxima(sample, score, here, lags, period)
    j = int(np.argmax(peaks))
    width = min(0.5 * (lags[min(j + 1, lags.size - 1)] - (lags[j - 1] if j else 0.0)), 0.25 * lags[j])
    center = period * nodes[j] / _SCAN_NODES + np.array([0.0, lags[j]])

    def objective(x, y):
        return _pair_scores(sample, score, x[:, None], y[None, :], period)

    value = crease = float(peaks[j])
    depth, half = 0, 0.5 * period
    if abs(lags[j] - half) <= 2.0 * width:
        crease, x, depth, settled = _restarted_max(
            lambda xs: _pair_scores(sample, score, xs, xs + half, period), center[0], (width,), value
        )
        offsets = np.linspace(-width, width, 9)
        probe = objective(x[0] + offsets, x[0] + half + offsets)  # both sides of the crease
        depth += 1
        if not np.max(probe) - crease > 1e-12 * abs(crease):
            return ScanResult(float(crease), depth, bool(np.isfinite(crease) and settled))
    found, _, steps, settled = _restarted_max(objective, center, (width, width), value)
    value = max(found, crease)
    return ScanResult(float(value), depth + steps, bool(np.isfinite(value) and settled))


def chord_arc_constant(curve: JordanCurve) -> ScanResult:
    """Supremum of (shorter arc length) / (chord length) over boundary pairs,
    for any regular parametrization: a lag scan in cumulative length (of the
    base curve, for an arc-length view) over the table's equal-length nodes."""
    table = curve.poly._length
    return _lag_scan(table.tangent_frame, lambda a, b, arc: arc / _norms(b[0] - a[0]), table.scan_nodes, table.length)


def holder_derivative_constant(curve: JordanCurve, mu: float) -> ScanResult:
    """Supremum of |g'(t) - g'(s)| / dist(t, s)^mu over distinct pairs,
    for the given parametrization of the curve.

    dist is circle distance of the parameters.  On an arc-length view this is
    ``_arc_length_holder`` of its table, the ``holder_constant`` of
    ``compute_curve_constants`` to the bit.  Otherwise, at mu = 1 the supremum
    is max |g''|, with no scan: |g'(t) - g'(s)| <= max |g''| dist(t, s) by the
    mean-value inequality along the shorter arc, with equality as s -> t; a
    polished maximum of |g''| on the ``_extreme_nodes`` grid, a sampled maximum
    and not a certified upper end.  For mu < 1 a lag scan in the parameter does.
    """
    if not 0.0 < mu <= 1.0:
        raise DomainError("holder exponent mu must lie in (0, 1]")
    if curve.view is not None:
        return _arc_length_holder(curve.view, mu, max_curvature(curve) if mu == 1.0 else None)
    if mu == 1.0:
        acc = _norms(curve._acc.grid(_extreme_nodes(curve.poly.degree)))
        return ScanResult(_polished_grid_max(lambda t: _norms(curve._acc(t)), acc), 0, True)

    def sample(t):
        return (curve.velocity(t),)

    def score(a, b, arc):
        return _norms(b[0] - a[0]) / arc**mu

    return _lag_scan(sample, score, (curve.velocity_grid(_SCAN_NODES),), TWO_PI)


def _arc_length_holder(table: _LengthTable, mu: float, kappa: float | None) -> ScanResult:
    """mu-Hölder constant of the derivative of the arc-length parametrization over [0, 2 pi)
    of the curve with length table ``table``: (L / 2 pi)^(1 + mu) sup |T(s) - T(s')| /
    arc(s, s')^mu for the unit tangent T.  At mu = 1 it is kappa_max (L / 2 pi)^2 from the
    curvature maximum ``kappa`` (read only there), computed as such: |T(s) - T(s')| <=
    kappa_max arc(s, s') by the mean-value inequality, with equality as s' -> s, so no pair
    scan can exceed it.  For mu < 1 the tangent scan, like the chord-arc scan, runs in
    cumulative length over the table's equal-length nodes (``_lag_scan``, which searches the
    half-length crease first)."""
    if mu == 1.0:
        return ScanResult(table.scale**2 * kappa, 0, True)

    def score(a, b, arc):
        return table.scale ** (1.0 + mu) * _norms(b[1] - a[1]) / arc**mu

    return _lag_scan(table.tangent_frame, score, table.scan_nodes, table.length)


def _polished_max(f, center, width, best: float):
    """Maximum of f near ``center`` by shrinking searches on _POLISH_NODES values per
    coordinate (half-widths ``width``, times _SHRINK per step) around the best point so far;
    f maps the coordinate values to its grid of values.  The next half-width is 1.6 node
    spacings, so the best node's neighbours stay inside the next box.  A step stops the
    search when its best node is interior on every axis and its values agree to _FLAT
    relative (near a smooth maximum about 1/1024 of their spread is left to gain; at a kink
    the spread stays linear in the width, so this never fires there), else when the first
    half-width is below 1e-12 or after 30 steps.  Returns the running max with ``best``, the
    last search centre, the step count and whether the flat stop ended it."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    width = np.atleast_1d(np.asarray(width, dtype=float))
    for step in range(1, 31):
        axes = [c + np.linspace(-w, w, _POLISH_NODES) for c, w in zip(center, width)]
        vals = np.asarray(f(*axes))
        k = np.unravel_index(int(np.argmax(vals)), vals.shape)
        best = max(best, float(vals[k]))
        center = np.array([axis[i] for axis, i in zip(axes, k)])
        width = width * _SHRINK
        flat = bool(0 < min(k) and max(k) < _POLISH_NODES - 1 and np.ptp(vals) <= _FLAT * abs(best))
        if flat or width[0] < 1e-12:
            break
    return best, center, step, flat


def _polished_grid_max(f, grid_values) -> float:
    """Maximum of a smooth periodic f from its values on a uniform grid, polished at the argmax."""
    k = int(np.argmax(grid_values))
    return _polished_max(f, TWO_PI * k / grid_values.size, TWO_PI / grid_values.size, float(grid_values[k]))[0]


def _curvature(v, a):
    """sqrt(|v|^2 |a|^2 - <v, a>^2) / |v|^3 rowwise."""
    v2 = np.einsum("ij,ij->i", v, v)
    a2 = np.einsum("ij,ij->i", a, a)
    va = np.einsum("ij,ij->i", v, a)
    return np.sqrt(np.clip(v2 * a2 - va**2, 0.0, None)) / v2**1.5


def max_curvature(curve: JordanCurve) -> float:
    """Largest curvature, measured against true arc length, in any regular parametrization.

    Uses kappa = sqrt(|g'|^2 |g''|^2 - <g', g''>^2) / |g'|^3, which is
    parametrization invariant: a grid maximum over max(2048, 4 degree) nodes of
    the curve's polynomial (of the base curve, for an arc-length view), polished
    by a shrinking search until its values agree to roundoff (``_polished_max``),
    each step evaluating velocity and acceleration from one power table of their
    ``TrigPolynomial.stack``, the bits of two separate evaluations.
    That is ``_extreme_nodes`` up to degree 512, not above: on draw 2 of
    ``tests/test_cli.py::_degree_1000_draws`` 4,000 nodes give 264.72 and 4,096 give
    238.74 (2^17-node grid maximum 264.71), so a grid is no fix; a certified upper end is.
    """
    m = max(_SCAN_NODES, 4 * curve.poly.degree)
    both, n = TrigPolynomial.stack(curve._vel, curve._acc), curve.dim

    def kappa(t):
        va = both(t)
        return _curvature(va[:, :n], va[:, n:])

    return _polished_grid_max(kappa, _curvature(curve._vel.grid(m), curve._acc.grid(m)))


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


def dini_modulus_table(curve: JordanCurve, steps) -> TabulatedModulus:
    """Modulus of continuity of the curve derivative at the given steps.

    For each step delta the table holds sup over |t - s| <= delta (circle
    distance) of |h'(t) - h'(s)|: the cumulative max of the per-lag maxima
    over lags that include every step (capped at pi)."""
    deltas = np.sort(np.asarray(steps, dtype=float))
    if np.any(deltas <= 0):
        raise DomainError("modulus steps must be positive")
    capped = np.minimum(deltas, np.pi)
    lags = np.union1d(_node_lags(TWO_PI), capped)
    here = (curve.velocity_grid(_SCAN_NODES),)
    peaks, _ = _lag_maxima(lambda t: (curve.velocity(t),), lambda a, b, arc: _norms(b[0] - a[0]), here, lags, TWO_PI)
    values = np.maximum.accumulate(peaks)[np.searchsorted(lags, capped)]
    return TabulatedModulus(deltas, values)


# ---------------------------------------------------------------------------
# bundled constants


def compute_curve_constants(curve: JordanCurve, mu: float = 1.0) -> CurveConstants:
    """Length, chord-arc constant, Hölder constant and curvature of a curve
    in any regular parametrization.  ``holder_constant`` is that of the
    arc-length parametrization over [0, 2 pi), ``_arc_length_holder`` of the
    curve's length table, the value ``holder_derivative_constant`` gives on its
    arc-length view; it scales like the curve, and divided by (L / 2 pi)^(1 + mu)
    it is the Hölder constant of the unit tangent in true arc length (length^-mu,
    kappa_max at mu = 1).  kappa_max is a sampled maximum polished until its
    search is flat to roundoff, not a certified upper end.  ``refinement_depth``
    is the larger step count of the scans."""
    if not 0.0 < mu <= 1.0:
        raise DomainError("holder exponent mu must lie in (0, 1]")
    table = curve.poly._length
    lam = chord_arc_constant(curve)
    kappa = max_curvature(curve)
    hol = _arc_length_holder(table, mu, kappa)
    return CurveConstants(
        length=table.length,
        chord_arc=lam.value,
        holder_constant=hol.value,
        holder_exponent=mu,
        max_curvature=kappa,
        refinement_depth=max(lam.depth, hol.depth),
        converged={
            "length": True,
            "chord_arc": lam.converged,
            "holder_constant": hol.converged,
            "max_curvature": True,
        },
    )
