"""Harmonic extension of circle boundary data and its first derivatives.

Boundary data is a trigonometric polynomial F(t) = sum_j a_j cos(jt) +
b_j sin(jt) per coordinate, so its harmonic extension is exactly
u = Re f with f(z) = sum_j c_j z^j, c_j = a_j - i b_j, and the gradient is
u_x = Re f', u_y = -Im f' (Duren, Harmonic Mappings in the Plane, 2004,
ch. 1).  Scattered points anywhere on the closed disk, the circle
included, go through the polynomial's one evaluator
(``TrigPolynomial.extension``: a power table of z per chunk, then one
matmul); whole circles of uniform angles (the area rule's) through one
inverse FFT each.  Data that is not itself a polynomial (a curve composed
with an angle map, or an arc-length view) is fitted once by FFT until the
coefficient tail sits at roundoff;
``BoundaryMap.series_tail`` carries the discarded part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import TWO_PI, JordanCurve, TrigPolynomial, _extreme_nodes, _resolved_fit, _sample_fit
from .errors import DomainError

# |e^{it}| exceeds one by roundoff; points that far out still count as on the circle
_DISK_SLACK = 1e-12


@dataclass(frozen=True)
class QuadratureSpec:
    """Trapezoid rule size of the boundary-Jacobian majorant method
    (``kernels.boundary_jacobian_bound``)."""

    m: int = 1024

    def __post_init__(self):
        if self.m < 64 or self.m & (self.m - 1):
            raise DomainError("node count m must be a power of two, at least 64")


class AngleMap:
    """Weak homeomorphism of the circle: t -> t + periodic part, nondecreasing.

    ``derivative_range`` is the least and largest f', sampled once on the ``_extreme_nodes``
    grid of the degree, (1, 1) for the identity; ``DomainError`` when the least is below -1e-9."""

    def __init__(self, periodic: TrigPolynomial | None = None):
        if periodic is not None and periodic.dim != 1:
            raise DomainError("periodic part of an angle map must be scalar-valued")
        self._osc = periodic
        self._osc_d = periodic.derivative() if periodic is not None else None
        fp = 1.0 + self._osc_d.grid(_extreme_nodes(periodic.degree)) if periodic is not None else 1.0
        self.derivative_range = (float(np.min(fp)), float(np.max(fp)))
        if self.derivative_range[0] < -1e-9:
            raise DomainError("angle map must be nondecreasing")

    @classmethod
    def identity(cls) -> "AngleMap":
        return cls(None)

    @classmethod
    def from_samples(cls, values) -> "AngleMap":
        """Fit from samples of f at uniform nodes; f(2*pi) - f(0) must be 2*pi."""
        v = np.asarray(values, dtype=float)
        t = TWO_PI * np.arange(v.size) / v.size
        return cls(TrigPolynomial.from_samples(v - t))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self._osc is None:
            return t.copy() if t.ndim else float(t)
        osc = self._osc(t)[..., 0] if t.ndim else float(self._osc(t)[0])
        return t + osc

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        if self._osc_d is None:
            return np.ones_like(t) if t.ndim else 1.0
        osc = self._osc_d(t)[..., 0] if t.ndim else float(self._osc_d(t)[0])
        return 1.0 + osc


class BoundaryMap:
    """Boundary data F(e^{it}) = h(e^{i f(t)}) for a target curve h.

    ``angle_map`` defaults to the identity, in which case F is just the
    curve's own parametrization.  ``from_values`` wraps raw periodic data
    without a curve factorization; such maps support harmonic extension
    and gradients but not the curve-kernel operations.
    """

    def __init__(self, curve: JordanCurve, angle_map: AngleMap | None = None):
        self.curve = curve
        self.angle_map = angle_map or AngleMap.identity()
        self._series = None
        increase = float(self.angle_map(TWO_PI)) - float(self.angle_map(0.0))
        if abs(increase - TWO_PI) > 1e-9:
            raise DomainError("angle map must increase by 2*pi over a period")

    @classmethod
    def from_values(cls, samples) -> "BoundaryMap":
        """Raw boundary data from uniform periodic samples (m, n), or (m,) for scalar data:
        their FFT fit at its resolved degree, by the rule of ``curves.build_curve`` (trailing
        harmonics below the roundoff floor 1e-15 * max|sample| * log2(m) go to ``series_tail``)."""
        obj = cls.__new__(cls)
        obj.curve = None
        obj.angle_map = None
        obj._series = _sample_fit(samples)
        return obj

    def values(self, t):
        if self.curve is not None:
            return self.curve.position(self.angle_map(t))
        return self.series()(t)

    def series(self) -> TrigPolynomial:
        """The boundary data as one trigonometric polynomial, computed on
        first use and cached.

        The curve's own polynomial (identity angle map, no arc-length view)
        with its ``fit_tail``, and the resolved fit of ``from_values`` with
        its tail, are returned as they are.  Other data is fitted by FFT at 64, 128, ...
        samples, by the same resolution rule (``curves._chopped``): trailing
        harmonics below the roundoff floor 1e-15 * max|F| * log2(samples) are
        dropped, and the count doubles until the kept degree is at most a
        quarter of it.  ``RefinementError`` when the fit is still unresolved at
        2^16 samples.
        """
        if self._series is None:
            if self.angle_map._osc is None and self.curve.view is None:
                self._series = (self.curve.poly, self.curve.fit_tail)
            else:
                self._series = _resolved_fit(lambda m: self.values(TWO_PI * np.arange(m) / m), 64)
        return self._series[0]

    @property
    def series_tail(self) -> float:
        """sum_{j > J} j |c_j| over the harmonics the fit (of this data, of the
        curve's samples or of its coefficients) dropped at the roundoff floor;
        zero when none was dropped, as for exact data.  On the closed disk
        it bounds the gradient error of the truncation, and, since j >= 1,
        its value error."""
        self.series()
        return self._series[1]


@dataclass
class CheckRecord:
    """One verified inequality: margin = rhs - lhs, passing when >= -tol."""

    name: str
    lhs: float
    rhs: float
    margin: float
    passed: bool


# ---------------------------------------------------------------------------
# extension


def _closed_disk(z) -> np.ndarray:
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(np.abs(zz) > 1.0 + _DISK_SLACK):
        raise DomainError("evaluation points must lie in the closed unit disk")
    return zz


def poisson_extend(boundary: BoundaryMap, z):
    """Harmonic extension of the boundary data at point(s) z of the closed disk."""
    vals = boundary.series().extension(_closed_disk(z))
    return vals[0] if np.ndim(z) == 0 else vals


def gradient_frames(boundary: BoundaryMap, z):
    """Gradient frames (ux, uy) at an array of points of the closed disk;
    returns (ux, uy) arrays of shape (k, n).  ux = Re f' and uy = Re(i f') are one
    evaluation of the 2n columns [(j + 1) c_{j+1}, i (j + 1) c_{j+1}], j < max(J, 1)."""
    c = boundary.series().complex_coeffs
    df = np.zeros((max(c.shape[0] - 1, 1), c.shape[1]), dtype=complex)
    df[: c.shape[0] - 1] = np.arange(1, c.shape[0])[:, None] * c[1:]
    both = np.hstack([df, 1j * df])
    frames = TrigPolynomial(both.real, -both.imag).extension(_closed_disk(z))
    return frames[:, : c.shape[1]], frames[:, c.shape[1] :]


def _circle_frames(boundary: BoundaryMap, radii, n: int):
    """Gradient frames (ux, uy) at the n uniform angles 2 pi k / n of each circle
    |z| = r, r in ``radii``, circle after circle: arrays of shape (radii * n, dim).

    On a circle f'(r e^{2 pi i k/n}) = sum_{j < J} (j + 1) c_{j+1} r^j e^{2 pi i jk/n}
    is the unnormalized inverse FFT of the array holding (j + 1) c_{j+1} r^j at
    frequency j, so each circle costs one FFT of n points, not J Horner steps per
    point; no frequency aliases while n >= J."""
    c = boundary.series().complex_coeffs
    degree = c.shape[0] - 1
    if n < degree:
        raise DomainError(f"{n} angles per circle would alias the degree-{degree} series")
    r = np.asarray(radii, dtype=float).ravel()
    j = np.arange(degree)
    spectrum = np.zeros((r.size, n, c.shape[1]), dtype=complex)
    spectrum[:, :degree] = (r[:, None] ** j)[:, :, None] * ((j + 1)[:, None] * c[1:])
    df = np.fft.ifft(spectrum, axis=1, norm="forward").reshape(-1, c.shape[1])
    return df.real, -df.imag


# ---------------------------------------------------------------------------
# frame algebra


def _dilatations(ux, uy):
    """Operator norm, minimal stretch, Jacobian and halved squared
    Hilbert-Schmidt norm (|ux|^2 + |uy|^2) / 2 of each frame row.

    op and min follow the closed forms in terms of eta = J / (|ux|^2 +
    |uy|^2); the discriminant sqrt(1 - 4 eta^2) is evaluated through the
    cancellation-free identity s^2 - 4 J^2 = (g11 - g22)^2 + 4 g12^2, and
    min is taken as J / op so that op * min reproduces J exactly.
    """
    g11 = np.einsum("ij,ij->i", ux, ux)
    g22 = np.einsum("ij,ij->i", uy, uy)
    g12 = np.einsum("ij,ij->i", ux, uy)
    s = g11 + g22
    j = np.sqrt(np.clip(g11 * g22 - g12**2, 0.0, None))
    disc = np.sqrt((g11 - g22) ** 2 + 4.0 * g12**2)
    op = np.sqrt((s + disc) / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        mn = np.where(op > 0.0, j / np.where(op > 0.0, op, 1.0), 0.0)
    return op, mn, j, 0.5 * s

