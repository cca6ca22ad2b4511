"""Seeded inputs for the qcharm benchmark, with their exact references.

Every input is a pure function of (seed, operation index): the same seed
gives the same parameters and byte-identical coefficient JSON and sample
CSV files.  Input files are written to a work directory chosen by the
caller; the program under test only ever sees those files and the CLI
arguments built here.

Each generator checks its family's admissibility before the input is used:
|c| < 1 for the affine map, |eps*m| < 1 for the polynomial maps, and
sum_j j(|a_j| + |b_j|) < 1 for perturbations of the identity, which makes
the planar boundary data univalent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import ellipe

TWO_PI = 2.0 * math.pi

# Family order of the closed-form maps of the verify workload.  The m >= 3
# cases, whose sup-gradient check is known to fail and which give the fewest
# exact digits, come first, so every run meets them and neither exact_digits
# nor the known-defect count depends on the seed picking them.  A run of
# 40 s holds only four or five operations, so the other families follow in
# an order rotated by the seed: across seeds, runs meet every family.
CLOSED_FORM_FIRST = (
    ("conformal_poly", 3),
    ("harmonic_graph", 3),
    ("conformal_poly", 4),
)
CLOSED_FORM_REST = (
    ("harmonic_graph", 2),
    ("identity", None),
    ("affine", None),
    ("conformal_poly", 2),
)


def closed_form_family(seed: int, index: int) -> tuple:
    slot = index % (len(CLOSED_FORM_FIRST) + len(CLOSED_FORM_REST))
    if slot < len(CLOSED_FORM_FIRST):
        return CLOSED_FORM_FIRST[slot]
    return CLOSED_FORM_REST[(seed + slot) % len(CLOSED_FORM_REST)]


# Raw samples per sampled boundary curve, and the degree of the smooth
# source they are drawn from.  The FFT fit has degree SAMPLED_N / 2; the
# harmonics above SOURCE_DEGREE are roundoff, as in real sampled data.
SAMPLED_N = 64
SOURCE_DEGREE = 8

# boundary-geometry: one operation processes one curve of each (kind,
# dimension), each at both Hölder exponents.  Every operation therefore has
# the same make-up whatever the seed and however many operations a run
# holds, and each one meets the mu < 1 path of the boundary-Jacobian bound.
GEOMETRY_CURVES = (("ellipse", 2), ("csv", 2), ("csv", 3))
GEOMETRY_MUS = (1.0, 0.5)
GEOMETRY_CSV_ROWS = 256
GEOMETRY_PAIRS = 128
GEOMETRY_TAUS = 6
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
MODULUS_STEPS = tuple(float(x) for x in np.geomspace(1e-3, math.pi, 12))


class InadmissibleInput(RuntimeError):
    """A generated input violates its family's admissibility condition."""


def _rng(seed: int, index: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, index, stream])


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# perturbations of the identity and their boundary data


@dataclass
class MildFourier:
    """Boundary data w(t) = sum_j a_j e^{ijt} + conj(b_j) e^{-ijt} in the
    plane, optionally lifted to R^3 by sum_j c_j cos(jt) + d_j sin(jt).

    a_1 = 1; the perturbation coefficients decay like j^-3.
    """

    a: np.ndarray
    b: np.ndarray
    lift: np.ndarray | None = None  # (J+1, 2): cosine and sine coefficients

    @property
    def dim(self) -> int:
        return 2 if self.lift is None else 3

    def samples(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        t = TWO_PI * np.arange(n) / n
        e = np.exp(1j * np.outer(t, np.arange(self.a.size)))
        w = e @ self.a + np.conj(e @ self.b)
        cols = [w.real, w.imag]
        if self.lift is not None:
            j = np.arange(self.lift.shape[0])
            cols.append(np.cos(np.outer(t, j)) @ self.lift[:, 0] + np.sin(np.outer(t, j)) @ self.lift[:, 1])
        return t, np.stack(cols, axis=1)

    def lusin_area(self) -> float:
        """pi sum_j j(|a_j|^2 - |b_j|^2): area of the planar harmonic image."""
        j = np.arange(self.a.size)
        return float(math.pi * np.sum(j * (np.abs(self.a) ** 2 - np.abs(self.b) ** 2)))


def _decaying(rng, count: int) -> np.ndarray:
    j = np.arange(1, count + 1)
    return (rng.normal(size=count) + 1j * rng.normal(size=count)) / j**3


def mild_fourier(rng, degree: int, dim: int) -> MildFourier:
    j = np.arange(degree + 1)
    a = np.zeros(degree + 1, dtype=complex)
    b = np.zeros(degree + 1, dtype=complex)
    a[1] = 1.0
    a[2:] = _decaying(rng, degree)[1:]
    b[1:] = _decaying(rng, degree)
    size = float(np.sum(j[2:] * np.abs(a[2:])) + np.sum(j * np.abs(b)))
    scale = rng.uniform(0.1, 0.3) / size
    a[2:] *= scale
    b *= scale
    if float(np.sum(j[2:] * np.abs(a[2:])) + np.sum(j * np.abs(b))) >= 1.0:
        raise InadmissibleInput("perturbation of the identity must satisfy sum j(|a_j| + |b_j|) < 1")
    lift = None
    if dim == 3:
        c = _decaying(rng, degree)
        weight = float(np.sum(j[1:] * (np.abs(c.real) + np.abs(c.imag))))
        c *= rng.uniform(0.1, 0.3) / weight
        lift = np.zeros((degree + 1, 2))
        lift[1:, 0] = c.real
        lift[1:, 1] = c.imag
    return MildFourier(a=a, b=b, lift=lift)


def fft_fit(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cosine and sine coefficients of the band-limited interpolant through
    uniform periodic samples (m, n); degree m // 2, Nyquist weight 1."""
    m = points.shape[0]
    c = np.fft.rfft(points, axis=0) / m
    half = m // 2
    a = np.zeros((half + 1, points.shape[1]))
    b = np.zeros_like(a)
    a[0] = c[0].real
    a[1:] = 2.0 * c[1:].real
    b[1:] = -2.0 * c[1:].imag
    if m % 2 == 0:
        a[half] = c[half].real
        b[half] = 0.0
    return a, b


def write_samples_csv(path: Path, t: np.ndarray, points: np.ndarray) -> None:
    rows = [",".join(_fmt(v) for v in (ti, *p)) for ti, p in zip(t, points)]
    path.write_text("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# workload inputs


@dataclass
class VerifyInput:
    """One `qcharm verify` invocation and the references its report is
    compared with (relative error of each report field)."""

    label: str
    argv: list
    references: dict = field(default_factory=dict)  # report field -> exact value
    # a map on which the linear radial extrapolation is known to miss
    # sup|grad u| (and K) by more than the report's 1e-6 gate
    extrapolation_bias: bool = False


def closed_form_input(seed: int, index: int, workdir: Path) -> VerifyInput:
    rng = _rng(seed, index)
    name, order = closed_form_family(seed, index)
    argv = ["verify", "--scenario", name]
    if name == "identity":
        refs = {"K": 1.0, "sup_grad": 1.0, "area": math.pi}
        label = "identity"
    elif name == "affine":
        c = rng.uniform(-0.5, 0.5)
        if abs(c) >= 1.0:
            raise InadmissibleInput("affine coefficient must satisfy |c| < 1")
        argv += ["--c", _fmt(c)]
        refs = {"K": (1 + abs(c)) / (1 - abs(c)), "sup_grad": 1 + abs(c), "area": math.pi * (1 - c * c)}
        label = f"affine c={c:.3f}"
    else:
        eps = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.6) / order
        if abs(eps) * order >= 1.0:
            raise InadmissibleInput("require |eps * m| < 1")
        argv += ["--epsilon", _fmt(eps), "--order", str(order)]
        label = f"{name} m={order} eps={eps:.4f}"
        if name == "conformal_poly":
            refs = {"K": 1.0, "sup_grad": 1 + abs(eps), "area": math.pi * (1 + eps * eps / order)}
        else:
            w = abs(eps) * order
            refs = {"K": math.sqrt(1 + w * w), "sup_grad": math.sqrt(1 + w * w), "area": _graph_area(w, order)}
    biased = name == "harmonic_graph" or (name == "conformal_poly" and order >= 3)
    return VerifyInput(label=label, argv=argv, references=refs, extrapolation_bias=biased)


def _graph_area(w: float, order: int) -> float:
    """Area of the graph of eps Re z^m over the disk, |grad| = w r^(m-1)."""
    if order == 2:
        return 2.0 * math.pi / (3.0 * w * w) * ((1.0 + w * w) ** 1.5 - 1.0)
    # smooth integrand on [0, 1]: 64-point Gauss-Legendre is exact to roundoff
    x, wts = np.polynomial.legendre.leggauss(64)
    r = 0.5 * (x + 1.0)
    return float(TWO_PI * 0.5 * np.sum(wts * r * np.sqrt(1.0 + (w * r ** (order - 1)) ** 2)))


def sampled_input(seed: int, index: int, workdir: Path) -> VerifyInput:
    rng = _rng(seed, index, 1)
    dim = 2 if index % 2 == 0 else 3
    source = mild_fourier(rng, SOURCE_DEGREE, dim)
    _, pts = source.samples(SAMPLED_N)
    cos_c, sin_c = fft_fit(pts)
    path = workdir / f"coeffs-{index}.json"
    path.write_text(json.dumps({"cos_coeffs": cos_c.tolist(), "sin_coeffs": sin_c.tolist()}))
    refs = {"area": source.lusin_area()} if dim == 2 else {}
    return VerifyInput(label=f"fourier R^{dim} N={SAMPLED_N}", argv=["verify", "--scenario", "fourier", "--coeffs", str(path)], references=refs)


@dataclass
class VerifyOp:
    """The `qcharm verify` invocations of one operation of the verify workload."""

    label: str
    reports: list  # VerifyInput


def verify_input(seed: int, index: int, workdir: Path) -> VerifyOp:
    """One closed-form map and one sampled fit: both sides of the line
    between exact low-degree boundary data and FFT fits with a roundoff
    tail go into every operation."""
    reports = [closed_form_input(seed, index, workdir), sampled_input(seed, index, workdir)]
    return VerifyOp(label=" + ".join(r.label for r in reports), reports=reports)


@dataclass
class CurveInput:
    """One boundary curve: the `qcharm constants` calls (one per Hölder
    exponent), the library-side curve source, angle pairs, tau grid and the
    periodic part of a non-identity angle map."""

    label: str
    kind: str  # "ellipse" or "csv"
    dim: int
    argvs: dict  # mu -> argv
    ellipse: tuple | None  # (a, b) with a >= b
    csv_path: Path | None
    pairs: np.ndarray  # (P, 2) angle pairs
    taus: np.ndarray
    angle_map_coeffs: tuple  # (cos_coeffs, sin_coeffs) of the periodic part
    references: dict = field(default_factory=dict)  # constants field -> exact value


@dataclass
class GeometryInput:
    """The curves of one boundary-geometry operation, one per entry of
    GEOMETRY_CURVES."""

    label: str
    curves: list


def _curve_input(rng, kind: str, dim: int, path: Path, spread: float) -> CurveInput:
    """``spread`` in [0, 1) places an ellipse's aspect in [1, 16] log-uniformly."""
    refs = {}
    ell = None
    csv_path = None
    if kind == "ellipse":
        b = rng.uniform(0.5, 1.0)
        a = b * math.exp(spread * math.log(16.0))
        ell = (a, b)
        curve_args = ["--curve", "ellipse", "--a", _fmt(a), "--b", _fmt(b)]
        refs = {"length": 4.0 * a * float(ellipe(1.0 - (b / a) ** 2)), "max_curvature": a / (b * b)}
        label = f"ellipse {a / b:.2f}:1"
    else:
        source = mild_fourier(rng, SOURCE_DEGREE, dim)
        t, pts = source.samples(GEOMETRY_CSV_ROWS)
        csv_path = path
        write_samples_csv(csv_path, t, pts)
        curve_args = ["--curve", "csv", "--samples", str(csv_path)]
        label = f"csv R^{dim}"
    argvs = {mu: ["constants", *curve_args, "--mu", _fmt(mu)] for mu in GEOMETRY_MUS}
    pairs = rng.uniform(0.0, TWO_PI, size=(GEOMETRY_PAIRS, 2))
    taus = (rng.uniform() + np.arange(GEOMETRY_TAUS)) * (TWO_PI / GEOMETRY_TAUS)
    alpha = rng.uniform(0.05, 0.3)
    phase = rng.uniform(0.0, TWO_PI)
    if alpha >= 1.0:
        raise InadmissibleInput("angle map t + alpha sin(t + phase) needs alpha < 1")
    amap = ([[0.0], [alpha * math.sin(phase)]], [[0.0], [alpha * math.cos(phase)]])
    return CurveInput(
        label=label,
        kind=kind,
        dim=dim,
        argvs=argvs,
        ellipse=ell,
        csv_path=csv_path,
        pairs=pairs,
        taus=taus,
        angle_map_coeffs=amap,
        references=refs,
    )


def geometry_input(seed: int, index: int, workdir: Path) -> GeometryInput:
    rng = _rng(seed, index)
    # The ellipse aspect, which sets most of an operation's cost, follows a
    # golden-ratio sequence from a seeded start: any run of consecutive
    # operations covers the aspect range evenly, whatever the seed.
    spread = (np.random.default_rng(seed).uniform() + index * GOLDEN) % 1.0
    curves = [
        _curve_input(rng, kind, dim, workdir / f"curve-{index}-{k}.csv", spread)
        for k, (kind, dim) in enumerate(GEOMETRY_CURVES)
    ]
    return GeometryInput(label=", ".join(c.label for c in curves), curves=curves)
