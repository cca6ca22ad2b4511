import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qcharm import curves
from qcharm import (
    AngleMap,
    BoundaryMap,
    DomainError,
    InjectivityError,
    JordanCurve,
    RefinementError,
    RegularityError,
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
    gradient_frames,
    holder_derivative_constant,
    isoperimetric_check,
    make_scenario,
    max_curvature,
    poisson_extend,
    verify,
)

TWO_PI = 2.0 * math.pi

# pinned by tests/oracles.py (run before the implementation was written)
ELLIPSE_PERIMETER = 6.346175835716235
ELLIPSE_CHORD_ARC = 1.9831799486613273
CIRCLE_HOLDER_HALF = 1.2038366614925038
ELLIPSE_MAX_CURVATURE = 1.875  # closed form a/b^2; dense oracle 1.8749999999999996


# ---------------------------------------------------------------------------
# evaluation


def _phase_tolerance(poly, t):
    """1e-13 of the coefficient weight, plus the rounding of each phase j*t:
    any evaluator that forms j*t in floating point moves it by up to
    eps/2 * |t| * j, the term-by-term reference included."""
    weight = np.sum(np.abs(poly.cos_coeffs) + np.abs(poly.sin_coeffs))
    return weight * (1e-13 + np.finfo(float).eps * np.abs(t) * poly.degree)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2, 15, 16, 128, 129, 256, 1024])
def test_evaluation_matches_term_by_term(degree, dim):
    rng = np.random.default_rng(100 * degree + dim)
    a = rng.standard_normal((degree + 1, dim))
    b = rng.standard_normal((degree + 1, dim))
    poly = TrigPolynomial(a, b)
    inputs = (
        rng.uniform(-1e3, 1e3),
        np.empty(0),
        rng.uniform(-TWO_PI, TWO_PI, 1),
        np.concatenate([rng.uniform(-1e3, 1e3, 4), rng.uniform(-TWO_PI, TWO_PI, 5)]),
        np.concatenate([rng.uniform(-1e3, 1e3, 1024), rng.uniform(-TWO_PI, TWO_PI, curves._EVAL_CHUNK - 1023)]),
    )
    for t in inputs:
        got = poly(t)
        assert got.shape == np.shape(t) + (dim,)
        assert np.array_equal(got, poly.extension(np.exp(1j * t)))
        want = oracles._trig_derivative(a, b, np.atleast_1d(t), 0).reshape(got.shape)
        assert np.all(np.abs(got - want) <= _phase_tolerance(poly, t)[..., None])
        # sin(0 t) vanishes: the nonzero sin_coeffs[0] drawn above is ignored
        assert np.array_equal(got, TrigPolynomial(a, np.vstack([np.zeros((1, dim)), b[1:]]))(t))
    for n in {max(2 * degree, 1), 2 * degree + 3}:
        t = TWO_PI * np.arange(n) / n
        assert np.all(np.abs(poly.grid(n) - poly(t)) <= _phase_tolerance(poly, t)[:, None])
    # the same evaluator in the disk: the extension, its two readers and the gradient frames,
    # with the phase j arg z in place of j t
    th = rng.uniform(-math.pi, math.pi, 64)
    z = np.concatenate([r * np.exp(1j * th) for r in (0.0, 0.5, 0.9, 1.0)])
    want_u, want_ux, want_uy = oracles.disk_extension(a, b, z)
    boundary = BoundaryMap(JordanCurve(poly=poly))
    tol = _phase_tolerance(poly, np.angle(z))[:, None]
    for got in (poly.extension(z), poisson_extend(boundary, z)):
        assert got.shape == (z.size, dim) and np.all(np.abs(got - want_u) <= tol)
    tol = _phase_tolerance(poly.derivative(), np.angle(z))[:, None]
    for got, want in zip(gradient_frames(boundary, z), (want_ux, want_uy)):
        assert got.shape == (z.size, dim) and np.all(np.abs(got - want) <= tol)


def test_evaluation_memory_is_bounded():
    import tracemalloc

    # the power table of a chunk holds at most 2^20 entries; 2,048-row chunks of this
    # degree-4096 polynomial peaked at 141 MB under tracemalloc
    rng = np.random.default_rng(4096)
    poly = TrigPolynomial(rng.standard_normal((4097, 2)), rng.standard_normal((4097, 2)))
    t = rng.uniform(0.0, TWO_PI, 2048)
    tracemalloc.start()
    try:
        poly(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


@pytest.mark.parametrize("degree", [0, 1, 2, 15, 16, 40])
def test_increments_match_term_by_term(degree):
    """x -> p(t0 + x) - p(t0) keeps its relative accuracy as x -> 0: the error
    allowed shrinks with |x|, which a difference of two values cannot meet."""
    rng = np.random.default_rng(200 + degree)
    a = rng.standard_normal((degree + 1, 2))
    b = rng.standard_normal((degree + 1, 2))
    poly = TrigPolynomial(a, b)
    x = np.array([1e-12, -1e-12, 1e-8, -1e-8, 1e-4, -1e-4, 0.5, math.pi])
    # term j is at most j |c_j| |x|; its phases j*t0 and j*x/2 round by eps j |t0| and eps j |x|
    weight = np.sum(np.arange(degree + 1)[:, None] * (np.abs(a) + np.abs(b)))
    for t0 in rng.uniform(-TWO_PI, TWO_PI, 3):
        chord = poly.increments(t0)
        got = chord(x)
        tol = np.abs(x) * weight * (1e-13 + np.finfo(float).eps * degree * (abs(t0) + np.abs(x)))
        assert got.shape == (x.size, 2)
        assert np.all(np.abs(got - oracles.trig_increment(a, b, t0, x)) <= tol[:, None])
        assert chord(0.5).shape == (2,) and np.all(np.abs(chord(0.5) - got[6]) <= tol[6])
        assert np.all(chord(np.zeros(3)) == 0.0)


def test_circle_increment_is_exact_chord():
    for r in (1e-3, 1.0, 7.5):
        poly = TrigPolynomial([[0.0, 0.0], [r, 0.0]], [[0.0, 0.0], [0.0, r]])
        for t0 in (0.0, 1.3, -4.0):
            chord = np.linalg.norm(poly.increments(t0)(1e-10))
            assert abs(chord - 2.0 * r * math.sin(0.5e-10)) <= 1e-15 * chord


# ---------------------------------------------------------------------------
# construction


def _nodes(m):
    return TWO_PI * np.arange(m) / m


def test_circle_unit_speed(circle_curve):
    speeds = np.linalg.norm(circle_curve.velocity(_nodes(512)), axis=1)
    assert np.allclose(speeds, 1.0, atol=1e-12)


def test_ellipse_speed_extrema(ellipse_curve):
    speeds = np.linalg.norm(ellipse_curve.velocity(_nodes(256)), axis=1)
    assert abs(speeds.min() - 0.8) < 1e-12
    assert abs(speeds.max() - 1.2) < 1e-12


def test_figure_eight_rejected():
    t = TWO_PI * np.arange(256) / 256
    pts = np.stack([np.sin(2 * t), np.sin(t)], axis=1)
    with pytest.raises(InjectivityError):
        build_curve(pts)


def _named_pair(points):
    """The node pair the injectivity check names, or None when it passes."""
    try:
        curves._check_sampled_injectivity(points)
    except InjectivityError as exc:
        return tuple(int(k) for k in re.search(r"nodes (\d+) and (\d+)", str(exc)).groups())
    return None


def _tolerance(points):
    return 1e-9 * max(2.0 * float(np.max(np.linalg.norm(points - points.mean(axis=0), axis=1))), 1e-12)


@pytest.mark.parametrize("m, dim", [(64, 2), (300, 3), (600, 2)])
def test_injectivity_check_matches_oracle(m, dim):
    rng = np.random.default_rng(10 * m + dim)
    t = TWO_PI * np.arange(m) / m
    base = 0.01 * rng.standard_normal((m, dim))
    base[:, 0] += np.cos(t)
    base[:, 1] += np.sin(t)
    verdicts = set()
    for f in (0.0, 0.5, 1 - 1e-6, 1 - 1e-9, 1.0, 1 + 1e-9, 1 + 1e-6, 1.5, 2.0, 3.0):
        for _ in range(2):
            i, j = rng.choice(m, 2, replace=False)
            if min((i - j) % m, (j - i) % m) <= 1:
                continue
            e = rng.standard_normal(dim)
            pts = base.copy()
            for _ in range(2):  # moving node j changes the tolerance a little
                pts[j] = pts[i] + f * _tolerance(pts) * e / np.linalg.norm(e)
            want = oracles.sampled_self_intersection(pts)
            assert _named_pair(pts) == want
            verdicts.add(want is None)
    assert verdicts == {True, False}
    # offsets orthogonal to the screen's direction project onto the same point, so the scan
    # runs, and finds no pair
    direction = np.sin(np.arange(1.0, dim + 1.0))
    for f in (1.5, 3.0, 1e3):
        i, j = rng.choice(m, 2, replace=False)
        if min((i - j) % m, (j - i) % m) <= 1:
            continue
        e = rng.standard_normal(dim)
        e -= (e @ direction) / (direction @ direction) * direction
        pts = base.copy()
        for _ in range(2):
            pts[j] = pts[i] + f * _tolerance(pts) * e / np.linalg.norm(e)
        assert oracles.sampled_self_intersection(pts) is None and _named_pair(pts) is None
    if m > 512:
        # a pinch in the first 512 rows is named before a closer one further on
        pts = base.copy()
        pts[300] = pts[10]
        pts[m - 20] = pts[520]
        pts[10, 0] += 0.5 * _tolerance(pts)
        assert _named_pair(pts) == oracles.sampled_self_intersection(pts) == (10, 300)


def test_injectivity_scan_skipped_on_catalog_curves(monkeypatch):
    """The projection screen clears the catalog curves, so the quadratic scan never runs."""
    calls = []
    monkeypatch.setattr(curves, "_nearest_pair_scan", lambda points, tol: calls.append(points.shape))
    catalog = [("identity", {}), ("affine", {"c": 0.2}), ("conformal_poly", {"eps": 0.3, "m": 3})]
    for name, params in catalog + [("harmonic_graph", {"eps": 0.1, "m": 2})]:
        make_scenario(name, **params)
    for aspect in (1.0, 4.0, 16.0):
        build_curve(ellipse(aspect, 1.0))
    assert calls == []
    # a pinch still reaches it
    t = TWO_PI * np.arange(256) / 256
    build_curve(np.stack([np.cos(t), np.sin(t) * np.cos(t) ** 2], axis=1), 256)
    assert calls == [(256, 2)]


def test_pinched_curve_names_the_pinch():
    t = TWO_PI * np.arange(256) / 256
    pts = np.stack([np.cos(t), np.sin(t) * np.cos(t) ** 2], axis=1)
    assert oracles.sampled_self_intersection(pts) == (64, 192)
    with pytest.raises(InjectivityError, match="between nodes 64 and 192"):
        build_curve(pts, 256)


def test_build_curve_computes_speed_range(circle_curve, tmp_path):
    # the regularity check reads the speed extremes, so no later reader samples the speed again
    for curve in [circle_curve, build_curve(ellipse(2.0, 1.0)), _csv_curve(*_degree8_source(1, 3), tmp_path / "c.csv")]:
        assert "speed_range" in vars(curve)


def test_small_node_count_rejected():
    with pytest.raises(DomainError):
        build_curve(circle(), 8)


def test_degenerate_curve_rejected():
    flat = TrigPolynomial(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]]))
    with pytest.raises(RegularityError):
        build_curve(flat, 64)


@pytest.mark.parametrize("shape", ["circle", "ellipse 4:1"])
def test_constants_are_scale_covariant_at_mu_one(shape):
    # the regularity test is relative to the curve's scale: a curve 1e-10 across passes it
    def constants(r):
        return compute_curve_constants(build_curve(circle(r) if shape == "circle" else ellipse(4.0 * r, r)), 1.0)

    base = constants(1.0)
    for r in (1e-10, 1e-3, 1e3):
        c = constants(r)
        scaled = [c.chord_arc, c.length / r, c.max_curvature * r, c.holder_constant / r]
        for got, want in zip(scaled, [base.chord_arc, base.length, base.max_curvature, base.holder_constant]):
            assert abs(got - want) <= 1e-14 * want, (r, scaled)


def test_nonuniform_samples_rejected():
    t = np.sort(np.random.default_rng(0).uniform(0, TWO_PI, 64))
    pts = np.stack([np.cos(t), np.sin(t)], axis=1)
    with pytest.raises(DomainError):
        build_curve((t, pts), 64)


def test_raw_samples_need_one_parameter_per_row():
    # a 10-entry t column for 256 rows used to pass the uniformity check and fit the rows
    rows = TWO_PI * np.arange(256) / 256
    pts = np.stack([np.cos(rows), np.sin(rows)], axis=1)
    with pytest.raises(DomainError, match=r"\b10\b.*\b256\b"):
        build_curve((TWO_PI * np.arange(10) / 10, pts), 512)


def test_scalar_samples_are_not_a_curve():
    # m scalar samples are one coordinate, alone or with their t column
    t = TWO_PI * np.arange(64) / 64
    for generator in (np.cos(t), (t, np.cos(t))):
        with pytest.raises(DomainError, match=r"curves must live in R\^n with n >= 2"):
            build_curve(generator, 64)


def test_raw_samples_match_descriptor(circle_curve):
    t = TWO_PI * np.arange(128) / 128
    pts = np.stack([np.cos(t), np.sin(t)], axis=1)
    raw = build_curve((t, pts), 128)
    assert np.allclose(raw.velocity(t), np.stack([-np.sin(t), np.cos(t)], axis=1), atol=1e-10)


# ---------------------------------------------------------------------------
# sampled fits at their resolved degree


def _degree8_source(seed: int, dim: int):
    """Unit circle plus harmonics 1..8 decaying like j^-3, scaled so that
    sum_j j (|a_j| + |b_j|) <= 0.3: a univalent degree-8 curve in R^dim."""
    rng = np.random.default_rng([seed, dim])
    j = np.arange(9)[:, None]
    cos_c = rng.normal(size=(9, dim)) / np.maximum(j, 1) ** 3
    sin_c = rng.normal(size=(9, dim)) / np.maximum(j, 1) ** 3
    cos_c[0] = sin_c[0] = 0.0
    scale = rng.uniform(0.1, 0.3) / float(np.sum(j * (np.abs(cos_c) + np.abs(sin_c))))
    cos_c *= scale
    sin_c *= scale
    cos_c[1, 0] += 1.0
    sin_c[1, 1] += 1.0
    return cos_c, sin_c


def _csv_curve(cos_c, sin_c, path, rows: int = 256):
    """The curve built from a CSV of ``rows`` uniform samples, written and read as
    ``qcharm constants --curve csv`` does."""
    t = TWO_PI * np.arange(rows) / rows
    j = np.arange(cos_c.shape[0])
    pts = np.cos(np.outer(t, j)) @ cos_c + np.sin(np.outer(t, j)) @ sin_c
    np.savetxt(path, np.column_stack([t, pts]), delimiter=",", fmt="%.17g")
    data = np.loadtxt(path, delimiter=",")
    return build_curve((data[:, 0], data[:, 1:]), 512)


SOURCES = [(seed, dim) for dim in (2, 3) for seed in (1, 2)]


@pytest.mark.parametrize("seed, dim", SOURCES)
def test_sampled_curve_fits_at_source_degree(seed, dim, tmp_path):
    curve = _csv_curve(*_degree8_source(seed, dim), tmp_path / "c.csv")
    assert curve.poly.degree <= 8
    # 120 dropped harmonics of about 2e-17 each, weighted by j
    assert 0.0 < curve.fit_tail <= 1e-12
    # the arc-length view keeps the tail
    view = arc_length_reparametrize(curve)
    assert view.fit_tail == curve.fit_tail
    assert BoundaryMap(curve).series_tail == curve.fit_tail
    assert build_curve(fourier_curve(*_degree8_source(seed, dim)), 512).fit_tail == 0.0


@pytest.mark.parametrize("mu", [1.0, 0.5])
@pytest.mark.parametrize("seed, dim", SOURCES)
def test_sampled_constants_match_source(seed, dim, mu, tmp_path):
    # the parent's degree-128 fit missed holder_constant and max_curvature by ~2e-12
    source = _degree8_source(seed, dim)
    got = compute_curve_constants(_csv_curve(*source, tmp_path / "c.csv"), mu)
    want = compute_curve_constants(build_curve(fourier_curve(*source), 512), mu)
    for name in ("length", "chord_arc", "holder_constant", "max_curvature"):
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-13 * getattr(want, name), name


FITS = [(seed, dim) for dim in (2, 3) for seed in range(1, 9)]


def _fft_fit(seed: int, dim: int, m: int = 64):
    """Parameters and samples of the degree-8 source at m uniform nodes, and the coefficients
    of their FFT fit (degree m / 2, harmonics 9 .. m / 2 at roundoff), as a coefficient file
    written from the fit holds them."""
    cos_c, sin_c = _degree8_source(seed, dim)
    t = TWO_PI * np.arange(m) / m
    j = np.arange(cos_c.shape[0])
    pts = np.cos(np.outer(t, j)) @ cos_c + np.sin(np.outer(t, j)) @ sin_c
    fit = TrigPolynomial.from_samples(pts)
    return t, pts, fit.cos_coeffs, fit.sin_coeffs


@pytest.mark.parametrize("seed, dim", FITS)
def test_fft_fit_coefficients_resolve_like_their_samples(seed, dim):
    # one resolution rule: the coefficients of the fit give the curve of its samples
    t, pts, a, b = _fft_fit(seed, dim)
    assert a.shape[0] == 33
    coeffs = build_curve(fourier_curve(a, b))
    samples = build_curve((t, pts))
    assert coeffs.poly.degree <= 8
    assert 0.0 < coeffs.fit_tail <= 1e-12
    assert coeffs.poly.degree == samples.poly.degree
    assert coeffs.fit_tail == samples.fit_tail
    assert np.array_equal(coeffs.poly.cos_coeffs, samples.poly.cos_coeffs)
    assert np.array_equal(coeffs.poly.sin_coeffs, samples.poly.sin_coeffs)
    raw = BoundaryMap.from_values(pts)
    assert raw.series().degree == samples.poly.degree
    assert raw.series_tail == samples.fit_tail > 0.0


@pytest.mark.parametrize("mu", [1.0, 0.5])
@pytest.mark.parametrize("seed, dim", FITS)
def test_fft_fit_coefficients_match_source(seed, dim, mu):
    # kept whole, the degree-32 coefficients missed the source by up to 2.1e-13
    _, _, a, b = _fft_fit(seed, dim)
    got = compute_curve_constants(build_curve(fourier_curve(a, b)), mu)
    want = compute_curve_constants(build_curve(fourier_curve(*_degree8_source(seed, dim))), mu)
    for name in ("length", "chord_arc", "holder_constant", "max_curvature"):
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-14 * getattr(want, name), name


@pytest.mark.parametrize("seed, dim", FITS)
def test_fft_fit_verify_matches_whole_coefficients(seed, dim):
    # the cut series verifies like the whole degree-32 one, whose extra harmonics are roundoff
    _, _, a, b = _fft_fit(seed, dim)
    sc = make_scenario("fourier", cos_coeffs=a, sin_coeffs=b)
    whole = JordanCurve(poly=TrigPolynomial(a, b))
    got = verify(sc)
    want = verify(dataclasses.replace(sc, boundary=BoundaryMap(whole)))
    assert (got.series_degree, want.series_degree) == (sc.boundary.curve.poly.degree, 32)
    for name in ("sup_grad_extrapolated", "k_estimate", "area"):
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12 * getattr(want, name), name
    assert got.all_passed == want.all_passed


def test_noisy_samples_keep_every_harmonic():
    t = TWO_PI * np.arange(256) / 256
    noise = 1e-8 * np.random.default_rng(5).standard_normal((256, 2))
    curve = build_curve(np.stack([np.cos(t), np.sin(t)], axis=1) + noise, 256)
    assert curve.poly.degree == 128
    assert curve.fit_tail == 0.0


def test_truncated_drops_only_trailing_harmonics():
    a = np.array([[1.0], [0.0], [2.0], [1e-20], [0.0]])
    b = np.array([[0.0], [1e-20], [0.0], [0.0], [3e-20]])
    poly, tail = TrigPolynomial(a, b).truncated(1e-18)
    assert poly.degree == 2 and np.array_equal(poly.sin_coeffs[1], [1e-20])
    assert tail == 3 * 1e-20 + 4 * 3e-20
    assert TrigPolynomial(a, b).truncated(5.0)[0].degree == 0


# ---------------------------------------------------------------------------
# length


def test_circle_length(circle_curve):
    assert abs(curve_length(circle_curve) - TWO_PI) < 1e-10


def test_scaled_circle_length():
    big = build_curve(circle(2.0), 256)
    assert abs(curve_length(big) - 4 * math.pi) < 1e-10


def test_ellipse_length_oracle(ellipse_curve):
    assert abs(curve_length(ellipse_curve) - ELLIPSE_PERIMETER) < 1e-10


@pytest.mark.parametrize("a", [100.0, 1000.0])
def test_eccentric_ellipse_length(a):
    from scipy.special import ellipe

    # a trapezoid rule on 1,024 nodes read these 2.8e-10 and 1.3e-6 relative off
    exact = 4.0 * a * ellipe(1.0 - 1.0 / a**2)
    assert abs(curve_length(build_curve(ellipse(a, 1.0), 512)) - exact) <= 1e-14 * exact


def test_cumulative_length_keeps_no_roundoff_harmonics():
    # the constant speed of a circle integrates to a linear length; integrating the
    # unresolved fit kept 1,020 harmonics of noise
    for generator, degree in ((circle(), 0), (ellipse(1.05, 1.0), 20)):
        assert build_curve(generator, 512).poly._length.osc.degree <= degree


def test_unresolved_speed_fit_raises(monkeypatch):
    # a 100:1 ellipse resolves its speed at 8,192 samples; capped below, nothing is certified
    monkeypatch.setattr(curves, "_MAX_FIT", 4096)
    with pytest.raises(RefinementError, match="not resolved"):
        compute_curve_constants(build_curve(ellipse(100.0, 1.0), 512))


# ---------------------------------------------------------------------------
# arc-length reparametrization


def test_reparametrize_constant_speed(ellipse_arc, ellipse_curve):
    speeds = np.linalg.norm(ellipse_arc.velocity(_nodes(512)), axis=1)
    target = curve_length(ellipse_curve) / TWO_PI
    assert np.max(np.abs(speeds - target)) < 1e-6


def test_reparametrize_preserves_length(ellipse_arc, ellipse_curve):
    assert abs(curve_length(ellipse_arc) - curve_length(ellipse_curve)) < 1e-8


def test_reparametrize_circle_unchanged(circle_curve):
    arc = arc_length_reparametrize(circle_curve)
    t = _nodes(512)
    assert np.max(np.abs(arc.position(t) - circle_curve.position(t))) < 1e-10


def test_reparametrize_newton_nonconvergence_raises(ellipse_curve, monkeypatch):
    arc = arc_length_reparametrize(ellipse_curve)
    # a cumulative length that never reaches its target stalls every Newton step
    monkeypatch.setattr(arc.view, "at", lambda t: (np.full(np.shape(t), -1.0), np.ones(np.shape(t))))
    with pytest.raises(RefinementError, match="Newton"):
        arc.position(np.array([0.5, 1.5]))


def test_reparametrize_idempotent(ellipse_arc):
    again = arc_length_reparametrize(ellipse_arc)
    t = _nodes(512)
    assert np.max(np.abs(again.position(t) - ellipse_arc.position(t))) < 1e-10


def test_arc_length_view_is_the_length_table(ellipse_curve, ellipse_arc):
    # a view holds nothing but its polynomial's length table, shared with the curve
    for curve in (ellipse_curve, ellipse_arc):
        view = arc_length_reparametrize(curve)
        assert view.poly is ellipse_curve.poly
        assert view.view is ellipse_curve.poly._length


# ---------------------------------------------------------------------------
# chord-arc constant


def test_chord_arc_circle(circle_arc):
    res = chord_arc_constant(circle_arc)
    assert abs(res.value - math.pi / 2) < 1e-4
    assert res.converged


def test_chord_arc_ellipse_oracle(ellipse_arc):
    res = chord_arc_constant(ellipse_arc)
    assert abs(res.value - ELLIPSE_CHORD_ARC) < 1e-4


def test_chord_arc_scale_invariant(ellipse_arc):
    base = chord_arc_constant(ellipse_arc).value
    for c in (0.5, 2.0, 10.0):
        scaled = chord_arc_constant(arc_length_reparametrize(build_curve(ellipse(1.2 * c, 0.8 * c), 256))).value
        assert abs(scaled - base) < 1e-8


def test_chord_arc_at_least_one(circle_arc):
    assert chord_arc_constant(circle_arc).value >= 1.0
    assert chord_arc_constant(circle_arc).value >= math.pi / 2 - 1e-4


def test_chord_arc_parametrization_invariant(ellipse_curve, ellipse_arc):
    plain = chord_arc_constant(ellipse_curve).value
    assert abs(chord_arc_constant(ellipse_arc).value - plain) <= 1e-9 * plain
    # the unit circle traversed at speed 1 + 0.3 cos t
    t = TWO_PI * np.arange(512) / 512
    uneven = build_curve(np.stack([np.cos(t + 0.3 * np.sin(t)), np.sin(t + 0.3 * np.sin(t))], axis=1), 512)
    assert abs(chord_arc_constant(uneven).value - math.pi / 2) <= 1e-9 * math.pi / 2
    # a curve in R^3 whose supremum lies on a ridge along the half-length
    # kink, longer than one shrinking search reaches; the arc-length
    # parametrization is refitted as a plain curve, so both scans start apart
    rng = np.random.default_rng(8)
    cos_c = np.zeros((5, 3))
    sin_c = np.zeros((5, 3))
    cos_c[1, 0] = sin_c[1, 1] = 1.0
    cos_c[2:] = rng.uniform(-0.1, 0.1, (3, 3))
    sin_c[2:] = rng.uniform(-0.1, 0.1, (3, 3))
    cos_c[1, 2], sin_c[1, 2] = rng.uniform(-0.3, 0.3, 2)
    curve = build_curve(fourier_curve(cos_c, sin_c), 512)
    refit = build_curve(arc_length_reparametrize(curve).position(_nodes(1024)), 1024)
    plain = chord_arc_constant(curve).value
    assert abs(chord_arc_constant(refit).value - plain) <= 1e-9 * plain


@pytest.mark.parametrize("view", [False, True], ids=["own", "arc-length view"])
@pytest.mark.parametrize("aspect", [1.5, 4.0, 16.0, 100.0])
def test_chord_arc_of_ellipse_is_closed_form(aspect, view):
    # the supremum is at the ends of the minor axis: half the length over 2b
    from scipy.special import ellipe

    a, b = 0.7 * aspect, 0.7
    exact = 4.0 * a * ellipe(1.0 - (b / a) ** 2) / (4.0 * b)
    curve = build_curve(ellipse(a, b), 512)
    if view:
        curve = arc_length_reparametrize(curve)
    res = chord_arc_constant(curve)
    assert res.converged
    assert abs(res.value - exact) <= 1e-14 * exact


def _counting_polish(monkeypatch):
    """Patch ``curves._polished_max`` to record the dimension of each search; returns the record."""
    dims = []
    polish = curves._polished_max
    monkeypatch.setattr(curves, "_polished_max", lambda f, c, w, best: dims.append(len(w)) or polish(f, c, w, best))
    return dims


@pytest.mark.parametrize("dim", [2, 3])
def test_chord_arc_maximum_on_the_crease(dim, tmp_path, monkeypatch):
    # the chord-arc maximum of these fits lies where the shorter arc switches sides, so
    # only searches along the crease run, and they reach the brute force of every node
    # pair and of 2^14 pairs exactly half the length apart
    dims = _counting_polish(monkeypatch)
    for seed in range(1, 11):
        source = _degree8_source(seed, dim)
        dims.clear()
        res = chord_arc_constant(_csv_curve(*source, tmp_path / "c.csv"))
        assert res.converged
        assert dims and set(dims) == {1}, dims
        assert res.value >= oracles.lag_scan_lower_bound(*source, 1.0)["chord_arc"]
        assert res.value >= oracles.crease_chord_arc(*source) * (1.0 - 1e-14)


def test_length_scans_reach_the_crease_of_the_r3_samples(tmp_path):
    # the 256-row R^3 CSV of the CI determinism step, written as it writes it: its chord-arc
    # crease has two local maxima (s/L = 0.149 and 0.349), and a scan on a uniform parameter
    # grid started the crease search in the lower one, 1.6407947784380281, with the mu = 0.5
    # tangent constant at 1.2771490076793341
    def row(t):
        return t, math.cos(t) + 0.05 * math.cos(3 * t), math.sin(t) - 0.03 * math.sin(2 * t), 0.1 * math.sin(2 * t) + 0.02 * math.cos(5 * t)

    path = tmp_path / "samples-r3.csv"
    path.write_text("".join(",".join(map(repr, row(TWO_PI * k / 256))) + "\n" for k in range(256)))
    data = np.loadtxt(path, delimiter=",")
    curve = build_curve((data[:, 0], data[:, 1:]), 512)
    cos_c, sin_c = np.zeros((6, 3)), np.zeros((6, 3))
    cos_c[1, 0], cos_c[3, 0] = 1.0, 0.05  # x
    sin_c[1, 1], sin_c[2, 1] = 1.0, -0.03  # y
    sin_c[2, 2], cos_c[5, 2] = 0.1, 0.02  # z
    assert chord_arc_constant(curve).value >= oracles.crease_chord_arc(cos_c, sin_c) * (1.0 - 1e-15)
    cc = compute_curve_constants(curve, 0.5)
    assert cc.holder_constant >= oracles.lag_scan_lower_bound(cos_c, sin_c, 0.5, 1024)["holder_constant"]


def test_lag_scan_leaves_the_crease_for_a_higher_pair_beside_it(monkeypatch):
    # a score that peaks at arcs of 0.48 L: the best grid pair, at lag row 981 of 2,048, is
    # within two widths of the crease, but a pair beside the crease maximum beats it, so
    # the search runs in both ends and reaches a dense brute force of the score
    from scipy.optimize import minimize

    table = build_curve(ellipse(4.0, 1.0), 512).poly._length
    length = table.length

    def score(a, b, arc):
        return arc / curves._norms(b[0] - a[0]) * (1.0 + 0.5 * np.exp(-(((arc - 0.48 * length) / (0.01 * length)) ** 2)))

    dims = _counting_polish(monkeypatch)
    res = curves._lag_scan(table.tangent_frame, score, table.scan_nodes, length)
    assert res.converged
    assert dims[0] == 1 and dims[-1] == 2, dims
    # every pair of 4,096 length-uniform nodes, then Nelder-Mead from the best of them
    n = 4096
    here = (table.invert(length * np.arange(n) / n)[1][3],)  # positions
    best, start = -np.inf, None
    for k in range(1, n // 2 + 1):
        vals = score(here, tuple(np.roll(v, -k, axis=0) for v in here), length * k / n)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, start = vals[i], length * np.array([i, i + k]) / n

    def minus_score(pair):
        pos = table.invert(np.mod(pair, length))[1][3]
        return -float(score((pos[0],), (pos[1],), curves._shorter_arc(pair[1] - pair[0], length)))

    step = length / n
    simplex = start + np.array([[0.0, 0.0], [step, 0.0], [0.0, step]])
    opt = minimize(minus_score, start, method="Nelder-Mead", options={"initial_simplex": simplex, "xatol": 1e-11, "fatol": 1e-16})
    brute = max(best, -opt.fun)
    assert abs(res.value - brute) <= 1e-12 * brute


def test_polish_stops_once_flat_but_not_at_a_kink():
    # near a smooth maximum the values agree to roundoff well before the width does;
    # at a kink their spread stays linear in the width, so only the width stop ends it
    value, _, steps, flat = curves._polished_max(lambda x: 1.0 - (x - 0.3) ** 2, 0.25, 0.1, -np.inf)
    assert flat and steps < 30 and value >= 1.0 - 1e-15
    value, _, steps, flat = curves._polished_max(lambda x: 1.0 - np.abs(x - 0.3), 0.3004, 1e-3, -np.inf)
    assert not flat
    # the first width below 1e-12, shrunk step by step as the search shrinks it: roundoff
    # leaves 1e-3 times _SHRINK^9 above 1e-12 at _SHRINK = 0.1
    width, first = 1e-3, 0
    while first == 0 or width >= 1e-12:
        width, first = width * curves._SHRINK, first + 1
    assert steps == first
    assert value >= 1.0 - 1e-12


def test_polish_of_a_smooth_quadratic_stops_flat_within_seven_steps():
    # each step leaves about 1/1024 of its spread to gain, so the flat stop comes early
    value, _, steps, flat = curves._polished_max(lambda x: 1.0 - (x - 0.3) ** 2, 0.25, 0.1, -np.inf)
    assert flat and steps <= 7 and value >= 1.0 - 1e-15


@pytest.mark.parametrize("mu", [1.0, 0.5])
def test_flat_search_is_settled_without_a_restart(mu, monkeypatch):
    # a search that ends on its flat stop sits at a smooth maximum: the restart that used to
    # follow it (forced here by reporting every stop as not flat) returns the same bits
    polish = curves._polished_max

    def run(force):
        stops = []

        def search(*args):
            out = polish(*args)
            stops.append(out[3])
            return (*out[:3], False) if force else out

        monkeypatch.setattr(curves, "_polished_max", search)
        constants = [compute_curve_constants(build_curve(g, 512), mu) for _, g in SEEDED]
        return [(c.chord_arc, c.holder_constant) for c in constants], stops

    settled, stops = run(False)
    forced, forced_stops = run(True)
    assert any(stops) and len(stops) < len(forced_stops)
    assert settled == forced


# ---------------------------------------------------------------------------
# Hölder constant of the derivative


def test_holder_circle_lipschitz(circle_arc):
    res = holder_derivative_constant(circle_arc, 1.0)
    assert abs(res.value - 1.0) < 1e-4


def test_holder_circle_half_oracle(circle_arc):
    res = holder_derivative_constant(circle_arc, 0.5)
    assert abs(res.value - CIRCLE_HOLDER_HALF) < 1e-6


@pytest.mark.parametrize("a, tol", [(4.0, 1e-13), (16.0, 1e-11)], ids=["4:1", "16:1"])
def test_holder_half_of_ellipses_matches_mpmath(a, tol):
    # oracles.ELLIPSE_HOLDER_HALF: 20 of 40 mpmath digits; the 16:1 scan reads 6.8e-12 low
    want = float(oracles.ELLIPSE_HOLDER_HALF[a])
    got = compute_curve_constants(build_curve(ellipse(a, 1.0), 512), 0.5).holder_constant
    assert abs(got - want) <= tol * want


def test_holder_exponent_domain(circle_arc):
    for mu in (0.0, -0.5, 1.5):
        with pytest.raises(DomainError):
            holder_derivative_constant(circle_arc, mu)


def test_holder_dominates_acceleration(ellipse_arc):
    # the view's acceleration has magnitude kappa (L / 2 pi)^2 at the base parameter t(theta)
    res = holder_derivative_constant(ellipse_arc, 1.0)
    t, _ = ellipse_arc.view.parameter(_nodes(512))
    acc = curves._curvature(ellipse_arc._vel(t), ellipse_arc._acc(t)) * ellipse_arc.view.scale**2
    assert res.value >= acc.max() - 1e-9


def test_holder_constant_of_given_parametrization():
    # an ellipse in its own (non-arc-length) parameter: |g''| peaks at 2
    curve = build_curve(ellipse(2.0, 1.0), 512)
    assert abs(holder_derivative_constant(curve, 1.0).value - 2.0) <= 1e-9 * 2.0
    # max over t of |g'(t + d) - g'(t)| is 4 sin(d/2), twice the circle's
    half = 2.0 * CIRCLE_HOLDER_HALF
    assert abs(holder_derivative_constant(curve, 0.5).value - half) <= 1e-9 * half


@pytest.mark.parametrize(
    "generator",
    [
        # (2 cos(t + d), sin(t + d)) with d = pi/2048: |g''| peaks at t = -d, half a spacing between scan nodes
        fourier_curve(
            [[0, 0], [2.0 * math.cos(math.pi / 2048), math.sin(math.pi / 2048)]],
            [[0, 0], [-2.0 * math.sin(math.pi / 2048), math.cos(math.pi / 2048)]],
        ),
        fourier_curve([[0, 0], [1.0, 0], [0, 0], [0.05, 0.02]], [[0, 0], [0, 1.0], [0.03, 0], [0, -0.04]]),
    ],
)
def test_holder_diagonal_maximum_between_nodes(generator):
    # at mu = 1 the constant of a plain parametrization is max |g''|; a
    # 2^16-node scan pins that maximum to well below 1e-8 relative
    curve = build_curve(generator, 512)
    reference = float(np.max(np.linalg.norm(curve._acc.grid(1 << 16), axis=1)))
    assert abs(holder_derivative_constant(curve, 1.0).value - reference) <= 1e-8 * reference


# ---------------------------------------------------------------------------
# curvature


def test_curvature_circle(circle_arc):
    assert abs(max_curvature(circle_arc) - 1.0) < 1e-6


def test_curvature_scaled_circle():
    big = arc_length_reparametrize(build_curve(circle(2.0), 256))
    assert abs(max_curvature(big) - 0.5) < 1e-6


def test_curvature_ellipse(ellipse_arc):
    assert abs(max_curvature(ellipse_arc) - ELLIPSE_MAX_CURVATURE) < 1e-4


def test_curvature_nyquist_guard():
    t = TWO_PI * np.arange(256) / 256
    noise = 1e-3 * np.cos(127 * t)
    pts = np.stack([np.cos(t) + noise, np.sin(t)], axis=1)
    # the acceleration of the fit has not decayed within the band of its 256 samples,
    # whatever node count the curve is built at
    for nodes in (256, 512):
        with pytest.raises(RefinementError, match="256 samples"):
            build_curve(pts, nodes)


def test_exact_coefficients_are_not_guarded():
    # a circle plus 1e-6 cos 200t is exact data: its curvature 1 + 0.04 at t = 0 is
    # certified, though a band of 512 nodes would have called it unresolved
    cos_c = np.zeros((201, 2))
    sin_c = np.zeros((201, 2))
    cos_c[1, 0] = sin_c[1, 1] = 1.0
    cos_c[200, 0] = 1e-6
    cc = compute_curve_constants(build_curve(fourier_curve(cos_c, sin_c)))
    assert cc.all_converged()
    assert abs(cc.max_curvature - 1.04) <= 1e-9
    assert max_curvature(build_curve(fourier_curve(cos_c, sin_c))) == cc.max_curvature


# ---------------------------------------------------------------------------
# modulus of continuity


def test_dini_table_circle_values(circle_curve):
    steps = np.linspace(0.2, math.pi, 25)
    table = dini_modulus_table(circle_curve, steps)
    expected = 2.0 * np.sin(steps / 2.0)
    assert np.max(np.abs(table.values[1:] - expected)) < 1e-6


def test_dini_table_antipodal(circle_curve):
    table = dini_modulus_table(circle_curve, [math.pi])
    assert abs(table.values[-1] - 2.0) < 1e-6


def test_dini_table_monotone(ellipse_curve):
    table = dini_modulus_table(ellipse_curve, np.linspace(0.05, 2 * math.pi, 30))
    assert np.all(np.diff(table.values) >= -1e-12)


def test_tabulated_modulus_validation():
    with pytest.raises(DomainError):
        TabulatedModulus([0.1, 0.2], [0.5, 0.3])
    with pytest.raises(DomainError):
        TabulatedModulus([0.2, 0.1], [0.1, 0.2])


def test_tabulated_modulus_integral_matches_quadrature():
    table = TabulatedModulus([0.5, 1.0, 2.0], [0.25, 0.9, 1.1])
    from scipy.integrate import quad

    for x in (0.3, 0.75, 1.7, 2.0, 3.5):
        ref, _ = quad(table, 0.0, x, limit=200)
        assert abs(table.integral_to(x) - ref) < 1e-9


# ---------------------------------------------------------------------------
# bundled constants


def test_compute_constants_ellipse(ellipse_curve):
    cc = compute_curve_constants(ellipse_curve)
    assert cc.all_converged()
    assert all(type(flag) is bool for flag in cc.converged.values())
    assert abs(cc.length - ELLIPSE_PERIMETER) < 1e-8
    assert abs(cc.chord_arc - ELLIPSE_CHORD_ARC) < 1e-4
    assert abs(cc.max_curvature - ELLIPSE_MAX_CURVATURE) < 1e-4


def test_constants_need_no_arc_length_view(ellipse_curve, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an arc-length view was evaluated")

    monkeypatch.setattr(curves._LengthTable, "parameter", refuse)
    cc = compute_curve_constants(ellipse_curve, mu=0.5)
    assert cc.all_converged()
    assert abs(cc.length - ELLIPSE_PERIMETER) < 1e-8


def _seeded_generators():
    """Ellipses from 1:1 to 16:1 and mild Fourier curves in R^2 and R^3."""
    rng = np.random.default_rng(20261018)
    out = []
    for aspect in (1.0, *np.sort(rng.uniform(1.0, 16.0, 3)), 16.0):
        b = rng.uniform(0.5, 1.0)
        out.append((f"ellipse {aspect:.2f}:1", ellipse(aspect * b, b)))
    for dim in (2, 3):
        cos_c = np.zeros((4, dim))
        sin_c = np.zeros((4, dim))
        cos_c[1, 0] = sin_c[1, 1] = 1.0
        cos_c[2:] = rng.uniform(-0.08, 0.08, (2, dim))
        sin_c[2:] = rng.uniform(-0.08, 0.08, (2, dim))
        if dim == 3:
            cos_c[1, 2], sin_c[1, 2] = rng.uniform(-0.3, 0.3, 2)
        out.append((f"fourier R^{dim}", fourier_curve(cos_c, sin_c)))
    return out


SEEDED = _seeded_generators()


def _length_cases():
    cases = [(name, lambda p, g=g: build_curve(g, 512)) for name, g in SEEDED if name.startswith("ellipse")]
    cases += [(f"csv R^{dim} seed {seed}", lambda p, s=(seed, dim): _csv_curve(*_degree8_source(*s), p)) for seed, dim in SOURCES]
    return cases


LENGTH_CASES = _length_cases()


@pytest.mark.parametrize("make", [m for _, m in LENGTH_CASES], ids=[name for name, _ in LENGTH_CASES])
def test_one_length_everywhere(make, tmp_path):
    # three pipelines on three builds of the curve read one length, to the bit
    length = curve_length(make(tmp_path / "c.csv"))
    assert compute_curve_constants(make(tmp_path / "c.csv")).length == length
    assert isoperimetric_check(BoundaryMap(make(tmp_path / "c.csv"))).length == length


@pytest.mark.parametrize("mu", [1.0, 0.75, 0.5, 0.25])
@pytest.mark.parametrize("generator", [g for _, g in SEEDED], ids=[name for name, _ in SEEDED])
def test_lag_scans_dominate_brute_force(generator, mu):
    # every pair of 512 nodes scores a true quotient, so each scan must
    # reach at least the brute-force maximum and report convergence
    curve = build_curve(generator, 512)
    ref = oracles.lag_scan_lower_bound(generator.cos_coeffs, generator.sin_coeffs, mu)
    cc = compute_curve_constants(curve, mu)
    own = holder_derivative_constant(curve, mu)
    assert cc.all_converged() and own.converged
    assert cc.chord_arc >= ref["chord_arc"] * (1.0 - 1e-9)
    assert cc.holder_constant >= ref["holder_constant"] * (1.0 - 1e-9)
    assert own.value >= ref["velocity_holder"] * (1.0 - 1e-9)


@pytest.mark.parametrize("generator", [g for _, g in SEEDED], ids=[name for name, _ in SEEDED])
def test_crease_pairs_are_the_diagonal_of_the_pair_grid(generator, monkeypatch):
    # the crease search scores its pairs (x, x + period / 2) alone, to the bits that the
    # diagonal of the grid of every pair (x_i, x_j + period / 2) holds; the scans are the
    # chord-arc and tangent scans in length and the velocity scan in the parameter
    calls = []
    scan = curves._lag_scan
    monkeypatch.setattr(curves, "_lag_scan", lambda *args: calls.append(args) or scan(*args))
    curve = build_curve(generator, 512)
    compute_curve_constants(curve, 0.5)
    holder_derivative_constant(curve, 0.5)
    assert len(calls) == 3
    draws = np.random.default_rng(6).uniform(-1.0, TWO_PI + 1.0, curves._POLISH_NODES)
    for sample, score, _, period in calls:
        x = draws * (period / TWO_PI)
        y = x + 0.5 * period
        pairs = curves._pair_scores(sample, score, x, y, period)
        grid = curves._pair_scores(sample, score, x[:, None], y[None, :], period)
        assert pairs.shape == x.shape and pairs.tobytes() == np.diagonal(grid).tobytes()


ARC_LENGTH_CASES = SEEDED + [("ellipse 4:1", ellipse(4.0, 1.0)), ("ellipse 16:1", ellipse(16.0, 1.0))]


@pytest.mark.parametrize("mu", [1.0, 0.75, 0.5])
@pytest.mark.parametrize("generator", [g for _, g in ARC_LENGTH_CASES], ids=[name for name, _ in ARC_LENGTH_CASES])
def test_one_arc_length_holder_constant(generator, mu):
    # the constants' holder_constant is the derivative constant of the arc-length view: one scan
    curve = build_curve(generator, 512)
    own = holder_derivative_constant(arc_length_reparametrize(curve), mu)
    assert own.value == compute_curve_constants(curve, mu).holder_constant


@pytest.mark.parametrize("view", [False, True], ids=["own", "arc-length view"])
@pytest.mark.parametrize("generator", [g for _, g in SEEDED], ids=[name for name, _ in SEEDED])
def test_mu_one_holder_constants_are_diagonal_limits(generator, view, monkeypatch):
    # at mu = 1 every pair quotient is at most its d -> 0 limit (mean-value inequality),
    # so both constants are that limit, and no lag scan runs for them
    curve = build_curve(generator, 512)
    if view:
        curve = arc_length_reparametrize(curve)
    calls = []
    scan = curves._lag_scan
    monkeypatch.setattr(curves, "_lag_scan", lambda *args: calls.append(args) or scan(*args))
    cc = compute_curve_constants(curve, 1.0)
    assert len(calls) == 1  # the chord-arc scan
    assert cc.converged["holder_constant"]
    assert cc.holder_constant == (cc.length / TWO_PI) ** 2 * cc.max_curvature
    own = holder_derivative_constant(curve, 1.0)
    assert len(calls) == 1 and own.converged and own.depth == 0
    if view:
        diagonal = curve.view.scale**2 * max_curvature(curve)
    else:
        acc = curves._norms(curve._acc.grid(curves._SCAN_NODES))
        diagonal = curves._polished_grid_max(lambda t: curves._norms(curve._acc(t)), acc)
    assert own.value == diagonal


@pytest.mark.parametrize("a, floor", [(8.0, 31.82), (16.0, 124.02)])
def test_holder_constant_of_eccentric_ellipse_at_half(a, floor):
    # pairs inside ten coarse spacings of the diagonal used to be skipped,
    # which read these low (29.8 and 70.2)
    cc = compute_curve_constants(build_curve(ellipse(a, 1.0), 512), mu=0.5)
    assert cc.converged["holder_constant"]
    assert cc.holder_constant >= floor


# ---------------------------------------------------------------------------
# randomized invariants


def _random_curve(a3, b2, a5):
    cos_c = np.zeros((6, 2))
    sin_c = np.zeros((6, 2))
    cos_c[1] = [1.0, 0.0]
    sin_c[1] = [0.0, 1.0]
    cos_c[3] = [a3, 0.0]
    sin_c[2] = [0.0, b2]
    cos_c[5] = [0.0, a5]
    return fourier_curve(cos_c, sin_c)


small = st.floats(min_value=-0.05, max_value=0.05, allow_nan=False, allow_infinity=False)


@settings(max_examples=12, deadline=None)
@given(a3=small, b2=small, a5=small)
def test_random_curves_chord_arc_at_least_one(a3, b2, a5):
    arc = arc_length_reparametrize(build_curve(_random_curve(a3, b2, a5), 128))
    res = chord_arc_constant(arc)
    assert res.value >= 1.0 - 1e-9


@settings(max_examples=8, deadline=None)
@given(a3=small, b2=small, a5=small)
def test_random_curves_reparametrization_preserves_length(a3, b2, a5):
    curve = build_curve(_random_curve(a3, b2, a5), 128)
    arc = arc_length_reparametrize(curve)
    assert abs(curve_length(arc) - curve_length(curve)) < 1e-8


# ---------------------------------------------------------------------------
# one evaluation per point set: equivalence with separate evaluations


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("shape", [(257,), (3, 50), (1,)], ids=["N", "BN", "1"])
def test_norms_match_linalg_norm_bits(shape, dim):
    rng = np.random.default_rng([dim, len(shape), shape[0]])
    v = rng.standard_normal(shape + (dim,)) * np.exp(rng.uniform(-30.0, 30.0, shape + (1,)))
    assert np.array_equal(curves._norms(v), np.linalg.norm(v, axis=-1))


def test_shorter_arc_matches_mod_bits():
    length = 7.3
    rng = np.random.default_rng(31)
    inside = np.concatenate(
        [
            rng.uniform(-length, length, 4000),
            [0.0, -0.0, 5e-324, -5e-324, -1e-300, -1e-17, 1e-17],
            [np.nextafter(length, 0.0), -np.nextafter(length, 0.0), 0.5 * length, -0.5 * length],
        ]
    )
    outside = np.array([length, -length, 1.5 * length, -2.5 * length, 40.0 * length])
    for f in (inside, outside, np.append(inside, outside)):
        mod = f % length
        want = np.minimum(mod, length - mod)
        got = curves._shorter_arc(f, length)
        assert np.array_equal(got, want)
        assert not np.any(np.signbit(got[got == 0.0]))
    # on [0, 2 pi), the forward lags of the parameter scans, it is the circle distance to the bit
    d = np.append(rng.uniform(0.0, TWO_PI, 4000), [0.0, math.pi, np.nextafter(math.pi, 4.0), np.nextafter(TWO_PI, 0.0)])
    assert np.array_equal(curves._shorter_arc(d, TWO_PI), np.where(d > math.pi, TWO_PI - d, d))


def _scan_cases():
    """(name, sample, score, here, period) of the chord-arc, holder and modulus scans: the
    first two on the equal-length nodes in cumulative length, the last in the parameter."""
    out = []
    for name, generator in (SEEDED[2], SEEDED[-1]):
        curve = build_curve(generator, 512)
        table = curve.poly._length
        out += [
            (
                f"chord-arc {name}",
                table.tangent_frame,
                lambda a, b, arc: arc / curves._norms(b[0] - a[0]),
                table.scan_nodes,
                table.length,
            ),
            (
                f"holder {name}",
                table.tangent_frame,
                lambda a, b, arc: curves._norms(b[1] - a[1]) / arc**0.5,
                table.scan_nodes,
                table.length,
            ),
            (
                f"modulus {name}",
                lambda t, curve=curve: (curve.velocity(t),),
                lambda a, b, arc: curves._norms(b[0] - a[0]),
                (curve.velocity_grid(curves._SCAN_NODES),),
                TWO_PI,
            ),
        ]
    return out


SCAN_CASES = _scan_cases()


@pytest.mark.parametrize("name, sample, score, here, period", SCAN_CASES, ids=[c[0] for c in SCAN_CASES])
def test_lag_maxima_match_roll_oracle_bits(name, sample, score, here, period):
    # whole node lags slice a doubled copy, the others (modulus steps) sample
    lags = np.union1d(curves._node_lags(period), period / TWO_PI * np.array([0.01, 0.3, 1.0, 2.5, math.pi]))
    peaks, nodes = curves._lag_maxima(sample, score, here, lags, period)
    want_peaks, want_nodes = oracles.lag_maxima_roll(sample, score, here, lags, period, curves._SCAN_NODES)
    assert np.array_equal(peaks, want_peaks)
    assert np.array_equal(nodes, want_nodes)


@pytest.mark.parametrize("generator", [g for _, g in SEEDED], ids=[name for name, _ in SEEDED])
def test_invert_length_rows_converge_separately(generator, monkeypatch):
    # every point stops on its own residual, so in one call of two rows it takes the Newton
    # steps of its solo inversion, and its values to roundoff (a polynomial's bits at a point
    # follow the BLAS kernel, which differs between one row and many); row 0 (seed knots)
    # starts at its answer, row 1 from seeds shifted a tenth of a radian (those above t = 3.5)
    table = build_curve(generator, 512).poly._length
    target = np.stack([table._seed_cum[1 : 1 + 9 * 7 : 7], np.linspace(4.0, 5.0, 9) * table.length / TWO_PI])
    monkeypatch.setattr(table, "_seed_t", table._seed_t + np.where(table._seed_t > 3.5, 0.1, 0.0))
    calls = []
    at = table.at
    monkeypatch.setattr(table, "at", lambda x: calls.append(x.size) or at(x))
    alone = []
    for s in target.ravel():
        calls.clear()
        alone.append((table.invert(s), len(calls) - 1))
    calls.clear()
    t, vals = table.invert(target)
    steps = np.array([n for _, n in alone])
    assert steps.min() < steps.max()
    # all points, then one evaluation per step of the points still moving
    assert calls == [target.size] + [int(np.sum(steps >= k)) for k in range(1, steps.max() + 1)]
    for i, ((t_i, vals_i), _) in zip(np.ndindex(target.shape), alone):
        assert abs(t[i] - t_i) <= 1e-15 * table.length
        for v, v_i in zip(vals, vals_i):
            assert np.max(np.abs(v[i] - v_i)) <= 1e-15 * max(table.length, np.max(np.abs(v_i)))


def _inversion_cases():
    """(name, position polynomial, nodes allowed a Newton step) of the seeded curves and the
    catalog maps' boundaries: next to the tips of the 14:1 and 16:1 ellipses (curvature 14
    and 16 over the unit minor axis) the Hermite seeds miss the residual by up to 1.5 times."""
    cases = [(name, lambda g=g: build_curve(g, 512).poly, 4 if name in ("ellipse 14.12:1", "ellipse 16.00:1") else 0) for name, g in SEEDED]
    return cases + [(name, lambda n=name: make_scenario(n).boundary.curve.poly, 0) for name in ("identity", "affine", "conformal_poly", "harmonic_graph")]


INVERSION_CASES = _inversion_cases()


@pytest.mark.parametrize("make, missed", [c[1:] for c in INVERSION_CASES], ids=[c[0] for c in INVERSION_CASES])
def test_invert_takes_one_evaluation_at_the_scan_nodes(make, missed, monkeypatch):
    # the Hermite seeds meet the residual at the equal-length nodes: no Newton step, but for
    # the few nodes next to the tips of the most eccentric ellipses
    table = make()._length
    calls = []
    at = table.at
    monkeypatch.setattr(table, "at", lambda x: calls.append(x.size) or at(x))
    s = table.length * np.arange(curves._SCAN_NODES) / curves._SCAN_NODES
    _, (cum, _, _, _) = table.invert(s)
    assert calls[0] == curves._SCAN_NODES and len(calls) <= 1 + (missed > 0) and sum(calls[1:]) <= missed
    assert np.all(np.abs(cum - s) < 1e-13 * max(table.length, 1.0))


@pytest.mark.parametrize("generator", [g for _, g in SEEDED], ids=[name for name, _ in SEEDED])
def test_stacked_polynomial_matches_blocks(generator):
    curve = build_curve(generator, 512)
    table = curve.poly._length
    blocks = (table.osc, curve._vel, curve.poly)
    stacked = TrigPolynomial.stack(*blocks)
    assert stacked.degree == max(p.degree for p in blocks) and stacked.dim == sum(p.dim for p in blocks)
    # the coefficients are those of each block padded with zero harmonics by np.pad, bit for bit
    top = stacked.degree + 1

    def padded(c):
        return np.pad(c, ((0, top - c.shape[0]), (0, 0)))

    want = (
        np.hstack([padded(p.cos_coeffs) for p in blocks]),
        np.hstack([padded(p.sin_coeffs) for p in blocks]),
        *(padded(p.complex_coeffs) for p in blocks),
    )
    for got_c, want_c in zip((stacked.cos_coeffs, stacked.sin_coeffs, *stacked._blocks), want, strict=True):
        assert got_c.dtype == want_c.dtype and got_c.shape == want_c.shape and got_c.tobytes() == want_c.tobytes()
    t = np.random.default_rng(4).uniform(-1.0, TWO_PI + 1.0, (7, 60))
    got = stacked(t)
    lo = 0
    for p in blocks:
        # padding changes the power table (its length, or its baby-step size), so the
        # sums round differently: a roundoff of the coefficient weight per unit of |t|
        tol = 1e-15 * np.sum(np.abs(p.complex_coeffs)) * (1.0 + np.abs(t))[..., None]
        assert np.all(np.abs(got[..., lo : lo + p.dim] - p(t)) <= tol)
        lo += p.dim


@pytest.mark.parametrize("generator", [g for _, g in SEEDED], ids=[name for name, _ in SEEDED])
def test_frame_is_position_and_velocity(generator):
    # position and velocity share their degree: the stacked frame is the blocks to the bit
    curve = build_curve(generator, 512)
    t = np.random.default_rng(4).uniform(-1.0, TWO_PI + 1.0, (7, 60))
    pos, vel = curve.frame(t)
    assert np.array_equal(pos, curve.position(t)) and np.array_equal(vel, curve.velocity(t))


def test_frame_of_arc_length_view(ellipse_arc):
    t = np.random.default_rng(4).uniform(-1.0, TWO_PI + 1.0, (7, 60))
    pos, vel = ellipse_arc.frame(t)
    for got, want in ((pos, ellipse_arc.position(t)), (vel, ellipse_arc.velocity(t))):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("tangent", [False, True], ids=["position", "tangent"])
@pytest.mark.parametrize("generator", [g for _, g in SEEDED], ids=[name for name, _ in SEEDED])
def test_length_table_matches_separate_evaluations(generator, tangent):
    base = build_curve(generator, 512)
    table = base.poly._length
    t = np.random.default_rng(5).uniform(-1.0, TWO_PI + 1.0, 300)
    vel = base.velocity(t)
    speed = np.linalg.norm(vel, axis=-1)
    # the cumulative length from its oscillating polynomial alone, not the stacked one
    want = (table.mean * t + table.osc(t)[:, 0] - table.osc0, speed, vel / speed[:, None] if tangent else base.position(t))
    cum, got_speed, got_vel, position = table.at(t)
    for got, ref in zip((cum, got_speed, got_vel / got_speed[:, None] if tangent else position), want):
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# evaluators at parameter arrays of any shape


@pytest.mark.parametrize("shape", [(), (5,), (3, 4)], ids=["scalar", "vector", "matrix"])
def test_evaluators_keep_parameter_shape(shape, ellipse_curve, ellipse_arc):
    t = np.linspace(-1.0, 7.0, int(np.prod(shape))).reshape(shape)
    table = ellipse_curve.poly._length
    samples = TWO_PI * np.arange(128) / 128
    amap = AngleMap.from_samples(samples + 0.1 * np.sin(samples))
    evaluators = ((lambda x: table.at(x)[0], ()), (amap, ()), (ellipse_arc.position, (2,)), (ellipse_curve.position, (2,)))
    for evaluate, tail in evaluators:
        got = evaluate(t)
        assert np.shape(got) == shape + tail
        flat = np.array([evaluate(x) for x in t.ravel()]).reshape(shape + tail)
        assert np.allclose(got, flat, rtol=0.0, atol=1e-13)
