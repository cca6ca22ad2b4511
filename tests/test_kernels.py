import functools
import math

import numpy as np
import pytest

import oracles
from qcharm import curves, kernels
from qcharm import (
    AngleMap,
    BoundaryMap,
    ConsistencyError,
    DomainError,
    QuadratureSpec,
    RefinementError,
    TabulatedModulus,
    TrigPolynomial,
    boundary_jacobian_bound,
    build_curve,
    chord_tangent_kernel,
    circle,
    dini_modulus_table,
    ellipse,
    holder_derivative_constant,
    kernel_bound_dini,
    kernel_bound_holder,
    kernel_composition_residual,
    make_scenario,
)

TWO_PI = 2.0 * math.pi

# pinned by tests/oracles.py
AFFINE_BOUNDARY_JACOBIAN = 0.96  # fine-grid oracle: 0.960000000072 at 4e6 nodes


# ---------------------------------------------------------------------------
# kernel values


def test_circle_closed_form(circle_curve):
    rng = np.random.default_rng(11)
    s = rng.uniform(0, TWO_PI, 500)
    t = rng.uniform(0, TWO_PI, 500)
    vals = chord_tangent_kernel(circle_curve, s, t)
    assert np.max(np.abs(vals - (1.0 - np.cos(t - s)))) < 1e-10


def test_circle_special_pairs(circle_curve):
    assert abs(chord_tangent_kernel(circle_curve, 0.0, math.pi) - 2.0) < 1e-12
    assert abs(chord_tangent_kernel(circle_curve, 0.0, math.pi / 2) - 1.0) < 1e-12


def test_kernel_vanishes_on_diagonal(ellipse_curve):
    for s in (0.0, 1.3, 4.0):
        assert chord_tangent_kernel(ellipse_curve, s, s) == 0.0


def test_kernel_and_majorants_at_one_pair(circle_curve):
    table = dini_modulus_table(circle_curve, np.linspace(0.05, math.pi, 30))
    value = chord_tangent_kernel(circle_curve, 0.0, math.pi / 2)
    assert abs(value - 1.0) < 1e-12
    assert value <= kernel_bound_dini(circle_curve, table, 0.0, math.pi / 2) + 1e-9
    assert value <= kernel_bound_holder(circle_curve, 1.0, 0.0, math.pi / 2)[0] + 1e-9
    assert chord_tangent_kernel(circle_curve, 1.0, 1.0) == 0.0


def test_kernel_periodicity(ellipse_curve):
    s, t = 0.7, 2.9
    base = chord_tangent_kernel(ellipse_curve, s, t)
    assert abs(chord_tangent_kernel(ellipse_curve, s + TWO_PI, t + TWO_PI) - base) < 1e-12
    assert abs(chord_tangent_kernel(ellipse_curve, s - TWO_PI, t - TWO_PI) - base) < 1e-12


# ---------------------------------------------------------------------------
# modulus bound


def test_dini_bound_circle(circle_curve):
    table = dini_modulus_table(circle_curve, np.linspace(0.05, math.pi, 60))
    bound = kernel_bound_dini(circle_curve, table, 0.0, math.pi / 2)
    assert bound >= 1.0  # the kernel value there


def test_dini_bound_diagonal(circle_curve):
    table = dini_modulus_table(circle_curve, np.linspace(0.05, math.pi, 20))
    assert kernel_bound_dini(circle_curve, table, 1.1, 1.1) == 0.0


def test_dini_bound_scaling(ellipse_curve):
    table1 = dini_modulus_table(ellipse_curve, np.linspace(0.05, math.pi, 40))
    doubled = build_curve(ellipse(2.4, 1.6), 256)
    table2 = dini_modulus_table(doubled, np.linspace(0.05, math.pi, 40))
    s, t = 0.4, 2.2
    k1 = chord_tangent_kernel(ellipse_curve, s, t)
    k2 = chord_tangent_kernel(doubled, s, t)
    b1 = kernel_bound_dini(ellipse_curve, table1, s, t)
    b2 = kernel_bound_dini(doubled, table2, s, t)
    assert abs(k2 - 4.0 * k1) < 1e-10
    assert abs(b2 - 4.0 * b1) < 1e-9
    assert k2 <= b2 + 1e-9


def test_dini_bound_rejects_nonmonotone(circle_curve):
    with pytest.raises(DomainError):
        kernel_bound_dini(circle_curve, TabulatedModulus([0.5, 1.0], [1.0, 0.5]), 0.0, 1.0)


def test_dini_bound_rejects_plain_callable(circle_curve):
    # the exact circle modulus as a bare function has no exact integral
    omega = lambda d: 2.0 * math.sin(min(d, math.pi) / 2.0)
    with pytest.raises(DomainError, match="must be a TabulatedModulus"):
        kernel_bound_dini(circle_curve, omega, 0.0, math.pi / 2)


def test_kernel_chain_on_dense_grids(circle_curve, ellipse_curve):
    for curve in (circle_curve, ellipse_curve):
        table = dini_modulus_table(curve, np.linspace(0.02, math.pi, 80))
        c_holder = holder_derivative_constant(curve, 1.0).value
        rng = np.random.default_rng(23)
        s, t = rng.uniform(0, TWO_PI, 60), rng.uniform(0, TWO_PI, 60)
        k = chord_tangent_kernel(curve, s, t)
        b_table = kernel_bound_dini(curve, table, s, t)
        # the Dini majorant of the power modulus c x: the Hölder form with c_h = c pi^2 / 2
        b_major, _ = kernel_bound_holder(curve, 1.0, s, t, c_h=c_holder * math.pi**2 / 2.0)
        assert np.all(k <= b_table + 1e-9)
        assert np.all(b_table <= b_major + 1e-9)


def test_majorants_on_pair_arrays_match_scalar_calls(ellipse_curve):
    table = dini_modulus_table(ellipse_curve, np.linspace(0.02, math.pi, 80))
    rng = np.random.default_rng(5)
    s = rng.uniform(0, TWO_PI, 12)
    t = rng.uniform(0, TWO_PI, 12)
    t[4] = s[4]  # a diagonal pair inside the array
    arr = kernel_bound_dini(ellipse_curve, table, s, t)
    assert isinstance(arr, np.ndarray) and arr.shape == s.shape and arr[4] == 0.0
    for i in range(s.size):
        one = kernel_bound_dini(ellipse_curve, table, s[i], t[i])
        assert isinstance(one, float)
        assert abs(arr[i] - one) <= 1e-14 * abs(one)
    arr, c_h = kernel_bound_holder(ellipse_curve, 0.5, s, t)
    assert arr[4] == 0.0
    for i in range(s.size):
        one, _ = kernel_bound_holder(ellipse_curve, 0.5, s[i], t[i], c_h=c_h)
        assert isinstance(one, float)
        assert abs(arr[i] - one) <= 1e-14 * abs(one)
    # broadcasting: one angle against a row of angles
    row = kernel_bound_dini(ellipse_curve, table, s[0], t)
    assert np.array_equal(row, kernel_bound_dini(ellipse_curve, table, np.full_like(t, s[0]), t))


def test_majorant_violation_names_worst_pair(circle_curve):
    s = np.array([0.0, 0.5, 1.0])
    t = np.array([1.0, 2.5, 1.5])
    with pytest.raises(ConsistencyError, match=r"at \(0\.5, 2\.5\)"):
        kernel_bound_holder(circle_curve, 1.0, s, t, c_h=1e-3)


# ---------------------------------------------------------------------------
# Hölder-form bound


def test_holder_bound_circle_equality(circle_curve):
    bound, c_h = kernel_bound_holder(circle_curve, 1.0, 0.0, math.pi)
    assert abs(c_h - 0.5) < 1e-9
    assert abs(bound - 2.0) < 1e-8


def test_holder_bound_ellipse(ellipse_curve):
    bound, c_h = kernel_bound_holder(ellipse_curve, 1.0, 0.0, math.pi / 3)
    value = chord_tangent_kernel(ellipse_curve, 0.0, math.pi / 3)
    assert value <= bound + 1e-9
    assert abs(c_h - 1.2 / 2.0) < 1e-9  # largest |h''| is 1.2


def test_holder_bound_diagonal(circle_curve):
    bound, _ = kernel_bound_holder(circle_curve, 1.0, 0.3, 0.3)
    assert bound == 0.0


def test_holder_seminorm_circle(circle_curve):
    assert abs(holder_derivative_constant(circle_curve, 1.0).value - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# composition identity


def test_composition_identity_map(circle_curve):
    assert kernel_composition_residual(circle_curve, AngleMap.identity(), 0.3, 2.0) < 1e-12


def test_composition_smooth_map(circle_curve):
    t = TWO_PI * np.arange(256) / 256
    amap = AngleMap.from_samples(t + 0.1 * np.sin(t))
    assert kernel_composition_residual(circle_curve, amap, 0.3, 2.0) < 1e-9


def test_composition_smooth_map_ellipse(ellipse_curve):
    t = TWO_PI * np.arange(256) / 256
    amap = AngleMap.from_samples(t + 0.07 * np.sin(2 * t))
    for s, u in ((0.0, 1.0), (2.2, 5.1)):
        assert kernel_composition_residual(ellipse_curve, amap, s, u) < 1e-9


# ---------------------------------------------------------------------------
# boundary Jacobian bound


def test_boundary_jacobian_identity(identity_scenario):
    bm = identity_scenario.boundary
    for tau in TWO_PI * np.arange(8) / 8:
        assert abs(boundary_jacobian_bound(bm, tau) - 1.0) < 1e-6


def test_boundary_jacobian_affine_equality(affine_scenario):
    bm = affine_scenario.boundary
    for tau in (0.0, 0.7, math.pi / 2):
        val = boundary_jacobian_bound(bm, tau)
        assert abs(val - AFFINE_BOUNDARY_JACOBIAN) < 1e-8
        assert AFFINE_BOUNDARY_JACOBIAN <= val + 1e-9


@pytest.mark.parametrize("mu", [1.0, 0.5, 0.25])
def test_boundary_jacobian_graded_exact_below_one(identity_scenario, affine_scenario, mu):
    # the chord from the boundary series does not cancel near tau, so the
    # periodic rule settles at every exponent and to the exact value
    for scenario, exact in ((identity_scenario, 1.0), (affine_scenario, AFFINE_BOUNDARY_JACOBIAN)):
        for tau in (0.0, 0.3, 2.0):
            assert abs(boundary_jacobian_bound(scenario.boundary, tau, mu=mu) - exact) < 1e-14


def test_boundary_jacobian_flat_angle_map(circle_curve):
    # the angle map t + sin(t) has zero derivative at tau = pi, so the
    # boundary data is locally constant there and the bound collapses
    t = TWO_PI * np.arange(256) / 256
    amap = AngleMap.from_samples(t + np.sin(t))
    bm = BoundaryMap(circle_curve, amap)
    assert abs(boundary_jacobian_bound(bm, math.pi)) < 1e-12


def test_majorant_reads_the_angle_map_range(circle_curve, monkeypatch):
    # f' = 1 + 0.5 sin 1024t peaks at 1.5 between the nodes 2 pi k / 1024, where f' = 1;
    # the majorant takes sup f' from the map's derivative_range, not from a sample of its own
    cos_c = np.zeros((1025, 1))
    cos_c[1024, 0] = -0.5 / 1024
    bm = BoundaryMap(circle_curve, AngleMap(TrigPolynomial(cos_c, np.zeros((1025, 1)))))
    calls = []
    derivative = AngleMap.derivative

    def counted(self, t):
        calls.append(np.array(t))
        return derivative(self, t)

    monkeypatch.setattr(AngleMap, "derivative", counted)
    boundary_jacobian_bound(bm, 0.1, method="majorant")
    assert len(calls) == 1 and np.array_equal(calls[0], [0.1])


def test_boundary_jacobian_majorant_is_conservative(identity_scenario):
    bm = identity_scenario.boundary
    spec = QuadratureSpec(m=1024)
    for tau in (0.0, 1.1):
        graded = boundary_jacobian_bound(bm, tau, spec)
        majorant = boundary_jacobian_bound(bm, tau, spec, method="majorant")
        assert majorant >= graded - 1e-9


def test_boundary_jacobian_unsettled_ladder_raises(poly_scenario, monkeypatch):
    # a negative settle tolerance settles no pair of successive node counts (at 0 a pair
    # settles when it agrees to the bit, which rests on roundoff)
    monkeypatch.setattr("qcharm.kernels._SETTLE", -1.0)
    with pytest.raises(RefinementError):
        boundary_jacobian_bound(poly_scenario.boundary, 0.3)


def test_boundary_jacobian_unsettled_message_names_inputs(poly_scenario, monkeypatch):
    monkeypatch.setattr("qcharm.kernels._SETTLE", -1.0)
    with pytest.raises(RefinementError) as err:
        boundary_jacobian_bound(poly_scenario.boundary, 0.3, mu=0.5)
    message = str(err.value)
    assert "tau=0.3" in message and "mu=0.5" in message
    # the rule stops at twice the extreme-sampling grid of the series degree
    cap = 2 * curves._extreme_nodes(poly_scenario.boundary.series().degree)
    assert f" {cap // 2} and {cap} nodes gave " in message
    assert "raise the rule order" not in message
    # the last two rule values, each a full repr of a float
    values = [float(v) for v in message.split(" gave ")[1].split(" and ")]
    assert len(values) == 2 and all(math.isfinite(v) for v in values)


def test_boundary_jacobian_holder_form(affine_scenario):
    bm = affine_scenario.boundary
    val = boundary_jacobian_bound(bm, 0.3, form="holder")
    assert np.isfinite(val)
    assert val >= AFFINE_BOUNDARY_JACOBIAN - 1e-9


def test_boundary_jacobian_holder_form_small_exponents(poly_scenario):
    # the singular factor |2 sin(x/2)|^(mu-1) is integrated exactly by the product rule's
    # weights, so no node underflows however small mu is
    bm = poly_scenario.boundary
    pinned = {1.0: 3.043659306828987, 0.5: 4.748133994291255, 0.03: 87.79760599057627}
    for mu, want in pinned.items():
        assert abs(boundary_jacobian_bound(bm, 0.3, mu=mu, form="holder") - want) <= 1e-13 * want
    small = [boundary_jacobian_bound(bm, 0.3, mu=mu, form="holder") for mu in (0.02, 0.01)]
    assert all(math.isfinite(v) for v in small)
    # the inner piece carries the factor 1/mu
    assert pinned[0.03] < small[0] < small[1]
    series, curve = bm.series(), bm.curve
    for mu in (0.02, 0.01):
        coef = 0.7 / curve.speed_range[0]
        want = oracles.boundary_jacobian_quad(
            series.cos_coeffs, series.sin_coeffs, 0.3, curve.velocity(0.3), form="holder", mu=mu, coef=coef
        )
        got = boundary_jacobian_bound(bm, 0.3, mu=mu, form="holder", c_h=0.7)
        assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize("mu", [0.5, 0.02])
def test_periodic_rule_integrates_the_singular_factor(mu):
    # the product weights integrate cos(kx) |2 sin(x/2)|^(mu-1) for every k < n/2, up to
    # roundoff relative to the factor's integral
    scale = oracles.sine_power_moment(0, mu - 1.0)
    for n in (32, 64):
        x, w = kernels._periodic_rule(n, mu)
        factor = np.abs(2.0 * np.sin(x / 2.0)) ** (mu - 1.0)
        for k in range(n // 2):
            want = oracles.sine_power_moment(k, mu - 1.0)
            assert abs(np.sum(w * np.cos(k * x) * factor) - want) <= 1e-13 * scale


@pytest.mark.parametrize("m", [200, 600])
def test_boundary_jacobian_high_degree_conformal_is_exact(m):
    # the images are convex, so Q = (P ^ F') / (1 - cos x) keeps one sign and the kernel integral
    # is the Jacobian |f'|^2; Gauss panels of order 128 did not settle at these degrees
    eps = 0.001
    taus = TWO_PI * np.arange(32) / 32
    got = boundary_jacobian_bound(make_scenario("conformal_poly", eps=eps, m=m).boundary, taus)
    want = np.abs(1.0 + eps * np.exp(1j * (m - 1) * taus)) ** 2
    assert np.all(np.abs(got - want) <= 1e-14 * want)


def test_boundary_jacobian_settles_the_seeded_r3_curve(tmp_path):
    # the seed-4 curve of _graded_curves at 25 pi / 16, where Gauss panels of order 128 did not settle
    curve = _graded_curves(tmp_path)[-1]
    boundary, tau = BoundaryMap(curve), 25.0 * math.pi / 16.0
    series = boundary.series()
    want = oracles.boundary_jacobian_quad(series.cos_coeffs, series.sin_coeffs, tau, curve.velocity(tau))
    assert abs(boundary_jacobian_bound(boundary, tau) - want) <= 1e-14 * want


def test_boundary_jacobian_requires_curve():
    bm = BoundaryMap.from_values(np.tile([1.0, 0.0], (64, 1)))
    with pytest.raises(DomainError):
        boundary_jacobian_bound(bm, 0.0)


# ---------------------------------------------------------------------------
# batched evaluation: shapes and the one-call graded rule


@pytest.mark.parametrize("shape", [(), (5,), (3, 4)], ids=["scalar", "vector", "matrix"])
def test_kernel_keeps_pair_shape(shape, ellipse_curve):
    s = np.linspace(-1.0, 7.0, int(np.prod(shape))).reshape(shape)
    got = chord_tangent_kernel(ellipse_curve, s, s + 0.5)
    assert isinstance(got, float) if not shape else got.shape == shape
    flat = [chord_tangent_kernel(ellipse_curve, x, x + 0.5) for x in np.ravel(s)]
    assert np.allclose(np.ravel(got), flat, rtol=0.0, atol=1e-15)


_leggauss = functools.cache(np.polynomial.legendre.leggauss)


def _gauss_panels(edges, order: int):
    """Gauss-Legendre rule of the given order on each panel between consecutive edges."""
    nodes, weights = _leggauss(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    return (mid[:, None] + half[:, None] * nodes[None, :]).ravel(), (half[:, None] * weights[None, :]).ravel()


def _four_call_graded(boundary, tau, mu, form, c_h):
    """A graded Gauss-panel rule for ``boundary_jacobian_bound``, independent of its periodic
    rule: one integrand call per side of each piece (inner and outer), the inner piece after
    the substitution x = sigma^(1/mu) for the Hölder form, Gauss orders 16 to 128 per panel."""
    curve, fmap = boundary.curve, boundary.angle_map
    fp_tau = abs(float(fmap.derivative(tau)))
    vel_tau = curve.velocity(float(fmap(tau)))
    chord = boundary.series().increments(tau)
    holder_const = c_h / curve.speed_range[0]

    def integrand(x):
        p = chord(x)
        if form == "kernel":
            num = kernels._cross_norm(p, np.broadcast_to(vel_tau, p.shape))
        else:
            num = holder_const * np.linalg.norm(p, axis=1) ** (1.0 + mu)
        return num / (4.0 * np.pi * np.sin(x / 2.0) ** 2)

    grade = mu if form == "holder" else 1.0

    def evaluate(order):
        sigma, w_in = _gauss_panels(np.linspace(0.0, 0.25**grade, 5), order)
        x_in = sigma ** (1.0 / grade)
        jac = (1.0 / grade) * sigma ** (1.0 / grade - 1.0)
        inner = float(np.sum(w_in * jac * (integrand(x_in) + integrand(-x_in))))
        x_out, w_out = _gauss_panels(np.append(0.25 * 2.0 ** np.arange(4), np.pi), order)
        return inner + float(np.sum(w_out * (integrand(x_out) + integrand(-x_out))))

    prev = evaluate(16)
    for order in (32, 64, 128):
        cur = evaluate(order)
        if abs(cur - prev) <= kernels._SETTLE * (1.0 + abs(cur)):
            return fp_tau * cur
        prev = cur
    raise RefinementError("four-call rule did not settle")


def _reference(boundary, tau, mu, form, c_h):
    """``_four_call_graded`` where it settles, else the adaptive-quadrature oracle."""
    try:
        return _four_call_graded(boundary, tau, mu, form, c_h)
    except RefinementError:
        curve, fmap, series = boundary.curve, boundary.angle_map, boundary.series()
        value = oracles.boundary_jacobian_quad(
            series.cos_coeffs, series.sin_coeffs, tau, curve.velocity(float(fmap(tau))), form, mu, c_h / curve.speed_range[0]
        )
        return abs(float(fmap.derivative(tau))) * value


def _graded_curves(tmp_path):
    """Catalog curves and seeded CSV curves in R^2 and R^3."""
    out = [build_curve(circle(), 512), build_curve(ellipse(1.2, 0.8), 512), build_curve(ellipse(16.0, 1.0), 512)]
    t = TWO_PI * np.arange(256) / 256
    for seed, dim in ((3, 2), (4, 3)):
        rng = np.random.default_rng(seed)
        pts = np.zeros((256, dim))
        pts[:, 0], pts[:, 1] = np.cos(t), np.sin(t)
        for j in range(2, 6):
            pts += np.outer(np.cos(j * t), rng.uniform(-0.04, 0.04, dim)) + np.outer(np.sin(j * t), rng.uniform(-0.04, 0.04, dim))
        path = tmp_path / f"curve-{seed}.csv"
        np.savetxt(path, np.column_stack([t, pts]), delimiter=",", fmt="%.17g")
        data = np.loadtxt(path, delimiter=",")
        out.append(build_curve((data[:, 0], data[:, 1:]), 512))
    return out


def _angle_mapped_boundaries(catalog_scenarios, tmp_path):
    """The catalog boundaries, then each of ``_graded_curves`` plain and under t + 0.1 sin t."""
    t = TWO_PI * np.arange(256) / 256
    amap = AngleMap.from_samples(t + 0.1 * np.sin(t))
    boundaries = [sc.boundary for sc in catalog_scenarios]
    for curve in _graded_curves(tmp_path):
        boundaries += [BoundaryMap(curve), BoundaryMap(curve, amap)]
    return boundaries


def test_speed_extremes_bracket_the_nodes(tmp_path, ellipse_arc):
    """The least and largest speed of the Hölder form and the majorant method are at most
    and at least those at 512 uniform nodes, on catalog and seeded CSV curves; an
    arc-length view has its constant speed."""
    t = TWO_PI * np.arange(512) / 512
    for curve in _graded_curves(tmp_path):
        speeds = np.linalg.norm(curve.velocity(t), axis=1)
        low, high = curve.speed_range
        assert low <= np.min(speeds) * (1.0 + 1e-12)
        assert high >= np.max(speeds) * (1.0 - 1e-12)
    scale = ellipse_arc.view.scale
    assert ellipse_arc.speed_range == (scale, scale)


@pytest.mark.parametrize("mu", [1.0, 0.5])
def test_one_call_graded_rule_matches_four_calls(mu, tmp_path):
    t = TWO_PI * np.arange(256) / 256
    amap = AngleMap.from_samples(t + 0.1 * np.sin(t))
    for curve in _graded_curves(tmp_path):
        for boundary in (BoundaryMap(curve), BoundaryMap(curve, amap)):
            for form in ("kernel", "holder"):
                for tau in (0.3, 4.5):
                    got = boundary_jacobian_bound(boundary, tau, mu=mu, form=form, c_h=0.7)
                    want = _reference(boundary, tau, mu, form, 0.7)
                    assert abs(got - want) <= 1e-14 * abs(want)


def test_kernel_form_does_not_read_mu(catalog_scenarios, tmp_path):
    # the kernel integrand of trigonometric boundary data is bounded at x = 0, so its rule
    # is the midpoint rule of mu = 1; grading by mu underflowed to NaN at mu <= 0.02
    for boundary in _angle_mapped_boundaries(catalog_scenarios, tmp_path):
        for tau in (0.3, 4.5):
            values = [boundary_jacobian_bound(boundary, tau, mu=mu) for mu in (1.0, 0.5, 0.02, 0.01)]
            assert math.isfinite(values[0]) and values == [values[0]] * 4


# ---------------------------------------------------------------------------
# every angle in one call


@pytest.mark.parametrize("mu", [1.0, 0.5])
@pytest.mark.parametrize("form", ["kernel", "holder"])
@pytest.mark.parametrize("method", ["graded", "majorant"])
def test_array_tau_matches_scalar_calls(method, form, mu, catalog_scenarios, tmp_path):
    taus = TWO_PI * np.arange(32) / 32
    for boundary in _angle_mapped_boundaries(catalog_scenarios, tmp_path):
        want, unsettled = {}, []
        for tau in taus:
            try:
                want[tau] = boundary_jacobian_bound(boundary, tau, mu=mu, method=method, form=form, c_h=0.7)
            except RefinementError:
                unsettled.append(tau)
        if unsettled:
            # the array call stops where the first scalar call does
            with pytest.raises(RefinementError, match=f"tau={float(unsettled[0])!r},"):
                boundary_jacobian_bound(boundary, taus, mu=mu, method=method, form=form, c_h=0.7)
        kept = np.array(sorted(want))
        got = boundary_jacobian_bound(boundary, kept, mu=mu, method=method, form=form, c_h=0.7)
        ref = np.array([want[tau] for tau in kept])
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))
        if method == "graded":
            four = np.array([_reference(boundary, tau, mu, form, 0.7) for tau in kept])
            assert np.all(np.abs(got - four) <= 1e-14 * np.abs(four))


def test_array_tau_shapes(poly_scenario):
    bm = poly_scenario.boundary
    assert isinstance(boundary_jacobian_bound(bm, 0.3), float)
    assert isinstance(boundary_jacobian_bound(bm, np.float64(0.3)), float)
    for k in (1, 5):
        got = boundary_jacobian_bound(bm, np.linspace(0.0, 3.0, k))
        assert isinstance(got, np.ndarray) and got.shape == (k,)
    with pytest.raises(DomainError):
        boundary_jacobian_bound(bm, np.zeros((2, 2)))


def test_array_tau_error_names_first_angle(poly_scenario, monkeypatch):
    # a negative tolerance settles no angle (at 0 an angle settles when two rules agree to
    # the bit, which rests on roundoff that varies with the number of angles evaluated together)
    monkeypatch.setattr("qcharm.kernels._SETTLE", -1.0)
    with pytest.raises(RefinementError) as err:
        boundary_jacobian_bound(poly_scenario.boundary, np.array([1.7, 0.3, 4.0]), mu=0.5)
    assert "tau=1.7," in str(err.value) and "mu=0.5" in str(err.value)


def test_array_tau_chunks_agree(graph_scenario, monkeypatch):
    # a cap below one rule's point set runs the angles one at a time at every node count
    taus = TWO_PI * np.arange(7) / 7
    whole = {form: boundary_jacobian_bound(graph_scenario.boundary, taus, form=form, c_h=0.7) for form in ("kernel", "holder")}
    monkeypatch.setattr("qcharm.kernels._CHORD_BLOCK", 1)
    for form, want in whole.items():
        got = boundary_jacobian_bound(graph_scenario.boundary, taus, form=form, c_h=0.7)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def test_array_tau_scans_holder_constant_once(poly_scenario, monkeypatch):
    calls = []

    def counted(curve, mu):
        calls.append(mu)
        return holder_derivative_constant(curve, mu)

    monkeypatch.setattr("qcharm.kernels.holder_derivative_constant", counted)
    taus = TWO_PI * np.arange(32) / 32
    values = boundary_jacobian_bound(poly_scenario.boundary, taus, mu=0.5, form="holder")
    assert calls == [0.5] and np.all(np.isfinite(values))


def test_view_majorant_and_kernel_invert_the_length_once(ellipse_arc, monkeypatch):
    # position and velocity at both ends of every pair come from one length inversion
    s, t = np.linspace(0.1, 6.0, 7), np.linspace(0.5, 3.0, 7)
    c_h = kernel_bound_holder(ellipse_arc, 0.5, s, t)[1]
    calls = []
    real = curves._LengthTable.invert

    def counted(self, target):
        calls.append(target.shape)
        return real(self, target)

    monkeypatch.setattr(curves._LengthTable, "invert", counted)
    kernel_bound_holder(ellipse_arc, 0.5, s, t, c_h=c_h)
    assert len(calls) == 1
    calls.clear()
    chord_tangent_kernel(ellipse_arc, s, t)
    assert len(calls) == 1


def test_view_kernel_does_not_depend_on_the_other_pairs_of_the_call():
    # each point of a length inversion stops on its own residual, so 400 pairs in one call
    # read what one call per pair reads; with one tolerance per call the 16:1 ellipse's
    # values moved by 1.5e-11 relative
    view = curves.arc_length_reparametrize(build_curve(ellipse(16.0, 1.0), 512))
    s, t = np.random.default_rng(49).uniform(0.0, TWO_PI, (2, 400))
    batched = chord_tangent_kernel(view, s, t)
    alone = np.array([chord_tangent_kernel(view, a, b) for a, b in zip(s, t)])
    assert np.all(np.abs(batched - alone) <= 1e-12 * np.abs(alone))
