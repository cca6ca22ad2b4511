import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import poisson_kernel
from qcharm import (
    AngleMap,
    BoundaryMap,
    DomainError,
    QuadratureSpec,
    RefinementError,
    TrigPolynomial,
    arc_length_reparametrize,
    build_curve,
    ellipse,
    fourier_curve,
    gradient_frames,
    poisson_extend,
    surface_area,
)
from qcharm import curves
from qcharm.bounds import _polar_area
from qcharm.poisson import _circle_frames, _dilatations
from qcharm.scenarios import _gradient_sups, _worst_record

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def affine_map(affine_scenario):
    return affine_scenario.boundary


@pytest.fixture(scope="module")
def identity_map(identity_scenario):
    return identity_scenario.boundary


@pytest.fixture(scope="module")
def wavy_map():
    cos_c = np.zeros((4, 2))
    sin_c = np.zeros((4, 2))
    cos_c[1] = [1.0, 0.0]
    sin_c[1] = [0.0, 1.0]
    cos_c[3] = [0.04, 0.0]
    sin_c[3] = [0.0, -0.04]
    return BoundaryMap(build_curve(fourier_curve(cos_c, sin_c), 256))


# ---------------------------------------------------------------------------
# kernel


def test_kernel_at_center():
    t = np.linspace(0, TWO_PI, 17)
    assert np.allclose(poisson_kernel(0.0, t), 1.0 / TWO_PI, atol=1e-15)


def test_kernel_on_axis():
    for r in (0.1, 0.5, 0.9):
        assert abs(poisson_kernel(r, 0.0) - (1 + r) / (TWO_PI * (1 - r))) < 1e-12


def test_kernel_normalization():
    m = 4096
    t = TWO_PI * np.arange(m) / m
    total = np.sum(poisson_kernel(0.7, t)) * TWO_PI / m
    assert abs(total - 1.0) < 1e-10


def test_kernel_domain():
    with pytest.raises(ValueError):
        poisson_kernel(1.0, 0.3)
    with pytest.raises(ValueError):
        poisson_kernel(-0.1, 0.3)


# ---------------------------------------------------------------------------
# extension


def test_extend_identity(identity_map):
    z = 0.3 + 0.4j
    u = poisson_extend(identity_map, z)
    assert np.max(np.abs(u - [0.3, 0.4])) < 1e-10


def test_extend_constant_data():
    bm = BoundaryMap.from_values(np.tile([2.5, -1.0, 0.5], (64, 1)))
    for z in (0.0, 0.3 + 0.4j, -0.7j):
        u = poisson_extend(bm, z)
        assert np.max(np.abs(u - [2.5, -1.0, 0.5])) < 1e-12


def test_scalar_samples_are_one_column():
    # m scalar samples are a 1-dimensional map, not one row of an m-dimensional one
    t = TWO_PI * np.arange(64) / 64
    bm = BoundaryMap.from_values(np.cos(t))
    assert bm.series().dim == 1 and bm.series().degree == 1
    probe = np.linspace(0.0, TWO_PI, 7)
    assert np.max(np.abs(bm.values(probe)[:, 0] - np.cos(probe))) < 1e-14
    with pytest.raises(DomainError, match=r"not of shape \(64, 2, 2\)"):
        BoundaryMap.from_values(np.zeros((64, 2, 2)))


def test_extend_affine_on_axis(affine_map):
    u = poisson_extend(affine_map, 0.5 + 0.0j)
    assert np.max(np.abs(u - [0.6, 0.0])) < 1e-10


def test_extend_mean_value(wavy_map):
    m = 2048
    t = TWO_PI * np.arange(m) / m
    avg = wavy_map.values(t).mean(axis=0)
    u0 = poisson_extend(wavy_map, 0.0 + 0.0j)
    assert np.max(np.abs(u0 - avg)) < 1e-10


def test_extend_outside_disk_rejected(identity_map):
    with pytest.raises(DomainError):
        poisson_extend(identity_map, 1.0 + 1e-6 + 0.0j)


# ---------------------------------------------------------------------------
# the series against the Poisson integral, and on the circle


def _mild_fourier(seed: int, degree: int = 8):
    """Coefficients a_j, b_j of w(t) = sum_j a_j e^{ijt} + conj(b_j) e^{-ijt},
    a_1 = 1, scaled so that sum_{j>=2} j|a_j| + sum_j j|b_j| <= 0.3; the
    planar data is then univalent and its extension sense-preserving."""
    rng = np.random.default_rng(seed)
    j = np.arange(degree + 1)
    a = np.zeros(degree + 1, dtype=complex)
    b = np.zeros(degree + 1, dtype=complex)
    a[1] = 1.0
    a[2:] = (rng.normal(size=degree - 1) + 1j * rng.normal(size=degree - 1)) / j[2:] ** 3
    b[1:] = (rng.normal(size=degree) + 1j * rng.normal(size=degree)) / j[1:] ** 3
    size = np.sum(j[2:] * np.abs(a[2:])) + np.sum(j * np.abs(b))
    scale = rng.uniform(0.1, 0.3) / size
    a[2:] *= scale
    b *= scale
    return a, b


def _sampled_fit(a, b, n: int = 64) -> BoundaryMap:
    t = TWO_PI * np.arange(n) / n
    e = np.exp(1j * np.outer(t, np.arange(a.size)))
    w = e @ a + np.conj(e @ b)
    return BoundaryMap.from_values(np.stack([w.real, w.imag], axis=1))


@pytest.fixture(scope="module")
def angle_mapped_circle(circle_curve):
    # t -> t + 0.1 sin t + 0.02 cos 3t; the series is an FFT fit
    periodic = TrigPolynomial(np.array([[0.0], [0.0], [0.0], [0.02]]), np.array([[0.0], [0.1], [0.0], [0.0]]))
    return BoundaryMap(circle_curve, AngleMap(periodic))


@pytest.fixture(scope="module")
def sampled_fit():
    # 64 samples of degree-8 data: harmonics 9..32 of the fit are roundoff
    return _sampled_fit(*_mild_fourier(11))


@pytest.mark.parametrize("name", ["wavy_map", "angle_mapped_circle", "sampled_fit"])
def test_series_matches_poisson_integral(name, request):
    bm = request.getfixturevalue(name)
    angles = TWO_PI * np.arange(8) / 8 + 0.3
    z = np.concatenate([r * np.exp(1j * angles) for r in (0.0, 0.5, 0.9, 0.99)])
    u, ux, uy = oracles.trapezoid_extension(bm.values, z)
    gx, gy = gradient_frames(bm, z)
    assert np.max(np.abs(poisson_extend(bm, z) - u)) <= 1e-12
    assert np.max(np.abs(gx - ux)) <= 1e-12
    assert np.max(np.abs(gy - uy)) <= 1e-12


@pytest.mark.parametrize("name", ["wavy_map", "angle_mapped_circle", "sampled_fit"])
def test_series_on_the_circle(name, request):
    bm = request.getfixturevalue(name)
    t = np.linspace(0.0, TWO_PI, 97)
    z = np.exp(1j * t)
    assert np.max(np.abs(poisson_extend(bm, z) - bm.values(t))) <= 1e-12
    ux, uy = gradient_frames(bm, z)
    du_dt = uy * np.cos(t)[:, None] - ux * np.sin(t)[:, None]
    if bm.curve is None:
        want = bm.series().derivative()(t)
    else:
        want = bm.curve.velocity(bm.angle_map(t)) * bm.angle_map.derivative(t)[:, None]
    assert np.max(np.abs(du_dt - want)) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_surface_area_matches_lusin_series(seed):
    a, b = _mild_fourier(seed)
    j = np.arange(a.size)
    lusin = math.pi * float(np.sum(j * (np.abs(a) ** 2 - np.abs(b) ** 2)))
    area, rule = surface_area(_sampled_fit(a, b))
    assert abs(area - lusin) <= 1e-12 * lusin
    assert rule["correction"] <= 1e-12 * lusin


def _sampled_fit_r3(seed: int, n: int = 64) -> BoundaryMap:
    """R^3 data (Re w, Im w, Re v) at n samples, w and v two seeded mild series."""
    (a, b), (c, d) = _mild_fourier(seed), _mild_fourier(seed + 1000)
    t = TWO_PI * np.arange(n) / n
    e = np.exp(1j * np.outer(t, np.arange(a.size)))
    w, v = e @ a + np.conj(e @ b), e @ c + np.conj(e @ d)
    return BoundaryMap.from_values(np.stack([w.real, w.imag, v.real], axis=1))


def _assert_area_rule_matches_horner(bm):
    # both sizes of surface_area's rule: one inverse FFT per circle against Horner at every node
    degree = bm.series().degree
    for n_r, n_t in ((degree + 8, 4 * degree + 16), (2 * degree + 16, 8 * degree + 32)):
        want = oracles.polar_area_horner(bm.series().complex_coeffs, n_r, n_t)
        assert abs(_polar_area(bm, n_r, n_t) - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("make", [_sampled_fit_r3, lambda s: _sampled_fit(*_mild_fourier(s))], ids=["R^3", "R^2"])
def test_area_rule_matches_horner_on_fits(make, seed):
    _assert_area_rule_matches_horner(make(seed))


def test_area_rule_matches_horner_on_catalog(catalog_scenarios):
    for sc in catalog_scenarios:
        _assert_area_rule_matches_horner(sc.boundary)


def test_area_of_eccentric_arc_length_view():
    # the view's series has degree 297, so the doubled rule has 1.5e6 nodes
    bm = BoundaryMap(arc_length_reparametrize(build_curve(ellipse(4.0, 1.0), 512)))
    area, _ = surface_area(bm)
    assert abs(area - 4.0 * math.pi) <= 1e-12 * 4.0 * math.pi


def test_circle_frames_match_scattered_frames(sampled_fit):
    radii = np.array([0.0, 0.3, 0.9, 1.0])
    n = 40
    z = (radii[:, None] * np.exp(TWO_PI * 1j * np.arange(n) / n)[None, :]).ravel()
    for got, want in zip(_circle_frames(sampled_fit, radii, n), gradient_frames(sampled_fit, z)):
        assert np.max(np.abs(got - want)) <= 1e-14
    degree = sampled_fit.series().degree
    with pytest.raises(DomainError):
        _circle_frames(sampled_fit, radii, degree - 1)


def test_unresolved_series_raises(circle_curve, monkeypatch):
    # t -> t + 0.05 sin 20t puts harmonics of size J_k(0.05) at 1 + 20k,
    # which an FFT fit resolves only from 512 samples on
    periodic = TrigPolynomial(np.zeros((21, 1)), np.eye(21)[20][:, None] * 0.05)
    bm = BoundaryMap(circle_curve, AngleMap(periodic))
    assert bm.series().degree > 64
    monkeypatch.setattr(curves, "_MAX_FIT", 128)
    capped = BoundaryMap(circle_curve, AngleMap(periodic))  # the fit waits for first use
    with pytest.raises(RefinementError):
        poisson_extend(capped, 0.5)


def test_harmonicity_five_point(wavy_map):
    h = 1e-3
    for z in (0.2 + 0.1j, -0.4 + 0.35j, 0.0 + 0.6j):
        stencil = [z + h, z - h, z + 1j * h, z - 1j * h]
        u = poisson_extend(wavy_map, np.array(stencil + [z]))
        lap = (u[0] + u[1] + u[2] + u[3] - 4 * u[4]) / h**2
        assert np.max(np.abs(lap)) < 1e-5


# ---------------------------------------------------------------------------
# gradients


def test_gradient_identity(identity_map):
    ux, uy = gradient_frames(identity_map, [0.35 - 0.2j])
    assert np.max(np.abs(ux[0] - [1.0, 0.0])) < 1e-12
    assert np.max(np.abs(uy[0] - [0.0, 1.0])) < 1e-12


def test_gradient_affine(affine_map):
    ux, uy = gradient_frames(affine_map, [-0.3 + 0.55j])
    assert np.max(np.abs(ux[0] - [1.2, 0.0])) < 1e-9
    assert np.max(np.abs(uy[0] - [0.0, 0.8])) < 1e-9


def test_gradient_matches_finite_differences(affine_map, wavy_map):
    z0 = 0.2 + 0.1j
    h = 1e-5
    for bm in (affine_map, wavy_map):
        ux, uy = (g[0] for g in gradient_frames(bm, [z0]))
        fx = (poisson_extend(bm, z0 + h) - poisson_extend(bm, z0 - h)) / (2 * h)
        fy = (poisson_extend(bm, z0 + 1j * h) - poisson_extend(bm, z0 - 1j * h)) / (2 * h)
        scale = max(np.linalg.norm(ux), np.linalg.norm(uy))
        assert np.max(np.abs(ux - fx)) / scale < 1e-6
        assert np.max(np.abs(uy - fy)) / scale < 1e-6


# ---------------------------------------------------------------------------
# frame algebra


def _frame(ux, uy):
    """Operator norm, minimal stretch, Jacobian and hs^2 = (|ux|^2 + |uy|^2) / 2
    of one frame."""
    op, mn, jac, hs2 = _dilatations(np.asarray([ux], dtype=float), np.asarray([uy], dtype=float))
    return float(op[0]), float(mn[0]), float(jac[0]), float(hs2[0])


def test_jacobian_cases():
    assert _frame([1, 0], [0, 1])[2] == 1.0
    assert abs(_frame([1.2, 0], [0, 0.8])[2] - 0.96) < 1e-15
    assert _frame([1, 2], [1, 2])[2] == 0.0


def test_frame_norms_diagonal():
    op, mn, _, hs2 = _frame([1.2, 0], [0, 0.8])
    assert abs(op - 1.2) < 1e-15
    assert abs(mn - 0.8) < 1e-15
    assert abs(math.sqrt(hs2) - math.sqrt(1.04)) < 1e-15


def test_frame_norms_conformal():
    a, b = 0.6, -1.1
    op, mn, _, _ = _frame([a, b], [-b, a])
    r = math.hypot(a, b)
    assert abs(op - r) < 1e-14
    assert abs(mn - r) < 1e-14


def test_frame_norms_zero_frame():
    op, mn, _, hs2 = _frame([0, 0], [0, 0])
    assert hs2 == op == mn == 0.0


def test_frame_norms_brute_force_oracle():
    rng = np.random.default_rng(3)
    ux = rng.normal(size=3)
    uy = rng.normal(size=3)
    op, mn, jac, _ = _frame(ux, uy)
    phi = TWO_PI * np.arange(100_000) / 100_000
    stretch = np.linalg.norm(np.outer(np.cos(phi), ux) + np.outer(np.sin(phi), uy), axis=1)
    assert abs(op - stretch.max()) < 1e-8
    assert abs(mn - stretch.min()) < 1e-8
    assert abs(op * mn - jac) < 1e-12


finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(finite, min_size=4, max_size=4))
def test_frame_identity_product(vals):
    op, mn, jac, hs2 = _frame(vals[:2], vals[2:])
    scale = max(1.0, op**2)
    assert abs(op * mn - jac) < 1e-12 * scale
    assert abs(hs2 - (op**2 + mn**2) / 2.0) < 1e-12 * scale


def test_dilatation_cases():
    op, mn, _, _ = _frame([0.6, 0.8], [-0.8, 0.6])
    assert abs(op / mn - 1.0) < 1e-14
    op, mn, _, _ = _frame([1.2, 0], [0, 0.8])
    assert abs(op / mn - 1.5) < 1e-14
    op, mn, jac, _ = _frame([1, 1], [1, 1])  # rank 1: the dilatation sups read it as infinite
    assert op > 0.0 and mn == 0.0 and jac == 0.0


def test_dilatation_affine_map_everywhere(affine_scenario):
    op, mn, _, _ = _dilatations(*gradient_frames(affine_scenario.boundary, [0.1 + 0.1j, -0.5j, 0.8]))
    assert np.max(np.abs(op / mn - 1.5)) < 1e-9


# ---------------------------------------------------------------------------
# angular-derivative inequality (both sides as verify computes them)


def _angular(bm, grid, K):
    zz = np.asarray(grid, dtype=complex)
    ux, uy = gradient_frames(bm, zz)
    lhs, rhs = oracles.angular_sides(zz, ux, uy, _dilatations(ux, uy)[2], K)
    return lhs, rhs


def test_angular_check_identity(identity_map):
    r = np.linspace(0.1, 0.9, 8)
    th = TWO_PI * np.arange(8) / 8
    grid = (r[:, None] * np.exp(1j * th)[None, :]).ravel()
    lhs, rhs = _angular(identity_map, grid, K=1.0)
    assert _worst_record("angular_derivative", lhs, rhs).passed
    assert np.max(np.abs(rhs - lhs)) < 1e-12


def test_angular_check_affine_axis_cases(affine_map):
    r = 0.6
    lhs, rhs = _angular(affine_map, [r * 1j, r + 0j], K=1.5)  # t = pi/2 and t = 0
    assert abs(rhs[0] - lhs[0]) < 1e-10
    expected = 1.44 * r**2 - 0.64 * r**2
    assert abs(rhs[1] - lhs[1] - expected) < 1e-9


def test_angular_check_records_violations(affine_map):
    lhs, rhs = _angular(affine_map, [0.5j, 0.5], K=1.0)
    rec = _worst_record("angular_derivative", lhs, rhs)
    assert not rec.passed  # too-small K forces a recorded violation
    assert rec.margin < 0.0


# ---------------------------------------------------------------------------
# quasiconformality inequality


def test_quasiconformality_equality_affine(affine_map):
    K = 1.5
    _, _, jac, hs2 = _dilatations(*gradient_frames(affine_map, [0.3 + 0.2j, -0.6j]))
    assert np.max(np.abs(hs2 - 0.5 * (K + 1.0 / K) * jac)) < 1e-10


def test_quasiconformality_bound_wavy(wavy_map):
    zs = 0.7 * np.exp(1j * TWO_PI * np.arange(16) / 16)
    op, mn, jac, hs2 = _dilatations(*gradient_frames(wavy_map, zs))
    K = float(np.max(op / mn))
    assert np.all(hs2 <= 0.5 * (K + 1.0 / K) * jac + 1e-9)


def test_conformal_scenario_isothermal(poly_scenario):
    ux, uy = gradient_frames(poly_scenario.boundary, [0.2 + 0.3j, -0.5 + 0.1j])
    jac = _dilatations(ux, uy)[2]
    assert np.max(np.abs(jac - np.einsum("ij,ij->i", ux, ux))) < 1e-9
    assert np.max(np.abs(jac - np.einsum("ij,ij->i", uy, uy))) < 1e-9


# ---------------------------------------------------------------------------
# validation of boundary maps and specs


def test_quadrature_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(m=100)
    with pytest.raises(DomainError):
        QuadratureSpec(m=32)


def test_angle_map_must_be_monotone():
    t = TWO_PI * np.arange(128) / 128
    with pytest.raises(DomainError):
        AngleMap.from_samples(t + 1.2 * np.sin(t))


def test_angle_map_checks_every_harmonic():
    # f' = 1 + 1.5 cos 512t is 2.5 at every multiple of 2 pi / 512 and -0.5 between them
    sin_c = np.zeros((513, 1))
    sin_c[512, 0] = 1.5 / 512
    with pytest.raises(DomainError, match="nondecreasing"):
        AngleMap(TrigPolynomial(np.zeros((513, 1)), sin_c))


def test_angle_map_derivative_range():
    # f = t - (0.5 / 1024) cos 1024t: f' = 1 + 0.5 sin 1024t, whose extremes lie between
    # the 1,024 nodes 2 pi k / 1024, where f' = 1
    cos_c = np.zeros((1025, 1))
    cos_c[1024, 0] = -0.5 / 1024
    low, high = AngleMap(TrigPolynomial(cos_c, np.zeros((1025, 1)))).derivative_range
    assert abs(low - 0.5) <= 1e-12 and abs(high - 1.5) <= 1e-12
    assert AngleMap.identity().derivative_range == (1.0, 1.0)


def _frame_maxima(bm: BoundaryMap, n: int = 65_536):
    """max |grad u| and max K over n angles of the unit circle: f' = sum_j j c_j z^(j-1)
    on the circle by an inverse FFT, and the singular values of each (ux, uy) frame."""
    c = bm.series().complex_coeffs
    spectrum = np.zeros((n, c.shape[1]), dtype=complex)
    spectrum[: c.shape[0] - 1] = np.arange(1, c.shape[0])[:, None] * c[1:]
    df = np.fft.ifft(spectrum, axis=0, norm="forward")
    sv = np.linalg.svd(np.stack([df.real, -df.imag], axis=2), compute_uv=False)
    return float(np.max(sv[:, 0])), float(np.max(sv[:, 0] / sv[:, 1]))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("dim", [2, 3])
def test_gradient_sups_match_dense_maxima(seed, dim):
    # degree-8 data at 64 samples: the fit has degree 32, and 128 angles read up to 7.9e-5 low
    bm = _sampled_fit(*_mild_fourier(seed)) if dim == 2 else _sampled_fit_r3(seed)
    want = _frame_maxima(bm)
    for got, exact in zip(_gradient_sups(bm), want):
        assert abs(got - exact) <= 1e-6 * exact


def test_rotated_boundary_map_reaches_between_nodes():
    # r(t) = 1 - 0.01 sin 256t in polar form: max|h| = 1.01 lies between the nodes
    # 2 pi k / 512, where r = 1, and the rotation by pi / 512 lands on it
    cos_c, sin_c = np.zeros((258, 2)), np.zeros((258, 2))
    cos_c[1, 0] = sin_c[1, 1] = 1.0
    sin_c[255, 0] = sin_c[257, 0] = -0.005
    cos_c[255, 1], cos_c[257, 1] = -0.005, 0.005
    curve = build_curve(fourier_curve(cos_c, sin_c))
    bm = BoundaryMap(curve, AngleMap(TrigPolynomial([[math.pi / 512]], [[0.0]])))
    t = TWO_PI * np.arange(512) / 512
    assert np.max(np.abs(np.linalg.norm(curve.position(t), axis=1) - 1.0)) < 1e-14
    assert abs(np.max(np.linalg.norm(bm.values(t), axis=1)) - 1.01) < 1e-14


def test_angle_map_smooth_ok(circle_curve):
    t = TWO_PI * np.arange(128) / 128
    amap = AngleMap.from_samples(t + 0.1 * np.sin(t))
    bm = BoundaryMap(circle_curve, amap)
    u = poisson_extend(bm, 0.0 + 0.0j)
    assert np.all(np.isfinite(u))
