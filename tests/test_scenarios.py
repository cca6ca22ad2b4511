import dataclasses
import functools
import math
import os

import numpy as np
import pytest

import oracles
from qcharm import (
    DomainError,
    RefinementError,
    build_curve,
    circle,
    ellipse,
    gradient_frames,
    make_scenario,
    poisson_extend,
    scenario_catalog,
    verify,
)
from qcharm import curves, kernels, scenarios
from qcharm.poisson import BoundaryMap, _dilatations

TWO_PI = 2.0 * math.pi

# pinned by tests/oracles.py (dense-grid dilatation scan)
HARMONIC_GRAPH_K = 1.0198039027185546


# ---------------------------------------------------------------------------
# catalog construction


def test_affine_exact_fields(affine_scenario):
    assert abs(affine_scenario.k_exact - 1.5) < 1e-15
    assert abs(affine_scenario.sup_grad_exact - 1.2) < 1e-15
    # J = 1 - |c|^2 everywhere; here from the series frames
    jac = _dilatations(*gradient_frames(affine_scenario.boundary, [0.3 + 0.1j]))[2]
    assert abs(float(jac[0]) - 0.96) < 1e-15
    assert abs(affine_scenario.area_exact - 0.96 * math.pi) < 1e-15


def test_scenarios_hold_no_callables(catalog_scenarios):
    # whatever varies over the disk is computed from the boundary series
    fourier = make_scenario("fourier", cos_coeffs=[[0.0, 0.0], [1.0, 0.0]], sin_coeffs=[[0.0, 0.0], [0.0, 1.0]])
    for sc in [*catalog_scenarios, fourier]:
        held = {field.name: getattr(sc, field.name) for field in dataclasses.fields(sc)}
        assert not [name for name, value in held.items() if callable(value)], sc.name


def test_affine_rejects_large_coefficient():
    with pytest.raises(DomainError):
        make_scenario("affine", c=1.0)


def test_conformal_poly_dilatation_one(poly_scenario):
    op, mn, _, _ = _dilatations(*gradient_frames(poly_scenario.boundary, [0.1 + 0.2j, -0.8j, 0.55]))
    assert np.max(np.abs(op / mn - 1.0)) < 1e-9


def test_conformal_poly_rejects_large_eps():
    with pytest.raises(DomainError):
        make_scenario("conformal_poly", eps=0.5, m=2)


def test_harmonic_graph_k_oracle(graph_scenario):
    assert abs(graph_scenario.k_exact - math.sqrt(1.04)) < 1e-15
    assert abs(graph_scenario.k_exact - HARMONIC_GRAPH_K) < 1e-6


def test_harmonic_graph_rejects_large_eps():
    with pytest.raises(DomainError):
        make_scenario("harmonic_graph", eps=0.6, m=2)


@pytest.mark.parametrize("name", ["conformal_poly", "harmonic_graph"])
def test_polynomial_order_must_be_integral(name):
    # m = 2.7 used to build the m = 2 map silently
    with pytest.raises(DomainError, match="2.7"):
        make_scenario(name, eps=0.1, m=2.7)
    assert make_scenario(name, eps=0.1, m=3.0).params["m"] == 3


@pytest.mark.parametrize("m", [float("nan"), float("inf"), float("-inf"), 2.5])
@pytest.mark.parametrize("name", ["conformal_poly", "harmonic_graph"])
def test_polynomial_order_checked_before_conversion(name, m):
    # int(m) ran first: NaN raised a bare ValueError and an infinity an OverflowError
    with pytest.raises(DomainError, match="positive integer"):
        make_scenario(name, eps=0.1, m=m)


@pytest.mark.parametrize("m", [1e300, 100_000_000])
@pytest.mark.parametrize("name", ["conformal_poly", "harmonic_graph"])
def test_polynomial_order_above_the_largest_fit_is_refused(name, m):
    # both pass |eps m| < 1 at eps = 1e-301; (m + 1)-row arrays were allocated before any
    # check, so 1e300 raised a bare ValueError from np.zeros and 1e8 would take about 3 GB
    with pytest.raises(DomainError, match="16384"):
        make_scenario(name, eps=1e-301, m=m)


def test_unknown_scenario():
    with pytest.raises(DomainError):
        make_scenario("spiral")


def test_catalog_listing():
    names = [entry["name"] for entry in scenario_catalog()]
    assert names == ["identity", "affine", "conformal_poly", "harmonic_graph", "fourier"]


def test_exact_data_consistent_with_numeric(catalog_scenarios):
    # exact descriptors have no harmonic below the roundoff floor: kept whole, tail 0
    for poly in (circle(), circle(3.0, (1.0, -2.0)), ellipse(4.0, 1.0), ellipse(16.0, 1.0)):
        curve = build_curve(poly)
        assert curve.poly is poly and curve.fit_tail == 0.0
    extra = [make_scenario(name, m=3) for name in ("conformal_poly", "harmonic_graph")]
    extra.append(make_scenario("conformal_poly", m=200, eps=0.001))
    for sc in catalog_scenarios + extra:
        assert sc.boundary.curve.poly.degree == sc.params.get("m", 1) and sc.boundary.curve.fit_tail == 0.0
        assert sc.boundary.series_tail == 0.0
    for sc in catalog_scenarios:
        z = np.array([0.3 + 0.1j, -0.45j])
        jac = _dilatations(*gradient_frames(sc.boundary, z))[2]
        assert np.max(np.abs(jac - _closed_form(sc.name, sc.params, z)[2])) < 1e-8


# ---------------------------------------------------------------------------
# normalization witness


def test_identity_witness_thirds(identity_scenario):
    w = identity_scenario.normalization
    expected = np.array([0.0, TWO_PI / 3.0, 2.0 * TWO_PI / 3.0])
    assert np.max(np.abs(w.preimage_angles - expected)) < 1e-9
    assert np.max(np.abs(w.arc_lengths - TWO_PI / 3.0)) < 1e-6


def test_affine_witness_corrected(affine_scenario):
    w = affine_scenario.normalization
    total = w.arc_lengths.sum()
    assert np.max(np.abs(w.arc_lengths - total / 3.0)) < 1e-6
    # the corrected preimages are not the cube roots of unity
    plain = np.array([0.0, TWO_PI / 3.0, 2.0 * TWO_PI / 3.0])
    assert np.max(np.abs(w.preimage_angles - plain)) > 1e-3
    # and the cube roots themselves do not split the ellipse evenly
    bm = affine_scenario.boundary
    t = TWO_PI * np.arange(4096) / 4096
    cum = oracles.periodic_antiderivative(np.linalg.norm(bm.curve.velocity(t), axis=1))
    arcs = np.diff([cum(a) for a in plain] + [total])
    assert np.max(np.abs(arcs - total / 3.0)) > 1e-3


def test_identity_witness_inverts_linear_length(monkeypatch):
    # the circle's cumulative length is linear: its table holds no oscillating harmonic
    tables = []

    class Recorded(curves._LengthTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(curves, "_LengthTable", Recorded)
    w = scenarios.make_scenario("identity").normalization
    assert [t.osc.degree for t in tables] == [0]
    assert np.allclose(w.preimage_angles, [0.0, TWO_PI / 3.0, 2.0 * TWO_PI / 3.0], rtol=0.0, atol=1e-15)


def test_catalog_verify_builds_one_length_table(monkeypatch):
    # the witness and the curve constants read the length table of the same polynomial
    built = []
    real = curves._LengthTable.__init__

    def counted(self, poly):
        built.append(poly)
        real(self, poly)

    monkeypatch.setattr(curves._LengthTable, "__init__", counted)
    sc = scenarios.make_scenario("conformal_poly", m=3)
    verify(sc)
    assert built == [sc.boundary.curve.poly]


def test_witness_thirds_match_root_finding(catalog_scenarios):
    from scipy.optimize import brentq

    from qcharm.curves import TrigPolynomial, build_curve, ellipse
    from qcharm.poisson import AngleMap, BoundaryMap

    # t -> t + 0.3 sin t is increasing, so the boundary data traverses the ellipse unevenly
    warped = BoundaryMap(build_curve(ellipse(1.2, 0.8), 256), AngleMap(TrigPolynomial([[0.0], [0.0]], [[0.0], [0.3]])))
    for bm in [sc.boundary for sc in catalog_scenarios] + [warped]:
        w = scenarios.normalization_witness(bm)
        total = w.arc_lengths.sum()
        assert np.max(np.abs(w.arc_lengths - total / 3.0)) <= 1e-12 * total
        t = TWO_PI * np.arange(4096) / 4096
        velocity = bm.curve.velocity(bm.angle_map(t)) * bm.angle_map.derivative(t)[:, None]
        cum = oracles.periodic_antiderivative(np.linalg.norm(velocity, axis=1))
        roots = [brentq(lambda x: cum(x) - f * total, 1e-12, TWO_PI - 1e-12, xtol=1e-14) for f in (1 / 3, 2 / 3)]
        assert w.preimage_angles[0] == 0.0
        assert np.max(np.abs(w.preimage_angles[1:] - roots)) < 1e-12
        assert np.allclose(w.target_points, bm.values(w.preimage_angles), rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# the verification pipeline


@pytest.mark.parametrize("below, passed", [(5e-10, True), (2e-9, False)], ids=["within-gate", "past-gate"])
def test_gradient_bound_record_gate(monkeypatch, below, passed):
    # a bound just under sup |grad u| passes down to the margin -1e-9, as every record does
    sc = scenarios.make_scenario("identity")
    sup_grad = scenarios._gradient_sups(sc.boundary)[0]
    real = scenarios.lipschitz_bound
    monkeypatch.setattr(scenarios, "lipschitz_bound", lambda inputs: dataclasses.replace(real(inputs), value=sup_grad - below))
    rec = next(r for r in verify(sc).checks if r.name == "gradient_bound")
    assert (rec.lhs, rec.rhs) == (sup_grad, sup_grad - below)
    assert abs(rec.margin + below) <= 1e-15
    assert rec.passed is passed


@functools.cache
def _circle_report(r: float, mu: float):
    """verify on the boundary data r e^{it}: the conformal map z -> r z, whose Lipschitz constant is r."""
    return verify(make_scenario("fourier", cos_coeffs=[[0.0, 0.0], [r, 0.0]], sin_coeffs=[[0.0, 0.0], [0.0, r]]), mu)


@pytest.mark.parametrize("mu", [1.0, 0.75, 0.5])
def test_bound_is_scale_covariant(mu):
    # with C_gamma in length^-mu the bound on r e^{it} is r times the bound on e^{it}
    logs = [_circle_report(r, mu).bound.log_value - math.log(r) for r in (1e-6, 1e-3, 1.0, 1e3)]
    assert max(logs) - min(logs) <= 1e-12


def test_bound_is_scale_covariant_on_a_tiny_circle():
    # build_curve and isoperimetric_check test degeneracy relative to the curve's scale
    logs = [_circle_report(r, 1.0).bound.log_value - math.log(r) for r in (1e-10, 1.0)]
    assert abs(logs[0] - logs[1]) <= 1e-12


@pytest.mark.parametrize("mu", [1.0, 0.5])
@pytest.mark.parametrize("r", [1e-3, 1e3])
def test_verify_passes_on_small_and_large_circles(r, mu):
    # at r = 1e-3 the bound used to fall below sup |grad u| = r (3.22e-3 at mu = 1 for r = 0.01)
    rep = _circle_report(r, mu)
    assert rep.all_passed, [(rec.name, rec.lhs, rec.rhs) for rec in rep.checks if not rec.passed]


def test_mu_one_c_gamma_is_max_curvature(catalog_reports):
    # at mu = 1 the unit tangent's Hölder constant in arc length is the largest curvature
    for rep in [*catalog_reports.values(), _circle_report(1e-3, 1.0), _circle_report(1e3, 1.0)]:
        kappa = rep.constants.max_curvature
        assert abs(rep.bound.inputs.c_gamma - kappa) <= 1e-9 * kappa, rep.scenario


def test_all_catalog_scenarios_pass(catalog_reports):
    for name, rep in catalog_reports.items():
        assert rep.all_passed, f"{name}: worst margin {rep.worst_margin}"


def test_identity_equality_margins(catalog_reports):
    rep = catalog_reports["identity"]
    by_name = {rec.name: rec for rec in rep.checks}
    assert abs(by_name["angular_derivative"].margin) < 1e-12
    assert abs(by_name["boundary_jacobian"].margin) < 1e-9
    assert abs(by_name["isoperimetric"].margin) < 1e-8
    assert abs(by_name["quasiconformality"].margin) < 1e-10


def test_affine_equality_margins(catalog_reports):
    rep = catalog_reports["affine"]
    by_name = {rec.name: rec for rec in rep.checks}
    assert abs(by_name["quasiconformality"].margin) < 1e-10
    assert abs(by_name["boundary_jacobian"].margin) < 1e-9


def test_worst_record_ignores_roundoff_ties(poly_scenario):
    # a conformal map has lhs = rhs at every tau; noise far inside the gate
    # must not move the reported sample
    bm = poly_scenario.boundary
    taus = TWO_PI * np.arange(32) / 32
    rhs = np.array([scenarios.boundary_jacobian_bound(bm, tau) for tau in taus])
    lhs = _dilatations(*gradient_frames(bm, np.exp(1j * taus)))[2]
    rec = scenarios._worst_record("boundary_jacobian", lhs, rhs)
    rng = np.random.default_rng(5)
    for _ in range(5):
        noisy = scenarios._worst_record("boundary_jacobian", lhs, rhs + rng.uniform(-1e-13, 1e-13, rhs.size))
        assert noisy.lhs == rec.lhs == lhs[0]
        assert noisy.passed
    # passing still tests every sample
    rhs[17] -= 2e-9
    assert not scenarios._worst_record("boundary_jacobian", lhs, rhs).passed


def test_dilatation_estimates_match_exact(catalog_reports, catalog_scenarios):
    for sc in catalog_scenarios:
        rep = catalog_reports[sc.name]
        assert abs(rep.k_estimate - sc.k_exact) < 1e-6


def test_sup_gradient_estimates(catalog_reports, catalog_scenarios):
    for sc in catalog_scenarios:
        rep = catalog_reports[sc.name]
        assert abs(rep.sup_grad_extrapolated - sc.sup_grad_exact) < 1e-6
        assert rep.sup_grad_extrapolated <= sc.sup_grad_exact + 1e-6


def test_fourier_scenario_numeric_only():
    cos_c = np.zeros((4, 2))
    sin_c = np.zeros((4, 2))
    cos_c[1] = [1.0, 0.0]
    sin_c[1] = [0.0, 1.0]
    cos_c[3] = [0.05, 0.0]
    sin_c[3] = [0.0, -0.05]
    sc = make_scenario("fourier", cos_coeffs=cos_c, sin_coeffs=sin_c)
    assert sc.k_exact is None
    rep = verify(sc)
    assert rep.all_passed
    assert rep.k_estimate > 1.0


def test_affine_extreme_reports_log_bound():
    sc = make_scenario("affine", c=0.99)
    rep = verify(sc)
    assert rep.all_passed
    assert math.isfinite(rep.bound.log_value)
    assert rep.bound.value == float("inf")
    assert abs(rep.k_estimate - 199.0) < 1e-5


def test_verify_ignores_qch_threads_and_builds_no_pool(identity_scenario, monkeypatch):
    # the stages run in order in one thread whatever the environment says
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("verify built a thread pool")

    monkeypatch.setattr(scenarios, "ThreadPoolExecutor", NoPool)
    monkeypatch.delenv("QCH_THREADS", raising=False)
    want = verify(identity_scenario)
    for env in ("zero", "4"):
        monkeypatch.setenv("QCH_THREADS", env)
        got = verify(identity_scenario)
        assert [(a.name, a.margin) for a in got.checks] == [(b.name, b.margin) for b in want.checks]
    assert want.all_passed


def test_boundary_holder_record_from_chordal_distance(identity_scenario, catalog_reports):
    """The boundary Hölder check compares |F(t1) - F(t2)| with growth * |e^{it1} - e^{it2}|^alpha,
    the chord taken as 2 |sin((t1 - t2) / 2)|, which loses nothing to cancellation near the diagonal."""
    rep = catalog_reports["identity"]
    t1, t2 = scenarios._boundary_pair_angles(scenarios._BOUNDARY_PAIRS, scenarios._NEAR_DIAGONAL_PAIRS)
    values = identity_scenario.boundary.values
    lhs = curves._norms(values(t1) - values(t2))
    want = scenarios._worst_record("boundary_holder", lhs, rep.mori_growth * kernels._chordal(t1, t2) ** rep.alpha)
    assert next(rec for rec in rep.checks if rec.name == "boundary_holder") == want


@pytest.mark.parametrize("n, offset", [(9_000, 0), (1_000, 77_777), (10_000, 0), (10_000, 314_159)])
def test_low_discrepancy_is_mod_one(n, offset):
    # the sizes and offsets verify draws: boundary pairs, near-diagonal pairs, interior pairs
    k = np.arange(offset + 1, offset + n + 1)
    u1, u2 = scenarios._low_discrepancy(n, offset)
    assert np.array_equal(u1, np.mod(k * scenarios._LD_A1, 1.0))
    assert np.array_equal(u2, np.mod(k * scenarios._LD_A2, 1.0))


def test_verify_computes_curve_constants_once(identity_scenario, monkeypatch):
    """One report, one computation of the curve constants, on the scenario's
    curve; unconverged constants raise at once."""
    real = scenarios.compute_curve_constants
    calls = []

    def counted(curve, mu=1.0, **kwargs):
        calls.append(curve)
        return real(curve, mu=mu, **kwargs)

    monkeypatch.setattr(scenarios, "compute_curve_constants", counted)
    assert verify(identity_scenario).all_passed
    assert calls == [identity_scenario.boundary.curve]

    def unconverged(curve, mu=1.0, **kwargs):
        cc = counted(curve, mu=mu, **kwargs)
        return dataclasses.replace(cc, converged=cc.converged | {"holder_constant": False})

    calls.clear()
    monkeypatch.setattr(scenarios, "compute_curve_constants", unconverged)
    with pytest.raises(RefinementError) as exc:
        verify(identity_scenario)
    assert calls == [identity_scenario.boundary.curve]


def test_verify_rejects_a_boundary_without_a_curve(monkeypatch):
    # raw samples carry no curve to take the constants of: refused before any stage runs
    calls = []
    monkeypatch.setattr(scenarios, "compute_curve_constants", lambda *args, **kwargs: calls.append(args))
    t = TWO_PI * np.arange(64) / 64
    raw = BoundaryMap.from_values(np.stack([np.cos(t), np.sin(t)], axis=1))
    sc = scenarios.Scenario(name="fourier", params={}, boundary=raw, surface_class="qc_harmonic")
    with pytest.raises(DomainError):
        verify(sc)
    assert calls == []


# ---------------------------------------------------------------------------
# the series extension against the closed forms


def _closed_form(name: str, params: dict, z):
    """The catalog map u at the points z in closed form, with its gradient frames (u_x, u_y)
    and its Jacobian.  Planar maps u = f(z): u_x = f_z + f_zbar, u_y = i (f_z - f_zbar) and
    J = |f_z|^2 - |f_zbar|^2; the graph (x, y, eps Re z^m) has J = sqrt(1 + |eps m z^(m-1)|^2)."""
    z = np.asarray(z, dtype=complex)
    one, zero = np.ones(z.shape), np.zeros(z.shape)
    if name == "harmonic_graph":
        eps, m = params["eps"], params["m"]
        w = eps * m * z ** (m - 1)
        u = np.stack([z.real, z.imag, eps * (z**m).real], axis=-1)
        frames = np.stack([one, zero, w.real], axis=-1), np.stack([zero, one, -w.imag], axis=-1)
        return u, frames, np.sqrt(1.0 + np.abs(w) ** 2)
    if name == "identity":
        f, fz, fzbar = z, one, zero
    elif name == "affine":
        c = params["c"]
        f, fz, fzbar = z + c * np.conj(z), one, c * one
    else:  # conformal_poly
        eps, m = params["eps"], params["m"]
        f, fz, fzbar = z + eps * z**m / m, 1.0 + eps * z ** (m - 1), zero
    ux, uy = fz + fzbar, 1j * (fz - fzbar)
    frames = np.stack([ux.real, ux.imag], axis=-1), np.stack([uy.real, uy.imag], axis=-1)
    return np.stack([f.real, f.imag], axis=-1), frames, np.abs(fz) ** 2 - np.abs(fzbar) ** 2


@pytest.mark.parametrize(
    "name, params",
    [
        ("identity", {}),
        ("affine", {"c": 0.2}),
        ("conformal_poly", {"eps": 0.3, "m": 2}),
        ("conformal_poly", {"eps": 0.3, "m": 3}),
        ("harmonic_graph", {"eps": 0.1, "m": 2}),
        ("harmonic_graph", {"eps": 0.1, "m": 3}),
    ],
)
def test_extension_matches_closed_form(name, params):
    """poisson_extend and gradient_frames against the closed forms of u and its gradient at
    seeded points with r <= 0.9 and on |z| = 1, to 1e-12 relative to max |u|."""
    sc = make_scenario(name, **params)
    rng = np.random.default_rng(20111)
    inner = 0.9 * np.sqrt(rng.random(500)) * np.exp(2j * math.pi * rng.random(500))
    z = np.concatenate([inner, np.exp(2j * math.pi * rng.random(500))])
    u, frames, _ = _closed_form(name, params, z)
    scale = float(np.max(np.linalg.norm(u, axis=-1)))
    deviations = [poisson_extend(sc.boundary, z) - u]
    for got, want in zip(gradient_frames(sc.boundary, z), frames):
        assert got.shape == want.shape
        deviations.append(got - want)
    worst = max(float(np.max(np.abs(d))) for d in deviations) / scale
    assert worst <= 1e-12, f"{name} {params}: worst deviation {worst:.2e}"
