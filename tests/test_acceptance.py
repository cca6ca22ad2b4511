"""Acceptance suite: every criterion prints one PASS line when it holds,
with the stated tolerances pinned in the assertions."""

import math
import time

import numpy as np
import pytest

import oracles
from qcharm import (
    BoundInputs,
    QuadratureSpec,
    boundary_jacobian_bound,
    build_curve,
    chord_tangent_kernel,
    dini_modulus_table,
    ellipse,
    fourier_curve,
    gradient_frames,
    holder_derivative_constant,
    isoperimetric_check,
    kernel_bound_dini,
    kernel_bound_holder,
    lipschitz_bound,
    max_curvature,
    minimal_surface_bound,
    poisson_extend,
)
from qcharm.curves import arc_length_reparametrize, curve_length
from qcharm.poisson import BoundaryMap, _dilatations
from qcharm.scenarios import _worst_record

TWO_PI = 2.0 * math.pi


def _grid(n_r, n_t, r_max=0.9):
    radii = np.linspace(r_max / n_r, r_max, n_r)
    angles = TWO_PI * np.arange(n_t) / n_t
    return (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()


def test_c1_identity_equality_suite(identity_scenario):
    start = time.monotonic()
    bm = identity_scenario.boundary
    spec = QuadratureSpec(m=256)

    taus = TWO_PI * np.arange(32) / 32
    worst_bj = max(abs(boundary_jacobian_bound(bm, tau, spec) - 1.0) for tau in taus)
    assert worst_bj < 1e-6

    grid = _grid(32, 32)
    ux, uy = gradient_frames(bm, grid)
    lhs, rhs = oracles.angular_sides(grid, ux, uy, _dilatations(ux, uy)[2], 1.0)
    assert _worst_record("angular_derivative", lhs, rhs).passed
    worst_margin = float(np.max(np.abs(rhs - lhs)))
    assert worst_margin < 1e-12

    iso = isoperimetric_check(bm, upsilon=math.pi)
    assert abs(iso.ratio - 1.0 / (4.0 * math.pi)) < 1e-8

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 1 PASS: identity equalities (jacobian bound {worst_bj:.2e}, "
        f"angular margin {worst_margin:.2e}, ratio err {abs(iso.ratio - 1 / (4 * math.pi)):.2e}, {elapsed:.1f}s)"
    )


def test_c2_affine_suite(affine_scenario):
    start = time.monotonic()
    bm = affine_scenario.boundary
    spec = QuadratureSpec(m=256)
    K = affine_scenario.k_exact

    grid = _grid(16, 16)
    ux, uy = gradient_frames(bm, grid)
    op, mn, jac, _ = _dilatations(ux, uy)
    dil = op / mn
    assert np.max(np.abs(dil - 1.5)) < 1e-9

    from qcharm.scenarios import _gradient_sups

    sup_extrap, _ = _gradient_sups(bm)
    assert abs(sup_extrap - 1.2) < 1e-6

    hs2 = 0.5 * (np.einsum("ij,ij->i", ux, ux) + np.einsum("ij,ij->i", uy, uy))
    rhs = 0.5 * (K + 1.0 / K) * jac
    assert np.max(np.abs(hs2 - rhs)) < 1e-10

    taus = TWO_PI * np.arange(32) / 32
    bounds = np.array([boundary_jacobian_bound(bm, tau, spec) for tau in taus])
    assert np.all(0.96 <= bounds + 1e-9)

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 2 PASS: affine suite (dilatation dev {np.max(np.abs(dil - 1.5)):.2e}, "
        f"sup dev {abs(sup_extrap - 1.2):.2e}, equality dev {np.max(np.abs(hs2 - rhs)):.2e}, {elapsed:.1f}s)"
    )


def test_c3_kernel_bound_suite(circle_curve, ellipse_curve):
    rng = np.random.default_rng(1234)
    n_pairs = 10_000
    worst = math.inf
    for curve in (circle_curve, ellipse_curve):
        table = dini_modulus_table(curve, np.linspace(0.02, math.pi, 80))
        c_holder = holder_derivative_constant(curve, 1.0).value
        s = rng.uniform(0.0, TWO_PI, n_pairs)
        t = rng.uniform(0.0, TWO_PI, n_pairs)
        kern = chord_tangent_kernel(curve, s, t)
        b_tab = kernel_bound_dini(curve, table, s, t)
        # the Dini majorant of the power modulus c x: the Hölder form with c_h = c pi^2 / 2
        b_pow, _ = kernel_bound_holder(curve, 1.0, s, t, c_h=c_holder * math.pi**2 / 2.0)
        viol_a = int(np.sum(kern > b_tab + 1e-9))
        viol_b = int(np.sum(b_tab > b_pow + 1e-9))
        worst = min(worst, float(np.min(b_tab - kern)), float(np.min(b_pow - b_tab)))
        assert viol_a == 0 and viol_b == 0

    s = rng.uniform(0.0, TWO_PI, n_pairs)
    t = rng.uniform(0.0, TWO_PI, n_pairs)
    closed = np.abs(chord_tangent_kernel(circle_curve, s, t) - (1.0 - np.cos(t - s)))
    assert np.max(closed) < 1e-10
    print(f"\nACCEPTANCE 3 PASS: kernel chain on 2x{n_pairs} pairs (worst chain margin {worst:.2e}, closed-form dev {np.max(closed):.2e})")


def _holder_pairs(n_total, n_near, rng):
    t1 = rng.uniform(0.0, TWO_PI, n_total - n_near)
    t2 = rng.uniform(0.0, TWO_PI, n_total - n_near)
    base = rng.uniform(0.0, TWO_PI, n_near)
    gaps = np.logspace(-8, -2, n_near)
    return np.concatenate([t1, base]), np.concatenate([t2, base + gaps])


def test_c4_mori_holder_suite(catalog_reports, catalog_scenarios):
    rng = np.random.default_rng(99)
    names = ("identity", "affine", "conformal_poly")
    worst = math.inf
    for sc in catalog_scenarios:
        if sc.name not in names:
            continue
        rep = catalog_reports[sc.name]
        K = rep.k_estimate
        lam = rep.constants.chord_arc
        ups = rep.upsilon
        area = rep.area
        alpha_ref = oracles.holder_exponent(K, lam, ups)
        growth_ref = oracles.boundary_growth_constant(K, lam, ups, area)
        assert abs(rep.alpha - alpha_ref) <= 1e-12 * alpha_ref
        assert abs(rep.mori_growth - growth_ref) <= 1e-12 * growth_ref

        t1, t2 = _holder_pairs(10_000, 1_000, rng)
        f1 = sc.boundary.values(t1)
        f2 = sc.boundary.values(t2)
        lhs = np.linalg.norm(f1 - f2, axis=1)
        rhs = rep.mori_growth * np.abs(np.exp(1j * t1) - np.exp(1j * t2)) ** rep.alpha
        violations = int(np.sum(lhs > rhs))
        assert violations == 0
        worst = min(worst, float(np.min(rhs - lhs)))
    print(f"\nACCEPTANCE 4 PASS: boundary Hölder estimate, 3 scenarios x 10^4 pairs (worst margin {worst:.3e})")


def test_c5_main_bound_suite(catalog_reports, catalog_scenarios):
    for sc in catalog_scenarios:
        rep = catalog_reports[sc.name]
        assert rep.sup_grad_extrapolated <= rep.bound.value
        by_name = {rec.name: rec for rec in rep.checks}
        assert by_name["gradient_bound"].passed
        assert by_name["displacement_bound"].passed  # 10^4 interior pairs checked inside verify
        log_ref = oracles.lipschitz_log(
            rep.k_estimate,
            rep.constants.holder_exponent,
            rep.upsilon,
            rep.constants.chord_arc,
            rep.constants.holder_constant / (rep.length / TWO_PI) ** (1.0 + rep.constants.holder_exponent),
            rep.length,
        )
        assert rep.bound.log_value == log_ref  # bit-identical in log space
    print("\nACCEPTANCE 5 PASS: gradient/displacement bounds hold; log-bound bit-identical to the arithmetic script")


@pytest.mark.parametrize("lam", [1.0, 1.2, math.pi / 2, 2.0])
@pytest.mark.parametrize("mu", [0.5, 1.0])
def test_c6_minimal_surface_consistency(lam, mu):
    c, length = 1.0, TWO_PI
    special = minimal_surface_bound(lam, mu, c, length)
    general = lipschitz_bound(
        BoundInputs(K=1.0, mu=mu, upsilon=math.pi, lam=lam, c_gamma=c, length=length, area=length**2 / (4 * math.pi))
    )
    rel = abs(special.log_value - general.log_value) / abs(general.log_value)
    assert rel <= 1e-9
    if math.isfinite(general.value) and general.value > 0:
        assert abs(special.value - general.value) <= 1e-9 * general.value
    if lam == 2.0 and mu == 1.0:
        print("\nACCEPTANCE 6 PASS: minimal-surface bound equals the general bound specialization (rel diff <= 1e-9)")


def test_c7_numerical_analysis_checks(ellipse_curve):
    cos_c = np.zeros((4, 2))
    sin_c = np.zeros((4, 2))
    cos_c[1] = [1.0, 0.0]
    sin_c[1] = [0.0, 1.0]
    cos_c[3] = [0.04, 0.0]
    sin_c[3] = [0.0, -0.04]
    bm = BoundaryMap(build_curve(fourier_curve(cos_c, sin_c), 256))

    rng = np.random.default_rng(5)
    z = 0.85 * np.sqrt(rng.uniform(0.01, 1.0, 100)) * np.exp(1j * rng.uniform(0, TWO_PI, 100))
    h = 1e-5
    ux, uy = gradient_frames(bm, z)
    fx = (poisson_extend(bm, z + h) - poisson_extend(bm, z - h)) / (2 * h)
    fy = (poisson_extend(bm, z + 1j * h) - poisson_extend(bm, z - 1j * h)) / (2 * h)
    scale = np.maximum(np.linalg.norm(ux, axis=1), np.linalg.norm(uy, axis=1))
    rel = max(
        float(np.max(np.linalg.norm(ux - fx, axis=1) / scale)),
        float(np.max(np.linalg.norm(uy - fy, axis=1) / scale)),
    )
    assert rel < 1e-6

    worst_lap = 0.0
    for z0 in (0.2 + 0.1j, -0.4 + 0.35j, 0.55j):
        hh = 1e-3
        u = poisson_extend(bm, np.array([z0 + hh, z0 - hh, z0 + 1j * hh, z0 - 1j * hh, z0]))
        lap = (u[0] + u[1] + u[2] + u[3] - 4 * u[4]) / hh**2
        worst_lap = max(worst_lap, float(np.max(np.abs(lap))))
    assert worst_lap < 1e-5

    assert abs(curve_length(ellipse_curve) - oracles.ellipse_perimeter(1.2, 0.8)) < 1e-4
    arc = arc_length_reparametrize(ellipse_curve)
    assert abs(max_curvature(arc) - 1.875) < 1e-4
    print(
        f"\nACCEPTANCE 7 PASS: gradient-vs-FD rel {rel:.2e}, laplacian {worst_lap:.2e}, "
        "ellipse length/curvature within 1e-4"
    )
