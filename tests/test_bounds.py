import collections
import math

import numpy as np
import pytest

import oracles
from qcharm import bounds
from qcharm import (
    BoundaryMap,
    BoundInputs,
    DegenerateSurfaceError,
    DomainError,
    isoperimetric_check,
    isoperimetric_coefficient,
    lipschitz_bound,
    minimal_surface_bound,
    mori_constant,
    mori_exponent,
    surface_area,
)

PI = math.pi

# pinned by tests/oracles.py
ALPHA_REF = 0.1484585966936171  # mori_exponent(1, pi/2, 1)
MORI_REF = 97.98734797717728  # growth constant at (1, pi/2, 1, pi)
LIPSCHITZ_LOG_HEX = "0x1.ad1884c9b789ap+6"  # lipschitz_log(1, 1, 1, pi/2, 1, 2*pi)
MINIMAL_LOG_HEX = "0x1.ab2a4c828e260p+4"  # minimal_surface_log(pi/2, 1, 1, 2*pi)


# ---------------------------------------------------------------------------
# catalog coefficients


def test_isoperimetric_catalog():
    assert isoperimetric_coefficient("minimal") == PI
    assert isoperimetric_coefficient("harmonic") == 1.0
    assert isoperimetric_coefficient("qc_harmonic", K=1.0) == PI
    assert abs(isoperimetric_coefficient("qc_harmonic", K=1.5) - 2 * PI / 3.25) < 1e-15
    assert isoperimetric_coefficient("qc_harmonic", K=10.0) == 1.0


def test_isoperimetric_catalog_rejects():
    with pytest.raises(DomainError):
        isoperimetric_coefficient("qc_harmonic", K=0.5)
    with pytest.raises(DomainError):
        isoperimetric_coefficient("weird")


# ---------------------------------------------------------------------------
# exponent


def test_mori_exponent_oracle():
    assert mori_exponent(1.0, PI / 2, 1.0) == oracles.holder_exponent(1.0, PI / 2, 1.0)
    assert abs(mori_exponent(1.0, PI / 2, 1.0) - ALPHA_REF) < 1e-16


def test_mori_exponent_halves_with_k():
    a1 = mori_exponent(1.3, 1.7, 2.0)
    a2 = mori_exponent(2.6, 1.7, 2.0)
    assert a2 == a1 / 2.0


def test_mori_exponent_pi_cancellation():
    lam = 1.9
    got = mori_exponent(1.0, lam, PI)
    assert abs(got - 8.0 / (1.0 + 2.0 * lam) ** 2) < 1e-15


def test_mori_exponent_range_and_monotonicity():
    for K in (1.0, 1.5, 3.0):
        for lam in (1.0, 1.5, 4.0):
            for ups in (0.5, 1.0, PI):
                a = mori_exponent(K, lam, ups)
                assert 0.0 < a <= 1.0
    ks = np.linspace(1.0, 4.0, 12)
    vals = [mori_exponent(k, 1.5, 1.0) for k in ks]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    lams = np.linspace(1.0, 4.0, 12)
    vals = [mori_exponent(1.5, l, 1.0) for l in lams]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    upss = np.linspace(0.5, PI, 12)
    vals = [mori_exponent(1.5, 1.5, u) for u in upss]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# growth constant


def test_mori_constant_oracle():
    got = mori_constant(1.0, PI / 2, 1.0, PI)
    assert got == oracles.boundary_growth_constant(1.0, PI / 2, 1.0, PI)
    assert abs(got - MORI_REF) < 1e-12


def test_mori_constant_area_scaling():
    base = mori_constant(1.5, 2.0, 1.0, 2.0)
    scaled = mori_constant(1.5, 2.0, 1.0, 2.0 * 9.0)
    assert abs(scaled - 3.0 * base) < 1e-12 * scaled


def test_mori_constant_monotone_in_lambda():
    lams = np.linspace(1.0, 5.0, 40)
    vals = [mori_constant(1.5, l, 1.0, PI) for l in lams]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_mori_constant_variants():
    stmt = mori_constant(1.5, 2.0, 1.0, PI, variant="statement")
    proof = mori_constant(1.5, 2.0, 1.0, PI, variant="proof")
    assert stmt > proof
    assert stmt == proof * 2.0 ** (mori_exponent(1.5, 2.0, 1.0) / 2.0)
    with pytest.raises(DomainError):
        mori_constant(1.5, 2.0, 1.0, PI, variant="alternative")


# ---------------------------------------------------------------------------
# the explicit gradient bound


def test_lipschitz_bound_oracle_bits():
    res = lipschitz_bound(BoundInputs(K=1.0, mu=1.0, upsilon=1.0, lam=PI / 2, c_gamma=1.0, length=2 * PI))
    assert res.log_value == oracles.lipschitz_log(1.0, 1.0, 1.0, PI / 2, 1.0, 2 * PI)
    assert res.log_value.hex() == LIPSCHITZ_LOG_HEX


def test_lipschitz_bound_zero_holder_constant():
    res = lipschitz_bound(BoundInputs(K=1.0, mu=1.0, upsilon=1.0, lam=1.5, c_gamma=0.0, length=2 * PI))
    assert res.value == 0.0
    assert res.log_value == float("-inf")


def test_lipschitz_bound_monotone_in_k():
    ks = np.linspace(1.0, 4.0, 25)
    vals = [
        lipschitz_bound(BoundInputs(K=k, mu=1.0, upsilon=1.0, lam=1.5, c_gamma=1.0, length=2 * PI)).log_value
        for k in ks
    ]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_lipschitz_bound_monotone_in_constants():
    base = BoundInputs(K=1.2, mu=1.0, upsilon=1.0, lam=1.5, c_gamma=1.0, length=2 * PI)
    ref = lipschitz_bound(base).log_value
    for kw in ({"lam": 1.8}, {"c_gamma": 1.5}, {"length": 7.5}):
        other = lipschitz_bound(BoundInputs(**({**base.__dict__, **kw}))).log_value
        assert other > ref


def test_lipschitz_bound_requires_upsilon_at_least_one():
    with pytest.raises(DomainError):
        lipschitz_bound(BoundInputs(K=1.0, mu=1.0, upsilon=0.9, lam=1.5, c_gamma=1.0, length=2 * PI))


def test_bound_inputs_validation():
    good = dict(K=1.0, mu=1.0, upsilon=1.0, lam=1.5, c_gamma=1.0, length=2 * PI)
    for bad in (
        {"K": 0.9},
        {"mu": 0.0},
        {"mu": 1.2},
        {"upsilon": 0.0},
        {"upsilon": 3.5},
        {"lam": 0.8},
        {"c_gamma": -1.0},
        {"length": 0.0},
        {"area": -1.0},
        {"area": 100.0},
    ):
        with pytest.raises(DomainError):
            BoundInputs(**{**good, **bad})
    inputs = BoundInputs(**good)
    assert inputs.effective_area == (2 * PI) ** 2 / 4.0


# ---------------------------------------------------------------------------
# minimal-surface specialization


def test_minimal_surface_oracle_bits():
    res = minimal_surface_bound(PI / 2, 1.0, 1.0, 2 * PI)
    assert res.log_value == oracles.minimal_surface_log(PI / 2, 1.0, 1.0, 2 * PI)
    assert res.log_value.hex() == MINIMAL_LOG_HEX


@pytest.mark.parametrize("lam", [1.0, 1.2, PI / 2, 2.0])
@pytest.mark.parametrize("mu", [0.5, 1.0])
def test_minimal_surface_matches_general_bound(lam, mu):
    c, length = 1.3, 5.0
    special = minimal_surface_bound(lam, mu, c, length)
    general = lipschitz_bound(
        BoundInputs(K=1.0, mu=mu, upsilon=PI, lam=lam, c_gamma=c, length=length, area=length**2 / (4 * PI))
    )
    assert abs(special.log_value - general.log_value) <= 1e-9 * abs(general.log_value)
    if np.isfinite(general.value):
        assert abs(special.value - general.value) <= 1e-9 * general.value


def test_minimal_surface_smallest_at_lambda_one():
    lams = np.linspace(1.0, 3.0, 30)
    vals = [minimal_surface_bound(l, 1.0, 1.0, 2 * PI).log_value for l in lams]
    assert np.argmin(vals) == 0
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_minimal_surface_rejects_small_lambda():
    with pytest.raises(DomainError):
        minimal_surface_bound(0.9, 1.0, 1.0, 2 * PI)


@pytest.mark.parametrize(
    "lam, mu, c_slot, length, message",
    [
        (1.2, 0.0, 1.0, 2 * PI, "mu must lie in"),
        (1.2, 1.5, 1.0, 2 * PI, "mu must lie in"),
        (1.2, 1.0, -1.0, 2 * PI, "constant must be nonnegative"),
        (1.2, 1.0, 1.0, 0.0, "length must be positive"),
    ],
    ids=["mu=0", "mu=1.5", "c=-1", "L=0"],
)
def test_minimal_surface_rejects_invalid_inputs(lam, mu, c_slot, length, message):
    # the inputs are validated once, as the general bound's inputs
    with pytest.raises(DomainError, match=message):
        minimal_surface_bound(lam, mu, c_slot, length)


# ---------------------------------------------------------------------------
# area and the isoperimetric ratio


def test_identity_area_and_ratio(identity_scenario):
    area, meta = surface_area(identity_scenario.boundary)
    assert abs(area - PI) < 1e-10
    rep = isoperimetric_check(identity_scenario.boundary, upsilon=PI)
    assert abs(rep.ratio - 1.0 / (4 * PI)) < 1e-8
    assert rep.passed


def test_affine_ratio(affine_scenario):
    rep = isoperimetric_check(affine_scenario.boundary, upsilon=1.0)
    expected = 0.96 * PI / 6.346175835716235**2
    assert abs(rep.ratio - expected) < 1e-8
    assert rep.ratio < 0.25
    assert rep.passed


def test_gauss_rule_computed_once_per_order(affine_scenario, monkeypatch):
    """The area rule reads one cache of Gauss-Legendre rules, and the area
    stays the same."""
    calls = collections.Counter()
    real = np.polynomial.legendre.leggauss

    def counted(order):
        calls[order] += 1
        return real(order)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    bounds._gauss_rule.cache_clear()
    bm = affine_scenario.boundary
    first = surface_area(bm)
    assert surface_area(bm) == first
    degree = bm.series().degree
    assert {degree + 8, 2 * degree + 16} <= set(calls)
    assert set(calls.values()) == {1}


def test_isoperimetric_degenerate_surface():
    bm = BoundaryMap.from_values(np.tile([1.0, 1.0], (64, 1)))
    with pytest.raises(DegenerateSurfaceError):
        isoperimetric_check(bm)


def test_isoperimetric_upsilon_domain(identity_scenario):
    with pytest.raises(DomainError):
        isoperimetric_check(identity_scenario.boundary, upsilon=4.0)
