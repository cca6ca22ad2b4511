import pytest

from qcharm import (
    arc_length_reparametrize,
    build_curve,
    circle,
    ellipse,
    make_scenario,
    verify,
)


@pytest.fixture(scope="session")
def circle_curve():
    return build_curve(circle(), 256)


@pytest.fixture(scope="session")
def ellipse_curve():
    return build_curve(ellipse(1.2, 0.8), 256)


@pytest.fixture(scope="session")
def circle_arc(circle_curve):
    return arc_length_reparametrize(circle_curve)


@pytest.fixture(scope="session")
def ellipse_arc(ellipse_curve):
    return arc_length_reparametrize(ellipse_curve)


@pytest.fixture(scope="session")
def identity_scenario():
    return make_scenario("identity")


@pytest.fixture(scope="session")
def affine_scenario():
    return make_scenario("affine", c=0.2)


@pytest.fixture(scope="session")
def poly_scenario():
    return make_scenario("conformal_poly", eps=0.3, m=2)


@pytest.fixture(scope="session")
def graph_scenario():
    return make_scenario("harmonic_graph", eps=0.1, m=2)


@pytest.fixture(scope="session")
def catalog_scenarios(identity_scenario, affine_scenario, poly_scenario, graph_scenario):
    return [identity_scenario, affine_scenario, poly_scenario, graph_scenario]


@pytest.fixture(scope="session")
def catalog_reports(catalog_scenarios):
    return {sc.name: verify(sc) for sc in catalog_scenarios}
