#!/usr/bin/env python3
"""Run the complete inequality suite on the scenario catalog.

Each scenario is a harmonic quasiconformal map with known constants, so
the margins below show which inequalities are equalities (zero margin)
and which carry slack.
"""

from qcharm import make_scenario, verify


def run(name, **params):
    scenario = make_scenario(name, **params)
    report = verify(scenario)
    label = f"{name}({', '.join(f'{k}={v}' for k, v in scenario.params.items())})"
    print(f"\n{label}: all passed = {report.all_passed}")
    print(f"  K = {report.k_estimate:.9f} (exact {scenario.k_exact}),  sup|grad| = {report.sup_grad_extrapolated:.9f}")
    print(f"  lambda = {report.constants.chord_arc:.6f},  holder const = {report.constants.holder_constant:.6f}")
    print(f"  alpha = {report.alpha:.6f},  log L = {report.bound.log_value:.4f}")
    for rec in report.checks:
        print(f"    {rec.name:24s} margin = {rec.margin:+.3e}  {'ok' if rec.passed else 'VIOLATION'}")


def main():
    run("identity")
    run("affine", c=0.2)
    run("conformal_poly", eps=0.3, m=2)
    run("harmonic_graph", eps=0.1, m=2)


if __name__ == "__main__":
    main()
