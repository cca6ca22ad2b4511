#!/usr/bin/env python3
"""Walk through the curve-geometry layer on a circle and an ellipse.

Builds both curves, reparametrizes by arc length, and prints the
constants that feed the explicit bounds: length, chord-arc constant,
derivative Hölder constant and largest curvature.
"""

import math

import numpy as np

from qcharm import (
    arc_length_reparametrize,
    build_curve,
    chord_arc_constant,
    circle,
    curve_length,
    dini_modulus_table,
    ellipse,
    holder_derivative_constant,
    max_curvature,
)


def describe(name, descriptor, nodes=512):
    curve = build_curve(descriptor, nodes)
    arc = arc_length_reparametrize(curve)
    lam = chord_arc_constant(arc)
    hol = holder_derivative_constant(arc, mu=1.0)
    print(f"\n{name}")
    print(f"  length            = {curve_length(curve):.12f}")
    print(f"  chord-arc         = {lam.value:.12f}  (depth {lam.depth}, converged {lam.converged})")
    print(f"  holder constant   = {hol.value:.12f}  (mu = 1)")
    print(f"  max curvature     = {max_curvature(arc):.12f}")
    speeds = np.linalg.norm(arc.velocity(2 * math.pi * np.arange(nodes) / nodes), axis=1)
    print(f"  |g'| spread after reparametrization: {speeds.max() - speeds.min():.2e}")
    return curve


def main():
    describe("unit circle  (length 2*pi, chord-arc pi/2, curvature 1)", circle())
    ell = describe("ellipse 1.2 x 0.8  (curvature a/b^2 = 1.875)", ellipse(1.2, 0.8))

    steps = np.linspace(0.1, math.pi, 8)
    table = dini_modulus_table(ell, steps)
    print("\nmodulus of continuity of the ellipse derivative:")
    for d, v in zip(table.deltas[1:], table.values[1:]):
        print(f"  omega({d:5.3f}) = {v:.6f}")


if __name__ == "__main__":
    main()
