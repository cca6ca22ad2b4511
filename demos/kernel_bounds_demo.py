#!/usr/bin/env python3
"""The chord-tangent kernel, its modulus majorants, and the singular
integral that dominates the boundary Jacobian.

On the unit circle the kernel is 1 - cos(t - s) and the boundary integral
collapses to 1 at every angle; on the ellipse the same integral lands on
the boundary Jacobian 0.96 of the affine extension.
"""

import math

import numpy as np

from qcharm import (
    boundary_jacobian_bound,
    chord_tangent_kernel,
    dini_modulus_table,
    kernel_bound_dini,
    kernel_bound_holder,
    kernel_composition_residual,
    make_scenario,
)
from qcharm.poisson import AngleMap

TWO_PI = 2.0 * math.pi


def main():
    identity = make_scenario("identity")
    affine = make_scenario("affine", c=0.2)
    circle_curve = identity.boundary.curve
    ellipse_curve = affine.boundary.curve

    print("kernel on the circle vs the closed form 1 - cos(t - s):")
    for s, t in ((0.0, math.pi), (0.0, math.pi / 2), (1.1, 2.7)):
        k = chord_tangent_kernel(circle_curve, s, t)
        print(f"  K({s:.2f}, {t:.2f}) = {k:.12f}   closed form {1 - math.cos(t - s):.12f}")

    table = dini_modulus_table(ellipse_curve, np.linspace(0.02, math.pi, 60))
    print("\nkernel vs its two majorants on the ellipse:")
    s = np.array([0.0, 1.0, 4.0])
    t = np.array([math.pi / 3, 2.5, 5.9])
    values = chord_tangent_kernel(ellipse_curve, s, t)
    dini = kernel_bound_dini(ellipse_curve, table, s, t)
    holder, _ = kernel_bound_holder(ellipse_curve, 1.0, s, t)
    for k, d, h in zip(values, dini, holder):
        print(f"  K = {k:.6f};  modulus bound {d:.6f};  holder bound {h:.6f}")

    t = TWO_PI * np.arange(256) / 256
    amap = AngleMap.from_samples(t + 0.1 * np.sin(t))
    res = kernel_composition_residual(circle_curve, amap, 0.3, 2.0)
    print(f"\ncomposition identity residual under t + 0.1 sin t: {res:.2e}")

    print("\nboundary-Jacobian integral:")
    taus = np.array([0.0, 0.7, math.pi / 2])
    # one call evaluates every angle
    for tau, vi, va in zip(taus, boundary_jacobian_bound(identity.boundary, taus), boundary_jacobian_bound(affine.boundary, taus)):
        print(f"  tau = {tau:4.2f}:  identity -> {vi:.12f} (limit 1),  affine -> {va:.12f} (jacobian 0.96)")


if __name__ == "__main__":
    main()
