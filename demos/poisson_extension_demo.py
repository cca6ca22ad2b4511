#!/usr/bin/env python3
"""Harmonic extension of boundary data and the frame quantities at a point.

Uses the planar map z -> z + 0.2 conj(z), whose extension is itself, so
every printed number has a closed form to compare against.
"""

import numpy as np

from qcharm import gradient_frames, make_scenario, poisson_extend
from qcharm.poisson import _dilatations


def main():
    scenario = make_scenario("affine", c=0.2)
    bm = scenario.boundary

    z = 0.5 + 0.0j
    u = poisson_extend(bm, z)
    print(f"u({z}) = {u}        (exactly z + 0.2 conj(z) = [0.6, 0])")

    ux, uy = gradient_frames(bm, [0.37 - 0.21j])
    op, mn, jac, hs2 = (float(v[0]) for v in _dilatations(ux, uy))
    print(f"ux = {ux[0]}")
    print(f"uy = {uy[0]}")
    print(f"jacobian     = {jac:.15f}   (1 - |c|^2 = 0.96)")
    print(f"op norm      = {op:.15f}   (1 + |c| = 1.2)")
    print(f"min stretch  = {mn:.15f}   (1 - |c| = 0.8)")
    print(f"hs norm      = {np.sqrt(hs2):.15f}   (sqrt(1 + |c|^2))")
    print(f"dilatation   = {op / mn:.15f}   ((1+|c|)/(1-|c|) = 1.5)")
    print(f"op*min - J   = {op * mn - jac:.2e}")

    # harmonicity: five-point discrete Laplacian of the extension
    h = 1e-3
    z0 = 0.3 + 0.25j
    stencil = np.array([z0 + h, z0 - h, z0 + 1j * h, z0 - 1j * h, z0])
    u = poisson_extend(bm, stencil)
    lap = (u[0] + u[1] + u[2] + u[3] - 4 * u[4]) / h**2
    print(f"discrete laplacian at {z0}: {np.max(np.abs(lap)):.2e}")


if __name__ == "__main__":
    main()
