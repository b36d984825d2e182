#!/usr/bin/env python3
"""Error of the node-level cap split, ring by ring from the rim inward.

Splits the field of acceptance criterion 9 (the gradient of synth_field
seed 21 plus the surface curl of seed 22, degrees 0-5, on the tilted
rho = 0.9 cap) with helmholtz_decompose_cap and prints, for the outermost
rings, the sup error of F2 (cap-demeaned) and of F3 on the ring over the
sup of the true scalar on the grid. The boundary integrals are trapezoid
sums over the rim nodes, so the outermost rings show how far their error
reaches into the cap.
"""

import argparse

import numpy as np

from sphaerica.decomposition import helmholtz_decompose_cap
from sphaerica.geometry import SphericalCap, unit_vector
from sphaerica.harmonics import sh_curl_eval, sh_eval, sh_grad_eval, synth_field
from sphaerica.quadrature import FieldSamples, build_cap_grid, mean_value


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nt", type=int, default=96)
    parser.add_argument("--nphi", type=int, default=192)
    parser.add_argument("--m", type=int, default=512)
    parser.add_argument("--J", type=int, default=12)
    parser.add_argument("--rings", type=int, default=4)
    args = parser.parse_args()

    cap = SphericalCap(unit_vector([0.2, -0.1, 1.0]), 0.9)
    grid = build_cap_grid(cap, args.nt, args.nphi)
    p = synth_field(21, 0, 5, 1.0)
    s = synth_field(22, 0, 5, 1.0)
    field = sh_grad_eval(p, grid.nodes) + sh_curl_eval(s, grid.nodes)
    samples = FieldSamples(grid, field, tangential=True)
    split = helmholtz_decompose_cap(
        samples, boundary_f3=lambda q: sh_eval(s, q), scale=args.J, m=args.m
    )
    p_true = sh_eval(p, grid.nodes)
    p_true = p_true - mean_value(FieldSamples(grid, p_true))
    s_true = sh_eval(s, grid.nodes)

    shape = grid.shape
    err2 = np.abs(split.f2.values - p_true).reshape(shape).max(axis=1)
    err3 = np.abs(split.f3.values - s_true).reshape(shape).max(axis=1)
    err2 /= np.abs(p_true).max()
    err3 /= np.abs(s_true).max()
    # rings from the rim inward
    depth = 1.0 - grid.nodes.reshape(*shape, 3)[:, 0] @ cap.center
    order = np.argsort(-depth)[: args.rings]

    print(f"{'ring':>4s} {'F2/sup':>10s} {'F3/sup':>10s}")
    for ring, r in enumerate(order):
        print(f"{ring:4d} {err2[r]:10.2e} {err3[r]:10.2e}")


if __name__ == "__main__":
    main()
