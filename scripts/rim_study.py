#!/usr/bin/env python3
"""Error of the node-level cap split, ring by ring from the rim inward.

Splits the field of acceptance criterion 9 (the gradient of synth_field
seed 21 plus the surface curl of seed 22, degrees 0-5, on the tilted
rho = 0.9 cap) with helmholtz_decompose_cap and prints, for the outermost
rings, the sup error of F2 (cap-demeaned) and of F3 on the ring over the
sup of the true scalar on the grid. The boundary terms are one rim series
of the F3 trace, exact on its interpolant, so the outermost rings show what
error is left near the rim: the area sums'.

It then sweeps both cap solvers towards the rim of the same cap: for a sum
of the cap's inner harmonics of degrees 0-9 it prints the sup error of
dirichlet_solve_cap (of its rim values) and of neumann_solve_cap (of its
normal derivative and cap mean) over the sup of the function, at 64
off-lattice longitudes of the ring 1 - xi . center = rho (1 - delta).

Last it sweeps both layer potentials across the rim, delta > 0 inside the
cap and delta < 0 outside it: for a density of degrees 0-9 on m rim nodes
it prints the sup errors of double_layer and single_layer over the sup of
the density, against the exact values from the density's harmonic
extension to each side (Re and Im w^n in that side's stereographic chart).
"""

import argparse

import numpy as np

from sphaerica.decomposition import helmholtz_decompose_cap
from sphaerica.geometry import (
    SphericalCap,
    circle_points,
    stereographic_project,
    unit_vector,
)
from sphaerica.harmonics import (
    InnerHarmonicIndex,
    inner_harmonic_eval,
    inner_harmonic_grad,
    sh_curl_eval,
    sh_eval,
    sh_grad_eval,
    synth_field,
)
from sphaerica.layers import DensitySamples, double_layer, geodesic_curvature, single_layer
from sphaerica.quadrature import (
    FieldSamples,
    build_boundary_grid,
    build_cap_grid,
    mean_value,
)
from sphaerica.solvers import dirichlet_solve_cap, neumann_solve_cap

DELTAS = (0.2, 1e-2, 1e-3, 1e-4, 1e-5)


def solver_sweep(cap, grid, m):
    """(delta, Dirichlet error, Neumann error) over the sup, per ring."""
    rng = np.random.default_rng(9)
    terms = [
        (InnerHarmonicIndex(cap, n, order), rng.normal())
        for n in range(10)
        for order in (1, 2)
        if n > 0 or order == 1
    ]
    value = lambda q: sum(a * inner_harmonic_eval(i, q) for i, a in terms)
    grad = lambda q: sum(a * inner_harmonic_grad(i, q) for i, a in terms)
    rim = build_boundary_grid(cap, m)
    flux = FieldSamples(rim, np.sum(rim.normals * grad(rim.nodes), axis=1))
    mean = mean_value(FieldSamples(grid, value(grid.nodes)))
    sup = np.abs(value(rim.nodes)).max()
    phis = 2.0 * np.pi * (np.arange(64) + 0.37) / 64
    rows = []
    for delta in DELTAS:
        t = 1.0 - cap.radius * (1.0 - delta)
        pts = circle_points(cap.frame, t, np.sqrt(1.0 - t * t), phis)
        truth = value(pts)
        err_d = np.abs(dirichlet_solve_cap(cap, value, pts, m=m) - truth).max()
        err_n = np.abs(neumann_solve_cap(cap, flux, mean, pts) - truth).max()
        rows.append((delta, err_d / sup, err_n / sup))
    return rows


def _ring_points(cap, delta):
    """64 points with 1 - xi . center = rho (1 - delta), off every lattice."""
    t = 1.0 - cap.radius * (1.0 - delta)
    phis = 2.0 * np.pi * (np.arange(64) + 0.37) / 64
    return circle_points(cap.frame, t, np.sqrt(1.0 - t * t), phis)


def layer_sweep(cap, m):
    """(signed delta, double-layer error, single-layer error) over the sup
    of the density, per ring on either side of the rim."""
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=10), rng.normal(size=10)
    b[0] = 0.0
    n = np.arange(10)
    rim = build_boundary_grid(cap, m)
    q = np.cos(np.outer(rim.phis, n)) @ a + np.sin(np.outer(rim.phis, n)) @ b
    density = DensitySamples(rim, q)
    s = cap.boundary_sine
    charge = s * a[0] / 2.0  # the density's integral over 4 pi
    sup = np.abs(q).max()
    rows = []
    for delta in DELTAS + tuple(-d for d in reversed(DELTAS)):
        pts = _ring_points(cap, delta)
        # the complement's chart mirrors the rim angle: sine modes flip
        chart, sign = (cap, 1.0) if delta > 0 else (cap.complement, -1.0)
        rho = chart.radius
        w = stereographic_project(chart.center, pts) / (2.0 * np.sqrt(rho / (2.0 - rho)))
        wn = (w[:, 0] + 1j * w[:, 1])[:, None] ** n[1:]
        cos_n, sin_n = wn.real, sign * wn.imag
        ext = cos_n @ a[1:] + sin_n @ b[1:]
        logs = (cos_n / n[1:]) @ a[1:] + (sin_n / n[1:]) @ b[1:]
        double = geodesic_curvature(cap) * charge + 0.5 * sign * (a[0] + ext)
        const = np.log(rho) - 2.0 * np.log(2.0) + 1.0
        single = charge * (np.log1p(pts @ chart.center) + const) - 0.5 * s * logs
        err_d = np.abs(double_layer(density, pts) - double).max()
        err_s = np.abs(single_layer(density, pts) - single).max()
        rows.append((delta, err_d / sup, err_s / sup))
    return rows


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
    print(f"{'delta':>7s} {'dirichlet':>10s} {'neumann':>10s}")
    for delta, err_d, err_n in solver_sweep(cap, grid, args.m):
        print(f"{delta:7.0e} {err_d:10.2e} {err_n:10.2e}")
    print(f"{'delta':>7s} {'double':>10s} {'single':>10s}")
    for delta, err_d, err_s in layer_sweep(cap, args.m):
        print(f"{delta:7.0e} {err_d:10.2e} {err_s:10.2e}")


if __name__ == "__main__":
    main()
