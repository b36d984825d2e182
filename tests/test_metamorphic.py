"""Metamorphic checks: a rotation about E3, a constant shift, and a point
evaluated alone, in a stack or in a permuted stack.

rotation_to_pole(R zeta) = R rotation_to_pole(zeta) for a rotation R about
E3, so every grid, boundary node and frame of a rotated cap is the rotated
one, and each result agrees to rounding. Other rotations move the longitude
origin of the rings (and caps within 1e-12 of +-E3 snap to a fixed frame),
so they agree only to quadrature error; the caps drawn here are tilted.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_interior_points, rim_ring
from sphaerica.apps import mfs_layout, random_vortices, vortex_exact
from sphaerica.decomposition import d_inv_convolve, decompose_cap_at
from sphaerica.geometry import SphericalCap, unit_vector
from sphaerica.harmonics import (
    InnerHarmonicIndex,
    inner_harmonic_eval,
    inner_harmonic_grad,
    sh_eval,
    sh_grad_eval,
    synth_field,
)
from sphaerica.mfs import MfsSolution, _series_powers, mfs_eval
from sphaerica.quadrature import (
    FieldSamples,
    build_boundary_grid,
    build_cap_grid,
    build_sphere_grid,
)
from sphaerica.solvers import (
    dirichlet_solve_cap,
    invert_gradient,
    neumann_solve_cap,
    poisson_solve_cap,
    surface_potential,
)

SCALE = 12
SHAPE = (24, 48)
M = 128
SPHERE = build_sphere_grid(*SHAPE)

angles = st.floats(0.0, 2.0 * np.pi)
tilts = st.floats(0.2, np.pi - 0.2)  # keeps the center far from +-E3


def about_e3(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def tilted_cap(tilt: float, lon: float, radius: float) -> SphericalCap:
    center = [np.sin(tilt) * np.cos(lon), np.sin(tilt) * np.sin(lon), np.cos(tilt)]
    return SphericalCap(unit_vector(center), radius)


def tangent_field(grid, seed: int) -> np.ndarray:
    # a tangential field from a random ambient field, projected at the nodes
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, 3))
    ambient = a + np.cross(b, grid.nodes) + grid.nodes[:, [1, 2, 0]] ** 2
    return ambient - np.sum(ambient * grid.nodes, axis=1)[:, None] * grid.nodes


def assert_close(got, want, rel):
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


@given(
    angle=angles,
    tilt=tilts,
    lon=angles,
    radius=st.floats(0.3, 1.2),
    seed=st.integers(0, 2**16),
)
def test_cap_results_rotate_with_the_cap(angle, tilt, lon, radius, seed):
    r = about_e3(angle)
    cap = tilted_cap(tilt, lon, radius)
    cap_r = SphericalCap(unit_vector(r @ cap.center), cap.radius)
    grid, grid_r = build_cap_grid(cap, *SHAPE), build_cap_grid(cap_r, *SHAPE)
    assert np.abs(grid_r.nodes - grid.nodes @ r.T).max() <= 1e-14
    f = tangent_field(grid, seed)
    samples = FieldSamples(grid, f, tangential=True)
    samples_r = FieldSamples(grid_r, f @ r.T, tangential=True)
    rng = np.random.default_rng(seed)
    probes = random_interior_points(cap, rng, 20)
    probes_r = probes @ r.T
    phis = build_boundary_grid(cap, M).phis
    trace = np.cos(phis) - 0.5 * np.sin(3 * phis) + 0.25
    flux = np.cos(2 * phis) + 0.5 * np.sin(phis)

    # the cap split at off-grid probes (the mode path, interpolated in t)
    for got, want in zip(
        decompose_cap_at(samples_r, probes_r, boundary_f3=trace, scale=SCALE, m=M),
        decompose_cap_at(samples, probes, boundary_f3=trace, scale=SCALE, m=M),
    ):
        assert_close(got, want, 1e-12)
    assert_close(
        dirichlet_solve_cap(cap_r, trace, probes_r, m=M),
        dirichlet_solve_cap(cap, trace, probes, m=M),
        1e-12,
    )
    assert_close(
        neumann_solve_cap(cap_r, flux, 0.5, probes_r, m=M),
        neumann_solve_cap(cap, flux, 0.5, probes, m=M),
        1e-12,
    )
    # the gradient inversion at the nodes (the mode path, one inverse rFFT
    # per ring). Ring 0 borders the rim; the kernel sums' image term was
    # near-singular there and moved it by up to 1.2e-11 of the sup, but per
    # mode the image term is the smooth (s s'/R^2)^m: 7.1e-14 on ring 0 and
    # 1.7e-13 elsewhere in 300 draws (ROADMAP 7(b))
    got = invert_gradient(samples_r, "grad", SCALE, grid_r.nodes)
    want = invert_gradient(samples, "grad", SCALE, grid.nodes)
    n_phi = SHAPE[1]
    err = np.abs(got - want) / np.abs(want).max()
    assert err[n_phi:].max() <= 1e-12
    assert err[:n_phi].max() <= 1e-12


@given(
    shift=st.floats(1.0, 1e3),
    sign=st.sampled_from([-1.0, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_a_constant_moves_only_the_gauge(shift, sign, seed):
    c = sign * shift
    h = sh_eval(synth_field(seed, 0, 6), SPHERE.nodes)
    nodes = np.arange(len(SPHERE))
    bound = 1e-13 * (np.abs(h).max() + abs(c))
    base, moved = (FieldSamples(SPHERE, v) for v in (h, h + c))
    # the fundamental solution has zero spherical mean: the constant drops out
    potential = surface_potential(base, SPHERE.nodes, scale=SCALE)
    shifted = surface_potential(moved, SPHERE.nodes, scale=SCALE)
    assert np.abs(shifted - potential).max() <= bound
    # D^-1 maps the constant c to 2c (the kernel integral is 2)
    d_inv = d_inv_convolve(base, nodes)
    assert np.abs(d_inv_convolve(moved, nodes) - (d_inv + 2.0 * c)).max() <= bound


# A point gets the same bits alone as in a stack, in any order: in the mode
# path of the cap gradient sums at nodes (invert_gradient, one inverse rFFT
# per ring) and off them (invert_gradient and decompose_cap_at: each mode's
# barycentric interpolant and the trigonometric series are summed point by
# point), in one stack of points that take the J series and points near the
# rim that take the regularized kernel sums, on the dense path
# (surface_potential and poisson_solve_cap at interior points), in the
# chart series (inner harmonics and their gradients, of several degrees and
# both orders), in the vortex stream function, whose targets are the
# columns of its block, and in an MFS fit on a ring of sources, in one
# stack of points that sum the fit's chart series, each to its own term
# count, and near-rim points that take its log columns. Every gap
# 1 - x . eta multiplies a single x, or a single eta, as a stack
# (kernels.gap), and so does the cap reflection's x . zeta; the chart's
# x @ (a1, a2, zeta) is one (P, 3) @ (3, 3) product and its series runs
# point by point; the vortices are summed row by row; the MFS log columns
# form each row's gaps as the point alone and sum the row alone.
# Not a guarantee of the BLAS: on OpenBLAS 0.3.31 a row of a (P, 3) @ (3, N)
# gemm can depend on its place in the block for N >= 196 with N mod 8 in
# {4, 5, 6, 7}; these grids have N = 1152, and the fit's 199 sources are
# such an N, which the per-row gaps get round (400 near-rim points cost
# 2.5-6 ms at M = 200-800 against 0.3-1.4 ms as one block). Left out
# (ROADMAP item 13): sh_eval and sh_grad_eval, whose complex Horner step
# rounds a point by its place (a real Horner cost +30% to +111% per call),
# and mfs_eval off a ring, whose gemv over the sources does (a per-row sum
# cost +26% per mfs_eval).
POINT_CAPS = {
    "polar": SphericalCap(np.array([0.0, 0.0, 1.0]), 0.9),
    "tilted": SphericalCap(unit_vector([0.2, -0.1, 1.0]), 0.9),
    "south": SphericalCap(np.array([0.0, 0.0, -1.0]), 0.7),
    "wide": SphericalCap(unit_vector([0.3, 0.5, -0.2]), 1.4),
}
POINT_EVALUATORS = (
    "invert_gradient",
    "invert_gradient_off_nodes",
    "decompose_cap_at",
    "surface_potential",
    "poisson_solve_cap",
    "inner_harmonic_eval",
    "inner_harmonic_grad",
    "vortex_exact",
    "mfs_eval",
)
INNER_INDICES = ((0, 1), (1, 1), (2, 2), (3, 1), (3, 2), (5, 2), (8, 1), (9, 2))


def series_and_rim_targets(cap):
    """40 interior points, whose J = 12 discs lie inside the cap, then 8 at
    1 - 1e-3 of the radius, whose discs cross the rim, interleaved."""
    inner = random_interior_points(cap, np.random.default_rng(0), 40, 0.9)
    targets = np.concatenate([inner, rim_ring(cap, 1e-3, 8)])
    return targets[np.random.default_rng(2).permutation(len(targets))]


@pytest.mark.parametrize("evaluator", POINT_EVALUATORS)
@pytest.mark.parametrize("name", POINT_CAPS)
def test_a_point_alone_gives_its_bits_in_any_stack(name, evaluator):
    cap = POINT_CAPS[name]
    grid = build_cap_grid(cap, *SHAPE)
    p = synth_field(1, 1, 6)
    if evaluator.startswith("inner_harmonic"):
        targets = random_interior_points(cap, np.random.default_rng(0), 40, 0.9)
        inner = inner_harmonic_grad if evaluator.endswith("grad") else inner_harmonic_eval
        indices = [InnerHarmonicIndex(cap, *i) for i in INNER_INDICES]

        def evaluate(q):
            return np.stack([inner(idx, q) for idx in indices], axis=1)

    elif evaluator == "vortex_exact":
        # more than 8 vortices: numpy sums 8 or more rows of one column
        # pairwise, but a wider block row by row
        vortices = random_vortices(cap, 12, 0)
        targets = random_interior_points(cap, np.random.default_rng(0), 40, 0.9)

        def evaluate(q):
            return vortex_exact(cap, vortices, q)

    elif evaluator == "mfs_eval":
        # a ring of 199 sources 0.005 outside the rim: the interior points
        # sum the chart series and the near-rim ones the log columns
        system, _ = mfs_layout(cap, 200, 0.005, -cap.center)
        solution = MfsSolution(
            system, np.random.default_rng(3).standard_normal(system.size), "tikhonov", 0.0, 1.0
        )
        targets = series_and_rim_targets(cap)
        beyond = _series_powers(system._ring, targets)[1] > len(system.sources)
        assert beyond.any() and not beyond.all()

        def evaluate(q):
            return mfs_eval(solution, q)

    elif evaluator.startswith("invert_gradient"):
        samples = FieldSamples(grid, sh_grad_eval(p, grid.nodes), tangential=True)
        if evaluator.endswith("off_nodes"):
            targets = series_and_rim_targets(cap)
        else:
            targets = grid.nodes[::7]

        def evaluate(q):
            return invert_gradient(samples, "grad", SCALE, q)

    elif evaluator == "decompose_cap_at":
        samples = FieldSamples(grid, sh_grad_eval(p, grid.nodes), tangential=True)
        targets = series_and_rim_targets(cap)

        def evaluate(q):
            f2, f3 = decompose_cap_at(samples, q, scale=SCALE, m=M, demean=False)
            return np.stack([f2, f3], axis=1)

    else:
        samples = FieldSamples(grid, sh_eval(p, grid.nodes))
        targets = random_interior_points(cap, np.random.default_rng(0), 40, 0.9)

        def evaluate(q):
            if evaluator == "surface_potential":
                return surface_potential(samples, q, SCALE)
            return poisson_solve_cap(cap, samples, -cap.center, q, SCALE)

    stack = evaluate(targets)
    order = np.random.default_rng(1).permutation(len(targets))
    assert np.array_equal(evaluate(targets[order]), stack[order])
    alone = np.array([evaluate(q[None])[0] for q in targets])
    assert np.array_equal(alone, stack)


def test_contains_decides_a_point_alone_as_in_a_stack():
    # a lone xi @ center is a dot product, which can round differently from
    # its row of the stacked product; with the radius at either value of
    # 1 - t, the point lies on the boundary in exactly one of them
    rng = np.random.default_rng(0)
    pts = unit_vector(rng.normal(size=(400, 3)))
    center = unit_vector(rng.normal(size=3))
    stacked = 1.0 - pts @ center
    lone = 1.0 - np.array([p @ center for p in pts])
    valid = (0.0 < np.minimum(stacked, lone)) & (np.maximum(stacked, lone) < 2.0)
    for i in np.flatnonzero(valid):
        for radius in (stacked[i], lone[i]):
            cap = SphericalCap(center, radius)
            assert cap.contains(pts[i]) == cap.contains(pts)[i]
            assert cap.contains(pts[i]) == cap.contains(pts[i : i + 1])[0]
