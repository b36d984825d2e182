"""The convolution primitive: ring-FFT summation against the dense path.

Targets that are grid nodes take the ring path; the dense path stays the
reference: the chunked kernel sum for scalar samples, the contracted sum
x . (Q F) for gradient sums. Agreement is measured relative to the largest
dense value of each convolution.
"""

import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_interior_points
from sphaerica import _convolution
from sphaerica._convolution import (
    _dense,
    _dense_grads,
    _ring,
    apply_kernel,
    grad_convolution,
)
from sphaerica.decomposition import (
    _d_inv_kernel,
    d_inv_convolve,
    decompose_cap_at,
    helmholtz_decompose_sphere,
)
from sphaerica.geometry import SphericalCap, unit_vector
from sphaerica.harmonics import sh_curl_eval, sh_eval, sh_grad_eval, synth_field
from sphaerica.kernels import (
    KIND_DIRICHLET,
    KIND_FUNDAMENTAL,
    KIND_NEUMANN,
    KernelSpec,
    kernel_grad_rows,
    kernel_value_matrix,
)
from sphaerica.layers import DensitySamples, double_layer, single_layer
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
    surface_potential,
)

SCALE = 10
SPHERE = build_sphere_grid(16, 32)
CAP = SphericalCap(unit_vector([0.2, -0.1, 1.0]), 0.9)
CAP_GRID = build_cap_grid(CAP, 16, 32)
GRIDS = {"sphere": SPHERE, "cap": CAP_GRID}
# Near the cap boundary the reflected kernels are nearly singular (the image
# of a target sits just outside the boundary), so rounding in the kernel
# values themselves, in either path, reaches 6e-13 of the result on the
# outermost Gauss rings of this grid (2e-11 on 48x96). Outside the 0.8 rho
# cap, where no reported error is measured, agreement has a looser bound.
INNER = SphericalCap(CAP.center, 0.8 * CAP.radius)
REL_TOL = 1e-13
BOUNDARY_REL_TOL = 1e-11


def _scalar(grid):
    return FieldSamples(grid, sh_eval(synth_field(5, 0, 6), grid.nodes))


def _vector(grid):
    p, s = synth_field(6, 1, 6), synth_field(7, 1, 6)
    return FieldSamples(
        grid,
        sh_grad_eval(p, grid.nodes) + sh_curl_eval(s, grid.nodes),
        tangential=True,
    )


def _rotated(grid):
    # curl sums run as gradient sums of f x eta, as grad_convolution does
    return FieldSamples(grid, np.cross(_vector(grid).values, grid.nodes))


def _with_radial(grid):
    # xi P + grad P: the ring path drops the radial part, the dense path
    # sums its (zero) rows
    p = synth_field(6, 0, 6)
    return FieldSamples(
        grid, grid.nodes * sh_eval(p, grid.nodes)[:, None] + sh_grad_eval(p, grid.nodes)
    )


def _dense_grad(spec, samples, points):
    """sum_j w_j (D_eta K(xi_i, eta_j)) . f_j: the contracted dense sum of
    one spec alone."""
    return _dense_grads([(spec, samples.values)], samples.grid, points)[0]


def _value(spec):
    return partial(kernel_value_matrix, spec)


def _grad(spec):
    return partial(kernel_grad_rows, spec)


def _cases():
    """(id, grid name, kernel, samples builder, subtract) per kernel and
    mode; a gradient case's kernel is its KernelSpec."""
    cases = []
    for name in GRIDS:
        kinds = [KernelSpec(KIND_FUNDAMENTAL, scale=SCALE)]
        if name == "cap":
            kinds += [
                KernelSpec(KIND_NEUMANN, cap=CAP, scale=SCALE),
                KernelSpec(KIND_DIRICHLET, cap=CAP, scale=SCALE),
            ]
        for spec in kinds:
            # with its scale set, the Neumann cap kernel is the regularized one
            regularized = "-regularized" if spec.kind == KIND_NEUMANN else ""
            tag = f"{name}-{spec.kind}{regularized}"
            cases.append((f"{tag}-value", name, _value(spec), _scalar, False))
            cases.append((f"{tag}-grad", name, spec, _vector, False))
            cases.append((f"{tag}-curl", name, spec, _rotated, False))
            cases.append((f"{tag}-grad-radial", name, spec, _with_radial, False))
        cases.append((f"{name}-fundamental-subtracted", name, _value(kinds[0]), _scalar, True))
        cases.append((f"{name}-d-inv", name, _d_inv_kernel, _scalar, True))
    return cases


CASES = _cases()


def _target_sets(grid):
    n_t, n_phi = grid.shape
    rng = np.random.default_rng(314)
    subset = rng.choice(len(grid), 40, replace=False)
    assert len(np.unique(subset // n_phi)) > 5
    return {
        "all": np.arange(len(grid)),
        "subset": subset,
        "single": np.array([7 * n_phi + 3]),
    }


def _check(grid, kernel, samples, idx, subtract):
    pts = grid.nodes[idx]
    if isinstance(kernel, KernelSpec):
        # node targets take the ring path, other targets the contracted sum
        fast = -grad_convolution(samples, kernel, pts, curl=False)
        assert np.array_equal(fast, _ring(_grad(kernel), samples, idx, None))
        ref = _dense_grad(kernel, samples, pts)
    elif subtract:
        # the subtracted sum is d_inv_convolve's, which calls _ring itself
        fast = _ring(kernel, samples, idx, 0.0)
        h = samples.values
        rows = kernel(pts, grid.nodes) * grid.weights * (h - h[idx][:, None])
        ref = np.sum(rows, axis=1)
    else:
        fast = apply_kernel(kernel, samples, pts)
        assert np.array_equal(fast, _ring(kernel, samples, idx, None))
        ref = _dense(kernel, samples, pts)
    err = np.abs(fast - ref) / np.abs(ref).max()
    inner = INNER.contains(pts) if grid.cap is not None else np.ones(len(idx), bool)
    assert err[inner].max(initial=0.0) <= REL_TOL
    assert err.max() <= BOUNDARY_REL_TOL


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("targets", ["all", "subset", "single"])
def test_ring_matches_dense(case, targets):
    _, name, kernel, build, subtract = case
    grid = GRIDS[name]
    _check(grid, kernel, build(grid), _target_sets(grid)[targets], subtract)


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_ring_matches_dense_across_chunks(case, monkeypatch):
    _, name, kernel, build, subtract = case
    grid = GRIDS[name]
    # three rings (ring path) or three points (dense path) per chunk
    monkeypatch.setattr(_convolution, "_CHUNK_DOUBLES", 3 * len(grid))
    _check(grid, kernel, build(grid), np.arange(len(grid)), subtract)


def _boundary_sums():
    """(id, evaluator) for each boundary integral and the cap split, whose
    results must not depend on the chunk size: the boundary integrals are
    rim series summed point by point, the split's area sums are chunked."""
    bgrid = build_boundary_grid(CAP, 64)
    density = DensitySamples(bgrid, np.cos(bgrid.phis) + 0.3 * np.sin(2 * bgrid.phis))
    trace = lambda p: p[:, 0] * p[:, 1] + 0.2
    flux = density.values - np.sum(bgrid.weights * density.values) / np.sum(bgrid.weights)
    field = _vector(CAP_GRID)

    def cap_split(pts):
        f2, f3 = decompose_cap_at(field, pts, boundary_f3=trace, scale=SCALE, m=64)
        return np.concatenate([f2, f3])

    return [
        ("single-layer", lambda pts: single_layer(density, pts)),
        ("double-layer", lambda pts: double_layer(density, pts)),
        ("dirichlet", lambda pts: dirichlet_solve_cap(CAP, trace, pts, m=64)),
        ("neumann", lambda pts: neumann_solve_cap(CAP, FieldSamples(bgrid, flux), 0.5, pts)),
        ("cap-split", cap_split),
    ]


BOUNDARY_SUMS = _boundary_sums()


@pytest.mark.parametrize("case", BOUNDARY_SUMS, ids=[c[0] for c in BOUNDARY_SUMS])
def test_boundary_sums_bit_identical_across_chunks(case, monkeypatch):
    _, evaluate = case
    pts = INNER.contains(CAP_GRID.nodes)
    pts = CAP_GRID.nodes[np.flatnonzero(pts)[::7]]
    whole = evaluate(pts)
    # two points or rings per chunk on the 512-node area grid (51 points: a
    # last chunk of one would be merged)
    monkeypatch.setattr(_convolution, "_CHUNK_DOUBLES", 3 * 64)
    assert np.array_equal(evaluate(pts), whole)


OFF_GRID_SPECS = [
    KernelSpec(kind, cap=None if kind == KIND_FUNDAMENTAL else CAP, scale=scale)
    for kind in (KIND_FUNDAMENTAL, KIND_DIRICHLET, KIND_NEUMANN)
    for scale in (None, SCALE)
]


def _off_grid_points():
    """50 points inside the 0.8 rho cap, none a grid node (dense path)."""
    return random_interior_points(CAP, np.random.default_rng(2718), 50)


@pytest.mark.parametrize(
    "spec", OFF_GRID_SPECS, ids=[f"{s.kind}-J{s.scale}" for s in OFF_GRID_SPECS]
)
@pytest.mark.parametrize("curl", [False, True], ids=["grad", "curl"])
def test_off_grid_area_sums_bit_identical_across_chunks(spec, curl, monkeypatch):
    pts = _off_grid_points()
    assert CAP_GRID.node_indices(pts) is None
    samples = _vector(CAP_GRID)
    whole = grad_convolution(samples, spec, pts, curl)
    # three points per chunk on the 512-node area grid
    monkeypatch.setattr(_convolution, "_CHUNK_DOUBLES", 3 * len(CAP_GRID))
    assert np.array_equal(grad_convolution(samples, spec, pts, curl), whole)


def test_off_grid_surface_potential_bit_identical_across_chunks(monkeypatch):
    # the fundamental kernel with a scale, summed as the poisson command does
    pts = _off_grid_points()
    assert CAP_GRID.node_indices(pts) is None
    samples = _scalar(CAP_GRID)
    whole = surface_potential(samples, pts, scale=SCALE)
    monkeypatch.setattr(_convolution, "_CHUNK_DOUBLES", 3 * len(CAP_GRID))
    assert np.array_equal(surface_potential(samples, pts, scale=SCALE), whole)


@pytest.mark.parametrize("shape", [(32, 64), (48, 96), (64, 128)])
def test_ring_node_value_does_not_depend_on_the_other_targets(shape):
    # the subtracted row sums are summed row by row, so a node alone gives
    # the bits it has inside a stack of nodes on many rings
    grid = build_sphere_grid(*shape)
    samples = FieldSamples(grid, sh_eval(synth_field(5, 0, 6), grid.nodes))
    idx = np.arange(0, len(grid), 7)
    for evaluate in (
        lambda i: d_inv_convolve(samples, i),
        lambda i: surface_potential(samples, grid.nodes[i], scale=SCALE),
    ):
        stack = evaluate(idx)
        alone = np.array([evaluate(i) for i in idx[:, None]])[:, 0]
        assert np.array_equal(alone, stack)


def test_sphere_split_holds_no_node_by_node_buffers():
    # the split is one analysis and one synthesis: O(N) vectors and
    # (L + 1, n_t) ring tables, no (rings, N) kernel rows; at 48x96 the
    # split's transient peak is about 1.2 MB (the ring sums held 4 MB)
    grid = build_sphere_grid(48, 96)
    field = _vector(grid)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        helmholtz_decompose_sphere(field)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_chunks_never_leave_a_single_row(monkeypatch):
    monkeypatch.setattr(_convolution, "_CHUNK_DOUBLES", 30)
    assert list(_convolution._chunks(7, 10)) == [(0, 3), (3, 7)]
    assert list(_convolution._chunks(6, 10)) == [(0, 3), (3, 6)]
    assert list(_convolution._chunks(1, 10)) == [(0, 1)]
    assert list(_convolution._chunks(5, 100)) == [(0, 2), (2, 5)]


@pytest.mark.parametrize("name", GRIDS)
def test_points_off_nodes_take_the_dense_path(name, monkeypatch):
    grid = GRIDS[name]
    spec = KernelSpec(KIND_FUNDAMENTAL, scale=SCALE)
    samples = _vector(grid)
    idx = _target_sets(grid)["subset"]
    nudged = grid.nodes[idx] + 1e-9 * np.array([0.6, -0.8, 0.0])
    pts = nudged / np.linalg.norm(nudged, axis=1, keepdims=True)
    expected = -_dense_grad(spec, samples, pts)

    def refuse(*args):
        raise AssertionError("off-node targets must not take the ring path")

    monkeypatch.setattr(_convolution, "_ring", refuse)
    assert np.array_equal(grad_convolution(samples, spec, pts, False), expected)
    # one off-node point sends the whole set to the dense path
    mixed = grid.nodes[idx].copy()
    mixed[0] = pts[0]
    assert np.array_equal(
        grad_convolution(samples, spec, mixed, False), -_dense_grad(spec, samples, mixed)
    )


@pytest.mark.parametrize(
    "spec", OFF_GRID_SPECS, ids=[f"{s.kind}-J{s.scale}" for s in OFF_GRID_SPECS]
)
def test_contracted_sum_with_a_merged_tail_chunk(spec, monkeypatch):
    # 2 step + 1 targets: _chunks merges the one-row tail into the last
    # chunk, so the reused Q buffer must hold its step + 1 rows
    pts = random_interior_points(CAP, np.random.default_rng(1618), 7)
    samples = _vector(CAP_GRID)
    whole = _dense_grad(spec, samples, pts)
    monkeypatch.setattr(_convolution, "_CHUNK_DOUBLES", 3 * len(CAP_GRID))
    assert list(_convolution._chunks(7, len(CAP_GRID))) == [(0, 3), (3, 7)]
    assert np.array_equal(_dense_grad(spec, samples, pts), whole)


@pytest.mark.parametrize(
    "spec", OFF_GRID_SPECS, ids=[f"{s.kind}-J{s.scale}" for s in OFF_GRID_SPECS]
)
def test_no_targets_give_an_empty_sum(spec):
    out = grad_convolution(_vector(CAP_GRID), spec, np.empty((0, 3)), curl=False)
    assert out.shape == (0,)


@given(
    a=st.floats(-10.0, 10.0),
    b=st.floats(-10.0, 10.0),
    seed=st.integers(0, 2**16),
)
def test_ring_path_is_linear(a, b, seed):
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(CAP_GRID), 30, replace=False)
    pts = CAP_GRID.nodes[idx]
    f = _vector(CAP_GRID).values
    g = np.cross(CAP_GRID.nodes, f) * rng.normal(size=(len(CAP_GRID), 1))
    samples = [FieldSamples(CAP_GRID, v, tangential=True) for v in (f, g, a * f + b * g)]
    af, ag, combined = (invert_gradient(s, "grad", SCALE, pts) for s in samples)
    scale = abs(a) * np.abs(af).max() + abs(b) * np.abs(ag).max() + 1e-300
    assert np.abs(combined - (a * af + b * ag)).max() <= 1e-12 * scale
    h1 = rng.normal(size=len(SPHERE))
    h2 = sh_eval(synth_field(seed, 0, 4), SPHERE.nodes)
    sel = SPHERE.nodes[rng.choice(len(SPHERE), 30, replace=False)]
    p1, p2, pc = (
        surface_potential(FieldSamples(SPHERE, h), sel, scale=SCALE)
        for h in (h1, h2, a * h1 + b * h2)
    )
    scale = abs(a) * np.abs(p1).max() + abs(b) * np.abs(p2).max() + 1e-300
    assert np.abs(pc - (a * p1 + b * p2)).max() <= 1e-12 * scale
