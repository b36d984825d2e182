import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import cap_point, random_interior_points, rim_ring
from sphaerica import _convolution
from sphaerica.apps import random_vortices, vortex_mfs
from sphaerica.geometry import SphericalCap, boundary_nodes, lonlat_vector, unit_vector
from sphaerica.harmonics import InnerHarmonicIndex, inner_harmonic_eval
from sphaerica.mfs import (
    FundamentalSystem,
    MfsSolution,
    _basis_columns,
    _series_powers,
    basis_eval,
    mfs_eval,
    mfs_fit,
    sources_on_circle,
)
from sphaerica.quadrature import build_boundary_grid, build_cap_grid
from sphaerica.solvers import beltrami_fd

CAP = SphericalCap(np.array([0.0, 0.0, 1.0]), 0.9)


def test_source_layout():
    sources = sources_on_circle(CAP, 16, 0.05)
    assert sources.shape == (16, 3)
    assert_allclose(np.linalg.norm(sources, axis=1), 1.0, atol=1e-14)
    assert_allclose(1.0 - sources @ CAP.center, CAP.radius + 0.05, atol=1e-14)


@pytest.mark.parametrize("offset", [0.0, -0.1, 1.1, 2.0, np.nan])
def test_source_circle_must_lie_outside_the_cap(offset):
    with pytest.raises(ValueError, match="cap radius"):
        sources_on_circle(CAP, 16, offset)


def test_basis_point_values():
    sources = np.array([[0.0, 0.0, -1.0]])
    system = FundamentalSystem(sources, "gk")
    north = np.array([0.0, 0.0, 1.0])
    assert basis_eval(system, 0, north) == pytest.approx(1 / (4 * np.pi))
    # log kernel against the antipodal source: ln 2 / 4 pi
    assert basis_eval(system, 1, north) == pytest.approx(
        np.log(2.0) / (4 * np.pi), abs=1e-15
    )
    with pytest.raises(ValueError):
        basis_eval(system, 1, np.array([0.0, 0.0, -1.0]))


def test_modified_basis_cancels_at_shared_anchor():
    xbar = unit_vector([0.3, -0.4, -0.85])
    system = FundamentalSystem(np.array([xbar]), "gk-mod", regularization_point=xbar)
    xi = cap_point(CAP, 0.5, 0.7)
    assert basis_eval(system, 1, xi) == pytest.approx(0.0, abs=1e-15)


def test_modified_basis_is_harmonic():
    system = FundamentalSystem(
        sources_on_circle(CAP, 12, 0.05), "gk-mod", regularization_point=-CAP.center
    )
    xi = cap_point(CAP, 0.4, 1.0)
    fd = beltrami_fd(
        lambda pts: np.array([basis_eval(system, 3, q) for q in pts]), xi, 1e-3
    )
    assert abs(fd) < 1e-3


def test_normal_derivative_mode():
    grid = build_boundary_grid(CAP, 32)
    system = FundamentalSystem(sources_on_circle(CAP, 8, 0.3), "gk")
    value = basis_eval(
        system, 2, grid.nodes[5], mode="normal-derivative", normal=grid.normals[5]
    )
    anchor = system.sources[1]
    t = float(grid.nodes[5] @ anchor)
    expected = -float(grid.normals[5] @ anchor) / (4 * np.pi * (1 - t))
    assert value == pytest.approx(expected, abs=1e-15)


def test_inner_harmonic_variant_matches_module():
    system = FundamentalSystem(
        np.zeros((6, 3)), "inner-harmonic", cap=CAP, include_constant=False
    )
    xi = cap_point(CAP, 0.3, 2.0)
    assert basis_eval(system, 0, xi) == pytest.approx(
        inner_harmonic_eval(InnerHarmonicIndex(CAP, 1, 1), xi), abs=1e-15
    )
    assert basis_eval(system, 3, xi) == pytest.approx(
        inner_harmonic_eval(InnerHarmonicIndex(CAP, 2, 2), xi), abs=1e-15
    )


def test_unit_coefficient_recovery_with_separated_sources():
    system = FundamentalSystem(
        sources_on_circle(CAP, 11, 0.15), "gk-mod", regularization_point=-CAP.center
    )
    grid = build_boundary_grid(CAP, 12)
    target = lambda pts: np.array([basis_eval(system, 7, q) for q in pts])
    fit = mfs_fit(system, grid, target, mode="interpolation")
    expected = np.zeros(system.size)
    expected[7] = 1.0
    assert fit.boundary_residual < 1e-10
    assert np.abs(fit.coefficients - expected).max() < 1e-6


def test_residual_decreases_with_source_count(rng):
    # completeness proxy; sources a clear distance off the boundary, where
    # the trigonometric trace is fittable (hugging sources trade low-mode
    # accuracy against their own slowly decaying high modes)
    idx = InnerHarmonicIndex(CAP, 4, 1)
    data = lambda pts: inner_harmonic_eval(idx, pts)
    residuals = []
    for count in (25, 50, 100, 200):
        system = FundamentalSystem(
            sources_on_circle(CAP, count - 1, 0.1),
            "gk-mod",
            regularization_point=-CAP.center,
        )
        colloc = build_boundary_grid(CAP, 4 * count)
        fit = mfs_fit(system, colloc, data, mode="tikhonov", ridge=1e-12)
        # residual measured off the collocation nodes
        fine = build_boundary_grid(CAP, 1024)
        residuals.append(np.abs(mfs_eval(fit, fine.nodes) - data(fine.nodes)).max())
    assert residuals[0] > residuals[1] > residuals[2] > residuals[3]
    assert residuals[-1] < 1e-6


def test_fit_accuracy_inside_the_cap(rng):
    idx = InnerHarmonicIndex(CAP, 3, 2)
    data = lambda pts: inner_harmonic_eval(idx, pts)
    system = FundamentalSystem(
        sources_on_circle(CAP, 199, 0.1), "gk-mod", regularization_point=-CAP.center
    )
    colloc = build_boundary_grid(CAP, 800)
    fit = mfs_fit(system, colloc, data, mode="tikhonov", ridge=1e-12)
    pts = random_interior_points(CAP, rng, 50)
    assert np.abs(mfs_eval(fit, pts) - data(pts)).max() < 1e-7
    assert np.isfinite(fit.condition)


def test_interpolation_rejects_singular_and_mismatched_systems():
    system = FundamentalSystem(
        sources_on_circle(CAP, 31, 0.005), "gk-mod", regularization_point=-CAP.center
    )
    grid = build_boundary_grid(CAP, 64)
    with pytest.raises(ValueError):
        mfs_fit(system, grid, np.zeros(64), mode="interpolation")  # not square
    small = build_boundary_grid(CAP, 16)
    with pytest.raises(ValueError):
        mfs_fit(system, small, np.zeros(16))  # fewer points than basis elements


@pytest.mark.parametrize(
    "variant,message",
    [
        ("gk-bogus", "unknown basis variant"),
        ("gk-mod", "needs a regularization point"),
        ("inner-harmonic", "needs a cap"),
    ],
)
def test_system_rejects_incomplete_variants(variant, message):
    with pytest.raises(ValueError, match=message):
        FundamentalSystem(sources_on_circle(CAP, 8), variant)


def test_fit_rejects_unknown_mode():
    system = FundamentalSystem(sources_on_circle(CAP, 8), "gk")
    grid = build_boundary_grid(CAP, 32)
    with pytest.raises(ValueError, match="mode must be"):
        mfs_fit(system, grid, lambda p: p[:, 0], mode="lsq")


def test_zero_coefficients_evaluate_to_zero():
    system = FundamentalSystem(
        sources_on_circle(CAP, 7, 0.1), "gk-mod", regularization_point=-CAP.center
    )
    from sphaerica.mfs import MfsSolution

    solution = MfsSolution(system, np.zeros(system.size), "tikhonov", 0.0, 1.0)
    assert mfs_eval(solution, cap_point(CAP, 0.5, 0.3)) == 0.0


def test_fitted_combination_obeys_max_principle(rng):
    idx = InnerHarmonicIndex(CAP, 2, 1)
    data = lambda pts: inner_harmonic_eval(idx, pts)
    system = FundamentalSystem(
        sources_on_circle(CAP, 63, 0.01), "gk-mod", regularization_point=-CAP.center
    )
    colloc = build_boundary_grid(CAP, 256)
    fit = mfs_fit(system, colloc, data, mode="tikhonov", ridge=1e-12)
    fine = build_boundary_grid(CAP, 2048)
    boundary_error = np.abs(mfs_eval(fit, fine.nodes) - data(fine.nodes)).max()
    pts = random_interior_points(CAP, rng, 60, max_fraction=0.95)
    interior_error = np.abs(mfs_eval(fit, pts) - data(pts)).max()
    assert interior_error <= boundary_error * (1.0 + 1e-6) + 1e-14


def _gk_mod(count, offset, cap=CAP):
    return FundamentalSystem(
        sources_on_circle(cap, count, offset), "gk-mod", regularization_point=-cap.center
    )


def _column_loop(system, pts, mode="value", nu=None):
    """Reference collocation block: one log-kernel column per source."""

    def log_part(anchor):
        t = pts @ anchor
        if mode == "value":
            return np.log(1.0 - t) / (4 * np.pi)
        return -(nu @ anchor) / (4 * np.pi * (1.0 - t))

    reg = 0.0
    if system.variant == "gk-mod":
        reg = log_part(system.regularization_point)
    const = np.full(len(pts), 1.0 / (4 * np.pi) if mode == "value" else 0.0)
    return np.column_stack([const] + [log_part(a) - reg for a in system.sources])


@pytest.mark.parametrize(
    "variant, mode",
    [("gk", "value"), ("gk", "normal-derivative"),
     ("gk-mod", "value"), ("gk-mod", "normal-derivative")],
)
def test_basis_block_matches_column_loop_and_basis_eval(variant, mode, rng):
    system = FundamentalSystem(
        sources_on_circle(CAP, 9, 0.05), variant, regularization_point=-CAP.center
    )
    grid = build_boundary_grid(CAP, 24)
    pts = np.vstack([grid.nodes, random_interior_points(CAP, rng, 10)])
    nu = np.vstack([grid.normals, grid.normals[:10]])
    block = _basis_columns(system, pts, mode, nu)
    # only the 3-term dot products may round differently; the log then
    # amplifies that by at most 1 / (1 - t) <= 1e3 here
    assert_allclose(block, _column_loop(system, pts, mode, nu), rtol=0, atol=1e-12)
    for k in range(system.size):
        single = [
            basis_eval(system, k, p, mode=mode, normal=n) for p, n in zip(pts, nu)
        ]
        assert_allclose(block[:, k], single, rtol=0, atol=1e-12)


def test_basis_block_rejects_source_points():
    system = _gk_mod(8, 0.05)
    source = system.sources[3]
    with pytest.raises(ValueError, match="source points"):
        basis_eval(system, 1, source)
    stacked = np.vstack([cap_point(CAP, 0.2, 0.1), source, cap_point(CAP, 0.5, 2.0)])
    with pytest.raises(ValueError, match="source points"):
        _basis_columns(system, stacked)
    fit = mfs_fit(system, build_boundary_grid(CAP, 32), np.ones(32))
    with pytest.raises(ValueError, match="source points"):
        mfs_eval(fit, stacked)


def _duplicated_source_system():
    sources = sources_on_circle(CAP, 15, 0.1)
    return FundamentalSystem(
        np.vstack([sources, sources[3]]), "gk-mod", regularization_point=-CAP.center
    )


def _stacked_least_squares(a_mat, f, ridge):
    """Reference Tikhonov solution: rank-revealing lstsq on [A; sqrt(ridge) I]."""
    n_basis = a_mat.shape[1]
    aug = np.vstack([a_mat, np.sqrt(ridge) * np.eye(n_basis)])
    rhs = np.concatenate([f, np.zeros(n_basis)])
    return np.linalg.lstsq(aug, rhs, rcond=None)[0]


@pytest.mark.parametrize(
    "system, n_colloc, ridge",
    [
        (_gk_mod(31, 0.1), 128, 1e-12),
        (_gk_mod(31, 0.1), 128, 1e-3),
        # the near-boundary source circle of the snug vortex test
        (_gk_mod(199, 5e-6), 800, 1e-12),
        # two coincident sources: rank deficient, minimum-norm solution
        (_duplicated_source_system(), 64, 0.0),
        # K = 32 divides m = 128: the ring path
        (_gk_mod(32, 0.1), 128, 1e-12),
        (_gk_mod(32, 0.1), 128, 1e-3),
    ],
    ids=[
        "separated",
        "separated-heavy-ridge",
        "near-boundary",
        "rank-deficient",
        "commensurate",
        "commensurate-heavy-ridge",
    ],
)
def test_tikhonov_fit_matches_stacked_least_squares(system, n_colloc, ridge):
    idx = InnerHarmonicIndex(CAP, 3, 1)
    grid = build_boundary_grid(CAP, n_colloc)
    f = inner_harmonic_eval(idx, grid.nodes)
    fit = mfs_fit(system, grid, f, mode="tikhonov", ridge=ridge)
    a_mat = _basis_columns(system, grid.nodes)
    reference = _stacked_least_squares(a_mat, f, ridge)
    scale = np.abs(reference).max()
    assert_allclose(fit.coefficients, reference, rtol=0, atol=1e-11 * scale)
    assert_allclose(a_mat @ fit.coefficients, a_mat @ reference, rtol=0, atol=1e-13)
    sv = np.linalg.svd(a_mat, compute_uv=False)
    if ridge == 0.0:
        # the smallest singular value is rounding noise in both factorizations
        assert fit.condition > 1e14 and sv[0] / sv[-1] > 1e14
        assert fit.coefficients[4] == pytest.approx(fit.coefficients[-1], rel=1e-12)
    else:
        assert fit.condition == pytest.approx(sv[0] / sv[-1], rel=1e-12)


EPS = np.finfo(float).eps


@pytest.mark.parametrize(
    "ridge, tol",
    [
        # s_-1 = 1500 eps lies below the cut-off 2010 eps of M + K = 2010 rows
        # but above the 10 eps of a cut-off that counted only the K columns
        (0.0, 1e-13),
        # sqrt(s_-1^2 + ridge) ~ 4300 eps is kept although s_-1 alone would be
        # cut; that filter factor ~ s_-1 / ridge reads an eps-sized rounding of
        # s_-1 at 1e-3 relative at most (measured <= 5e-6)
        ((4000 * EPS) ** 2, 1e-4),
    ],
    ids=["cut", "kept-by-ridge"],
)
def test_tikhonov_cut_off_matches_stacked_least_squares(monkeypatch, rng, ridge, tol):
    n_pts, n_basis = 2000, 10
    u_mat, _ = np.linalg.qr(rng.standard_normal((n_pts, n_basis)))
    v_mat, _ = np.linalg.qr(rng.standard_normal((n_basis, n_basis)))
    sv = np.geomspace(1.0, 1e-3, n_basis)
    sv[-1] = 1500 * EPS
    a_mat = (u_mat * sv) @ v_mat.T
    f = u_mat @ np.ones(n_basis) + 1e-3 * rng.standard_normal(n_pts)
    monkeypatch.setattr("sphaerica.mfs._basis_columns", lambda *args: a_mat)
    system = FundamentalSystem(sources_on_circle(CAP, n_basis - 1, 0.05), "gk")
    fit = mfs_fit(system, build_boundary_grid(CAP, n_pts), f, ridge=ridge)
    reference = _stacked_least_squares(a_mat, f, ridge)
    assert_allclose(
        fit.coefficients, reference, rtol=0, atol=tol * np.abs(reference).max()
    )
    assert fit.condition == pytest.approx(sv[0] / sv[-1], rel=1e-3)


@pytest.mark.parametrize(
    "ridge, tol",
    [
        (0.0, 1e-13),
        # the kept filter factor ~ s_-1 / ridge reads an eps-sized rounding of
        # s_-1 = 1500 eps, in the FFT of the column and in the reference SVD
        # alike: up to 1 / 1500 relative (measured 1.0e-4 of the largest
        # coefficient)
        ((4000 * EPS) ** 2, 1e-3),
    ],
    ids=["cut", "kept-by-ridge"],
)
def test_ring_cut_off_matches_stacked_least_squares(monkeypatch, rng, ridge, tol):
    # the ring path's filter and cut-off on a designed kernel spectrum: block
    # q holds kernel modes q and m - (K - q), so with a real symmetric
    # spectrum its norm is s_q = sqrt(2 / r) amp_q; s_0 = 1 and the smallest
    # pair is 1500 eps, below the cut-off 2007 eps
    n_src, ratio = 9, 222
    n_pts = n_src * ratio
    amps = np.sqrt(ratio / 2.0) * np.array([1.0, 1e-1, 1e-2, 1500 * EPS])
    amps = np.concatenate([amps, amps[::-1]])
    spectrum = np.zeros(n_pts)
    spectrum[1:n_src] = amps
    spectrum[n_pts - n_src + 1 :] = amps[::-1]
    spectrum[[0, n_src, n_pts - n_src]] = 0.5 * np.sqrt(ratio)
    column = np.fft.ifft(spectrum).real
    monkeypatch.setattr("sphaerica.mfs._log_part", lambda *args: column.copy())
    system = FundamentalSystem(
        sources_on_circle(CAP, n_src, 0.05), "gk", include_constant=False
    )
    a_mat = np.column_stack([np.roll(column, ratio * j) for j in range(n_src)])
    f = a_mat @ rng.standard_normal(n_src) + 1e-3 * rng.standard_normal(n_pts)
    _forbid_qr(monkeypatch)
    fit = mfs_fit(system, build_boundary_grid(CAP, n_pts), f, ridge=ridge)
    reference = _stacked_least_squares(a_mat, f, ridge)
    assert_allclose(
        fit.coefficients, reference, rtol=0, atol=tol * np.abs(reference).max()
    )
    sv = np.linalg.svd(a_mat, compute_uv=False)
    assert sv[-1] == pytest.approx(1500 * EPS, rel=1e-2)
    assert fit.condition == pytest.approx(sv[0] / sv[-1], rel=1e-3)


@pytest.mark.parametrize("ridge", [-1.0, -1e-300, np.nan, np.inf])
def test_fit_rejects_negative_or_non_finite_ridge(ridge):
    grid = build_boundary_grid(CAP, 32)
    with pytest.raises(ValueError, match="ridge"):
        mfs_fit(_gk_mod(8, 0.05), grid, np.ones(32), ridge=ridge)


# the ring path of mfs_fit: its layout rule, pinned by which factorization
# runs, and its results against the stacked reference on polar, tilted and
# snapped south caps
RING_CAPS = {
    "polar": CAP,
    "tilted": SphericalCap(unit_vector([0.2, -0.1, 1.0]), 0.9),
    # rotation_to_pole snaps this center to diag(1, -1, -1)
    "south": SphericalCap(lonlat_vector(0.0, -90.0), 0.7),
}


class _QrCalled(Exception):
    pass


def _forbid_qr(monkeypatch):
    def qr(*args, **kwargs):
        raise _QrCalled

    monkeypatch.setattr(np.linalg, "qr", qr)


def _rotated_sources(cap, count, offset, shift):
    outer = SphericalCap(cap.center, cap.radius + offset)
    return boundary_nodes(outer, 2.0 * np.pi * (np.arange(count) + shift) / count)[0]


def _factored_layout(case, cap):
    """(system, number of collocation nodes, mode) of a layout that must
    take the QR + SVD path."""
    gk_mod = lambda sources, xbar=-cap.center: FundamentalSystem(
        sources, "gk-mod", regularization_point=xbar
    )
    if case == "k-not-dividing-m":
        return _gk_mod(31, 0.1, cap), 128, "tikhonov"
    if case == "source-moved":
        sources = sources_on_circle(cap, 32, 0.1).copy()
        sources[5] = unit_vector(sources[5] + 1e-9 * cap.center)
        return gk_mod(sources), 128, "tikhonov"
    if case == "half-step-rotation":
        return gk_mod(_rotated_sources(cap, 32, 0.1, 0.5)), 128, "tikhonov"
    if case == "off-axis-regularization":
        xbar = unit_vector(-cap.center + [0.1, 0.0, 0.0])
        return gk_mod(sources_on_circle(cap, 32, 0.1), xbar), 128, "tikhonov"
    if case == "inner-harmonic":
        system = FundamentalSystem(np.zeros((16, 3)), "inner-harmonic", cap=cap)
        return system, 64, "tikhonov"
    # interpolation: a square system of 16 sources on 16 nodes
    system = FundamentalSystem(
        sources_on_circle(cap, 16, 0.15), "gk", include_constant=False
    )
    return system, 16, "interpolation"


@pytest.mark.parametrize("cap_name", RING_CAPS)
@pytest.mark.parametrize(
    "case",
    [
        "k-not-dividing-m",
        "source-moved",
        "half-step-rotation",
        "off-axis-regularization",
        "inner-harmonic",
        "interpolation",
    ],
)
def test_off_lattice_layouts_take_the_factored_path(monkeypatch, cap_name, case):
    cap = RING_CAPS[cap_name]
    system, n_colloc, mode = _factored_layout(case, cap)
    grid = build_boundary_grid(cap, n_colloc)
    f = inner_harmonic_eval(InnerHarmonicIndex(cap, 2, 1), grid.nodes)
    _forbid_qr(monkeypatch)
    with pytest.raises(_QrCalled):
        mfs_fit(system, grid, f, mode=mode)


@pytest.mark.parametrize("cap_name", RING_CAPS)
@pytest.mark.parametrize(
    "variant, include_constant, count, n_colloc",
    [("gk-mod", True, 32, 128), ("gk", True, 16, 64), ("gk", False, 16, 48)],
    ids=["gk-mod", "gk", "gk-no-constant"],
)
def test_ring_layouts_match_stacked_least_squares_without_qr(
    monkeypatch, cap_name, variant, include_constant, count, n_colloc
):
    cap = RING_CAPS[cap_name]
    system = FundamentalSystem(
        sources_on_circle(cap, count, 0.1),
        variant,
        regularization_point=-cap.center,
        include_constant=include_constant,
    )
    grid = build_boundary_grid(cap, n_colloc)
    f = inner_harmonic_eval(InnerHarmonicIndex(cap, 3, 1), grid.nodes)
    _forbid_qr(monkeypatch)
    fit = mfs_fit(system, grid, f, ridge=1e-12)
    a_mat = _basis_columns(system, grid.nodes)
    reference = _stacked_least_squares(a_mat, f, 1e-12)
    scale = np.abs(reference).max()
    assert_allclose(fit.coefficients, reference, rtol=0, atol=1e-11 * scale)
    assert_allclose(a_mat @ fit.coefficients, a_mat @ reference, rtol=0, atol=1e-13)
    sv = np.linalg.svd(a_mat, compute_uv=False)
    assert fit.condition == pytest.approx(sv[0] / sv[-1], rel=1e-12)
    residual = np.abs(a_mat @ fit.coefficients - f).max()
    assert fit.boundary_residual == pytest.approx(residual, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("offset", [5e-3, 5e-4, 5e-5, 5e-6])
def test_snug_ring_path_matches_the_factored_path_on_the_vortex_oracle(
    monkeypatch, rng, offset
):
    # at snug circles A is circulant only up to the rounding of 1 - xi . eta
    # (7e-7 of max |A| at offset 5e-6), so the two paths are compared through
    # the oracle error, not entry by entry
    vortices = random_vortices(CAP, 5, 42)
    pts = random_interior_points(CAP, rng, 60)
    run = lambda: vortex_mfs(
        CAP, vortices, n_sources=200, radius_offset=offset, probes=pts
    ).diagnostics["rel_sup_error"]
    with monkeypatch.context() as patch:
        _forbid_qr(patch)
        ring = run()
    monkeypatch.setattr("sphaerica.mfs._is_ring_layout", lambda *args: False)
    assert ring == pytest.approx(run(), rel=1e-3)


def _off_lattice(sources):
    """The sources with one moved 1e-6 off the ring's lattice, so that
    mfs_eval sums its log columns."""
    moved = sources.copy()
    moved[3] = unit_vector(moved[3] + [1e-6, -1e-6, 1e-6])
    return moved


def _eval_system(variant, n_sources, ring=False):
    if variant == "inner-harmonic":
        return FundamentalSystem(np.zeros((n_sources, 3)), variant, cap=CAP)
    sources = sources_on_circle(CAP, n_sources, 0.05)
    return FundamentalSystem(
        sources if ring else _off_lattice(sources),
        variant,
        regularization_point=-CAP.center,
    )


def _solution(system, rng):
    coefficients = rng.standard_normal(system.size)
    return MfsSolution(system, coefficients, "tikhonov", 0.0, 1.0)


# off a ring, mfs_eval takes one matrix-vector product per chunk of the
# source columns, whose rounding of a row depends on the rows around it
# (BLAS gemv kernels work in groups of rows), and adds the constant term
# after it, so it matches the whole block's product to rounding, relative
# to the largest value; on a ring it sums one chart series
EVAL_REL_TOL = 1e-14


def _assert_whole_block_product(values, whole):
    assert np.abs(values - whole).max() <= EVAL_REL_TOL * np.abs(whole).max()


@pytest.mark.parametrize("variant", ["gk", "gk-mod", "inner-harmonic"])
def test_chunked_eval_is_the_whole_block_product(variant, monkeypatch, rng):
    solution = _solution(_eval_system(variant, 12), rng)
    assert solution.system._ring is None
    # the chunks hold the columns after the constant: three rows each, and
    # 2 * 3 + 1 targets, so the last chunk is a single row
    width = solution.system.size - 1
    monkeypatch.setattr(_convolution, "_CHUNK_DOUBLES", 3 * width)
    assert list(_convolution._chunks(7, width)) == [(0, 3), (3, 6), (6, 7)]
    pts = random_interior_points(CAP, rng, 7)
    whole = _basis_columns(solution.system, pts) @ solution.coefficients
    _assert_whole_block_product(mfs_eval(solution, pts), whole)
    single = mfs_eval(solution, pts[5])
    assert isinstance(single, float)
    row = _basis_columns(solution.system, pts[5:6]) @ solution.coefficients
    _assert_whole_block_product(np.array([single]), row)


@pytest.mark.parametrize("variant", ["gk", "gk-mod"])
def test_chunked_eval_at_800_sources_spans_chunks(variant, rng):
    solution = _solution(_eval_system(variant, 799), rng)
    assert solution.system._ring is None
    pts = build_cap_grid(SphericalCap(CAP.center, 0.8 * CAP.radius), 32, 64).nodes
    assert len(list(_convolution._chunks(len(pts), solution.system.size - 1))) == 7
    whole = _basis_columns(solution.system, pts) @ solution.coefficients
    _assert_whole_block_product(mfs_eval(solution, pts), whole)


def test_chunked_eval_rejects_a_source_point_in_the_last_chunk(monkeypatch, rng):
    system = FundamentalSystem(
        _off_lattice(sources_on_circle(CAP, 8, 0.05)), "gk-mod", regularization_point=-CAP.center
    )
    assert system._ring is None
    solution = _solution(system, rng)
    monkeypatch.setattr(_convolution, "_CHUNK_DOUBLES", 3 * len(system.sources))
    pts = np.vstack([random_interior_points(CAP, rng, 6), system.sources[5]])
    with pytest.raises(ValueError, match="basis evaluated at one of its source points"):
        mfs_eval(solution, pts)


def _ring_system(cap, variant, n_sources):
    """gk, or gk-mod with its point at -zeta ("gk-mod") or off the axis."""
    point = -cap.center if variant == "gk-mod" else unit_vector(-cap.center + [0.1, 0.0, 0.0])
    return FundamentalSystem(
        sources_on_circle(cap, n_sources, 0.005),
        "gk" if variant == "gk" else "gk-mod",
        regularization_point=point,
    )


@pytest.mark.parametrize("n_sources", [200, 400, 800])
@pytest.mark.parametrize("variant", ["gk", "gk-mod", "gk-mod-off-axis"])
@pytest.mark.parametrize("cap_name", RING_CAPS)
def test_ring_eval_is_the_log_columns_product(cap_name, variant, n_sources, rng):
    # the CLI's probes (the interior 32x64 grid of the 0.8 rho cap), where
    # the series runs, then random points out to (1 - 1e-5) rho, where the
    # points past the series' reach take the log columns
    cap = RING_CAPS[cap_name]
    system = _ring_system(cap, variant, n_sources - 1)
    assert system._ring is not None
    solution = _solution(system, rng)
    probes = build_cap_grid(SphericalCap(cap.center, 0.8 * cap.radius), 32, 64).nodes
    near_rim = random_interior_points(cap, rng, 100, 1.0 - 1e-5)
    beyond = _series_powers(system._ring, near_rim)[1] > n_sources - 1
    assert beyond.any() and not beyond.all()
    for pts in (probes, near_rim):
        whole = _basis_columns(system, pts) @ solution.coefficients
        assert np.abs(mfs_eval(solution, pts) - whole).max() <= 1e-14 * np.abs(whole).max()


@pytest.mark.parametrize("cap_name", RING_CAPS)
def test_ring_eval_at_the_cli_probes_forms_no_log_column(cap_name, monkeypatch, rng):
    # at 0.8 rho against sources 0.005 outside the rim, a probe needs at
    # most 199 powers of the series on the rho = 0.9 caps and 229 on the
    # rho = 0.7 one, so none falls back at M = 400
    cap = RING_CAPS[cap_name]
    solution = _solution(_ring_system(cap, "gk-mod", 399), rng)
    probes = build_cap_grid(SphericalCap(cap.center, 0.8 * cap.radius), 32, 64).nodes
    whole = _basis_columns(solution.system, probes) @ solution.coefficients
    monkeypatch.setattr("sphaerica.mfs._source_columns", None)
    values = mfs_eval(solution, probes)
    assert np.abs(values - whole).max() <= 1e-14 * np.abs(whole).max()


def test_ring_eval_of_one_point_is_a_float_and_a_source_point_raises(rng):
    solution = _solution(_ring_system(CAP, "gk-mod", 199), rng)
    pts = np.vstack([random_interior_points(CAP, rng, 5), rim_ring(CAP, 1e-5, 3)])
    stack = mfs_eval(solution, pts)
    for k, p in enumerate(pts):
        single = mfs_eval(solution, p)
        assert isinstance(single, float)
        assert single == stack[k]
    source = solution.system.sources[7]
    with pytest.raises(ValueError, match="basis evaluated at one of its source points"):
        mfs_eval(solution, source)
    with pytest.raises(ValueError, match="basis evaluated at one of its source points"):
        mfs_eval(solution, np.vstack([pts, source]))


@pytest.mark.parametrize(
    "case", ["inner-harmonic", "source-moved", "half-step-rotation", "two-sources"]
)
def test_layouts_off_a_ring_keep_the_log_columns(case):
    if case == "inner-harmonic":
        system = FundamentalSystem(np.zeros((16, 3)), "inner-harmonic", cap=CAP)
    elif case == "source-moved":
        system = FundamentalSystem(_off_lattice(sources_on_circle(CAP, 32, 0.1)), "gk")
    elif case == "half-step-rotation":
        system = FundamentalSystem(_rotated_sources(CAP, 32, 0.1, 0.5), "gk")
    else:
        system = FundamentalSystem(sources_on_circle(CAP, 2, 0.1), "gk")
    assert system._ring is None


def test_vortex_eval_at_800_sources_holds_one_chunk(rng):
    # the whole (2048, 800) basis block would be 13 MB, and its 1 - xi . eta
    # temporary as much again
    cap = SphericalCap(unit_vector([0.2, -0.1, 1.0]), 0.9)
    probes = build_cap_grid(SphericalCap(cap.center, 0.8 * cap.radius), 32, 64).nodes
    vortices = random_vortices(cap, 5, 7)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        vortex_mfs(cap, vortices, n_sources=800, probes=probes)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 4e6
