import numpy as np
import pytest
from numpy.testing import assert_allclose

from sphaerica.geometry import SphericalCap, lonlat_vector, unit_vector
from sphaerica.harmonics import coefficients_from_entries, sh_eval, sh_grad_eval, synth_field
from sphaerica.layers import DensitySamples, solve_idp, solve_inp
from sphaerica.mfs import FundamentalSystem, mfs_fit, sources_on_circle
from sphaerica.quadrature import (
    FieldSamples,
    boundary_data,
    build_boundary_grid,
    build_cap_grid,
    build_sphere_grid,
    integrate,
    mean_value,
    sample,
)
from sphaerica.solvers import SolveReport, dirichlet_solve_cap

CAP = SphericalCap(unit_vector([0.3, -0.1, 0.9]), 0.7)


def test_weight_sums():
    cap_grid = build_cap_grid(CAP, 24, 48)
    assert integrate(cap_grid, sample(cap_grid, lambda p: np.ones(len(p)))) == (
        pytest.approx(2 * np.pi * CAP.radius, rel=1e-14)
    )
    sphere = build_sphere_grid(24, 48)
    assert np.sum(sphere.weights) == pytest.approx(4 * np.pi, rel=1e-14)
    boundary = build_boundary_grid(CAP, 32)
    assert np.sum(boundary.weights) == pytest.approx(
        2 * np.pi * CAP.boundary_sine, rel=1e-14
    )
    assert (cap_grid.weights > 0).all()
    assert (sphere.weights > 0).all()


def test_cap_polar_moment():
    # integral of zeta . eta over the cap: 2 pi int_{1-rho}^1 t dt
    grid = build_cap_grid(CAP, 16, 32)
    value = integrate(grid, sample(grid, lambda p: p @ CAP.center))
    rho = CAP.radius
    assert value == pytest.approx(np.pi * rho * (2.0 - rho), rel=1e-13)


def test_sphere_degree_two_moment():
    grid = build_sphere_grid(16, 32)
    a = unit_vector([1.0, 2.0, -0.5])
    value = integrate(grid, sample(grid, lambda p: (p @ a) ** 2))
    assert value == pytest.approx(4 * np.pi / 3, rel=1e-13)


@pytest.mark.parametrize("n", range(1, 11))
def test_sphere_harmonic_means_vanish(n):
    grid = build_sphere_grid(24, 48)
    c = coefficients_from_entries(n, {(n, min(n + 1, 2 * n + 1)): 1.0})
    assert abs(integrate(grid, sample(grid, lambda p: sh_eval(c, p)))) < 1e-12


def test_boundary_rule_trig_exactness():
    grid = build_boundary_grid(CAP, 16)
    a = np.array([0.3, 1.0, -0.2])
    tangential_flux = np.sum(grid.weights * (grid.tangents @ a))
    assert abs(tangential_flux) < 1e-13
    for k in (1, 5, 15):
        assert abs(np.sum(grid.weights * np.cos(k * grid.phis))) < 1e-12


def test_integrate_vector_values_and_mismatch():
    grid = build_cap_grid(CAP, 8, 16)
    vec = sample(grid, lambda p: p)
    total = integrate(grid, vec)
    assert total.shape == (3,)
    other = build_cap_grid(CAP, 10, 16)
    with pytest.raises(ValueError):
        integrate(other, vec)
    # same construction, different object: accepted
    assert np.array_equal(integrate(build_cap_grid(CAP, 8, 16), vec), total)


def test_integrate_rejects_samples_of_a_same_size_grid():
    cap_grid = build_cap_grid(CAP, 8, 16)
    ones = sample(cap_grid, lambda p: np.ones(len(p)))
    for other in (build_sphere_grid(8, 16), build_cap_grid(CAP.complement, 8, 16)):
        assert len(other) == len(cap_grid)
        with pytest.raises(ValueError):
            integrate(other, ones)


def test_field_samples_validation():
    grid = build_cap_grid(CAP, 8, 16)
    with pytest.raises(ValueError):
        FieldSamples(grid, np.ones(3))
    radial = grid.nodes.copy()
    with pytest.raises(ValueError):
        FieldSamples(grid, radial, tangential=True)
    tangent = np.cross(grid.nodes, np.array([0.0, 0.0, 1.0]))
    FieldSamples(grid, tangent, tangential=True)


def test_tangential_bound_is_relative_to_the_field():
    # a large tangential field carries a radial part of rounding size
    # relative to its magnitude, not below an absolute 1e-10
    grid = build_cap_grid(CAP, 16, 32)
    big = 1e8 * sh_grad_eval(synth_field(4, 1, 10), grid.nodes)
    assert np.abs(np.sum(big * grid.nodes, axis=1)).max() >= 1e-10
    FieldSamples(grid, big, tangential=True)
    sup = np.linalg.norm(big, axis=1).max()
    with pytest.raises(ValueError, match="radial part"):
        FieldSamples(grid, big + 1e-6 * sup * grid.nodes, tangential=True)


def test_quadrature_convergence_smooth_integrand():
    a = unit_vector([0.2, 0.4, 0.88])
    coarse = build_cap_grid(CAP, 24, 48)
    fine = build_cap_grid(CAP, 48, 96)
    v1 = integrate(coarse, sample(coarse, lambda p: np.exp(p @ a)))
    v2 = integrate(fine, sample(fine, lambda p: np.exp(p @ a)))
    assert abs(v1 - v2) < 1e-10


def test_determinism_bit_identical():
    g1 = build_cap_grid(CAP, 20, 40)
    g2 = build_cap_grid(CAP, 20, 40)
    assert np.array_equal(g1.nodes, g2.nodes)
    assert np.array_equal(g1.weights, g2.weights)
    s1 = integrate(g1, sample(g1, lambda p: np.sin(3 * p[:, 0]) + p[:, 2] ** 2))
    s2 = integrate(g2, sample(g2, lambda p: np.sin(3 * p[:, 0]) + p[:, 2] ** 2))
    assert s1 == s2


def test_mean_value_of_constant():
    grid = build_cap_grid(CAP, 12, 24)
    assert mean_value(sample(grid, lambda p: np.full(len(p), 2.5))) == pytest.approx(
        2.5, rel=1e-14
    )


def test_grid_size_preconditions():
    with pytest.raises(ValueError):
        build_cap_grid(CAP, 1, 16)
    with pytest.raises(ValueError):
        build_sphere_grid(8, 3)
    with pytest.raises(ValueError):
        build_boundary_grid(CAP, 4)


def test_node_indices_finds_every_node():
    tilted = SphericalCap(unit_vector([0.2, -0.1, 1.0]), 0.9)
    for grid in (build_sphere_grid(24, 48), build_cap_grid(tilted, 24, 48)):
        idx = np.arange(len(grid))
        assert np.array_equal(grid.node_indices(grid.nodes), idx)
        assert np.array_equal(grid.node_indices(grid.nodes[::-7]), idx[::-7])
        # a point a little off its node is no node
        nudged = unit_vector(grid.nodes + 1e-7 * np.array([0.6, -0.8, 0.0]))
        assert grid.node_indices(nudged) is None
        assert grid.node_indices(nudged[:1]) is None
    bgrid = build_boundary_grid(CAP, 16)
    assert bgrid.node_indices(bgrid.nodes) is None


def test_cap_circles_share_the_area_grids_axis():
    # the CLI's default cap: rotation_to_pole snaps its center
    # (6.1e-17, 0, 1) to E3, the axis of its area grids; the boundary nodes
    # and the MFS sources are circles about that axis, bit for bit
    cap = SphericalCap(lonlat_vector(0.0, 90.0), 0.9)
    assert cap.center[0] != 0.0
    assert np.array_equal(build_cap_grid(cap, 16, 32).polar_frame, np.eye(3))
    for rho, pts in (
        (cap.radius, build_boundary_grid(cap, 512).nodes),
        (cap.radius + 0.005, sources_on_circle(cap, 64)),
    ):
        phis = 2.0 * np.pi * np.arange(len(pts)) / len(pts)
        circle = np.sqrt(rho * (2.0 - rho)) * np.column_stack([np.cos(phis), np.sin(phis)])
        assert np.all(pts[:, 2] == 1.0 - rho)
        assert np.array_equal(pts[:, :2], circle)


def _spoil(values, bad):
    """values with the first row scaled by bad; bad = 1.0 keeps them valid."""
    values = np.array(values, dtype=float)
    with np.errstate(invalid="ignore"):
        values[0] *= bad
    return values


_AREA = build_cap_grid(CAP, 4, 8)
_BOUNDARY = build_boundary_grid(CAP, 16)
_TANGENTIAL = np.cross(_AREA.nodes, CAP.center)
_CONTAINERS = {
    "field-scalar": lambda bad: FieldSamples(_AREA, _spoil(np.ones(len(_AREA)), bad)),
    "field-vector": lambda bad: FieldSamples(_AREA, _spoil(_AREA.nodes, bad)),
    "field-tangential": lambda bad: FieldSamples(
        _AREA, _spoil(_TANGENTIAL, bad), tangential=True
    ),
    "density-scalar": lambda bad: DensitySamples(_BOUNDARY, _spoil(np.ones(16), bad)),
    "report-scalar": lambda bad: SolveReport(
        _AREA.nodes, _spoil(np.ones(len(_AREA)), bad), {}
    ),
    "report-vector": lambda bad: SolveReport(_AREA.nodes, _spoil(_AREA.nodes, bad), {}),
    "report-diagnostic": lambda bad: SolveReport(
        _AREA.nodes, np.ones(len(_AREA)), {"residual": 0.5 * bad}
    ),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("container", sorted(_CONTAINERS))
def test_containers_reject_non_finite_values(container, bad):
    build = _CONTAINERS[container]
    build(1.0)
    with pytest.raises(ValueError, match="finite"):
        build(bad)


@pytest.mark.parametrize(
    "shape", [(), (len(_AREA), 2), (len(_AREA), 3, 1)], ids=["0-d", "two-columns", "3-d"]
)
def test_field_samples_take_one_scalar_or_3_vector_per_node(shape):
    with pytest.raises(ValueError, match="shape"):
        FieldSamples(_AREA, np.ones(shape))


def test_boundary_data_inputs_and_rejections():
    grid = build_boundary_grid(CAP, 16)
    values = grid.nodes[:, 0]
    assert np.array_equal(boundary_data(grid, lambda p: p[:, 0]), values)
    assert np.array_equal(boundary_data(grid, values), values)
    assert np.array_equal(boundary_data(grid, FieldSamples(grid, values)), values)
    # samples belong to a grid whose nodes are theirs: one built the same way
    equal = FieldSamples(build_boundary_grid(CAP, 16), values)
    assert np.array_equal(boundary_data(grid, equal), values)
    with pytest.raises(ValueError, match="boundary grid"):
        boundary_data(build_cap_grid(CAP, 4, 8), values)
    other_cap = SphericalCap(CAP.center, 0.5 * CAP.radius)
    for other in (build_boundary_grid(CAP, 32), build_boundary_grid(other_cap, 16)):
        with pytest.raises(ValueError, match="collocation grid"):
            boundary_data(grid, FieldSamples(other, other.nodes[:, 0]))
    with pytest.raises(ValueError, match="shape"):
        boundary_data(grid, values[:-1])
    with pytest.raises(ValueError, match="shape"):
        boundary_data(grid, lambda p: p)
    with pytest.raises(ValueError, match="finite"):
        boundary_data(grid, lambda p: np.full(len(p), np.inf))


@pytest.mark.parametrize("consumer", ["dirichlet_solve_cap", "solve_idp", "solve_inp", "mfs_fit"])
def test_vector_boundary_samples_are_rejected(consumer):
    grid = build_boundary_grid(CAP, 16)
    vector = FieldSamples(grid, grid.nodes)
    system = FundamentalSystem(sources_on_circle(CAP, 8), "gk")
    calls = {
        "dirichlet_solve_cap": lambda: dirichlet_solve_cap(CAP, vector, CAP.center),
        "solve_idp": lambda: solve_idp(grid, vector),
        "solve_inp": lambda: solve_inp(grid, vector),
        "mfs_fit": lambda: mfs_fit(system, grid, vector),
    }
    with pytest.raises(ValueError, match="boundary data shape"):
        calls[consumer]()
