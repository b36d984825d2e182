import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import cap_point, random_interior_points, tangent_basis
from sphaerica.apps import (
    PhysicalConstants,
    VortexSet,
    geo_forward,
    geo_reconstruct,
    mfs_layout,
    random_vortices,
    vd_forward,
    vd_reconstruct,
    vortex_boundary_data,
    vortex_exact,
    vortex_mfs,
)
from sphaerica.geometry import SphericalCap, boundary_nodes, unit_vector
from sphaerica.harmonics import coefficients_from_entries, sh_eval, synth_field
from sphaerica.quadrature import build_cap_grid, mean_value, sample

CAP = SphericalCap(unit_vector([-0.3, 0.2, 0.93]), 0.8)
POLAR = SphericalCap(np.array([0.0, 0.0, 1.0]), 0.9)


def test_constants_validation():
    with pytest.raises(ValueError):
        PhysicalConstants(radius=-1.0)
    defaults = PhysicalConstants()
    assert defaults.gm == 1.0


class TestVerticalDeflections:
    def test_constant_potential_gives_zero_field(self):
        grid = build_cap_grid(CAP, 12, 24)
        c = coefficients_from_entries(0, {(0, 1): 2.0})
        _, theta = vd_forward(c, CAP, grid)
        assert_allclose(theta.values, 0.0, atol=1e-14)

    def test_field_is_tangential(self):
        grid = build_cap_grid(CAP, 16, 32)
        c = synth_field(7, 3, 12)
        _, theta = vd_forward(c, CAP, grid)
        assert np.abs(np.sum(theta.values * grid.nodes, axis=1)).max() < 1e-12

    def test_round_trip_and_scale_monotonicity(self, rng):
        grid = build_cap_grid(CAP, 64, 128)
        c = synth_field(7, 3, 15)
        t_samples, theta = vd_forward(c, CAP, grid)
        t_mean = mean_value(t_samples)
        inner = SphericalCap(CAP.center, 0.8 * CAP.radius)
        keep = np.flatnonzero(inner.contains(grid.nodes))
        sel = rng.choice(keep, 120, replace=False,
                         p=grid.weights[keep] / grid.weights[keep].sum())
        pts = grid.nodes[sel]
        errors = {}
        for scale in (6, 9, 12):
            report = vd_reconstruct(
                theta, scale, t_mean, pts, oracle=lambda p: sh_eval(c, p)
            )
            errors[scale] = report.diagnostics["rel_l2_error"]
        assert errors[6] > errors[9] > errors[12]
        assert errors[12] < 0.02

    def test_zero_field_returns_mean(self):
        grid = build_cap_grid(CAP, 12, 24)
        from sphaerica.quadrature import FieldSamples

        theta = FieldSamples(grid, np.zeros((len(grid), 3)), tangential=True)
        report = vd_reconstruct(theta, 8, 1.5, CAP.center)
        assert report.values[0] == pytest.approx(1.5, abs=1e-15)

    def test_constant_scaling_is_linear(self):
        grid = build_cap_grid(CAP, 16, 32)
        c = synth_field(3, 2, 8)
        _, theta_unit = vd_forward(c, CAP, grid)
        _, theta_scaled = vd_forward(
            c, CAP, grid, PhysicalConstants(radius=2.0, gm=8.0)
        )
        assert_allclose(theta_scaled.values, theta_unit.values / 4.0, atol=1e-14)


class TestGeostrophic:
    def test_equator_guard(self):
        straddling = SphericalCap(unit_vector([1.0, 0.0, 0.2]), 0.5)
        grid = build_cap_grid(straddling, 8, 16)
        with pytest.raises(ValueError):
            geo_forward(synth_field(1, 1, 4), straddling, grid)

    def test_constant_height_gives_zero_flow(self):
        cap = SphericalCap(np.array([0.0, 0.0, 1.0]), 0.5)
        grid = build_cap_grid(cap, 12, 24)
        c = coefficients_from_entries(0, {(0, 1): 1.0})
        _, flow = geo_forward(c, cap, grid)
        assert_allclose(flow.values, 0.0, atol=1e-14)

    def test_weighted_flow_is_divergence_free(self, rng):
        # z * v is proportional to the curl gradient, whose surface
        # divergence vanishes; checked with a central-difference divergence
        cap = SphericalCap(np.array([0.0, 0.0, 1.0]), 0.5)
        c = synth_field(5, 2, 8)
        from sphaerica.harmonics import sh_curl_eval

        worst = 0.0
        for _ in range(5):
            q = cap_point(cap, 0.7 * rng.random(), rng.uniform(0, 2 * np.pi))
            e1, e2 = tangent_basis(q)
            h = 1e-4
            div = 0.0
            for e in (e1, e2):
                plus = unit_vector(q + h * e)
                minus = unit_vector(q - h * e)
                div += float(
                    (sh_curl_eval(c, plus) - sh_curl_eval(c, minus)) @ e
                ) / (2 * h)
            worst = max(worst, abs(div))
        assert worst < 1e-3

    def test_round_trip(self, rng):
        cap = SphericalCap(unit_vector([0.25, -0.2, 0.95]), 0.5)
        grid = build_cap_grid(cap, 64, 128)
        c = synth_field(8, 3, 15)
        h_samples, flow = geo_forward(c, cap, grid)
        h_mean = mean_value(h_samples)
        pts = random_interior_points(cap, rng, 80)
        report = geo_reconstruct(
            flow, 12, h_mean, pts, oracle=lambda p: sh_eval(c, p)
        )
        assert report.diagnostics["rel_l2_error"] < 0.02

    def test_large_gravity_only_rescales(self, rng):
        # the constants rescale the flow linearly; a flow of size ~1e12
        # stays tangential and recovers the same height
        cap = SphericalCap(unit_vector([0.25, -0.2, 0.95]), 0.5)
        grid = build_cap_grid(cap, 24, 48)
        c = synth_field(8, 3, 10)
        pts = random_interior_points(cap, rng, 20)
        errors = []
        for constants in (PhysicalConstants(), PhysicalConstants(gravity=1e12)):
            h_samples, flow = geo_forward(c, cap, grid, constants)
            report = geo_reconstruct(
                flow, 8, mean_value(h_samples), pts, constants,
                oracle=lambda p: sh_eval(c, p),
            )
            errors.append(report.diagnostics["rel_l2_error"])
        assert errors[1] == pytest.approx(errors[0], rel=1e-12)


class TestVortices:
    def test_vortex_set_validation(self):
        with pytest.raises(ValueError):
            VortexSet(
                np.array([[0, 0, 1.0], [0, 0, 1.0]]),
                np.array([1.0, -1.0]),
                np.array([0, 0, -1.0]),
            )
        with pytest.raises(ValueError):
            VortexSet(np.array([[0, 0, 1.0]]), np.array([1.0, 2.0]), -np.eye(3)[2])

    @pytest.mark.parametrize("count", [0, -2])
    def test_random_vortices_rejects_counts_below_one(self, count):
        with pytest.raises(ValueError, match="vortex count N"):
            random_vortices(POLAR, count, 1)

    def test_mfs_layout_sizes_and_minimum(self):
        system, grid = mfs_layout(POLAR, 200, 0.005, -POLAR.center)
        assert system.size == 200 and len(system.sources) == 199
        assert len(grid) == 8 * 199
        with pytest.raises(ValueError, match="source count M"):
            mfs_layout(POLAR, 1, 0.005, -POLAR.center)

    def test_random_vortices_deterministic_and_interior(self):
        a = random_vortices(POLAR, 5, 42)
        b = random_vortices(POLAR, 5, 42)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.strengths, b.strengths)
        assert POLAR.contains(a.centers).all()

    def test_exact_stream_function_vanishes_on_boundary(self):
        vortices = random_vortices(POLAR, 3, 7)
        pos, _, _ = boundary_nodes(POLAR, np.linspace(0, 2 * np.pi, 16, endpoint=False))
        assert np.abs(vortex_exact(POLAR, vortices, pos)).max() < 1e-12

    def test_single_vortex_hemisphere_closed_form(self):
        hemi = SphericalCap(np.array([0.0, 0.0, 1.0]), 1.0)
        vortices = VortexSet(
            np.array([[0.0, 0.0, 1.0]]), np.array([1.0]), np.array([0.0, 0.0, -1.0])
        )
        xi = cap_point(hemi, 0.6, 1.0)
        expected = (np.log1p(-xi[2]) - np.log1p(xi[2])) / (4 * np.pi)
        assert vortex_exact(hemi, vortices, xi) == pytest.approx(expected, abs=1e-14)

    def test_strength_linearity(self):
        base = random_vortices(POLAR, 4, 3)
        doubled = VortexSet(
            base.centers, 2.0 * base.strengths, base.regularization_point
        )
        xi = cap_point(POLAR, 0.5, 2.0)
        assert vortex_exact(POLAR, doubled, xi) == pytest.approx(
            2.0 * vortex_exact(POLAR, base, xi), abs=1e-14
        )

    def test_boundary_data_construction(self):
        vortices = random_vortices(POLAR, 2, 11)
        data = vortex_boundary_data(vortices)
        pos, _, _ = boundary_nodes(POLAR, np.array([0.4, 2.2]))
        values = data(pos)
        from sphaerica.kernels import fundamental

        manual = np.zeros(2)
        for i in range(2):
            for center, strength in zip(vortices.centers, vortices.strengths):
                manual[i] += strength * fundamental(float(pos[i] @ center))
                manual[i] -= (
                    strength
                    / (4 * np.pi)
                    * np.log(1.0 - float(pos[i] @ vortices.regularization_point))
                )
        assert_allclose(values, manual, atol=1e-15)

    def test_mfs_reconstruction_accuracy_and_m_monotonicity(self, rng):
        vortices = random_vortices(POLAR, 5, 42)
        pts = random_interior_points(POLAR, rng, 100)
        errors = {}
        for count in (50, 100, 200):
            report = vortex_mfs(POLAR, vortices, n_sources=count, probes=pts)
            errors[count] = report.diagnostics["rel_sup_error"]
        assert errors[50] > errors[100] > errors[200]
        assert errors[200] < 1e-4

    def test_snug_source_circle_stays_usable(self, rng):
        vortices = random_vortices(POLAR, 5, 42)
        pts = random_interior_points(POLAR, rng, 60)
        report = vortex_mfs(
            POLAR, vortices, n_sources=200, radius_offset=5e-6, probes=pts
        )
        assert report.diagnostics["rel_sup_error"] < 1e-2
