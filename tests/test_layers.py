import numpy as np
import pytest
from numpy.testing import assert_allclose

import sphaerica.layers as layers
from conftest import cap_point, random_interior_points, rim_ring
from sphaerica.geometry import (
    SphericalCap,
    boundary_frame,
    boundary_nodes,
    stereographic_project,
    unit_vector,
)
from sphaerica.harmonics import (
    InnerHarmonicIndex,
    inner_harmonic_eval,
    inner_harmonic_grad,
)
from sphaerica.layers import (
    DensitySamples,
    _extrapolate,
    double_layer,
    geodesic_curvature,
    idp_residual,
    inp_residual,
    jump_probe,
    single_layer,
    solve_idp,
    solve_inp,
)
from sphaerica.quadrature import FieldSamples, build_boundary_grid
from sphaerica.solvers import beltrami_fd, dirichlet_solve_cap, neumann_solve_cap

CAP = SphericalCap(unit_vector([0.0, 0.1, 1.0]), 0.5)


def test_density_validation():
    grid = build_boundary_grid(CAP, 32)
    with pytest.raises(ValueError):
        DensitySamples(grid, np.ones(16))
    with pytest.raises(ValueError):
        DensitySamples(grid, np.ones(32), mean_free=True)
    DensitySamples(grid, np.cos(grid.phis), mean_free=True)


class TestLayerPotentials:
    def test_single_layer_zero_density(self):
        grid = build_boundary_grid(CAP, 64)
        zero = DensitySamples(grid, np.zeros(64))
        assert single_layer(zero, CAP.center) == 0.0

    def test_single_layer_harmonic_for_mean_free_density(self):
        grid = build_boundary_grid(CAP, 256)
        density = DensitySamples(grid, np.cos(grid.phis), mean_free=True)
        xi = cap_point(CAP, 0.4, 1.1)
        fd = beltrami_fd(lambda p: single_layer(density, p), xi, 1e-3)
        assert abs(fd) < 1e-3

    def test_single_layer_constant_density_laplacian(self):
        grid = build_boundary_grid(CAP, 256)
        ones = DensitySamples(grid, np.ones(256))
        xi = cap_point(CAP, 0.3, 0.4)
        fd = beltrami_fd(lambda p: single_layer(ones, p), xi, 1e-3)
        circumference = 2 * np.pi * CAP.boundary_sine
        assert fd == pytest.approx(-circumference / (4 * np.pi), abs=1e-3)

    def test_double_layer_trichotomy(self):
        grid = build_boundary_grid(CAP, 256)
        ones = DensitySamples(grid, np.ones(256))
        assert double_layer(ones, CAP.center) == pytest.approx(0.75, abs=1e-10)
        assert double_layer(ones, -CAP.center) == pytest.approx(-0.25, abs=1e-10)
        midpoint = boundary_frame(CAP, float(grid.phis[5]) + np.pi / 256)
        assert double_layer(ones, midpoint.position) == pytest.approx(
            0.25, abs=1e-10
        )

    def test_double_layer_harmonic(self, rng):
        grid = build_boundary_grid(CAP, 256)
        density = DensitySamples(grid, 0.5 + np.sin(2 * grid.phis))
        xi = cap_point(CAP, 0.45, 2.0)
        fd = beltrami_fd(lambda p: double_layer(density, p), xi, 1e-3)
        assert abs(fd) < 1e-3


SIDE_CAPS = {
    "polar-0.5": SphericalCap(np.array([0.0, 0.0, 1.0]), 0.5),
    "tilted-0.9": SphericalCap(unit_vector([0.2, -0.1, 1.0]), 0.9),
    "south-0.7": SphericalCap(np.array([0.0, 0.0, -1.0]), 0.7),
}
# delta > 0 inside the cap (1 - xi . center = rho (1 - delta)), < 0 outside
SIGNED_DELTAS = [0.2, 1e-2, 1e-3, 1e-4, 1e-5, -1e-5, -1e-4, -1e-3, -1e-2, -0.2]
# (n, a_n, b_n) of the density sum_n a_n cos(n phi) + b_n sin(n phi)
MODES = [(0, 0.6, 0.0), (1, 1.0, -0.2), (2, 0.0, -0.4), (3, 0.3, 0.25)]


def _exact_layers(cap, pts, inside):
    """D and S of the MODES density on one side of the rim, from its exact
    harmonic extension: Re w^n and Im w^n in the side's chart, w the
    stereographic image over the rim radius. The complement cap's chart
    mirrors the rim angle, so a sine mode changes sign there."""
    chart, sign = (cap, 1.0) if inside else (cap.complement, -1.0)
    rho = chart.radius
    w = stereographic_project(chart.center, pts) / (2.0 * np.sqrt(rho / (2.0 - rho)))
    w = w[:, 0] + 1j * w[:, 1]
    s = cap.boundary_sine
    charge = 2.0 * np.pi * s * MODES[0][1]
    t = pts @ chart.center
    double = geodesic_curvature(cap) / (4.0 * np.pi) * charge + 0.5 * sign * MODES[0][1]
    single = charge / (4.0 * np.pi) * (np.log(1.0 + t) + np.log(rho) - 2.0 * np.log(2.0) + 1.0)
    for n, a, b in MODES[1:]:
        ext = a * (w**n).real + sign * b * (w**n).imag
        double = double + 0.5 * sign * ext
        single = single - s / (2.0 * n) * ext
    return double, single


class TestBothSidesOfTheRim:
    """Both layers are exact on the density's interpolant up to the curve,
    from inside through the cap's chart and from outside through the
    complement cap's."""

    @pytest.mark.parametrize("name", SIDE_CAPS)
    @pytest.mark.parametrize("m", [64, 65, 128])
    def test_exact_up_to_the_rim(self, name, m):
        cap = SIDE_CAPS[name]
        grid = build_boundary_grid(cap, m)
        q = sum(a * np.cos(n * grid.phis) + b * np.sin(n * grid.phis) for n, a, b in MODES)
        density = DensitySamples(grid, q)
        sup = np.abs(q).max()
        for delta in SIGNED_DELTAS:
            pts = rim_ring(cap, delta)
            want_d, want_s = _exact_layers(cap, pts, delta > 0)
            assert np.abs(double_layer(density, pts) - want_d).max() <= 1e-13 * sup
            assert np.abs(single_layer(density, pts) - want_s).max() <= 1e-13 * sup

    @pytest.mark.parametrize("m", [64, 65])
    def test_double_layer_on_the_curve_is_the_constant(self, m):
        grid = build_boundary_grid(CAP, m)
        density = DensitySamples(grid, 0.7 + np.cos(grid.phis) - 0.3 * np.sin(5 * grid.phis))
        k = geodesic_curvature(CAP) / (4 * np.pi) * np.sum(grid.weights * density.values)
        midpoints, _, _ = boundary_nodes(CAP, grid.phis + np.pi / m)
        for pts in (grid.nodes, midpoints):
            assert_allclose(double_layer(density, pts), k, rtol=0, atol=1e-15)

    def test_single_layer_of_a_constant_at_centre_and_antipode(self):
        # 1 - xi . eta is rho on the whole rim at the centre, 2 - rho at the
        # antipode, so G is constant along the rim there
        grid = build_boundary_grid(CAP, 64)
        ones = DensitySamples(grid, np.ones(64))
        length = 2 * np.pi * CAP.boundary_sine
        for xi, gap in ((CAP.center, CAP.radius), (-CAP.center, 2 - CAP.radius)):
            want = length * (np.log(gap) + 1 - np.log(2)) / (4 * np.pi)
            assert single_layer(ones, xi) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("name", SIDE_CAPS)
    def test_a_point_alone_gives_its_bits_in_a_stack(self, name):
        cap = SIDE_CAPS[name]
        grid = build_boundary_grid(cap, 128)
        # a large mean makes the single layer's log term carry the bits of
        # xi . zeta, which a matrix-vector product rounds with the stack
        noise = np.random.default_rng(3).normal(size=128)
        density = DensitySamples(grid, 4.0 + noise)
        pts = np.concatenate(
            [rim_ring(cap, delta, 8) for delta in SIGNED_DELTAS] + [grid.nodes[:8]]
        )
        for layer in (double_layer, single_layer):
            stack = layer(density, pts)
            assert np.array_equal(np.array([layer(density, p) for p in pts]), stack)
            assert np.array_equal(np.array([layer(density, p[None])[0] for p in pts]), stack)


class TestJumpRelations:
    def _grid(self, m=8192):
        return build_boundary_grid(CAP, m)

    def test_double_layer_value_jump(self):
        grid = self._grid()
        q = 0.7 + 0.4 * np.cos(grid.phis) - 0.25 * np.sin(2 * grid.phis)
        density = DensitySamples(grid, q)
        taus = [2.0**-k for k in range(3, 8)]
        report = jump_probe(density, 1000, taus, "double", "value")
        assert report.jump == pytest.approx(-q[1000], rel=0.02)
        # one-sided limits: -+ Q/2 around the direct boundary value
        direct = 0.5 * (report.outside_limit + report.inside_limit)
        assert report.outside_limit - direct == pytest.approx(
            -q[1000] / 2, rel=0.03
        )

    def test_single_layer_value_continuous(self):
        grid = self._grid()
        q = 0.4 * np.cos(grid.phis) - 0.3 * np.sin(3 * grid.phis)
        density = DensitySamples(grid, q, mean_free=True)
        taus = [2.0**-k for k in range(3, 8)]
        report = jump_probe(density, 777, taus, "single", "value")
        assert abs(report.jump) < 1e-3

    def test_single_layer_normal_derivative_jump(self):
        grid = self._grid()
        q = 0.4 * np.cos(grid.phis) - 0.3 * np.sin(3 * grid.phis)
        density = DensitySamples(grid, q, mean_free=True)
        taus = [2.0**-k for k in range(3, 8)]
        report = jump_probe(density, 777, taus, "single", "normal-derivative")
        assert report.jump == pytest.approx(q[777], rel=0.02)

    @staticmethod
    def _two_branch_probe(density, boundary_index, taus, potential, quantity):
        # the one- and two-sided sums written out per potential and per
        # side, as jump_probe once did; its report must keep these bits
        taus = np.asarray(sorted(np.atleast_1d(taus), reverse=True), dtype=float)
        grid = density.grid
        xi = grid.nodes[boundary_index]
        nu = grid.normals[boundary_index]
        if potential == "double":
            evaluate = lambda pts: double_layer(density, pts)
        else:
            evaluate = lambda pts: single_layer(density, pts)

        def along(alphas):
            return np.outer(np.cos(alphas), xi) + np.outer(np.sin(alphas), nu)

        alphas = np.arctan(taus)
        if quantity == "value":
            outside = evaluate(along(alphas))
            inside = evaluate(along(-alphas))
        else:
            h = alphas / 16.0
            outside = (evaluate(along(alphas + h)) - evaluate(along(alphas - h))) / (
                2.0 * h
            )
            inside = (evaluate(along(-alphas + h)) - evaluate(along(-alphas - h))) / (
                2.0 * h
            )
        return taus, outside, inside, outside - inside

    @pytest.mark.parametrize("potential", ["double", "single"])
    @pytest.mark.parametrize("quantity", ["value", "normal-derivative"])
    def test_probe_keeps_the_two_branch_bits(self, potential, quantity):
        grid = build_boundary_grid(CAP, 1024)
        q = 0.4 * np.cos(grid.phis) - 0.3 * np.sin(3 * grid.phis)
        density = DensitySamples(grid, q, mean_free=True)
        taus = [0.3, 0.5, 0.2, 0.4]
        report = jump_probe(density, 101, taus, potential, quantity)
        taus, outside, inside, diffs = self._two_branch_probe(
            density, 101, taus, potential, quantity
        )
        for got, want in (
            (report.taus, taus),
            (report.outside, outside),
            (report.inside, inside),
            (report.differences, diffs),
        ):
            assert np.array_equal(got, want)
        assert report.jump == _extrapolate(taus, diffs)
        assert report.outside_limit == _extrapolate(taus, outside)
        assert report.inside_limit == _extrapolate(taus, inside)

    @pytest.mark.parametrize("m", [512, 32768])
    @pytest.mark.parametrize("potential", ["double", "single"])
    @pytest.mark.parametrize("quantity", ["value", "normal-derivative"])
    def test_one_stacked_call_keeps_the_per_side_bits(self, m, potential, quantity):
        # jump_probe evaluates all of a probe's points in one layer call; a
        # point of the stack must get the bits of the per-side calls, down
        # to displacements far below the node spacing
        grid = build_boundary_grid(CAP, m)
        q = 0.8 + 0.5 * np.cos(grid.phis) - 0.3 * np.sin(2 * grid.phis)
        density = DensitySamples(grid, q)
        taus = np.logspace(-1, -9, 9)
        report = jump_probe(density, m // 5, taus, potential, quantity)
        _, outside, inside, _ = self._two_branch_probe(
            density, m // 5, taus, potential, quantity
        )
        assert np.array_equal(report.outside, outside)
        assert np.array_equal(report.inside, inside)

    def test_probe_checks_before_evaluating_the_module_layer(self, monkeypatch):
        # the potential is looked up at call time, so a wrapper installed on
        # the module is what runs, once per probe with all its points; a bad
        # quantity is rejected before any call
        calls = []

        def counted(density, pts):
            calls.append(len(pts))
            return single_layer(density, pts)

        monkeypatch.setattr(layers, "single_layer", counted)
        density = DensitySamples(build_boundary_grid(CAP, 1024), np.ones(1024))
        with pytest.raises(ValueError, match="quantity must be"):
            jump_probe(density, 0, [0.5, 0.25, 0.125], "single", "flux")
        assert calls == []
        jump_probe(density, 0, [0.5, 0.25, 0.125], "single", "normal-derivative")
        assert calls == [12]

    @pytest.mark.parametrize(
        "taus,potential,quantity,message",
        [
            ([0.25, 0.125], "double", "value", "at least three displacements"),
            ([0.5, 0.25, 0.125], "triple", "value", "potential must be"),
            ([0.5, 0.25, 0.125], "double", "flux", "quantity must be"),
        ],
    )
    def test_probe_rejects_bad_requests(self, taus, potential, quantity, message):
        density = DensitySamples(build_boundary_grid(CAP, 1024), np.ones(1024))
        with pytest.raises(ValueError, match=message):
            jump_probe(density, 0, taus, potential, quantity)

    @pytest.mark.parametrize(
        "index,taus,message",
        [
            # -1 once probed node m - 1, m raised IndexError
            (-1, [0.5, 0.25, 0.125], "boundary index"),
            (64, [0.5, 0.25, 0.125], "boundary index"),
            # a repeated tau once made the fit singular (LinAlgError), a
            # negative one swapped the sides (+0.822 here, for -1.053), a
            # zero one read a jump of 0 and a NaN one a NaN jump
            (5, [0.5, 0.25, 0.25], "distinct"),
            (5, [0.5, 0.25, -0.02], "positive"),
            (5, [0.5, 0.25, 0.0], "positive"),
            (5, [0.5, 0.25, np.nan], "finite"),
            (5, [np.inf, 0.25, 0.125], "finite"),
        ],
    )
    def test_probe_rejects_bad_nodes_and_displacements(self, index, taus, message):
        cap = SphericalCap(np.array([0.0, 0.0, 1.0]), 0.9)
        grid = build_boundary_grid(cap, 64)
        density = DensitySamples(grid, 0.7 + 0.4 * np.cos(grid.phis))
        with pytest.raises(ValueError, match=message):
            jump_probe(density, index, taus)
        for node in (0, 63):  # the ends of the range are probed
            assert np.isfinite(jump_probe(density, node, [0.5, 0.25, 0.125]).jump)


class TestDirichletEquation:
    def test_constant_data_gives_constant_potential(self, rng):
        grid = build_boundary_grid(CAP, 128)
        solution = solve_idp(grid, lambda p: np.ones(len(p)))
        pts = random_interior_points(CAP, rng, 20)
        assert np.abs(solution(pts) - 1.0).max() < 1e-10
        assert idp_residual(solution, lambda p: np.ones(len(p))) < 1e-13

    def test_great_circle_density_is_twice_data(self):
        hemi = SphericalCap(unit_vector([0.2, -0.1, 0.95]), 1.0)
        grid = build_boundary_grid(hemi, 64)
        data = np.cos(3 * grid.phis)
        solution = solve_idp(grid, data)
        assert_allclose(solution.density.values, 2.0 * data, atol=1e-14)

    def test_matches_closed_form_solver(self, rng):
        grid = build_boundary_grid(CAP, 512)
        idx = InnerHarmonicIndex(CAP, 2, 1)
        data = lambda p: inner_harmonic_eval(idx, p)
        solution = solve_idp(grid, data)
        pts = random_interior_points(CAP, rng, 25, max_fraction=0.9)
        nystrom = solution(pts)
        closed = dirichlet_solve_cap(CAP, data, pts, m=512)
        assert np.abs(nystrom - closed).max() < 1e-7
        assert np.abs(nystrom - inner_harmonic_eval(idx, pts)).max() < 1e-7
        assert idp_residual(solution, data) < 1e-10


class TestNeumannEquation:
    def test_zero_data(self):
        grid = build_boundary_grid(CAP, 64)
        solution = solve_inp(grid, np.zeros(64))
        assert_allclose(solution.density.values, 0.0, atol=1e-15)
        assert solution(CAP.center) == 0.0

    def test_compatibility_rejected(self):
        grid = build_boundary_grid(CAP, 64)
        with pytest.raises(ValueError):
            solve_inp(grid, np.ones(64))

    def test_density_mean_free_and_reproduction(self, rng):
        grid = build_boundary_grid(CAP, 512)
        idx = InnerHarmonicIndex(CAP, 1, 1)
        data = np.sum(grid.normals * inner_harmonic_grad(idx, grid.nodes), axis=1)
        solution = solve_inp(grid, data)
        assert abs(np.sum(grid.weights * solution.density.values)) < 1e-10
        assert inp_residual(solution, data) < 1e-12
        pts = random_interior_points(CAP, rng, 25, max_fraction=0.9)
        recovered = solution(pts)
        truth = inner_harmonic_eval(idx, pts)
        deviation = (recovered - truth) - np.mean(recovered - truth)
        assert np.abs(deviation).max() < 1e-6


class TestZeroIntegralBound:
    """Solvability and mean-free checks bound the integral relative to the
    data's size: tol max(1, sup |v|)."""

    POLAR = SphericalCap(np.array([0.0, 0.0, 1.0]), 0.9)

    def _data(self):
        # normal derivative of inner harmonic (1, 1): its integral is at
        # rounding level (about -4e-16)
        grid = build_boundary_grid(self.POLAR, 512)
        idx = InnerHarmonicIndex(self.POLAR, 1, 1)
        data = np.sum(grid.normals * inner_harmonic_grad(idx, grid.nodes), axis=1)
        return grid, data

    @pytest.mark.parametrize("factor", [1e6, 1e9, 1e12])
    def test_scaled_data_accepted(self, factor):
        grid, data = self._data()
        xi = cap_point(self.POLAR, 0.4, 0.7)
        base = solve_inp(grid, data)(xi)
        scaled = solve_inp(grid, factor * data)
        assert abs(scaled(xi) / factor - base) <= 1e-12 * abs(base)
        solve = lambda v: neumann_solve_cap(self.POLAR, FieldSamples(grid, v), 0.0, xi)
        base = solve(data)
        assert abs(solve(factor * data) / factor - base) <= 1e-12 * abs(base)

    @pytest.mark.parametrize("factor", [1.0, 1e9])
    def test_offset_data_rejected(self, factor):
        grid, data = self._data()
        shifted = factor * (data + 1e-6 * np.abs(data).max())
        with pytest.raises(ValueError, match="violates solvability"):
            solve_inp(grid, shifted)
        with pytest.raises(ValueError, match="violates solvability"):
            neumann_solve_cap(
                self.POLAR, FieldSamples(grid, shifted), 0.0, self.POLAR.center
            )
        with pytest.raises(ValueError, match="mean-free"):
            DensitySamples(grid, shifted, mean_free=True)


def test_boundary_log_quadrature_eigenvalues():
    # on-curve single layer acts on cos(k phi) with eigenvalue -s/(2k), at
    # even and odd node counts
    s = CAP.boundary_sine
    for m in (256, 255):
        grid = build_boundary_grid(CAP, m)
        for k in (1, 4, 11):
            density = DensitySamples(grid, np.cos(k * grid.phis), mean_free=True)
            on_curve = single_layer(density, grid.nodes)
            assert_allclose(on_curve, -s / (2 * k) * np.cos(k * grid.phis), atol=1e-13)


def test_double_layer_kernel_constant_matches_curvature():
    kg = geodesic_curvature(CAP)
    assert kg == pytest.approx((1 - CAP.radius) / CAP.boundary_sine, abs=1e-15)
    grid = build_boundary_grid(CAP, 64)
    from sphaerica.kernels import fundamental_deriv

    bp = boundary_frame(CAP, 0.3)
    value = fundamental_deriv(grid.nodes[17], bp, "normal")
    assert value == pytest.approx(kg / (4 * np.pi), abs=1e-13)
