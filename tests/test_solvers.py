from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import cap_point, random_interior_points, rim_ring
from sphaerica._convolution import _dense
from sphaerica.apps import vd_reconstruct
from sphaerica.decomposition import decompose_cap_at
from sphaerica.geometry import (
    SphericalCap,
    boundary_nodes,
    stereographic_inverse,
    unit_vector,
)
from sphaerica.harmonics import (
    InnerHarmonicIndex,
    ShCoefficients,
    coefficients_from_entries,
    inner_harmonic_eval,
    inner_harmonic_grad,
    sh_eval,
    sh_grad_eval,
    synth_field,
)
from sphaerica.kernels import KIND_FUNDAMENTAL, KernelSpec, kernel_value_matrix
from sphaerica.quadrature import (
    FieldSamples,
    build_boundary_grid,
    build_cap_grid,
    build_sphere_grid,
    integrate,
    mean_value,
    sample,
)
from sphaerica.solvers import (
    _cap_boundary_samples,
    _rim_coefficients,
    _rim_series,
    beltrami_fd,
    default_scale,
    dirichlet_solve_cap,
    invert_gradient,
    max_principle_check,
    mvp_residual,
    neumann_solve_cap,
    poisson_solve_cap,
    surface_potential,
)

CAP = SphericalCap(unit_vector([0.2, 0.0, 1.0]), 0.9)


def laplacian_coeffs(c: ShCoefficients) -> ShCoefficients:
    degrees = np.arange(c.l_max + 1, dtype=float)
    return ShCoefficients(c.l_max, c.coeffs * (-degrees * (degrees + 1.0))[:, None])


class TestSurfacePotential:
    def test_annihilates_constants_on_sphere(self):
        grid = build_sphere_grid(32, 64)
        ones = sample(grid, lambda p: np.ones(len(p)))
        value = surface_potential(ones, grid.nodes[100], scale=12)
        assert abs(value) < 1e-14

    def test_spectral_inversion_on_sphere(self, rng):
        grid = build_sphere_grid(48, 96)
        c = coefficients_from_entries(2, {(2, 2): 1.0})
        h = sample(grid, lambda p: sh_eval(c, p))
        idx = rng.choice(len(grid), 24, p=grid.weights / (4 * np.pi), replace=False)
        pts = grid.nodes[idx]
        values = surface_potential(h, pts, scale=12)
        assert np.abs(values + sh_eval(c, pts) / 6.0).max() < 5e-6

    def test_transform_at_sphere_nodes_and_ignores_xi_values(self):
        grid = build_sphere_grid(8, 16)
        c = synth_field(3, 0, 4)
        h = sample(grid, lambda p: sh_eval(c, p))
        idx = np.arange(0, len(grid), 5)
        pts = grid.nodes[idx]
        values = surface_potential(h, pts, scale=8)
        for xi_values in (h.values[idx], np.ones(3), np.full(len(idx), np.nan)):
            again = surface_potential(h, pts, scale=8, xi_values=xi_values)
            assert np.array_equal(again, values)
        # degree n scales by -1/(n (n + 1)) and the mean drops, exactly in
        # the band (degree 7 here); the scale is ignored on sphere grids
        u = ShCoefficients(4, c.coeffs * np.array([0, -1 / 2, -1 / 6, -1 / 12, -1 / 20])[:, None])
        assert np.abs(values - sh_eval(u, pts)).max() <= 1e-13 * np.abs(values).max()
        assert np.array_equal(surface_potential(h, pts, scale=3), values)
        # off the nodes the same coefficients are evaluated by sh_eval
        off = pts + 1e-3 * np.array([0.6, -0.8, 0.0])
        off /= np.linalg.norm(off, axis=1, keepdims=True)
        assert np.abs(surface_potential(h, off) - sh_eval(u, off)).max() <= 1e-13 * np.abs(values).max()
        # off the nodes of a cap grid: the plain sum
        cap_grid = build_cap_grid(CAP, 8, 16)
        h = sample(cap_grid, lambda p: sh_eval(c, p))
        kernel = partial(kernel_value_matrix, KernelSpec(KIND_FUNDAMENTAL, scale=8))
        off = random_interior_points(CAP, np.random.default_rng(5), 12)
        assert np.array_equal(surface_potential(h, off, scale=8), _dense(kernel, h, off))

    def test_cap_exterior_laplacian_identity(self):
        grid = build_cap_grid(CAP, 48, 96)
        c = synth_field(5, 1, 8)
        h = sample(grid, lambda p: sh_eval(c, p))
        total = integrate(grid, h)
        outside = -CAP.center
        fd = beltrami_fd(
            lambda p: surface_potential(h, p, scale=10), outside, h=1e-3
        )
        assert fd == pytest.approx(-total / (4 * np.pi), abs=1e-3)


class TestBeltramiProbe:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_eigenvalues(self, n):
        c = coefficients_from_entries(n, {(n, n): 1.0})
        xi = unit_vector([0.3, -0.4, 0.85])
        value = sh_eval(c, xi)
        fd = beltrami_fd(lambda p: sh_eval(c, p), xi, 1e-3)
        assert abs(fd + n * (n + 1) * value) < 1e-3 * abs(n * (n + 1) * value)

    def test_constant_and_linear(self):
        xi = unit_vector([0.1, 0.8, 0.5])
        assert abs(beltrami_fd(lambda p: np.full(len(p), 3.0), xi, 1e-3)) < 1e-8
        a = unit_vector([0.5, -1.0, 0.2])
        fd = beltrami_fd(lambda p: p @ a, xi, 1e-3)
        assert fd == pytest.approx(-2.0 * float(xi @ a), abs=1e-4)

    def test_step_bounds(self):
        with pytest.raises(ValueError):
            beltrami_fd(lambda p: np.ones(len(p)), unit_vector([0, 0, 1.0]), 1.0)


class TestPoisson:
    def test_zero_rhs(self):
        grid = build_cap_grid(CAP, 16, 32)
        zeros = sample(grid, lambda p: np.zeros(len(p)))
        xi = cap_point(CAP, 0.5, 1.0)
        assert poisson_solve_cap(CAP, zeros, -CAP.center, xi) == 0.0

    def test_mean_free_rhs_reduces_to_potential(self):
        grid = build_cap_grid(CAP, 24, 48)
        c = coefficients_from_entries(3, {(3, 3): 1.0})
        raw = sample(grid, lambda p: sh_eval(c, p))
        shifted = FieldSamples(grid, raw.values - mean_value(raw))
        xi = cap_point(CAP, 0.4, 2.0)
        a = poisson_solve_cap(CAP, shifted, -CAP.center, xi, scale=8)
        b = surface_potential(shifted, xi, scale=8)
        assert a == pytest.approx(b, abs=1e-12)

    def test_interior_point_required_for_xi_bar(self):
        grid = build_cap_grid(CAP, 8, 16)
        zeros = sample(grid, lambda p: np.zeros(len(p)))
        with pytest.raises(ValueError):
            poisson_solve_cap(CAP, zeros, CAP.center, CAP.center)

    def test_samples_of_another_cap_rejected(self):
        # constant data on the polar rho = 0.5 cap: with that cap the value at
        # the pole is -0.6931; a wider cap of the same center, another center
        # or a boundary grid of the cap must not give a finite wrong number
        pole = np.array([0.0, 0.0, 1.0])
        cap = SphericalCap(pole, 0.5)
        ones = sample(build_cap_grid(cap, 16, 32), lambda p: np.ones(len(p)))
        assert poisson_solve_cap(cap, ones, -pole, pole) == pytest.approx(
            -np.log(2.0), abs=1e-12
        )
        others = [SphericalCap(pole, 0.9), SphericalCap(unit_vector([0, 0.1, 1]), 0.5)]
        for other in others:
            with pytest.raises(ValueError, match="solver's cap"):
                poisson_solve_cap(other, ones, -pole, pole)
        edge = FieldSamples(build_boundary_grid(cap, 16), np.ones(16))
        with pytest.raises(ValueError, match="solver's cap"):
            poisson_solve_cap(cap, edge, -pole, pole)

    def test_fd_laplacian_matches_rhs(self, rng):
        # matched regime: FD step, regularization ball, and node spacing all
        # comparable; robust accuracy is a few percent of the data scale
        grid = build_cap_grid(CAP, 96, 192)
        c = coefficients_from_entries(2, {(2, 1): 1.0})
        lap = laplacian_coeffs(c)
        h_samples = sample(grid, lambda p: sh_eval(lap, p))
        worst = 0.0
        for _ in range(6):
            xi = cap_point(CAP, 0.7 * rng.random(), rng.uniform(0, 2 * np.pi))
            fd = beltrami_fd(
                lambda p: poisson_solve_cap(CAP, h_samples, -CAP.center, p, scale=7),
                xi,
                h=8e-3,
            )
            worst = max(worst, abs(fd - sh_eval(lap, xi)))
        assert worst < 5e-2


class TestDirichlet:
    def test_constant_data(self):
        xi = random_interior_points(CAP, np.random.default_rng(0), 10)
        vals = dirichlet_solve_cap(CAP, lambda p: np.ones(len(p)), xi, m=256)
        assert np.abs(vals - 1.0).max() < 1e-12

    def test_inner_harmonic_traces(self, rng):
        idx = InnerHarmonicIndex(CAP, 2, 1)
        pts = random_interior_points(CAP, rng, 30, max_fraction=0.9)
        vals = dirichlet_solve_cap(
            CAP, lambda p: inner_harmonic_eval(idx, p), pts, m=512
        )
        assert np.abs(vals - inner_harmonic_eval(idx, pts)).max() < 1e-8

    def test_center_value_is_boundary_average(self):
        idx = InnerHarmonicIndex(CAP, 3, 2)
        grid = build_boundary_grid(CAP, 256)
        average = float(
            np.sum(grid.weights * inner_harmonic_eval(idx, grid.nodes))
        ) / (2 * np.pi * CAP.boundary_sine)
        value = dirichlet_solve_cap(
            CAP, lambda p: inner_harmonic_eval(idx, p), CAP.center, m=256
        )
        assert value == pytest.approx(average, abs=1e-13)

    def test_rejects_near_boundary_points(self):
        near = cap_point(CAP, 1.0 - 1e-9, 0.0)
        with pytest.raises(ValueError):
            dirichlet_solve_cap(CAP, lambda p: np.ones(len(p)), near)


class TestNeumann:
    def test_zero_data_returns_mean(self):
        xi = cap_point(CAP, 0.3, 0.2)
        value = neumann_solve_cap(CAP, lambda p: np.zeros(len(p)), 2.5, xi)
        assert value == pytest.approx(2.5, abs=1e-15)

    def test_compatibility_enforced(self):
        with pytest.raises(ValueError):
            neumann_solve_cap(CAP, lambda p: np.ones(len(p)), 0.0, CAP.center)

    def test_mean_shift_linearity(self):
        idx = InnerHarmonicIndex(CAP, 1, 1)
        grid = build_boundary_grid(CAP, 128)
        data = np.sum(grid.normals * inner_harmonic_grad(idx, grid.nodes), axis=1)
        xi = cap_point(CAP, 0.35, 2.0)
        base = neumann_solve_cap(CAP, FieldSamples(grid, data), 0.0, xi)
        shifted = neumann_solve_cap(CAP, FieldSamples(grid, data), 1.25, xi)
        assert shifted - base == pytest.approx(1.25, abs=1e-14)

    def test_inner_harmonic_round_trip(self, rng):
        idx = InnerHarmonicIndex(CAP, 1, 1)
        grid = build_boundary_grid(CAP, 512)
        data = np.sum(grid.normals * inner_harmonic_grad(idx, grid.nodes), axis=1)
        area_grid = build_cap_grid(CAP, 48, 96)
        mean = mean_value(sample(area_grid, lambda p: inner_harmonic_eval(idx, p)))
        pts = random_interior_points(CAP, rng, 20)
        vals = neumann_solve_cap(CAP, FieldSamples(grid, data), mean, pts)
        assert np.abs(vals - inner_harmonic_eval(idx, pts)).max() < 1e-7


    @pytest.mark.parametrize("rho", [0.3, 0.9, 1.5])
    def test_matches_boundary_log_kernel(self, rho, rng):
        # On the boundary the reflection collapses and the Neumann cap Green
        # function reduces to ln(1 - xi . eta)/2pi + (1 - rho) ln(2 - rho)/(2 pi rho)
        cap = SphericalCap(unit_vector([0.3, -0.2, 1.0]), rho)
        grid = build_boundary_grid(cap, 256)
        f = np.cos(grid.phis) + 0.4 * np.sin(3.0 * grid.phis)
        f = f - np.sum(grid.weights * f) / np.sum(grid.weights)
        pts = random_interior_points(cap, rng, 200)
        const = (1.0 - rho) / (2.0 * np.pi * rho) * np.log(2.0 - rho)
        kernel = np.log(1.0 - pts @ grid.nodes.T) / (2.0 * np.pi) + const
        expected = 0.5 - np.sum(grid.weights[None, :] * kernel * f[None, :], axis=1)
        vals = neumann_solve_cap(cap, FieldSamples(grid, f), 0.5, pts)
        assert np.abs(vals - expected).max() <= 1e-13 * np.abs(expected).max()


# polar, tilted, and snapped south (rotation_to_pole gives diag(1, -1, -1))
SERIES_CAPS = {
    "polar-0.5": SphericalCap(np.array([0.0, 0.0, 1.0]), 0.5),
    "tilted-0.9": SphericalCap(unit_vector([0.2, -0.1, 1.0]), 0.9),
    "south-0.7": SphericalCap(np.array([0.0, 0.0, -1.0]), 0.7),
}
DELTAS = [0.2, 1e-2, 1e-3, 1e-4, 1e-5]


def _harmonic(cap):
    """A sum of the cap's inner harmonics of degrees 0-9 and its gradient."""
    rng = np.random.default_rng(9)
    terms = [
        (InnerHarmonicIndex(cap, n, order), rng.normal())
        for n in range(10)
        for order in (1, 2)
        if n > 0 or order == 1
    ]
    value = lambda p: sum(a * inner_harmonic_eval(i, p) for i, a in terms)
    grad = lambda p: sum(a * inner_harmonic_grad(i, p) for i, a in terms)
    return value, grad


def _trapezoid_sums(cap, grid, values, pts):
    """The cap solvers' sums before the rim series: the Poisson kernel and
    the rim log kernel of the Neumann Green function, by the trapezoid rule
    over the rim nodes."""
    gap = 1.0 - pts @ grid.nodes.T
    front = (pts @ cap.center + cap.radius - 1.0) / (2.0 * np.pi * cap.boundary_sine)
    dirichlet = front * np.sum(grid.weights * values / gap, axis=1)
    const = (1.0 - cap.radius) / (2.0 * np.pi * cap.radius) * np.log(2.0 - cap.radius)
    kernel = np.log(gap) / (2.0 * np.pi) + const
    neumann = 0.5 - np.sum(grid.weights * kernel * values, axis=1)
    return dirichlet, neumann


class TestRimSeries:
    """Both cap solvers sum the rim series of the trigonometric interpolant
    of their data, exact for it at every interior point."""

    @pytest.mark.parametrize("name", SERIES_CAPS)
    @pytest.mark.parametrize("delta", DELTAS)
    def test_uniform_up_to_the_rim(self, name, delta):
        # the trapezoid sums erred up to 2.8 (Dirichlet) and 4.3e-2
        # (Neumann) of the sup on these rings; the series errs 4e-15
        cap = SERIES_CAPS[name]
        value, grad = _harmonic(cap)
        grid = build_boundary_grid(cap, 512)
        sup = np.abs(value(grid.nodes)).max()
        flux = np.sum(grid.normals * grad(grid.nodes), axis=1)
        mean = mean_value(sample(build_cap_grid(cap, 32, 64), value))
        pts = rim_ring(cap, delta)
        truth = value(pts)
        dirichlet = dirichlet_solve_cap(cap, value, pts, m=512)
        neumann = neumann_solve_cap(cap, FieldSamples(grid, flux), mean, pts)
        assert np.abs(dirichlet - truth).max() <= 1e-12 * sup
        assert np.abs(neumann - truth).max() <= 1e-12 * sup

    @pytest.mark.parametrize("name", SERIES_CAPS)
    @pytest.mark.parametrize("m", [64, 65, 512])
    def test_matches_the_trapezoid_sums_inside(self, name, m):
        # an odd m has no Nyquist term. The trapezoid sums converge like
        # |w|^m: at m = 512 they have converged at delta = 0.2, at m = 64
        # and 65 they still err up to 2e-4 there, and are pinned at 0.6
        cap = SERIES_CAPS[name]
        grid = build_boundary_grid(cap, m)
        h = np.cos(grid.phis) + 0.4 * np.sin(3.0 * grid.phis) + 0.2 * np.cos(7.0 * grid.phis)
        h = h - np.sum(grid.weights * h) / np.sum(grid.weights)
        pts = rim_ring(cap, 0.2 if m == 512 else 0.6)
        want_d, want_n = _trapezoid_sums(cap, grid, h, pts)
        got_d = dirichlet_solve_cap(cap, FieldSamples(grid, h), pts)
        got_n = neumann_solve_cap(cap, FieldSamples(grid, h), 0.5, pts)
        assert np.abs(got_d - want_d).max() <= 1e-12 * np.abs(want_d).max()
        assert np.abs(got_n - want_n).max() <= 1e-12 * np.abs(want_n).max()

    @pytest.mark.parametrize("name", SERIES_CAPS)
    @pytest.mark.parametrize("m", [64, 65])
    def test_order_32_term(self, name, m):
        # cos(32 phi) at the rim nodes: at m = 64 it is the Nyquist term
        # (-1)^j, whose interpolant is cos(32 phi), not doubled; at m = 65 an
        # ordinary term. Either way the Dirichlet solution is r^32 cos(32
        # theta) in the chart w = r e^{i theta}, and the Neumann one s/32
        # times it, s the boundary sine
        cap = SERIES_CAPS[name]
        grid = build_boundary_grid(cap, m)
        data = FieldSamples(grid, np.cos(32.0 * grid.phis))
        r, theta = 0.9, 0.1 + np.arange(8) * 0.7
        rim = 2.0 * np.sqrt(cap.radius / (2.0 - cap.radius))
        w = rim * r * np.exp(1j * theta)
        pts = stereographic_inverse(cap.center, np.stack([w.real, w.imag], axis=1))
        want = r**32 * np.cos(32.0 * theta)
        assert np.abs(dirichlet_solve_cap(cap, data, pts) - want).max() <= 1e-14
        neumann = neumann_solve_cap(cap, data, 0.5, pts)
        assert np.abs(neumann - 0.5 - cap.boundary_sine / 32.0 * want).max() <= 1e-14

    @pytest.mark.parametrize("name", SERIES_CAPS)
    def test_a_point_alone_gives_its_bits_in_a_stack(self, name):
        cap = SERIES_CAPS[name]
        grid = build_boundary_grid(cap, 512)
        noise = np.random.default_rng(3).normal(size=512)
        data = FieldSamples(grid, noise - noise.mean())
        pts = np.concatenate([rim_ring(cap, delta, 16) for delta in DELTAS])
        for solve in (
            lambda p: dirichlet_solve_cap(cap, data, p),
            lambda p: neumann_solve_cap(cap, data, 0.5, p),
        ):
            stack = solve(pts)
            assert np.array_equal(np.array([solve(p) for p in pts]), stack)
            assert np.array_equal(np.array([solve(p[None])[0] for p in pts]), stack)

    def test_coefficients_stop_at_the_data_bandwidth(self):
        grid = build_boundary_grid(CAP, 32768)
        phi = grid.phis
        data = 0.8 + 0.5 * np.cos(phi) - 0.3 * np.sin(2.0 * phi) + 0.1 * np.cos(3.0 * phi)
        assert len(_rim_coefficients(data)) == 4
        assert len(_rim_coefficients(np.zeros(64))) == 1

    @pytest.mark.parametrize("name", SERIES_CAPS)
    @pytest.mark.parametrize("data", ["random", "band-limited"])
    def test_trimming_keeps_the_series(self, name, data):
        cap = SERIES_CAPS[name]
        phi = build_boundary_grid(cap, 512).phis
        if data == "random":
            values = np.random.default_rng(5).normal(size=512)
        else:
            values = np.cos(phi) + 0.4 * np.sin(3.0 * phi) + 0.2 * np.cos(7.0 * phi)
        full = np.fft.rfft(values) / 512
        full[1:256] *= 2.0
        pts = np.concatenate([rim_ring(cap, delta, 16) for delta in DELTAS])
        trimmed = _rim_series(cap, _rim_coefficients(values), pts)
        assert np.abs(trimmed - _rim_series(cap, full, pts)).max() <= 1e-14 * np.abs(values).max()

    def test_rejections_at_and_beyond_the_rim(self):
        rho = CAP.radius
        grid = build_boundary_grid(CAP, 64)
        data = FieldSamples(grid, np.cos(grid.phis))
        near = cap_point(CAP, (rho - 5e-7) / rho, 0.3)
        with pytest.raises(ValueError, match="strictly interior"):
            dirichlet_solve_cap(CAP, data, near)
        outside = cap_point(CAP, (rho + 1e-9) / rho, 0.3)
        with pytest.raises(ValueError, match="inside the cap"):
            neumann_solve_cap(CAP, data, 0.0, outside)
        # the Neumann solver accepts the points Dirichlet's margin excludes
        assert np.isfinite(neumann_solve_cap(CAP, data, 0.0, near))

    def test_samples_on_an_own_boundary_grid_keep_it(self):
        grid = build_boundary_grid(CAP, 64)
        data = FieldSamples(grid, np.cos(grid.phis))
        equal = SphericalCap(CAP.center.copy(), CAP.radius)
        assert _cap_boundary_samples(equal, data, 512).grid is grid
        other = build_boundary_grid(SphericalCap(CAP.center, 0.8), 64)
        with pytest.raises(ValueError, match="cap boundary"):
            _cap_boundary_samples(CAP, FieldSamples(other, data.values), 512)


class TestInvertGradient:
    def _setup(self, nt=64, nphi=128):
        grid = build_cap_grid(CAP, nt, nphi)
        a = unit_vector([0.3, -1.0, 0.4])
        grad = a[None, :] - (grid.nodes @ a)[:, None] * grid.nodes
        samples = FieldSamples(grid, grad, tangential=True)
        truth = grid.nodes @ a
        cap_mean = float(np.sum(grid.weights * truth) / np.sum(grid.weights))
        return grid, samples, a, cap_mean

    def test_round_trip_and_scale_improvement(self, rng):
        grid, samples, a, cap_mean = self._setup()
        inner = SphericalCap(CAP.center, 0.8 * CAP.radius)
        keep = np.flatnonzero(inner.contains(grid.nodes))
        sel = rng.choice(keep, 150, replace=False, p=grid.weights[keep] / grid.weights[keep].sum())
        pts = grid.nodes[sel]
        errors = {}
        for scale in (8, 10):
            rec = invert_gradient(samples, "grad", scale, pts)
            diff = rec - (pts @ a - cap_mean)
            diff -= diff.mean()
            errors[scale] = np.abs(diff).max()
        assert errors[10] < 2e-3
        assert errors[10] < errors[8]

    def test_curl_route_matches(self, rng):
        grid, samples, a, cap_mean = self._setup(48, 96)
        curl_field = FieldSamples(
            grid, np.cross(grid.nodes, samples.values), tangential=True
        )
        pts = random_interior_points(CAP, rng, 40, max_fraction=0.75)
        rec = invert_gradient(curl_field, "curl", 9, pts)
        diff = rec - (pts @ a - cap_mean)
        diff -= diff.mean()
        assert np.abs(diff).max() < 5e-3

    def test_zero_field(self):
        grid = build_cap_grid(CAP, 12, 24)
        zeros = FieldSamples(grid, np.zeros((len(grid), 3)), tangential=True)
        assert invert_gradient(zeros, "grad", 8, CAP.center) == 0.0

    def test_requires_tangential_samples(self):
        grid = build_cap_grid(CAP, 8, 16)
        radial = FieldSamples(grid, grid.nodes.copy())
        with pytest.raises(ValueError):
            invert_gradient(radial, "grad", 8, CAP.center)

    def test_default_scale_tracks_resolution(self):
        coarse = build_cap_grid(CAP, 30, 60)
        fine = build_cap_grid(CAP, 120, 240)
        assert default_scale(fine) == default_scale(coarse) + 2

    def test_rejects_unknown_mode_and_boundary_scale(self):
        grid = build_cap_grid(CAP, 8, 16)
        zeros = FieldSamples(grid, np.zeros((len(grid), 3)), tangential=True)
        with pytest.raises(ValueError, match="mode must be"):
            invert_gradient(zeros, "div", 8, CAP.center)
        with pytest.raises(ValueError, match="needs an area grid"):
            default_scale(build_boundary_grid(CAP, 16))


class TestMeanValueAndMaximum:
    def test_constants_satisfy_both_properties(self):
        probe = SphericalCap(cap_point(CAP, 0.4, 0.3), 0.07)
        for which in ("I", "II"):
            residual = mvp_residual(
                lambda p: np.full(len(p), 1.7), probe, which
            )
            assert residual < 1e-12

    def test_harmonic_and_negative_control(self, rng):
        idx = InnerHarmonicIndex(CAP, 3, 1)
        a = unit_vector([1.0, 0.4, -0.2])
        for _ in range(5):
            center = cap_point(CAP, 0.7 * rng.random(), rng.uniform(0, 2 * np.pi))
            probe = SphericalCap(center, 0.05)
            for which in ("I", "II"):
                assert (
                    mvp_residual(lambda p: inner_harmonic_eval(idx, p), probe, which)
                    < 1e-10
                )
            assert mvp_residual(lambda p: (p @ a) ** 2, probe, "II") > 1e-6

    def test_max_principle(self):
        idx = InnerHarmonicIndex(CAP, 4, 2)
        inner = SphericalCap(CAP.center, 0.7 * CAP.radius)
        assert max_principle_check(lambda p: inner_harmonic_eval(idx, p), inner)
        assert max_principle_check(lambda p: np.full(len(p), 2.0), inner)


class TestGreenFormulas:
    def test_divergence_formula(self):
        # f = grad U: area integral of the Laplacian against boundary flux
        c = synth_field(9, 1, 6)
        lap = laplacian_coeffs(c)
        grid = build_cap_grid(CAP, 64, 128)
        bgrid = build_boundary_grid(CAP, 512)
        area = integrate(grid, sample(grid, lambda p: sh_eval(lap, p)))
        flux = float(
            np.sum(
                bgrid.weights
                * np.sum(bgrid.normals * sh_grad_eval(c, bgrid.nodes), axis=1)
            )
        )
        assert area == pytest.approx(flux, abs=1e-8)

    def test_curl_formula(self):
        # f = curl-grad U: area Laplacian against tangential circulation
        c = synth_field(10, 1, 6)
        lap = laplacian_coeffs(c)
        grid = build_cap_grid(CAP, 64, 128)
        bgrid = build_boundary_grid(CAP, 512)
        area = integrate(grid, sample(grid, lambda p: sh_eval(lap, p)))
        curl = np.cross(bgrid.nodes, sh_grad_eval(c, bgrid.nodes))
        circulation = float(
            np.sum(bgrid.weights * np.sum(bgrid.tangents * curl, axis=1))
        )
        assert area == pytest.approx(circulation, abs=1e-8)

    def test_symmetric_formula(self):
        low_f = synth_field(11, 1, 5)
        low_h = synth_field(12, 1, 5)
        lap_f, lap_h = laplacian_coeffs(low_f), laplacian_coeffs(low_h)
        grid = build_cap_grid(CAP, 64, 128)
        bgrid = build_boundary_grid(CAP, 512)
        lhs = integrate(
            grid,
            sample(
                grid,
                lambda p: sh_eval(low_f, p) * sh_eval(lap_h, p)
                - sh_eval(low_h, p) * sh_eval(lap_f, p),
            ),
        )
        normal_f = np.sum(bgrid.normals * sh_grad_eval(low_f, bgrid.nodes), axis=1)
        normal_h = np.sum(bgrid.normals * sh_grad_eval(low_h, bgrid.nodes), axis=1)
        rhs = float(
            np.sum(
                bgrid.weights
                * (
                    sh_eval(low_f, bgrid.nodes) * normal_h
                    - sh_eval(low_h, bgrid.nodes) * normal_f
                )
            )
        )
        assert lhs == pytest.approx(rhs, abs=1e-7)

    def test_interior_representation(self, rng):
        # four-term representation reproduces interior values
        c = synth_field(13, 1, 5)
        lap = laplacian_coeffs(c)
        grid = build_cap_grid(CAP, 64, 128)
        bgrid = build_boundary_grid(CAP, 512)
        lap_samples = sample(grid, lambda p: sh_eval(lap, p))
        mean_term = integrate(grid, sample(grid, lambda p: sh_eval(c, p))) / (
            4 * np.pi
        )
        from sphaerica.kernels import fundamental_deriv, _fundamental_many

        for _ in range(4):
            xi = cap_point(CAP, 0.7 * rng.random(), rng.uniform(0, 2 * np.pi))
            volume = surface_potential(lap_samples, xi, scale=12)
            t_b = bgrid.nodes @ xi
            double = float(
                np.sum(
                    bgrid.weights
                    * (-(bgrid.normals @ xi) / (4 * np.pi * (1.0 - t_b)))
                    * sh_eval(c, bgrid.nodes)
                )
            )
            single = float(
                np.sum(
                    bgrid.weights
                    * _fundamental_many(t_b)
                    * np.sum(bgrid.normals * sh_grad_eval(c, bgrid.nodes), axis=1)
                )
            )
            rep = mean_term + volume + double - single
            assert rep == pytest.approx(sh_eval(c, xi), abs=1e-4)


@pytest.mark.parametrize(
    "call", ["invert_gradient", "decompose_cap_at", "vd_reconstruct", "neumann_solve_cap"]
)
def test_cap_kernels_reject_points_outside_the_cap(call):
    polar = SphericalCap(np.array([0.0, 0.0, 1.0]), 0.5)
    grid = build_cap_grid(polar, 8, 16)
    field = FieldSamples(grid, np.cross(grid.nodes, polar.center), tangential=True)
    probe = np.array([[np.sqrt(0.75), 0.0, -0.5]])  # t = -0.5, outside the cap
    calls = {
        "invert_gradient": lambda: invert_gradient(field, "grad", 6, probe),
        "decompose_cap_at": lambda: decompose_cap_at(field, probe, m=32),
        "vd_reconstruct": lambda: vd_reconstruct(field, 6, 0.0, probe),
        # mean-free Neumann data: x integrates to zero on the polar circle
        "neumann_solve_cap": lambda: neumann_solve_cap(
            polar, lambda p: p[:, 0], 0.0, probe, m=32
        ),
    }
    with pytest.raises(ValueError, match="inside the cap"):
        calls[call]()


@pytest.mark.parametrize("differs", ["radius", "center"])
@pytest.mark.parametrize("solver", ["dirichlet", "neumann"])
def test_cap_solvers_reject_samples_of_another_cap(solver, differs):
    def solve(cap):
        grid = build_boundary_grid(cap, 64)
        data = FieldSamples(grid, np.cos(grid.phis))
        xi = cap_point(CAP, 0.3, 1.0)
        if solver == "dirichlet":
            return dirichlet_solve_cap(CAP, data, xi)
        return neumann_solve_cap(CAP, data, 0.0, xi)

    # an equal cap built separately is the solver's cap
    solve(SphericalCap(CAP.center.copy(), CAP.radius))
    if differs == "radius":
        other = SphericalCap(CAP.center, 0.8)
    else:
        other = SphericalCap(unit_vector([0.0, 0.2, 1.0]), CAP.radius)
    with pytest.raises(ValueError, match="cap boundary"):
        solve(other)
