import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import cap_point, kernel_gradient_sums, random_interior_points
from sphaerica import _convolution, decomposition
from sphaerica._convolution import apply_kernel
from sphaerica.decomposition import (
    d_apply,
    d_inv_convolve,
    decompose_cap_at,
    hardy_hodge_compose_spectral,
    hardy_hodge_decompose_sphere,
    helmholtz_compose,
    helmholtz_decompose_cap,
    helmholtz_decompose_sphere,
)
from sphaerica.geometry import SphericalCap, _reflect_many, unit_vector
from sphaerica.harmonics import (
    InnerHarmonicIndex,
    ShCoefficients,
    _rim_coefficients,
    _rim_series,
    coefficients_from_entries,
    inner_harmonic_eval,
    sh_curl_eval,
    sh_eval,
    sh_analyze,
    sh_grad_eval,
    sh_synthesize,
    synth_field,
)
from sphaerica.kernels import (
    KIND_DIRICHLET,
    KIND_NEUMANN,
    KernelSpec,
    grad_terms,
    kernel_grad_dot,
    log_gap,
)
from sphaerica.quadrature import (
    FieldSamples,
    boundary_data,
    build_boundary_grid,
    build_cap_grid,
    build_sphere_grid,
    mean_value,
)
from sphaerica.solvers import _cap_boundary_samples

GRID = build_sphere_grid(32, 64)  # shared across the sphere-path tests


def _separate_dense_sum(spec, samples, points):
    """The contracted dense gradient sum of one spec alone, as each half of
    the cap split once ran it: x . (Q F) term by term, chunk by chunk."""
    grid = samples.grid
    nodes, w = grid.nodes, grid.weights
    terms, centre = grad_terms(spec, nodes, samples.values)
    base = 0.0 if centre is None else np.sum(w * centre)
    out = np.empty(points.shape[0])
    for i0, i1 in _convolution._chunks(points.shape[0], len(grid)):
        acc = base
        for reflected, g, scale in terms:
            x = _reflect_many(spec.cap, points[i0:i1])[0] if reflected else points[i0:i1]
            q = 1.0 / log_gap(x, nodes, scale)
            qf = np.matmul(q[:, None, :], w[:, None] * g)[:, 0, :]
            acc = acc + np.sum(x * qf, axis=1)
        out[i0:i1] = acc
    return out


def demeaned(grid, values):
    return values - float(np.sum(grid.weights * values) / np.sum(grid.weights))


class TestCompose:
    def test_pure_radial(self):
        f1 = coefficients_from_entries(1, {(1, 2): 1.0})
        zero = coefficients_from_entries(0, {})
        xi = unit_vector([0.3, 0.5, 0.8])
        out = helmholtz_compose(f1, zero, zero, xi)
        assert_allclose(np.cross(out, xi), 0.0, atol=1e-15)

    def test_pointwise_orthogonality(self, rng):
        f1 = synth_field(1, 0, 4)
        f2 = synth_field(2, 0, 4)
        zero = coefficients_from_entries(0, {})
        for _ in range(10):
            xi = unit_vector(rng.normal(size=3))
            radial = helmholtz_compose(f1, zero, zero, xi)
            gradp = helmholtz_compose(zero, f2, zero, xi)
            curlp = helmholtz_compose(zero, zero, f2, xi)
            assert abs(float(radial @ gradp)) < 1e-12
            assert abs(float(radial @ curlp)) < 1e-12
            # gradient and curl-gradient of a shared scalar are orthogonal
            assert abs(float(gradp @ curlp)) < 1e-12

    def test_degree_one_gradient_field(self):
        f2 = coefficients_from_entries(1, {(1, 3): 1.0})
        zero = coefficients_from_entries(0, {})
        xi = unit_vector([0.2, -0.4, 0.85])
        out = helmholtz_compose(zero, f2, zero, xi)
        assert abs(float(out @ xi)) < 1e-14
        assert_allclose(out, sh_grad_eval(f2, xi), atol=1e-14)


class TestSphereDecomposition:
    def test_gradient_field_recovery(self):
        c = coefficients_from_entries(3, {(3, 2): 1.0})
        f = FieldSamples(GRID, sh_grad_eval(c, GRID.nodes))
        helm = helmholtz_decompose_sphere(f)
        truth = demeaned(GRID, sh_eval(c, GRID.nodes))
        assert np.abs(helm.f1.values).max() < 1e-12
        assert np.abs(helm.f2.values - truth).max() < 1e-12
        assert np.abs(helm.f3.values).max() < 1e-12

    def test_curl_field_recovery(self):
        c = coefficients_from_entries(2, {(2, 4): 1.0})
        f = FieldSamples(GRID, sh_curl_eval(c, GRID.nodes))
        helm = helmholtz_decompose_sphere(f)
        truth = demeaned(GRID, sh_eval(c, GRID.nodes))
        assert np.abs(helm.f3.values - truth).max() < 1e-12
        assert np.abs(helm.f2.values).max() < 1e-12

    def test_radial_field_has_no_tangential_scalars(self):
        c = coefficients_from_entries(2, {(2, 1): 1.0})
        values = GRID.nodes * sh_eval(c, GRID.nodes)[:, None]
        helm = helmholtz_decompose_sphere(FieldSamples(GRID, values))
        assert np.abs(helm.f2.values).max() < 1e-12
        assert np.abs(helm.f3.values).max() < 1e-12
        assert_allclose(helm.f1.values, sh_eval(c, GRID.nodes), atol=1e-14)

    def test_scalars_are_demeaned(self):
        c = synth_field(4, 1, 5)
        f = FieldSamples(
            GRID,
            sh_grad_eval(c, GRID.nodes) + sh_curl_eval(c, GRID.nodes),
            tangential=True,
        )
        helm = helmholtz_decompose_sphere(f)
        for scalars in (helm.f2, helm.f3):
            assert abs(np.sum(GRID.weights * scalars.values)) < 1e-10

    def test_one_pass_keeps_the_two_sums(self):
        # F2 and F3 come from one analysis and one synthesis pass, and each
        # keeps the bits of its own synthesis alone
        p, s = synth_field(4, 1, 6), synth_field(5, 1, 6)
        values = sh_grad_eval(p, GRID.nodes) + sh_curl_eval(s, GRID.nodes)
        f = FieldSamples(GRID, values, tangential=True)
        helm = helmholtz_decompose_sphere(f)
        _, f2, f3 = sh_analyze(f)
        assert np.array_equal(helm.f2.values, sh_synthesize(GRID, f2)[0])
        assert np.array_equal(helm.f3.values, sh_synthesize(GRID, f3)[0])
        for got, c in ((helm.f2, p), (helm.f3, s)):
            want = demeaned(GRID, sh_eval(c, GRID.nodes))
            assert np.abs(got.values - want).max() <= 1e-13 * np.abs(want).max()

    def test_full_round_trip_through_projection(self):
        # decompose, project the recovered scalars back onto harmonics,
        # recompose spectrally, compare with the input field
        p = coefficients_from_entries(3, {(3, 5): 0.8})
        s = coefficients_from_entries(2, {(2, 2): -0.6})
        f_vals = sh_grad_eval(p, GRID.nodes) + sh_curl_eval(s, GRID.nodes)
        helm = helmholtz_decompose_sphere(FieldSamples(GRID, f_vals, tangential=True))

        def project(values, n, j):
            basis = sh_eval(coefficients_from_entries(n, {(n, j): 1.0}), GRID.nodes)
            return float(np.sum(GRID.weights * values * basis))

        p_hat = coefficients_from_entries(3, {(3, 5): project(helm.f2.values, 3, 5)})
        s_hat = coefficients_from_entries(2, {(2, 2): project(helm.f3.values, 2, 2)})
        zero = coefficients_from_entries(0, {})
        probe_idx = np.arange(0, len(GRID), 131)
        rebuilt = helmholtz_compose(zero, p_hat, s_hat, GRID.nodes[probe_idx])
        assert np.abs(rebuilt - f_vals[probe_idx]).max() < 1e-12


def _rim_kernel_split(samples, pts, trace_fn, scale, m):
    """(F2, F3) with the boundary terms summed as rim kernels: the trace
    against the tangential derivative of the Neumann kernel (F2) and against
    the normal derivative of the Dirichlet kernel (F3)."""
    cap = samples.grid.cap
    bgrid = build_boundary_grid(cap, m)
    trace = FieldSamples(bgrid, boundary_data(bgrid, trace_fn))
    spec_n = KernelSpec(KIND_NEUMANN, cap=cap, scale=scale)
    spec_d = KernelSpec(KIND_DIRICHLET, cap=cap, scale=scale)
    tangent_n = lambda x, eta, out: kernel_grad_dot(spec_n, x, eta, bgrid.tangents)
    normal_d = lambda x, eta, out: kernel_grad_dot(spec_d, x, eta, bgrid.normals)
    f2 = kernel_gradient_sums(samples, [(spec_n, False)], pts)[0]
    f3 = kernel_gradient_sums(samples, [(spec_d, True)], pts)[0]
    return (
        f2 + apply_kernel(tangent_n, trace, pts),
        f3 + apply_kernel(normal_d, trace, pts),
    )


def _quadrature_area_sums(samples, sums, points, scale):
    """The cap split's area sums as the regularized kernel sums
    (kernel_gradient_sums), in place of modes.gradient_sums."""
    cap = samples.grid.cap
    specs = [(KernelSpec(kind, cap=cap, scale=scale), curl) for kind, curl in sums]
    return kernel_gradient_sums(samples, specs, points)


@pytest.fixture
def quadrature_split(monkeypatch):
    """decompose_cap_at with its area sums on the kernel sums."""
    monkeypatch.setattr(decomposition, "gradient_sums", _quadrature_area_sums)


# polar, tilted, wide, and snapped south (rotation_to_pole gives
# diag(1, -1, -1))
PIN_CAPS = {
    "polar-0.5": SphericalCap(np.array([0.0, 0.0, 1.0]), 0.5),
    "tilted-0.9": SphericalCap(unit_vector([0.2, -0.1, 1.0]), 0.9),
    "wide-1.4": SphericalCap(unit_vector([0.3, 0.5, -0.2]), 1.4),
    "south-0.7": SphericalCap(np.array([0.0, 0.0, -1.0]), 0.7),
}


class TestCapDecomposition:
    CAP = SphericalCap(unit_vector([0.2, -0.1, 1.0]), 0.9)

    def _field(self, grid):
        p = synth_field(21, 0, 5, 1.0)
        s = synth_field(22, 0, 5, 1.0)
        values = sh_grad_eval(p, grid.nodes) + sh_curl_eval(s, grid.nodes)
        samples = FieldSamples(grid, values, tangential=True)
        trace = lambda pts: sh_eval(s, pts)
        return p, s, samples, trace

    def test_round_trip_at_interior_probes(self, rng):
        grid = build_cap_grid(self.CAP, 96, 192)
        p, s, samples, trace = self._field(grid)
        inner = SphericalCap(self.CAP.center, 0.8 * self.CAP.radius)
        keep = np.flatnonzero(inner.contains(grid.nodes))
        weights = grid.weights[keep] / grid.weights[keep].sum()
        sel = rng.choice(keep, 200, replace=False, p=weights)
        pts = grid.nodes[sel]
        f2, f3 = decompose_cap_at(
            samples,
            pts,
            boundary_f3=trace,
            scale=12,
            m=512,
            demean=False,
        )
        p_ref = sh_eval(p, pts)
        err2 = (f2 - p_ref) - np.mean(f2 - p_ref)
        assert np.abs(err2).max() < 1.5e-3
        assert np.abs(f3 - sh_eval(s, pts)).max() < 1.5e-3

    def test_shared_q_blocks_keep_the_separate_sums(self, rng, quadrature_split):
        # with the split's area sums on the kernel sums of _convolution
        # (quadrature_split; the split itself sums per longitude mode),
        # F2 and F3 share one Q block per log term, off the nodes and at
        # them (there with its spectrum); each keeps the bits of its own
        # one-sum call, which off the nodes are those of the separate
        # contracted sum and at the nodes match it to the ring path's
        # rounding. The trace adds -Im and Re of one rim series, for a
        # white-noise trace too: at even m its interpolant has a Nyquist
        # term k = m/2, which F2 keeps as F3 does
        grid = build_cap_grid(self.CAP, 24, 48)
        _, _, samples, trace = self._field(grid)
        spec_n = KernelSpec(KIND_NEUMANN, cap=self.CAP, scale=10)
        spec_d = KernelSpec(KIND_DIRICHLET, cap=self.CAP, scale=10)
        rotated = FieldSamples(grid, np.cross(samples.values, grid.nodes))
        inner = SphericalCap(self.CAP.center, 0.8 * self.CAP.radius)
        noise = np.random.default_rng(11).normal(size=64)
        off = random_interior_points(self.CAP, rng, 30)
        for pts in (off, grid.nodes):
            area2 = kernel_gradient_sums(samples, [(spec_n, False)], pts)[0]
            area3 = kernel_gradient_sums(samples, [(spec_d, True)], pts)[0]
            for area, spec, f in ((area2, spec_n, samples), (area3, spec_d, rotated)):
                dense = -_separate_dense_sum(spec, f, pts)
                if pts is off:
                    assert np.array_equal(area, dense)
                err = np.abs(area - dense) / np.abs(dense).max()
                assert err[inner.contains(pts)].max() <= 1e-13
                assert err.max() <= 1e-11
            for boundary_f3 in (trace, noise):
                got = decompose_cap_at(
                    samples, pts, boundary_f3=boundary_f3, scale=10, m=64, demean=False
                )
                rim = _cap_boundary_samples(self.CAP, boundary_f3, 64).values
                series = _rim_series(self.CAP, _rim_coefficients(rim), pts)
                assert np.array_equal(got[0], area2 - series.imag)
                assert np.array_equal(got[1], area3 + series.real)
        assert len(_rim_coefficients(noise)) == 33

    @pytest.mark.parametrize("name", ["polar-0.5", "tilted-0.9", "south-0.7"])
    @pytest.mark.parametrize("m", [64, 65, 512])
    @pytest.mark.parametrize("degree", [1, 3, 7])
    def test_conjugate_pair_oracle(self, name, m, degree):
        # with no area field, a trace of the order-1 inner harmonic of a
        # degree is its own Dirichlet extension (F3), and F2, the rim
        # integral of d_tau G_N F3, is minus its conjugate, the order-2
        # harmonic of that degree, up to the rim
        cap = PIN_CAPS[name]
        grid = build_cap_grid(cap, 8, 16)
        samples = FieldSamples(grid, np.zeros((len(grid), 3)), tangential=True)
        re, im = (InnerHarmonicIndex(cap, degree, order) for order in (1, 2))
        trace = lambda q: inner_harmonic_eval(re, q)
        rng = np.random.default_rng(degree * m)
        edge = [cap_point(cap, 1.0 - 1e-5, phi) for phi in 0.3 + np.arange(8) * 0.78]
        pts = np.concatenate([random_interior_points(cap, rng, 24, 1.0 - 1e-5), edge])
        sup = np.abs(trace(build_boundary_grid(cap, 512).nodes)).max()
        opts = dict(boundary_f3=trace, scale=6, m=m, demean=False)
        f2, f3 = decompose_cap_at(samples, pts, **opts)
        assert np.abs(f3 - inner_harmonic_eval(re, pts)).max() <= 1e-14 * sup
        assert np.abs(f2 + inner_harmonic_eval(im, pts)).max() <= 1e-14 * sup
        for i, p in enumerate(pts):
            alone = decompose_cap_at(samples, p[None], **opts)
            assert alone[0][0] == f2[i] and alone[1][0] == f3[i]

    @pytest.mark.parametrize("name", PIN_CAPS)
    @pytest.mark.parametrize("m", [64, 65, 512])
    def test_boundary_terms_match_the_rim_kernel_sums(self, name, m, quadrature_split):
        # the rim kernels' trapezoid sums and the solvers' sums approximate
        # the same integrals, and agree once both have converged (both
        # sides take the area sums of _convolution, quadrature_split): within
        # 0.8 rho at m = 512, within 0.4 rho at m = 64 and 65 (at 0.8 rho
        # there they differ by their quadrature errors, up to 5e-5)
        cap = PIN_CAPS[name]
        grid = build_cap_grid(cap, 16, 32)
        _, _, samples, trace = self._field(grid)
        reach = 0.8 if m == 512 else 0.4
        pts = random_interior_points(cap, np.random.default_rng(m), 40, reach)
        got = decompose_cap_at(
            samples, pts, boundary_f3=trace, scale=10, m=m, demean=False
        )
        want = _rim_kernel_split(samples, pts, trace, 10, m)
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max()

    def test_probe_at_the_rim_raises(self):
        # the boundary terms keep the Dirichlet solver's strict interior
        # rule, checked before the area sums, after the cap's own rule
        grid = build_cap_grid(self.CAP, 12, 24)
        _, _, samples, trace = self._field(grid)
        rho = self.CAP.radius
        near = cap_point(self.CAP, (rho - 5e-7) / rho, 0.3)[None, :]
        assert 1.0 - near @ self.CAP.center == pytest.approx(rho - 5e-7, abs=1e-12)
        with pytest.raises(ValueError, match="strictly interior"):
            decompose_cap_at(samples, near, boundary_f3=trace, scale=6, m=64)

    def test_zero_trace_forces_boundary_zero(self):
        grid = build_cap_grid(self.CAP, 64, 128)
        p, _, _, _ = self._field(grid)
        grad_only = FieldSamples(
            grid, sh_grad_eval(p, grid.nodes), tangential=True
        )
        near = SphericalCap(self.CAP.center, 0.98 * self.CAP.radius)
        ring = np.flatnonzero(~near.contains(grid.nodes))[:16]
        _, f3 = decompose_cap_at(
            grad_only,
            grid.nodes[ring],
            scale=10,
            m=512,
            demean=False,
        )
        # these targets lie 3.1e-4 from the rim, inside 2^-10, where the
        # regularized kernels are least accurate: max |F3| reads 1.6e-2
        assert np.abs(f3).max() < 2e-2

    def test_node_level_api_radial_part(self):
        grid = build_cap_grid(self.CAP, 24, 48)
        _, _, samples, trace = self._field(grid)
        helm = helmholtz_decompose_cap(samples, boundary_f3=trace, scale=7, m=128)
        assert_allclose(
            helm.f1.values,
            np.sum(samples.values * grid.nodes, axis=1),
            atol=1e-15,
        )
        assert abs(np.sum(grid.weights * helm.f2.values)) < 1e-10

    def test_demean_at_off_grid_probes_shifts_only_f2(self, rng):
        grid = build_cap_grid(self.CAP, 24, 48)
        _, _, samples, trace = self._field(grid)
        pts = random_interior_points(self.CAP, rng, 30)
        opts = dict(boundary_f3=trace, scale=7, m=128)
        f2, f3 = decompose_cap_at(samples, pts, demean=True, **opts)
        raw2, raw3 = decompose_cap_at(samples, pts, demean=False, **opts)
        nodes2, _ = decompose_cap_at(samples, grid.nodes, demean=False, **opts)
        # F3 has no gauge freedom on a cap: the demean pass leaves it alone
        assert np.array_equal(f3, raw3)
        gauge = mean_value(FieldSamples(grid, nodes2))
        assert np.abs(f2 - (raw2 - gauge)).max() <= 1e-15 * np.abs(f2).max()

    def test_boundary_field_is_ignored(self, rng):
        # the split reads no field values on the boundary: boundary_field
        # changes no bit, and no (N, m) or (P, m) block of field transfers
        # is held
        grid = build_cap_grid(self.CAP, 96, 192)
        p, s, samples, _ = self._field(grid)
        field = lambda pts: sh_grad_eval(p, pts) + sh_curl_eval(s, pts)
        pts = random_interior_points(self.CAP, rng, 10)
        opts = dict(scale=12, m=512, demean=False)
        tracemalloc.start()
        try:
            got = decompose_cap_at(samples, pts, boundary_field=field, **opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        want = decompose_cap_at(samples, pts, **opts)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize(
        "trace",
        [
            np.array([0.5]),
            np.full(64, np.nan),
            lambda pts: np.zeros(len(pts) - 1),
        ],
        ids=["length-one", "nan", "wrong-length-callable"],
    )
    def test_bad_boundary_trace_raises(self, trace):
        grid = build_cap_grid(self.CAP, 12, 24)
        _, _, samples, _ = self._field(grid)
        with pytest.raises(ValueError):
            decompose_cap_at(samples, grid.nodes[:5], boundary_f3=trace, scale=6, m=64)
        with pytest.raises(ValueError):
            helmholtz_decompose_cap(samples, boundary_f3=trace, scale=6, m=64)

    def test_boundary_trace_as_field_samples(self):
        # FieldSamples on a boundary grid of the cap act as the array form,
        # and bring their own node count, which replaces m (the cap solvers'
        # rule); samples on another cap's boundary are rejected
        grid = build_cap_grid(self.CAP, 12, 24)
        _, _, samples, trace = self._field(grid)
        pts = grid.nodes[:5]
        for m in (64, 128):
            bgrid = build_boundary_grid(self.CAP, m)
            values = trace(bgrid.nodes)
            as_array = decompose_cap_at(samples, pts, boundary_f3=values, scale=6, m=m)
            as_samples = decompose_cap_at(
                samples, pts, boundary_f3=FieldSamples(bgrid, values), scale=6, m=64
            )
            for got, want in zip(as_samples, as_array):
                assert np.array_equal(got, want)
        other = build_boundary_grid(SphericalCap(self.CAP.center, 0.8), 128)
        with pytest.raises(ValueError, match="collocation grid"):
            decompose_cap_at(
                samples, pts, boundary_f3=FieldSamples(other, values), scale=6, m=128
            )

    def test_grid_without_cap_raises(self):
        grid = build_sphere_grid(8, 16)
        samples = FieldSamples(grid, np.cross(grid.nodes, [0.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="cap area grid"):
            decompose_cap_at(samples, grid.nodes[:5], scale=6, m=64)
        with pytest.raises(ValueError, match="cap area grid"):
            helmholtz_decompose_cap(samples, scale=6, m=64)


class TestHalfShiftOperator:
    def test_spectral_action(self):
        c = coefficients_from_entries(2, {(2, 3): 1.0})
        forward = d_apply(c, 1)
        assert forward.coeffs[2, 2] == pytest.approx(2.5)
        inverse = d_apply(c, -1)
        assert inverse.coeffs[2, 2] == pytest.approx(0.4)
        round_trip = d_apply(d_apply(c, 1), -1)
        assert_allclose(round_trip.coeffs, c.coeffs, atol=1e-14)
        constant = coefficients_from_entries(0, {(0, 1): 1.0})
        assert d_apply(constant, -1).coeffs[0, 0] == pytest.approx(2.0)

    def test_convolution_of_constant(self):
        ones = FieldSamples(GRID, np.ones(len(GRID)))
        values = d_inv_convolve(ones, np.arange(0, len(GRID), 301))
        assert_allclose(values, 2.0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_convolution_matches_spectral(self, n, rng):
        grid = build_sphere_grid(96, 192)
        c = coefficients_from_entries(n, {(n, n + 1): 1.0})
        samples = FieldSamples(grid, sh_eval(c, grid.nodes))
        idx = rng.choice(len(grid), 40, replace=False, p=grid.weights / (4 * np.pi))
        values = d_inv_convolve(samples, idx)
        truth = sh_eval(c, grid.nodes[idx]) / (n + 0.5)
        assert np.abs(values - truth).max() < 1e-3

    def test_spectral_action_rejects_other_powers(self):
        with pytest.raises(ValueError, match="power must be"):
            d_apply(coefficients_from_entries(1, {(1, 2): 1.0}), 2)

    def test_sphere_paths_reject_cap_grids(self):
        grid = build_cap_grid(TestCapDecomposition.CAP, 8, 16)
        field = FieldSamples(grid, np.cross(grid.nodes, [0.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="needs a sphere grid"):
            helmholtz_decompose_sphere(field)
        with pytest.raises(ValueError, match="needs a sphere grid"):
            d_inv_convolve(FieldSamples(grid, np.ones(len(grid))), 0)

    def test_convolution_requires_node_alignment(self):
        ones = FieldSamples(GRID, np.ones(len(GRID)))
        with pytest.raises(ValueError):
            d_inv_convolve(ones, unit_vector([0.123, 0.456, 0.789]))

    @pytest.mark.parametrize("idx", [-1, [-1], [10**6], [0, 2048]], ids=str)
    def test_convolution_rejects_indices_off_the_grid(self, idx):
        # indices must lie in [0, N): a negative one does not wrap to the
        # last node, and one past the end is a ValueError, not an IndexError
        samples = FieldSamples(GRID, np.ones(len(GRID)))
        assert len(GRID) == 2048
        with pytest.raises(ValueError, match=r"node indices must lie in \[0, 2048\)"):
            d_inv_convolve(samples, idx)
        assert_allclose(d_inv_convolve(samples, [0, 2047]), 2.0, atol=1e-12)

    def test_convolution_node_tolerance(self):
        samples = FieldSamples(GRID, sh_eval(synth_field(3, 0, 4), GRID.nodes))
        idx = np.arange(5, len(GRID), 97)
        shift = np.array([0.6, -0.8, 0.0])
        # node points give the bits of their indices: a stack gives an array,
        # a scalar index and its single (3,) node the same float
        stacked = d_inv_convolve(samples, GRID.nodes[idx])
        assert isinstance(stacked, np.ndarray) and stacked.shape == idx.shape
        assert np.array_equal(stacked, d_inv_convolve(samples, idx))
        one = d_inv_convolve(samples, int(idx[3]))
        assert type(one) is float
        assert type(d_inv_convolve(samples, GRID.nodes[idx[3]])) is float
        assert d_inv_convolve(samples, GRID.nodes[idx[3]]) == one
        # a point off its node is rejected, however close (1 - xi . eta
        # is below 1e-12 at this offset)
        near = unit_vector(GRID.nodes[idx] + 1e-8 * shift)
        assert np.all(np.sum(near * GRID.nodes[idx], axis=1) >= 1.0 - 1e-12)
        far = unit_vector(GRID.nodes[idx] + 1e-5 * shift)
        for pts in (near, far):
            with pytest.raises(ValueError, match="coincide with grid nodes"):
                d_inv_convolve(samples, pts)


class TestHardyHodge:
    def test_difference_identity_is_exact(self):
        c = synth_field(6, 1, 5)
        f = FieldSamples(
            GRID,
            sh_grad_eval(c, GRID.nodes)
            + GRID.nodes * sh_eval(c, GRID.nodes)[:, None],
        )
        hh = hardy_hodge_decompose_sphere(f)
        helm = helmholtz_decompose_sphere(f)
        assert np.abs((hh.f1.values - hh.f2.values) + helm.f2.values).max() < 1e-10
        # uniqueness gauges
        assert abs(np.sum(GRID.weights * hh.f3.values)) < 1e-10
        assert abs(np.sum(GRID.weights * (hh.f1.values - hh.f2.values))) < 1e-10

    def test_inner_source_field_round_trip(self, rng):
        n, j = 3, 4
        y = coefficients_from_entries(n, {(n, j): 1.0})
        vals = (n + 1.0) * GRID.nodes * sh_eval(y, GRID.nodes)[
            :, None
        ] - sh_grad_eval(y, GRID.nodes)
        hh = hardy_hodge_decompose_sphere(FieldSamples(GRID, vals))
        y_nodes = sh_eval(y, GRID.nodes)
        idx = rng.choice(len(GRID), 64, replace=False, p=GRID.weights / (4 * np.pi))
        assert np.abs(hh.f1.values[idx] - y_nodes[idx]).max() < 1e-12
        assert np.abs(hh.f2.values[idx]).max() < 1e-12
        assert np.abs(hh.f3.values[idx]).max() < 1e-12

    def test_surface_scalar_passthrough(self):
        s = coefficients_from_entries(2, {(2, 5): 1.0})
        f = FieldSamples(GRID, sh_curl_eval(s, GRID.nodes))
        hh = hardy_hodge_decompose_sphere(f)
        helm = helmholtz_decompose_sphere(f)
        assert_allclose(hh.f3.values, helm.f3.values, atol=1e-15)

    def test_one_convolution_matches_two_pass_form(self):
        # D^-1 is linear: applying it once to F1/2 + F2/4 gives the scalars
        # of applying it to F1 and F2 apart, up to rounding; the ignored
        # scale changes no bit
        p, s = synth_field(41, 1, 6), synth_field(42, 1, 6)
        f = FieldSamples(
            GRID,
            GRID.nodes * sh_eval(p, GRID.nodes)[:, None]
            + sh_grad_eval(p, GRID.nodes)
            + sh_curl_eval(s, GRID.nodes),
        )
        hh = hardy_hodge_decompose_sphere(f)
        f1, f2, f3 = sh_analyze(f)
        d1, d2, f2, f3 = sh_synthesize(GRID, d_apply(f1, -1), d_apply(f2, -1), f2, f3)
        two_pass = (0.5 * d1 + 0.25 * d2 - 0.5 * f2, 0.5 * d1 + 0.25 * d2 + 0.5 * f2, f3)
        scaled = hardy_hodge_decompose_sphere(f, scale=10)
        for got, again, want in zip(
            (hh.f1, hh.f2, hh.f3), (scaled.f1, scaled.f2, scaled.f3), two_pass
        ):
            assert np.abs(got.values - want).max() <= 1e-14 * np.abs(want).max()
            assert np.array_equal(again.values, got.values)

    def test_spectral_composition_consistency(self, rng):
        f1 = synth_field(31, 0, 4)
        f2 = synth_field(32, 1, 4)
        f3 = synth_field(33, 1, 4)
        d1 = d_apply(f1, -1)
        d2 = d_apply(f2, -1)
        t1 = ShCoefficients(4, 0.5 * d1.coeffs + 0.25 * d2.coeffs - 0.5 * f2.coeffs)
        t2 = ShCoefficients(4, 0.5 * d1.coeffs + 0.25 * d2.coeffs + 0.5 * f2.coeffs)
        pts = np.array([unit_vector(rng.normal(size=3)) for _ in range(12)])
        via_hh = hardy_hodge_compose_spectral(t1, t2, f3, pts)
        via_helm = helmholtz_compose(f1, f2, f3, pts)
        assert np.abs(via_hh - via_helm).max() < 1e-6
