"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a [PASS] line with its headline metric and wall time when it
succeeds (run with -s or -v to see them). Configurations follow the
documented production scales; where a sup norm is discretized, the probe
sets are seeded and declared inline.
"""

import time

import numpy as np
import pytest

from conftest import cap_point, random_interior_points
from sphaerica.apps import (
    geo_forward,
    geo_reconstruct,
    random_vortices,
    vd_forward,
    vd_reconstruct,
    vortex_mfs,
)
from sphaerica.cli import RunConfig, run
from sphaerica.decomposition import (
    d_apply,
    d_inv_convolve,
    decompose_cap_at,
    hardy_hodge_compose_spectral,
    hardy_hodge_decompose_sphere,
    helmholtz_compose,
    helmholtz_decompose_sphere,
)
from sphaerica.geometry import (
    SphericalCap,
    boundary_frame,
    boundary_nodes,
    stereographic_project,
    unit_vector,
)
from sphaerica.harmonics import (
    InnerHarmonicIndex,
    ShCoefficients,
    coefficients_from_entries,
    inner_harmonic_eval,
    inner_harmonic_grad,
    log_series,
    sh_curl_eval,
    sh_eval,
    sh_grad_eval,
    synth_field,
)
from sphaerica.kernels import fundamental, fundamental_deriv, neumann_green
from sphaerica.layers import DensitySamples, double_layer, jump_probe, solve_idp, solve_inp
from sphaerica.quadrature import (
    FieldSamples,
    build_boundary_grid,
    build_cap_grid,
    build_sphere_grid,
    mean_value,
    sample,
)
from sphaerica.solvers import (
    dirichlet_solve_cap,
    invert_gradient,
    mvp_residual,
    neumann_solve_cap,
    surface_potential,
)
from test_kernels import log_endpoint_integral


class Stopwatch:
    def __init__(self, budget_seconds: float):
        self.budget = budget_seconds
        self.start = time.perf_counter()

    def finish(self, label: str, metric: str) -> None:
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget, f"{label} exceeded {self.budget}s budget"
        print(f"[PASS] {label}: {metric} ({elapsed:.1f}s)")


def tangent_pair(xi):
    helper = (
        np.array([0.0, 0.0, 1.0]) if abs(xi[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    )
    e1 = unit_vector(np.cross(helper, xi))
    return e1, np.cross(xi, e1)


def test_criterion_01_fundamental_solution_suite():
    watch = Stopwatch(5.0)
    # zero spherical mean, via the graded-panel zonal oracle ...
    log_part = log_endpoint_integral(lambda t: np.ones_like(t))
    zonal = 2 * np.pi * (log_part / (4 * np.pi) + 2 * (1 - np.log(2)) / (4 * np.pi))
    assert abs(zonal) < 1e-10
    # ... and through the quadrature operator on the (64,128) grid
    grid = build_sphere_grid(64, 128)
    ones = sample(grid, lambda p: np.ones(len(p)))
    rng = np.random.default_rng(101)
    probes = grid.nodes[rng.choice(len(grid), 8, replace=False)]
    operator = surface_potential(ones, probes, scale=12)
    assert np.abs(operator).max() < 1e-10
    # closed-form point value
    assert abs(fundamental(-1.0) - 1.0 / (4 * np.pi)) < 1e-15
    # analytic derivatives against finite differences at 50 random pairs
    worst = 0.0
    for _ in range(50):
        xi = unit_vector(rng.normal(size=3))
        eta = unit_vector(rng.normal(size=3))
        if xi @ eta > 1.0 - 1e-3:
            continue
        grad = fundamental_deriv(xi, eta, "grad")
        for direction in tangent_pair(eta):
            h = 1e-5
            fd = (
                fundamental(float(xi @ unit_vector(eta + h * direction)))
                - fundamental(float(xi @ unit_vector(eta - h * direction)))
            ) / (2 * h)
            worst = max(worst, abs(fd - float(grad @ direction)))
    assert worst < 1e-6
    watch.finish(
        "criterion 1 (fundamental suite)",
        f"mean {abs(zonal):.1e}, operator {np.abs(operator).max():.1e}, fd {worst:.1e}",
    )


def test_criterion_02_normal_derivative_trichotomy():
    watch = Stopwatch(1.0)
    cap = SphericalCap(unit_vector([0.1, -0.2, 0.97]), 0.5)
    grid = build_boundary_grid(cap, 256)
    ones = DensitySamples(grid, np.ones(256))
    interior = double_layer(ones, cap.center)
    exterior = double_layer(ones, -cap.center)
    midpoint = boundary_frame(cap, float(grid.phis[17]) + np.pi / 256)
    on_curve = double_layer(ones, midpoint.position)
    worst = max(
        abs(interior - 0.75), abs(on_curve - 0.25), abs(exterior + 0.25)
    )
    assert worst < 1e-10
    watch.finish("criterion 2 (trichotomy)", f"max deviation {worst:.1e}")


def test_criterion_03_spectral_inversion():
    watch = Stopwatch(30.0)
    grid = build_sphere_grid(64, 128)
    rng = np.random.default_rng(103)
    # every harmonic degree/order pair, probed at a seeded area-uniform
    # subset of the grid nodes
    sel = rng.choice(len(grid), 256, replace=False, p=grid.weights / (4 * np.pi))
    worst = 0.0
    for n in range(1, 6):
        for j in range(1, 2 * n + 2):
            c = coefficients_from_entries(n, {(n, j): 1.0})
            values = sh_eval(c, grid.nodes)
            samples = FieldSamples(grid, values)
            out = surface_potential(samples, grid.nodes[sel], scale=12)
            worst = max(
                worst, float(np.abs(out + values[sel] / (n * (n + 1))).max())
            )
    # the hardest fields (order one at the highest degree) additionally get
    # the full sup over every node, the polar rows included
    for j in (5, 7):
        c = coefficients_from_entries(5, {(5, j): 1.0})
        values = sh_eval(c, grid.nodes)
        out = surface_potential(FieldSamples(grid, values), grid.nodes, scale=12)
        worst = max(worst, float(np.abs(out + values / 30.0).max()))
    assert worst < 1e-12
    watch.finish("criterion 3 (spectral inversion)", f"sup error {worst:.2e}")


def test_criterion_04_mean_value_properties():
    watch = Stopwatch(10.0)
    rng = np.random.default_rng(104)
    worst = 0.0
    for rho in (0.5, 0.9, 1.3):
        cap = SphericalCap(unit_vector([0.2, 0.1, 0.95]), rho)
        for n in range(1, 6):
            for order in (1, 2):
                idx = InnerHarmonicIndex(cap, n, order)
                for _ in range(10):
                    center = cap_point(
                        cap, 0.7 * rng.random(), rng.uniform(0, 2 * np.pi)
                    )
                    probe = SphericalCap(center, 0.05)
                    for which in ("I", "II"):
                        worst = max(
                            worst,
                            mvp_residual(
                                lambda p: inner_harmonic_eval(idx, p), probe, which
                            ),
                        )
    assert worst < 1e-9
    a = unit_vector([0.3, 1.0, -0.2])
    control_probe = SphericalCap(unit_vector([0.25, 0.2, 0.94]), 0.05)
    control = mvp_residual(lambda p: (p @ a) ** 2, control_probe, "II")
    assert control > 1e-6
    watch.finish(
        "criterion 4 (mean value properties)",
        f"harmonic residual {worst:.1e}, control {control:.1e}",
    )


def test_criterion_05_dirichlet_suite():
    watch = Stopwatch(10.0)
    rng = np.random.default_rng(105)
    cap = SphericalCap(unit_vector([0.15, 0.1, 0.98]), 0.9)
    # margin 0.1 rho: probes inside the concentric cap of radius 0.9 rho
    probes = np.array(
        [
            cap_point(cap, 0.9 * rng.random(), rng.uniform(0, 2 * np.pi))
            for _ in range(64)
        ]
    )
    const = dirichlet_solve_cap(cap, lambda p: np.ones(len(p)), probes, m=512)
    const_err = np.abs(const - 1.0).max()
    assert const_err < 1e-12
    idx = InnerHarmonicIndex(cap, 2, 1)
    data = lambda p: inner_harmonic_eval(idx, p)
    closed = dirichlet_solve_cap(cap, data, probes, m=512)
    trace_err = np.abs(closed - inner_harmonic_eval(idx, probes)).max()
    assert trace_err < 1e-8
    solution = solve_idp(build_boundary_grid(cap, 512), data)
    cross_err = np.abs(solution(probes) - closed).max()
    assert cross_err < 1e-7
    watch.finish(
        "criterion 5 (Dirichlet suite)",
        f"const {const_err:.1e}, trace {trace_err:.1e}, cross {cross_err:.1e}",
    )


def test_criterion_06_neumann_suite():
    watch = Stopwatch(10.0)
    rng = np.random.default_rng(106)
    cap = SphericalCap(unit_vector([0.0, 0.2, 0.95]), 0.9)
    # boundary condition of the Neumann kernel
    boundary_worst = 0.0
    for _ in range(10):
        xi = cap_point(cap, 0.85 * rng.random(), rng.uniform(0, 2 * np.pi))
        phi = rng.uniform(0, 2 * np.pi)
        bp = boundary_frame(cap, phi)
        grad = neumann_green(cap, xi, bp.position, mode="grad")
        boundary_worst = max(boundary_worst, abs(float(bp.normal @ grad)))
    assert boundary_worst < 1e-10
    # representation self-consistency on a degree-1 inner harmonic
    idx = InnerHarmonicIndex(cap, 1, 1)
    bgrid = build_boundary_grid(cap, 512)
    data = np.sum(bgrid.normals * inner_harmonic_grad(idx, bgrid.nodes), axis=1)
    area_grid = build_cap_grid(cap, 48, 96)
    mean = mean_value(sample(area_grid, lambda p: inner_harmonic_eval(idx, p)))
    probes = random_interior_points(cap, rng, 40)
    recon = neumann_solve_cap(cap, FieldSamples(bgrid, data), mean, probes)
    recon_err = np.abs(recon - inner_harmonic_eval(idx, probes)).max()
    assert recon_err < 1e-7
    # collocation route, up to one additive constant
    solution = solve_inp(bgrid, data)
    values = solution(probes)
    truth = inner_harmonic_eval(idx, probes)
    deviation = (values - truth) - np.mean(values - truth)
    inp_err = np.abs(deviation).max()
    assert inp_err < 1e-6
    watch.finish(
        "criterion 6 (Neumann suite)",
        f"boundary {boundary_worst:.1e}, recon {recon_err:.1e}, inp {inp_err:.1e}",
    )


def test_criterion_07_jump_relations():
    watch = Stopwatch(30.0)
    cap = SphericalCap(unit_vector([0.0, 0.1, 1.0]), 0.5)
    taus = [2.0**-k for k in range(4, 10)]
    # any m would do, the layers being exact on the density's interpolant:
    # 32768 nodes exercise the rim series' trimming to the density's band
    m = 32768
    grid = build_boundary_grid(cap, m)
    q = 0.7 + 0.4 * np.cos(grid.phis) - 0.25 * np.sin(2 * grid.phis)
    density = DensitySamples(grid, q)
    node = m // 3
    double_rep = jump_probe(density, node, taus, "double", "value")
    double_rel = abs(double_rep.jump + q[node]) / abs(q[node])
    assert double_rel < 0.02
    tilde = DensitySamples(
        grid, 0.4 * np.cos(grid.phis) - 0.3 * np.sin(3 * grid.phis), mean_free=True
    )
    single_rep = jump_probe(tilde, node, taus, "single", "value")
    assert abs(single_rep.jump) < 1e-3
    normal_rep = jump_probe(tilde, node, taus, "single", "normal-derivative")
    normal_rel = abs(normal_rep.jump - tilde.values[node]) / abs(tilde.values[node])
    assert normal_rel < 0.02
    watch.finish(
        "criterion 7 (jump relations)",
        f"double {double_rel:.1e}, single {abs(single_rep.jump):.1e}, "
        f"normal {normal_rel:.1e}",
    )


def test_criterion_08_gradient_inversion():
    watch = Stopwatch(60.0)
    cap = SphericalCap(unit_vector([0.1, 0.2, 1.0]), 0.9)
    grid = build_cap_grid(cap, 120, 240)
    a = unit_vector([0.3, -1.0, 0.4])
    grad = a[None, :] - (grid.nodes @ a)[:, None] * grid.nodes
    samples = FieldSamples(grid, grad, tangential=True)
    truth = grid.nodes @ a
    cap_mean = float(np.sum(grid.weights * truth) / np.sum(grid.weights))
    inner = SphericalCap(cap.center, 0.8 * cap.radius)
    keep = np.flatnonzero(inner.contains(grid.nodes))
    rng = np.random.default_rng(108)
    sel = rng.choice(
        keep, 250, replace=False, p=grid.weights[keep] / grid.weights[keep].sum()
    )
    pts = grid.nodes[sel]
    errors = {}
    for scale in (8, 10, 12):
        recon = invert_gradient(samples, "grad", scale, pts)
        diff = recon - (pts @ a - cap_mean)
        diff -= diff.mean()
        errors[scale] = float(np.abs(diff).max())
    assert errors[10] < 1e-3
    assert errors[8] > errors[10] > errors[12]
    curl_samples = FieldSamples(grid, np.cross(grid.nodes, grad), tangential=True)
    recon = invert_gradient(curl_samples, "curl", 10, pts)
    diff = recon - (pts @ a - cap_mean)
    diff -= diff.mean()
    curl_err = float(np.abs(diff).max())
    assert curl_err < 1e-3
    watch.finish(
        "criterion 8 (gradient inversion)",
        f"errors {errors[8]:.1e} > {errors[10]:.1e} > {errors[12]:.1e}, "
        f"curl {curl_err:.1e}",
    )


def test_criterion_09_helmholtz_round_trips():
    watch = Stopwatch(10.0)
    # global split on (96,192): one field carrying both tangential parts
    grid = build_sphere_grid(96, 192)
    p_c = coefficients_from_entries(3, {(3, 2): 1.0})
    s_c = coefficients_from_entries(2, {(2, 4): 1.0})
    f = FieldSamples(
        grid,
        sh_grad_eval(p_c, grid.nodes) + sh_curl_eval(s_c, grid.nodes),
        tangential=True,
    )
    helm = helmholtz_decompose_sphere(f)

    def node_demeaned(c):
        v = sh_eval(c, grid.nodes)
        return v - float(np.sum(grid.weights * v) / (4 * np.pi))

    global_f2 = float(np.abs(helm.f2.values - node_demeaned(p_c)).max())
    global_f3 = float(np.abs(helm.f3.values - node_demeaned(s_c)).max())
    assert global_f2 < 1e-11 and global_f3 < 1e-11
    # cap split at seeded interior probes of the 0.8 rho cap
    cap = SphericalCap(unit_vector([0.2, -0.1, 1.0]), 0.9)
    cap_grid = build_cap_grid(cap, 96, 192)
    p_cap = synth_field(21, 0, 5, 1.0)
    s_cap = synth_field(22, 0, 5, 1.0)
    field_vals = sh_grad_eval(p_cap, cap_grid.nodes) + sh_curl_eval(
        s_cap, cap_grid.nodes
    )
    cap_samples = FieldSamples(cap_grid, field_vals, tangential=True)
    inner = SphericalCap(cap.center, 0.8 * cap.radius)
    keep = np.flatnonzero(inner.contains(cap_grid.nodes))
    rng = np.random.default_rng(109)
    sel = rng.choice(
        keep,
        250,
        replace=False,
        p=cap_grid.weights[keep] / cap_grid.weights[keep].sum(),
    )
    pts = cap_grid.nodes[sel]
    f2, f3 = decompose_cap_at(
        cap_samples,
        pts,
        boundary_f3=lambda q: sh_eval(s_cap, q),
        scale=12,
        m=512,
        demean=False,
    )
    p_ref = sh_eval(p_cap, pts)
    cap_f2 = (f2 - p_ref) - np.mean(f2 - p_ref)
    cap_err2 = float(np.abs(cap_f2).max())
    cap_err3 = float(np.abs(f3 - sh_eval(s_cap, pts)).max())
    assert cap_err2 < 1e-3 and cap_err3 < 1e-3
    # pointwise orthogonality of the composed parts
    zero = coefficients_from_entries(0, {})
    ortho = 0.0
    for xi in pts[:20]:
        radial = helm.f1.values[0] * xi  # any radial vector is fine here
        grad_part = helmholtz_compose(zero, p_cap, zero, xi)
        curl_part = helmholtz_compose(zero, zero, p_cap, xi)
        ortho = max(
            ortho,
            abs(float(radial @ grad_part)),
            abs(float(radial @ curl_part)),
            abs(float(grad_part @ curl_part)),
        )
    assert ortho < 1e-12
    watch.finish(
        "criterion 9 (Helmholtz round trips)",
        f"global {max(global_f2, global_f3):.1e}, cap {max(cap_err2, cap_err3):.1e}, "
        f"orthogonality {ortho:.1e}",
    )


def test_criterion_10_hardy_hodge():
    watch = Stopwatch(5.0)
    # convolution inverse against the spectral eigenvalues on (96,192)
    grid = build_sphere_grid(96, 192)
    rng = np.random.default_rng(110)
    idx = rng.choice(len(grid), 48, replace=False, p=grid.weights / (4 * np.pi))
    spectral_worst = 0.0
    for n in range(1, 9):
        c = coefficients_from_entries(n, {(n, min(n + 1, 2 * n + 1)): 1.0})
        samples = FieldSamples(grid, sh_eval(c, grid.nodes))
        vals = d_inv_convolve(samples, idx)
        truth = sh_eval(c, grid.nodes[idx]) / (n + 0.5)
        spectral_worst = max(spectral_worst, float(np.abs(vals - truth).max()))
    assert spectral_worst < 2e-3
    ones = FieldSamples(grid, np.ones(len(grid)))
    const_err = float(np.abs(d_inv_convolve(ones, idx[:4]) - 2.0).max())
    assert const_err < 1e-12
    # difference identity on a mixed field (size-independent, smaller grid)
    small = build_sphere_grid(48, 96)
    mix = synth_field(7, 1, 5)
    field = FieldSamples(
        small,
        small.nodes * sh_eval(mix, small.nodes)[:, None]
        + sh_grad_eval(mix, small.nodes),
    )
    hh = hardy_hodge_decompose_sphere(field)
    helm = helmholtz_decompose_sphere(field)
    identity_err = float(
        np.abs((hh.f1.values - hh.f2.values) + helm.f2.values).max()
    )
    assert identity_err < 1e-10
    # composition consistency of the two operator families, spectrally
    f1 = synth_field(31, 0, 4)
    f2 = synth_field(32, 1, 4)
    f3 = synth_field(33, 1, 4)
    t1 = ShCoefficients(
        4, 0.5 * d_apply(f1, -1).coeffs + 0.25 * d_apply(f2, -1).coeffs - 0.5 * f2.coeffs
    )
    t2 = ShCoefficients(
        4, 0.5 * d_apply(f1, -1).coeffs + 0.25 * d_apply(f2, -1).coeffs + 0.5 * f2.coeffs
    )
    pts = np.array([unit_vector(rng.normal(size=3)) for _ in range(16)])
    compose_err = float(
        np.abs(
            hardy_hodge_compose_spectral(t1, t2, f3, pts)
            - helmholtz_compose(f1, f2, f3, pts)
        ).max()
    )
    assert compose_err < 1e-6
    watch.finish(
        "criterion 10 (Hardy-Hodge)",
        f"spectral {spectral_worst:.1e}, const {const_err:.1e}, "
        f"identity {identity_err:.1e}, compose {compose_err:.1e}",
    )


def test_criterion_11_log_series():
    watch = Stopwatch(5.0)
    zeta = unit_vector([0.1, 0.2, 0.95])
    rho = 0.8
    cap = SphericalCap(zeta, rho)
    # chart-radius ratio near 0.6 keeps the 40-term error above the
    # floating-point floor, so the fitted decay rate stays meaningful
    xi = cap_point(cap, 0.55, 1.1)
    eta = cap_point(SphericalCap(zeta, 1.9), 0.462, 2.8)
    truth = np.log(1.0 - float(xi @ eta))
    sigma = np.linalg.norm(stereographic_project(zeta, xi)) / np.linalg.norm(
        stereographic_project(zeta, eta)
    )
    errors = [
        abs(log_series(xi, eta, zeta, rho, n) - truth) for n in (5, 10, 20, 40)
    ]
    assert errors[0] > errors[1] > errors[2] > errors[3]
    fitted = (errors[3] / errors[0]) ** (1.0 / 35.0)
    assert abs(fitted - sigma) / sigma < 0.2
    watch.finish(
        "criterion 11 (log series)",
        f"errors {errors[0]:.1e} .. {errors[3]:.1e}, ratio {fitted:.3f} vs {sigma:.3f}",
    )


def test_criterion_12_applications():
    watch = Stopwatch(180.0)
    rng = np.random.default_rng(112)
    # potential from its gradient field
    cap = SphericalCap(unit_vector([-0.3, 0.2, 0.93]), 0.8)
    grid = build_cap_grid(cap, 120, 240)
    t_c = synth_field(7, 3, 25, 2.0)
    t_samples, theta = vd_forward(t_c, cap, grid)
    t_mean = mean_value(t_samples)
    inner = SphericalCap(cap.center, 0.8 * cap.radius)
    keep = np.flatnonzero(inner.contains(grid.nodes))
    sel = rng.choice(
        keep, 250, replace=False, p=grid.weights[keep] / grid.weights[keep].sum()
    )
    pts = grid.nodes[sel]
    vd_errors = {}
    for scale in (6, 10, 15):
        report = vd_reconstruct(
            theta, scale, t_mean, pts, oracle=lambda p: sh_eval(t_c, p)
        )
        vd_errors[scale] = report.diagnostics["rel_l2_error"]
    assert vd_errors[15] < 0.02
    assert vd_errors[6] > vd_errors[10] > vd_errors[15]
    # height from the balanced flow
    geo_cap = SphericalCap(unit_vector([0.25, -0.2, 0.95]), 0.5)
    geo_grid = build_cap_grid(geo_cap, 120, 240)
    h_c = synth_field(8, 3, 25, 2.0)
    h_samples, flow = geo_forward(h_c, geo_cap, geo_grid)
    h_mean = mean_value(h_samples)
    geo_inner = SphericalCap(geo_cap.center, 0.8 * geo_cap.radius)
    geo_keep = np.flatnonzero(geo_inner.contains(geo_grid.nodes))
    geo_sel = rng.choice(
        geo_keep,
        250,
        replace=False,
        p=geo_grid.weights[geo_keep] / geo_grid.weights[geo_keep].sum(),
    )
    geo_pts = geo_grid.nodes[geo_sel]
    geo_errors = {}
    for scale in (6, 10, 15):
        report = geo_reconstruct(
            flow, scale, h_mean, geo_pts, oracle=lambda p: sh_eval(h_c, p)
        )
        geo_errors[scale] = report.diagnostics["rel_l2_error"]
    assert geo_errors[15] < 0.02
    assert geo_errors[6] > geo_errors[10] > geo_errors[15]
    # stream function from boundary collocation
    polar = SphericalCap(np.array([0.0, 0.0, 1.0]), 0.9)
    vortices = random_vortices(polar, 5, 42)
    probes = random_interior_points(polar, rng, 150)
    mfs_errors = {}
    for count in (50, 100, 200):
        report = vortex_mfs(
            polar,
            vortices,
            n_sources=count,
            radius_offset=0.005,
            ridge=1e-12,
            probes=probes,
        )
        mfs_errors[count] = report.diagnostics["rel_sup_error"]
    assert mfs_errors[200] < 1e-4
    assert mfs_errors[50] > mfs_errors[100] > mfs_errors[200]
    watch.finish(
        "criterion 12 (applications)",
        f"vd {vd_errors[15]:.1e}, geo {geo_errors[15]:.1e}, "
        f"vortex {mfs_errors[200]:.1e}",
    )


def test_criterion_13_determinism(tmp_path):
    watch = Stopwatch(120.0)
    commands = [
        ("selfcheck", {}),
        ("vertical-deflections", {"nt": 32, "nphi": 64, "scale": 8}),
        ("geostrophic", {"nt": 32, "nphi": 64, "scale": 8, "cap_radius": 0.5}),
        ("vortex", {"nt": 16, "nphi": 32, "n_sources": 50}),
    ]
    compared = 0
    for command, overrides in commands:
        outs = []
        for tag in ("a", "b"):
            out_dir = tmp_path / f"{command}-{tag}"
            cfg = RunConfig(command, seed=7, out_dir=str(out_dir), **overrides)
            assert run(cfg) == 0
            outs.append(out_dir)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
            compared += 1
    watch.finish(
        "criterion 13 (determinism)", f"{compared} files byte-identical"
    )
