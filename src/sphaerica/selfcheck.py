"""Fast invariant suite behind the selfcheck command.

Each check returns (name, passed, metric); metrics are the measured
residuals so a report reader can judge margins. The suite covers the load
bearing identities of every module in a few seconds.
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    SphericalCap,
    boundary_nodes,
    cap_metrics,
    circle_points,
    reflect,
    rotation_to_pole,
    unit_vector,
)
from .harmonics import (
    InnerHarmonicIndex,
    coefficients_from_entries,
    inner_harmonic_eval,
    inner_harmonic_grad,
    sh_eval,
    synth_field,
)
from .kernels import fundamental, fundamental_deriv, neumann_green
from .layers import DensitySamples, double_layer, solve_idp, solve_inp
from .quadrature import (
    build_boundary_grid,
    build_cap_grid,
    build_sphere_grid,
    integrate,
    sample,
)
from .solvers import beltrami_fd, mvp_residual


def _check_rotation(rng):
    worst = 0.0
    for _ in range(20):
        zeta = unit_vector(rng.normal(size=3))
        t = rotation_to_pole(zeta)
        worst = max(
            worst,
            float(np.abs(t.T @ t - np.eye(3)).max()),
            abs(np.linalg.det(t) - 1.0),
            float(np.abs(t @ np.array([0.0, 0.0, 1.0]) - zeta).max()),
        )
    return worst < 1e-12, worst


def _check_reflection(rng):
    worst = 0.0
    phis = 2.0 * np.pi * np.arange(64) / 64
    for rho in (0.1, 0.5, 1.0, 1.5, 1.9):
        cap = SphericalCap(unit_vector(rng.normal(size=3)), rho)
        pos, _, _ = boundary_nodes(cap, phis)
        for _ in range(5):
            t = 1.0 - rho * rng.random()
            ang = rng.uniform(0.0, 2.0 * np.pi)
            xi = circle_points(cap.frame, t, np.sqrt(1 - t * t), ang)
            ref = reflect(cap, xi)
            res = np.abs((1.0 - pos @ xi) - ref.scale * (1.0 - pos @ ref.point))
            worst = max(worst, float(res.max()))
    return worst < 1e-12, worst


def _check_quadrature(rng):
    cap = SphericalCap(unit_vector([0.3, -0.2, 0.9]), 0.7)
    grid = build_cap_grid(cap, 24, 48)
    err = abs(float(np.sum(grid.weights)) - cap_metrics(cap)[0])
    sphere = build_sphere_grid(24, 48)
    err = max(err, abs(float(np.sum(sphere.weights)) - 4.0 * np.pi))
    bnd = build_boundary_grid(cap, 64)
    err = max(err, abs(float(np.sum(bnd.weights)) - cap_metrics(cap)[1]))
    moment = integrate(sphere, sample(sphere, lambda p: p[:, 2] ** 2))
    err = max(err, abs(moment - 4.0 * np.pi / 3.0))
    return err < 1e-11, err


def _check_harmonics(rng):
    grid = build_sphere_grid(24, 48)
    worst = 0.0
    for n, j in ((0, 1), (3, 2), (6, 9)):
        c = coefficients_from_entries(n, {(n, j): 1.0})
        v = sh_eval(c, grid.nodes)
        worst = max(worst, abs(float(np.sum(grid.weights * v * v)) - 1.0))
    return worst < 1e-12, worst


def _check_fundamental(rng):
    err = abs(fundamental(-1.0) - 1.0 / (4.0 * np.pi))
    xi = unit_vector(rng.normal(size=3))
    eta = unit_vector(rng.normal(size=3))
    grad = fundamental_deriv(xi, eta, "grad")
    h = 1e-5
    e1 = unit_vector(np.cross([0.0, 0.0, 1.0], eta))
    fd = (
        fundamental(float(xi @ unit_vector(eta + h * e1)))
        - fundamental(float(xi @ unit_vector(eta - h * e1)))
    ) / (2.0 * h)
    err = max(err, abs(fd - float(grad @ e1)))
    return err < 1e-6, err


def _check_trichotomy(rng):
    cap = SphericalCap(unit_vector([0.1, 0.0, 1.0]), 0.5)
    grid = build_boundary_grid(cap, 256)
    ones = DensitySamples(grid, np.ones(256))
    err = abs(double_layer(ones, cap.center) - 0.75)
    err = max(err, abs(double_layer(ones, -cap.center) + 0.25))
    return err < 1e-10, err


def _check_mvp(rng):
    cap = SphericalCap(unit_vector([0.2, 0.1, 1.0]), 0.9)
    idx = InnerHarmonicIndex(cap, 3, 1)
    fr = cap.frame
    center = 0.7 * cap.center + np.sqrt(1 - 0.49) * fr[:, 0]
    probe = SphericalCap(unit_vector(center), 0.05)
    r1 = mvp_residual(lambda p: inner_harmonic_eval(idx, p), probe, "I")
    r2 = mvp_residual(lambda p: inner_harmonic_eval(idx, p), probe, "II")
    return max(r1, r2) < 1e-10, max(r1, r2)


def _check_green_boundary(rng):
    cap = SphericalCap(unit_vector([0.0, 0.2, 1.0]), 0.8)
    fr = cap.frame
    xi = 0.75 * cap.center + np.sqrt(1 - 0.75**2) * fr[:, 1]
    xi = unit_vector(xi)
    grid = build_boundary_grid(cap, 32)
    worst = 0.0
    for i in range(32):
        grad = neumann_green(cap, xi, grid.nodes[i], mode="grad")
        worst = max(worst, abs(float(grid.normals[i] @ grad)))
    return worst < 1e-10, worst


def _check_bie(rng):
    cap = SphericalCap(unit_vector([0.0, 0.1, 1.0]), 0.5)
    grid = build_boundary_grid(cap, 128)
    sol = solve_idp(grid, lambda p: np.ones(len(p)))
    err = abs(sol(cap.center) - 1.0)
    idx = InnerHarmonicIndex(cap, 1, 1)
    data = np.sum(grid.normals * inner_harmonic_grad(idx, grid.nodes), axis=1)
    soln = solve_inp(grid, data)
    err = max(err, abs(float(np.sum(grid.weights * soln.density.values))))
    return err < 1e-10, err


def _check_beltrami(rng):
    c = coefficients_from_entries(4, {(4, 3): 1.0})
    xi = unit_vector([0.3, -0.4, 0.85])
    fd = beltrami_fd(lambda p: sh_eval(c, p), xi, 1e-3)
    rel = abs(fd + 20.0 * sh_eval(c, xi)) / abs(20.0 * sh_eval(c, xi))
    return rel < 1e-3, rel


def _check_determinism(rng):
    a = synth_field(1234, 2, 12)
    b = synth_field(1234, 2, 12)
    same = np.array_equal(a.coeffs, b.coeffs)
    g1 = build_sphere_grid(16, 32)
    g2 = build_sphere_grid(16, 32)
    same = same and np.array_equal(g1.nodes, g2.nodes)
    same = same and np.array_equal(g1.weights, g2.weights)
    return bool(same), 0.0 if same else 1.0


_CHECKS = (
    ("rotation_frames", _check_rotation),
    ("cap_reflection", _check_reflection),
    ("quadrature_weights", _check_quadrature),
    ("harmonic_normalization", _check_harmonics),
    ("fundamental_solution", _check_fundamental),
    ("normal_derivative_trichotomy", _check_trichotomy),
    ("mean_value_properties", _check_mvp),
    ("neumann_kernel_boundary", _check_green_boundary),
    ("boundary_integral_equations", _check_bie),
    ("surface_laplacian_probe", _check_beltrami),
    ("determinism", _check_determinism),
)


def run_all(seed: int = 1):
    """Run every check with one seeded generator; returns (name, ok, metric)."""
    rng = np.random.default_rng(seed)
    results = []
    for name, check in _CHECKS:
        ok, metric = check(rng)
        results.append((name, bool(ok), float(metric)))
    return results
