import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (
    cap_point,
    fd_tangent_derivative,
    kernel_gradient_sums,
    random_interior_points,
    tangent_basis,
)
from sphaerica.geometry import (
    AntipodeError,
    SphericalCap,
    boundary_nodes,
    rotation_to_pole,
    stereographic_project,
    unit_vector,
)
from sphaerica.harmonics import (
    MAX_DEGREE,
    RING_MAX_DEGREE,
    RING_MIN_NODES,
    InnerHarmonicIndex,
    ShCoefficients,
    _ring_grid,
    _rim_series,
    _sh_accumulate,
    coefficients_from_entries,
    inner_harmonic_eval,
    inner_harmonic_grad,
    log_series,
    sh_analyze,
    sh_curl_eval,
    sh_eval,
    sh_grad_eval,
    sh_synthesize,
    synth_field,
)
from sphaerica.kernels import KIND_FUNDAMENTAL, KernelSpec
from sphaerica.quadrature import (
    FieldSamples,
    build_boundary_grid,
    build_cap_grid,
    build_sphere_grid,
)
from sphaerica.solvers import default_scale, invert_gradient, mvp_residual


def test_constant_harmonic_value():
    c = coefficients_from_entries(0, {(0, 1): 1.0})
    xi = unit_vector([0.3, -0.5, 0.8])
    assert sh_eval(c, xi) == pytest.approx(1.0 / np.sqrt(4 * np.pi), abs=1e-15)


def test_degree_one_parity():
    c = coefficients_from_entries(1, {(1, 3): 1.0})
    xi = unit_vector([0.4, 0.1, 0.9])
    assert sh_eval(c, xi) == pytest.approx(-sh_eval(c, -xi), abs=1e-14)


def test_orthonormality():
    grid = build_sphere_grid(24, 48)
    entries = [(n, j) for n in range(0, 9) for j in (1, n + 1, 2 * n + 1)]
    entries = sorted(set(entries))
    basis = {
        (n, j): sh_eval(coefficients_from_entries(n, {(n, j): 1.0}), grid.nodes)
        for n, j in entries
    }
    for i, (n, j) in enumerate(entries):
        for m, k in entries[i:]:
            inner = float(np.sum(grid.weights * basis[(n, j)] * basis[(m, k)]))
            expected = 1.0 if (n, j) == (m, k) else 0.0
            assert inner == pytest.approx(expected, abs=1e-12)


def test_gradient_of_linear_function():
    # x . a expanded in degree-1 harmonics; grad must equal a - (x.a) x
    a = np.array([0.7, -0.3, 0.55])
    scale = np.sqrt(4 * np.pi / 3)
    c = coefficients_from_entries(
        1, {(1, 1): scale * a[1], (1, 2): scale * a[2], (1, 3): scale * a[0]}
    )
    xi = unit_vector([0.2, 0.9, -0.3])
    assert sh_eval(c, xi) == pytest.approx(float(xi @ a), abs=1e-14)
    grad = sh_grad_eval(c, xi)
    assert_allclose(grad, a - (xi @ a) * xi, atol=1e-13)


def test_gradient_matches_finite_differences(rng):
    c = synth_field(11, 0, 10, 1.0)
    for _ in range(20):
        xi = unit_vector(rng.normal(size=3))
        grad = sh_grad_eval(c, xi)
        assert abs(float(grad @ xi)) < 1e-12
        for direction in tangent_basis(xi):
            fd = fd_tangent_derivative(lambda p: sh_eval(c, p), xi, direction)
            assert fd == pytest.approx(float(grad @ direction), abs=1e-6)


def test_constant_field_has_zero_gradient():
    c = coefficients_from_entries(0, {(0, 1): 3.0})
    assert_allclose(sh_grad_eval(c, unit_vector([0.1, 0.2, 0.97])), 0.0, atol=1e-15)


def test_synth_field_determinism_and_bounds():
    a = synth_field(42, 3, 25, 2.0)
    b = synth_field(42, 3, 25, 2.0)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert a.seed == 42
    assert np.abs(a.coeffs).max() <= 1.0
    assert np.all(a.coeffs[:3] == 0.0)
    assert np.isfinite(a.coeffs).all()
    with pytest.raises(ValueError):
        synth_field(1, 5, 3)


def test_coefficients_validation():
    with pytest.raises(ValueError):
        ShCoefficients(2, np.ones((2, 5)))
    with pytest.raises(ValueError):
        coefficients_from_entries(2, {(2, 6): 1.0})
    with pytest.raises(ValueError):
        ShCoefficients(2, np.full((3, 5), np.nan))


CAP = SphericalCap(unit_vector([0.15, 0.1, 0.98]), 0.9)


def test_inner_harmonic_special_values():
    R = (CAP.radius * (2 - CAP.radius)) ** 0.25
    idx0 = InnerHarmonicIndex(CAP, 0, 1)
    xi = cap_point(CAP, 0.62, 2.1)
    assert inner_harmonic_eval(idx0, xi) == pytest.approx(
        1.0 / (R * np.sqrt(np.pi)), abs=1e-14
    )
    idx1 = InnerHarmonicIndex(CAP, 1, 1)
    assert inner_harmonic_eval(idx1, CAP.center) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        InnerHarmonicIndex(CAP, 0, 2)


@pytest.mark.parametrize("degree,order", [(1, 1), (3, 1), (5, 2)])
def test_inner_harmonics_are_harmonic(degree, order, rng):
    idx = InnerHarmonicIndex(CAP, degree, order)
    for _ in range(5):
        center = cap_point(CAP, 0.75 * rng.random(), rng.uniform(0, 2 * np.pi))
        probe = SphericalCap(center, 0.05)
        residual = mvp_residual(lambda p: inner_harmonic_eval(idx, p), probe, "II")
        assert residual < 1e-10


def test_inner_harmonic_gradient_fd(rng):
    idx = InnerHarmonicIndex(CAP, 3, 2)
    for _ in range(20):
        xi = cap_point(CAP, 0.85 * rng.random(), rng.uniform(0, 2 * np.pi))
        grad = inner_harmonic_grad(idx, xi)
        assert abs(float(grad @ xi)) < 1e-12
        for direction in tangent_basis(xi):
            fd = fd_tangent_derivative(
                lambda p: inner_harmonic_eval(idx, p), xi, direction
            )
            assert fd == pytest.approx(float(grad @ direction), abs=1e-6)


def test_inner_harmonic_gradient_vanishes_at_center_for_high_degree():
    idx = InnerHarmonicIndex(CAP, 3, 1)
    assert_allclose(inner_harmonic_grad(idx, CAP.center), 0.0, atol=1e-14)


@pytest.mark.parametrize("degree,order", [(0, 1), (2, 1), (3, 2)])
def test_inner_harmonics_reject_the_antipode(degree, order):
    # value and gradient share the chart of stereographic_project, and so
    # its antipode check, alone or inside a stack
    idx = InnerHarmonicIndex(CAP, degree, order)
    stack = np.array([CAP.center, -CAP.center])
    for evaluate in (inner_harmonic_eval, inner_harmonic_grad):
        for xi in (-CAP.center, stack):
            with pytest.raises(AntipodeError, match="at the antipode"):
                evaluate(idx, xi)


def test_tangential_derivative_closed_loop():
    # the derivative of any harmonic along the boundary integrates to zero
    idx = InnerHarmonicIndex(CAP, 1, 1)
    grid = build_boundary_grid(CAP, 64)
    tangential = np.sum(grid.tangents * inner_harmonic_grad(idx, grid.nodes), axis=1)
    assert abs(np.sum(grid.weights * tangential)) < 1e-13


CHART_CAPS = {
    "polar": SphericalCap(np.array([0.0, 0.0, 1.0]), 0.5),
    "tilted": SphericalCap(unit_vector([0.2, -0.1, 1.0]), 0.9),
    "south": SphericalCap(np.array([0.0, 0.0, -1.0]), 0.7),
    "wide": SphericalCap(unit_vector([0.3, 0.5, -0.2]), 1.8),
}


def _chart_targets(cap):
    """Area nodes of a 32 x 64 grid and 128 rim nodes of the cap."""
    return np.concatenate([build_cap_grid(cap, 32, 64).nodes, build_boundary_grid(cap, 128).nodes])


def _reference_rim_series(cap, c, pts):
    """The chart series as solvers once summed it: the per-point real Horner
    loop at w = stereographic_project / R_b, without the gradient."""
    rho = cap.radius
    p = stereographic_project(cap.center, pts) / (2.0 * np.sqrt(rho / (2.0 - rho)))
    u, v = p[:, 0], p[:, 1]
    re, im = np.full(len(pts), c[-1].real), np.full(len(pts), c[-1].imag)
    t1, t2 = np.empty(len(pts)), np.empty(len(pts))
    for ck in c[-2::-1]:
        np.multiply(re, u, out=t1)
        np.multiply(im, v, out=t2)
        t1 -= t2
        np.multiply(re, v, out=t2)
        im *= u
        im += t2
        re, t1 = t1, re
        re += ck.real
        im += ck.imag
    return re + 1j * im


def _reference_inner(idx, pts):
    """Value and gradient of an inner harmonic as harmonics once formed
    them: complex powers of p/R, R = (rho (2 - rho))^(1/4), and the chart's
    hand-written Jacobian."""
    zeta = idx.cap.center
    a1, a2 = rotation_to_pole(zeta)[:, :2].T
    n, R = idx.degree, (idx.cap.radius * (2.0 - idx.cap.radius)) ** 0.25
    p1, p2 = stereographic_project(zeta, pts).T
    w = (p1 + 1j * p2) / R
    wn = w**n / (R * np.sqrt(np.pi))
    dw = (n * w ** max(n - 1, 0) / R if n else np.zeros_like(w)) / (R * np.sqrt(np.pi))
    # Re w^n has the planar gradient (Re dw, -Im dw), Im w^n (Im dw, Re dw)
    if idx.order == 1:
        value, gp1, gp2 = wn.real, dw.real, -dw.imag
    else:
        value, gp1, gp2 = wn.imag, dw.imag, dw.real
    denom = 1.0 + pts @ zeta

    def tangential(a):
        return a[None, :] - (pts @ a)[:, None] * pts

    grad_p1 = 2.0 * tangential(a1) / denom[:, None] - (p1 / denom)[:, None] * tangential(zeta)
    grad_p2 = 2.0 * tangential(a2) / denom[:, None] - (p2 / denom)[:, None] * tangential(zeta)
    return value, gp1[:, None] * grad_p1 + gp2[:, None] * grad_p2


def _reference_log_series(xi, eta, zeta, rho, n_terms):
    """log_series as a loop of products of inner harmonics of the cap at xi
    and of its complement at eta, the sine products entering with a minus
    sign (the complement's frame flips a2), each scaled by (s/4)^n."""
    cap = SphericalCap(zeta, rho)
    s = cap.boundary_sine
    total = -np.log(2.0) + np.log(1.0 + xi @ zeta) + np.log(1.0 - eta @ zeta)
    acc = 0.0
    for n in range(1, n_terms + 1):
        hx = [_reference_inner(InnerHarmonicIndex(cap, n, k), xi[None])[0][0] for k in (1, 2)]
        he = [
            _reference_inner(InnerHarmonicIndex(cap.complement, n, k), eta[None])[0][0]
            for k in (1, 2)
        ]
        acc += (2.0 / n) * (s / 4.0) ** n * (hx[0] * he[0] - hx[1] * he[1])
    return total - s * np.pi * acc


class TestChartSeries:
    @pytest.mark.parametrize("name", ["polar", "tilted", "south"])
    def test_values_keep_the_bits_of_the_real_horner_loop(self, name):
        cap = CHART_CAPS[name]
        pts = _chart_targets(cap)
        rng = np.random.default_rng(7)
        for length in (1, 2, 5, 40):
            c = rng.normal(size=length) + 1j * rng.normal(size=length)
            want = _reference_rim_series(cap, c, pts)
            for got in (_rim_series(cap, c, pts), _rim_series(cap, c, pts, grad=True)[0]):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", ["polar", "tilted", "south"])
    def test_each_point_sums_its_own_terms_with_the_bits_it_has_alone(self, name):
        cap = CHART_CAPS[name]
        pts = _chart_targets(cap)
        rng = np.random.default_rng(9)
        c = rng.normal(size=40) + 1j * rng.normal(size=40)
        terms = rng.integers(0, 41, len(pts))
        got = _rim_series(cap, c, pts, terms=terms)
        assert np.array_equal(got[terms == 0], np.zeros(np.sum(terms == 0)))
        for n in np.unique(terms[terms > 0]):
            at = terms == n
            assert np.array_equal(got[at], _reference_rim_series(cap, c[:n], pts[at]))
        pick = rng.choice(len(pts), 30, replace=False)
        alone = [_rim_series(cap, c, pts[i : i + 1], terms=terms[i : i + 1])[0] for i in pick]
        assert np.array_equal(alone, got[pick])
        _, grad = _rim_series(cap, c, pts, grad=True, terms=terms)
        at = terms == 40
        assert np.array_equal(grad[at], _rim_series(cap, c, pts[at], grad=True)[1])

    @pytest.mark.parametrize("name", CHART_CAPS)
    def test_inner_harmonics_match_complex_powers(self, name):
        cap = CHART_CAPS[name]
        pts = _chart_targets(cap)
        for n in range(10):
            for order in (1, 2) if n else (1,):
                idx = InnerHarmonicIndex(cap, n, order)
                value, grad = _reference_inner(idx, pts)
                got = inner_harmonic_eval(idx, pts)
                assert np.abs(got - value).max() <= 1e-14 * np.abs(value).max()
                got = inner_harmonic_grad(idx, pts)
                assert np.abs(got - grad).max() <= 1e-14 * max(np.abs(grad).max(), 1.0)

    def test_log_series_matches_the_inner_harmonic_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            zeta = unit_vector(rng.normal(size=3))
            xi, eta = _chart_pair(
                zeta, 0.8, 0.6 * rng.random(), rng.uniform(0, 6.3), 0.9, rng.uniform(0, 6.3)
            )
            for n in (0, 1, 5, 17, 30):
                want = _reference_log_series(xi, eta, zeta, 0.8, n)
                assert abs(log_series(xi, eta, zeta, 0.8, n) - want) <= 1e-14

    @pytest.mark.parametrize("name", CHART_CAPS)
    def test_gradient_matches_finite_differences(self, name):
        cap = CHART_CAPS[name]
        rng = np.random.default_rng(13)
        c = rng.normal(size=9) + 1j * rng.normal(size=9)
        value = lambda p: _rim_series(cap, c, np.atleast_2d(p)).real
        pts = random_interior_points(cap, rng, 12, 0.85)
        _, grad = _rim_series(cap, c, pts, grad=True)
        sup = np.abs(grad).max()
        for xi, g in zip(pts, grad):
            assert abs(g @ xi) <= 1e-14 * sup
            for direction in tangent_basis(xi):
                fd = fd_tangent_derivative(value, xi, direction)[0]
                assert abs(fd - g @ direction) <= 1e-7 * sup


def _chart_pair(zeta, rho, t_xi, phi_xi, t_eta, phi_eta):
    cap = SphericalCap(zeta, rho)
    xi = cap_point(cap, t_xi, phi_xi)
    eta = cap_point(SphericalCap(zeta, 1.999), t_eta, phi_eta)
    return xi, eta


def test_log_series_empty_sum_is_log_prefix():
    zeta = unit_vector([0.1, 0.2, 0.95])
    xi, eta = _chart_pair(zeta, 0.8, 0.3, 1.0, 0.8, 2.5)
    value = log_series(xi, eta, zeta, 0.8, 0)
    expected = (
        -np.log(2.0) + np.log(1 + xi @ zeta) + np.log(1 - eta @ zeta)
    )
    assert value == pytest.approx(expected, abs=1e-15)


def test_log_series_converges_with_expected_ratio():
    zeta = unit_vector([0.1, 0.2, 0.95])
    xi, eta = _chart_pair(zeta, 0.8, 0.35, 1.1, 0.75, 2.8)
    truth = np.log(1.0 - xi @ eta)
    sigma = np.linalg.norm(stereographic_project(zeta, xi)) / np.linalg.norm(
        stereographic_project(zeta, eta)
    )
    errors = [abs(log_series(xi, eta, zeta, 0.8, n) - truth) for n in (5, 10, 20, 40)]
    assert errors[0] > errors[1] > errors[2] > errors[3]
    fitted = (errors[1] / errors[0]) ** (1.0 / 5.0)
    assert fitted == pytest.approx(sigma, rel=0.2)


def test_log_series_precondition():
    zeta = unit_vector([0.0, 0.0, 1.0])
    xi, eta = _chart_pair(zeta, 0.8, 0.9, 0.3, 0.2, 0.3)
    with pytest.raises(ValueError):
        log_series(xi, eta, zeta, 0.8, 5)


def _reference_accumulate(c, points):
    """The per-(n, m) synthesis loop the order-at-a-time core replaced.

    Kept as a reference only: it takes sin(theta) from sqrt(1 - z^2) and
    divides the cancelling n z P_n - e P_{n-1} by it, so near the poles it is
    the less accurate of the two.
    """
    L = c.l_max
    z = np.clip(points[:, 2], -1.0, 1.0)
    sin_t = np.sqrt(np.clip(1.0 - z * z, 1e-30, None))
    phi = np.arctan2(points[:, 1], points[:, 0])
    cos_m = np.empty((L + 1, len(points)))
    sin_m = np.empty((L + 1, len(points)))
    cos_m[0], sin_m[0] = 1.0, 0.0
    if L >= 1:
        cos_m[1], sin_m[1] = np.cos(phi), np.sin(phi)
    for m in range(2, L + 1):
        cos_m[m] = cos_m[m - 1] * cos_m[1] - sin_m[m - 1] * sin_m[1]
        sin_m[m] = sin_m[m - 1] * cos_m[1] + cos_m[m - 1] * sin_m[1]
    values = np.zeros(points.shape[0])
    grads = np.zeros_like(points)
    cos_p = points[:, 0] / sin_t
    sin_p = points[:, 1] / sin_t
    theta_hat = np.stack([z * cos_p, z * sin_p, -sin_t], axis=1)
    phi_hat = np.stack([-sin_p, cos_p, np.zeros_like(z)], axis=1)
    pmm = np.full(points.shape[0], 0.5 / np.sqrt(np.pi))
    for m in range(L + 1):
        if m > 0:
            pmm = pmm * sin_t * np.sqrt((2 * m + 1.0) / (2 * m))
        p_prev = np.zeros_like(pmm)
        p_curr = pmm
        for n in range(m, L + 1):
            cc = c.coeffs[n, n + m]
            cs = c.coeffs[n, n - m] if m > 0 else 0.0
            azim = np.sqrt(2.0) if m > 0 else 1.0
            combo = cc * cos_m[m] + cs * sin_m[m]
            values += azim * p_curr * combo
            e = (2 * n + 1.0) * (n * n - m * m) / (2 * n - 1.0) if n > m else 0.0
            dp_dtheta = (n * z * p_curr - np.sqrt(e) * p_prev) / sin_t
            grads += (azim * dp_dtheta * combo)[:, None] * theta_hat
            if m > 0:
                dcombo = m * (cs * cos_m[m] - cc * sin_m[m])
                grads += (azim * p_curr / sin_t * dcombo)[:, None] * phi_hat
            if n < L:
                alpha = np.sqrt((4.0 * (n + 1) ** 2 - 1.0) / ((n + 1) ** 2 - m * m))
                beta = (
                    np.sqrt(
                        (2.0 * n + 3.0) * (n - m) * (n + m)
                        / ((2.0 * n - 1.0) * ((n + 1) ** 2 - m * m))
                    )
                    if n > m
                    else 0.0
                )
                p_curr, p_prev = alpha * z * p_curr - beta * p_prev, p_curr
    return values, grads


def _reference_points():
    rng = np.random.default_rng(7)
    random = rng.normal(size=(1500, 3))
    cap = SphericalCap(unit_vector([0.7, -0.4, 0.3]), 0.6)
    return {
        "sphere": build_sphere_grid(32, 64).nodes,
        "cap": build_cap_grid(cap, 24, 48).nodes,
        "random": random / np.linalg.norm(random, axis=1, keepdims=True),
    }


def _rel_sup(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


# At degree 128 both loops sit about 1e-14 (relative sup) from an
# extended-precision evaluation and differ from each other by up to 3.8e-14
# (seeds 0-2, decay 1 and 2), so the pin there is 5e-14.
@pytest.mark.parametrize("l_max,tol", [(25, 1e-14), (MAX_DEGREE, 5e-14)])
@pytest.mark.parametrize("kind", ["sphere", "cap", "random"])
def test_synthesis_matches_reference_loop(l_max, tol, kind):
    points = _reference_points()[kind]
    # the reference loop loses accuracy as 1/sin^2(theta) towards the poles;
    # at L = 25 it is 2.1e-14 off the new core on all points, 5.8e-15 here
    points = points[np.abs(points[:, 2]) <= 0.99]
    c = synth_field(3, 0, l_max)
    ref_values, ref_grads = _reference_accumulate(c, points)
    assert _rel_sup(sh_eval(c, points), ref_values) <= tol
    assert _rel_sup(sh_grad_eval(c, points), ref_grads) <= tol


def test_value_and_gradient_calls_give_identical_values():
    points = _reference_points()["random"]
    for l_max in (0, 1, 25, MAX_DEGREE):
        c = synth_field(4, 0, l_max)
        values, _ = _sh_accumulate(c, points, want_grad=False)
        with_grad, _ = _sh_accumulate(c, points, want_grad=True)
        assert np.array_equal(values, with_grad)


def test_no_points_give_empty_sums():
    c = synth_field(4, 0, 5)
    assert sh_eval(c, np.empty((0, 3))).shape == (0,)
    assert sh_grad_eval(c, np.empty((0, 3))).shape == (0, 3)


def _near_pole(pole: float, angle: float) -> np.ndarray:
    phi = 0.7
    return np.array(
        [np.sin(angle) * np.cos(phi), np.sin(angle) * np.sin(phi), pole * np.cos(angle)]
    )


@pytest.mark.parametrize("pole", [1.0, -1.0])
@pytest.mark.parametrize("angle", [0.0, 1e-12, 1e-8])
def test_gradient_is_pole_safe(pole, angle):
    xi = _near_pole(pole, angle)
    c = synth_field(5, 1, 12, 1.0)
    grad = sh_grad_eval(c, xi)
    assert abs(float(grad @ xi)) < 1e-14
    fd = [
        fd_tangent_derivative(lambda p: sh_eval(c, p), xi, d) for d in tangent_basis(xi)
    ]
    exact = [float(grad @ d) for d in tangent_basis(xi)]
    assert np.abs(np.subtract(fd, exact)).max() <= 1e-6 * np.abs(fd).max()


@pytest.mark.parametrize("pole", [1.0, -1.0])
@pytest.mark.parametrize("angle", [0.0, 1e-12, 1e-8])
def test_degree_one_gradient_at_the_poles(pole, angle):
    a = np.array([0.7, -0.3, 0.55])
    scale = np.sqrt(4 * np.pi / 3)
    c = coefficients_from_entries(
        1, {(1, 1): scale * a[1], (1, 2): scale * a[2], (1, 3): scale * a[0]}
    )
    xi = _near_pole(pole, angle)
    assert_allclose(sh_grad_eval(c, xi), a - (xi @ a) * xi, rtol=0, atol=1e-15)


def _per_point_accumulate(c, points):
    """The order-at-a-time core that recurred the Legendre functions at
    every point, kept as a reference: it divides P_nm by sin(theta) rather
    than sin^m(theta) and rotates cos(m phi), sin(m phi) point by point."""
    L = c.l_max
    n_pts = points.shape[0]
    x, y = points[:, 0], points[:, 1]
    z = np.clip(points[:, 2], -1.0, 1.0)
    sin_t = np.hypot(x, y)
    on_axis = sin_t == 0.0
    safe = np.where(on_axis, 1.0, sin_t)
    cos_p = np.where(on_axis, 1.0, x / safe)
    sin_p = y / safe
    sqrt2 = np.sqrt(2.0)
    buf = np.empty((L + 1, n_pts))
    tmp = np.empty(n_pts)
    rest = np.zeros(n_pts)
    acc = np.zeros((3, n_pts))
    d_zonal = np.zeros(n_pts)
    cos_m, sin_m = np.ones(n_pts), np.zeros(n_pts)
    pmm = np.full(n_pts, 0.5 / np.sqrt(np.pi))
    for m in range(L + 1):
        if m > 0:
            pmm = (pmm * sin_t if m > 1 else pmm) * np.sqrt((2 * m + 1.0) / (2 * m))
        p = buf[m:]
        p[0] = pmm
        n = np.arange(m, L + 1.0)
        lo, hi2 = n[:-1], (n[:-1] + 1.0) ** 2 - m * m
        alpha = np.sqrt((4.0 * (lo + 1.0) ** 2 - 1.0) / hi2)
        beta = np.sqrt(
            (2.0 * lo + 3.0) * (lo - m) * (lo + m) / ((2.0 * lo - 1.0) * hi2)
        )
        for i, (a, b) in enumerate(zip(alpha.tolist(), beta.tolist()), start=1):
            np.multiply(z, a, out=p[i])
            p[i] *= p[i - 1]
            if i > 1:
                p[i] -= np.multiply(p[i - 2], b, out=tmp)
        rows = np.arange(m, L + 1)
        cc = c.coeffs[rows, rows + m]
        if m == 0:
            zonal = cc @ p
            continue
        if m == 1:
            d_zonal = (-np.sqrt(n * (n + 1.0)) * c.coeffs[rows, rows]) @ p
        cs = c.coeffs[rows, rows - m]
        cos_m, sin_m = cos_m * cos_p - sin_m * sin_p, sin_m * cos_p + cos_m * sin_p
        r = (sqrt2 * np.stack([cc, cs])) @ p
        rest += r[0] * cos_m + r[1] * sin_m
        e = np.sqrt((2.0 * n + 1.0) * (n * n - m * m) / (2.0 * n - 1.0))
        ecc, ecs = (np.append((e * v)[1:], 0.0) for v in (cc, cs))
        w = sqrt2 * np.stack([n * cc, ecc, m * cs, n * cs, ecs, -m * cc])
        g = w @ p
        acc += g[:3] * cos_m + g[3:] * sin_m
    values = zonal + sin_t * rest
    d_theta = z * acc[0] - acc[1] + sin_t * d_zonal
    d_phi = acc[2]
    grads = np.stack(
        [
            z * cos_p * d_theta - sin_p * d_phi,
            z * sin_p * d_theta + cos_p * d_phi,
            -sin_t * d_theta,
        ],
        axis=1,
    )
    return values, grads


def _per_z_points():
    """Random points, the nodes of a sphere, a polar-cap and a tilted-cap
    grid (only the tilted ones have no repeated z), exact poles and points
    1e-12 to 1e-2 from either pole. The 13 280 distinct z of the 96x192
    tilted grid span several chunks of the degree pass at every degree
    above 0."""
    rng = np.random.default_rng(11)
    random = rng.normal(size=(400, 3))
    angles = np.concatenate([[0.0], np.logspace(-12, -2, 11)])
    phis = rng.uniform(0.0, 2.0 * np.pi, angles.size)
    s = np.sin(angles)
    near = [
        np.stack([s * np.cos(phis), s * np.sin(phis), pole * np.cos(angles)], axis=1)
        for pole in (1.0, -1.0)
    ]
    polar = SphericalCap(np.array([0.0, 0.0, 1.0]), 0.5)
    tilted = SphericalCap(unit_vector([0.3, 0.2, 1.0]), 0.9)
    criterion_9 = SphericalCap(unit_vector([0.2, -0.1, 1.0]), 0.9)
    return {
        "random": random / np.linalg.norm(random, axis=1, keepdims=True),
        "sphere": build_sphere_grid(16, 32).nodes,
        "polar-cap": build_cap_grid(polar, 16, 32).nodes,
        "tilted-cap": build_cap_grid(tilted, 16, 32).nodes,
        "tilted-cap-chunks": build_cap_grid(criterion_9, 96, 192).nodes,
        "poles": np.concatenate(near),
    }


PER_Z_POINTS = _per_z_points()


@pytest.mark.parametrize(
    "l_max,tol", [(0, 1e-13), (1, 1e-13), (8, 1e-13), (25, 1e-13), (MAX_DEGREE, 1e-12)]
)
@pytest.mark.parametrize("kind", list(PER_Z_POINTS))
def test_per_z_synthesis_matches_the_per_point_recurrence(l_max, tol, kind):
    points = PER_Z_POINTS[kind]
    c = synth_field(l_max + 2, 0, l_max)
    ref_values, ref_grads = _per_point_accumulate(c, points)
    values, grads = _sh_accumulate(c, points, want_grad=True)
    assert np.abs(values - ref_values).max() <= tol * np.abs(ref_values).max()
    if l_max == 0:
        assert np.array_equal(grads, np.zeros_like(points))
    else:
        assert np.abs(grads - ref_grads).max() <= tol * np.abs(ref_grads).max()


def test_tilted_gradient_holds_no_node_by_node_buffers():
    # most nodes of a tilted grid have their own z: the degree pass
    # runs in chunks of the distinct z of about 2 MiB of buffers, so no
    # (L + 1, N) block is held and the call peaks near 4.3 MB
    points = PER_Z_POINTS["tilted-cap-chunks"]
    c = synth_field(5, 0, 5)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sh_grad_eval(c, points)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_per_z_gradient_matches_finite_differences():
    # tangential central differences along two directions, at random points
    # and points 1e-6 from either pole
    c = synth_field(13, 0, 8)
    points = PER_Z_POINTS["random"][:20]
    points = np.concatenate([points, [_near_pole(1.0, 1e-6), _near_pole(-1.0, 1e-6)]])
    grads = sh_grad_eval(c, points)
    for xi, grad in zip(points, grads):
        fd = [
            fd_tangent_derivative(lambda p: sh_eval(c, p), xi, d)
            for d in tangent_basis(xi)
        ]
        exact = [float(grad @ d) for d in tangent_basis(xi)]
        assert np.abs(np.subtract(fd, exact)).max() <= 1e-7 * np.abs(grads).max()


# Sphere-grid transforms. The band of an (n_t, n_phi) grid is
# min(n_t - 1, (n_phi - 1) // 2, MAX_DEGREE): 16x16 is limited by n_phi,
# 200x400 by MAX_DEGREE.
TRANSFORM_SHAPES = [(8, 16), (16, 16), (48, 96), (96, 192), (200, 400)]


def _band(shape):
    return min(shape[0] - 1, (shape[1] - 1) // 2, MAX_DEGREE)


def _padded(c: ShCoefficients, l_max: int) -> np.ndarray:
    out = np.zeros((l_max + 1, 2 * l_max + 1))
    out[: c.l_max + 1, : 2 * c.l_max + 1] = c.coeffs
    return out


def _no_mean(c: ShCoefficients) -> ShCoefficients:
    return ShCoefficients(c.l_max, c.coeffs * (np.arange(c.l_max + 1) > 0)[:, None])


@pytest.mark.parametrize("shape", TRANSFORM_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_transform_is_exact_in_the_band(shape):
    grid = build_sphere_grid(*shape)
    L = _band(shape)
    degree = min(8, L)
    h, p, q = (synth_field(seed, 0, degree) for seed in (61, 62, 63))
    nodes = grid.nodes
    # scalar data: coefficients to degree L, and the data's own
    # coefficients synthesized back to the nodes (a round trip adds the
    # analysis' rounding at every degree to L, about L eps of the sup)
    values = sh_eval(h, nodes)
    c = sh_analyze(FieldSamples(grid, values))
    assert c.l_max == L
    sup = np.abs(values).max()
    assert np.abs(c.coeffs - _padded(h, L)).max() <= 1e-12 * sup
    assert np.abs(sh_synthesize(grid, h)[0] - values).max() <= 1e-12 * sup
    # radial, gradient and curl fields: each lands in its own scalar, F2
    # and F3 without their means; the split synthesizes F2 and F3
    fields = {
        "radial": (nodes * sh_eval(h, nodes)[:, None], 0, h),
        "gradient": (sh_grad_eval(p, nodes), 1, _no_mean(p)),
        "curl": (sh_curl_eval(q, nodes), 2, _no_mean(q)),
    }
    for f, part, truth in fields.values():
        scalars = sh_analyze(FieldSamples(grid, f))
        want = sh_eval(truth, nodes)
        sup = np.abs(want).max()
        for k, got in enumerate(scalars):
            expected = _padded(truth, L) if k == part else 0.0
            assert np.abs(got.coeffs - expected).max() <= 1e-12 * sup
        if part:
            got = sh_synthesize(grid, scalars[part])[0]
            assert np.abs(got - want).max() <= 1e-12 * sup


@pytest.mark.parametrize("shape", [(16, 16), (24, 48), (48, 96)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_synthesis_matches_sh_eval_at_the_nodes(shape):
    grid = build_sphere_grid(*shape)
    sets = [synth_field(71, 0, _band(shape)), synth_field(72, 0, 3)]
    values = sh_synthesize(grid, *sets)
    assert values.shape == (2, len(grid))
    for got, c in zip(values, sets):
        want = sh_eval(c, grid.nodes)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        # each set keeps the bits it has alone
        assert np.array_equal(got, sh_synthesize(grid, c)[0])


@pytest.mark.parametrize("shape", [(24, 48), (48, 96)], ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("order", ["zonal", "tesseral", "sectoral"])
@pytest.mark.parametrize("mode", ["grad", "curl"])
def test_band_edge_harmonic_is_exact_where_the_ring_sums_fail(shape, order, mode):
    # a single harmonic of degree n_t - 1: the transform, and invert_gradient
    # at J = 53, keep 1e-10 of the sup. The ring sums of the regularized
    # fundamental solution at the grid's default J err O(1) against U, most
    # of it T_J - U, and miss the exact T_J (invert_gradient) by 2-10%
    grid = build_sphere_grid(*shape)
    n = shape[0] - 1
    m = {"zonal": 0, "tesseral": n // 2, "sectoral": n}[order]
    c = coefficients_from_entries(n, {(n, n + 1 + m): 1.0})
    truth = sh_eval(c, grid.nodes)
    f = sh_grad_eval(c, grid.nodes)
    if mode == "curl":
        f = np.cross(grid.nodes, f)
    samples = FieldSamples(grid, f, tangential=True)
    _, f2, f3 = sh_analyze(samples)
    got = sh_synthesize(grid, f2 if mode == "grad" else f3)[0]
    sup = np.abs(truth).max()
    assert np.abs(got - truth).max() <= 1e-10 * sup
    assert np.abs(invert_gradient(samples, mode, 53, grid.nodes) - truth).max() <= 1e-10 * sup
    spec = KernelSpec(KIND_FUNDAMENTAL, scale=default_scale(grid))
    ring = kernel_gradient_sums(samples, [(spec, mode == "curl")], grid.nodes)[0]
    ring -= np.sum(grid.weights * ring) / (4.0 * np.pi)
    assert np.abs(ring - truth).max() > 0.5 * sup
    exact = invert_gradient(samples, mode, spec.scale, grid.nodes)
    assert np.abs(ring - exact).max() > 0.01 * sup


def test_transforms_need_a_sphere_grid_and_the_synthesis_its_band():
    cap_grid = build_cap_grid(SphericalCap(unit_vector([0.0, 0.2, 1.0]), 0.5), 8, 16)
    with pytest.raises(ValueError, match="needs a sphere grid"):
        sh_analyze(FieldSamples(cap_grid, np.ones(len(cap_grid))))
    with pytest.raises(ValueError, match="needs a sphere grid"):
        sh_synthesize(cap_grid, synth_field(1, 0, 2))
    grid = build_sphere_grid(16, 16)
    sh_synthesize(grid, synth_field(1, 0, 7))
    with pytest.raises(ValueError, match="degree <= 7"):
        sh_synthesize(grid, synth_field(1, 0, 8))


def test_a_synthesis_needs_a_coefficient_set():
    with pytest.raises(ValueError, match="at least one coefficient set"):
        sh_synthesize(build_sphere_grid(8, 16))


# The ring path: tilted cap grids of at least RING_MIN_NODES nodes, degree
# 1 to RING_MAX_DEGREE. 32 x 64 is the least grid past the crossover, and
# its 64 longitudes admit every degree to the bound.
RING_CAPS = {
    "tilted": SphericalCap(unit_vector([0.3, 0.2, 1.0]), 0.9),
    "wide": SphericalCap(unit_vector([1.0, 0.3, 0.1]), 0.5),
    "south-tilted": SphericalCap(unit_vector([0.4, -0.3, -1.0]), 1.6),
}
RING_SHAPE = (32, 64)


def _sup_gap(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


@pytest.mark.parametrize("cap", list(RING_CAPS))
def test_ring_path_matches_the_per_z_path_at_every_admitted_degree(cap):
    # the copy of the nodes takes the per-z path; the worst gap over these
    # caps, degrees and decays is 2.3e-14 of the sup
    grid = build_cap_grid(RING_CAPS[cap], *RING_SHAPE)
    assert RING_MAX_DEGREE <= (RING_SHAPE[1] - 1) // 2 and len(grid) >= RING_MIN_NODES
    copy = grid.nodes.copy()
    for l_max in range(1, RING_MAX_DEGREE + 1):
        for decay in (0.0, 2.0):
            c = synth_field(l_max, 0, l_max, decay)
            assert _ring_grid(c, grid.nodes) is grid
            values, grads = _sh_accumulate(c, grid.nodes, want_grad=True)
            ref_values, ref_grads = _sh_accumulate(c, copy, want_grad=True)
            assert _sup_gap(values, ref_values) <= 1e-13
            assert _sup_gap(grads, ref_grads) <= 1e-13
            # the values of a value call keep the gradient call's bits
            assert np.array_equal(sh_eval(c, grid.nodes), values)
    curl = sh_curl_eval(c, grid.nodes)
    assert _sup_gap(curl, np.cross(copy, ref_grads)) <= 1e-13
    assert np.abs(np.sum(curl * grid.nodes, axis=1)).max() <= 1e-15 * np.abs(curl).max()


def test_ring_path_matches_finite_differences():
    grid = build_cap_grid(RING_CAPS["tilted"], *RING_SHAPE)
    c = synth_field(13, 0, 8)
    grads = sh_grad_eval(c, grid.nodes)
    for i in range(0, len(grid), 197):
        xi = grid.nodes[i]
        fd = [fd_tangent_derivative(lambda p: sh_eval(c, p), xi, d) for d in tangent_basis(xi)]
        exact = [float(grads[i] @ d) for d in tangent_basis(xi)]
        assert np.abs(np.subtract(fd, exact)).max() <= 1e-7 * np.abs(grads).max()


def _per_z_cases():
    """(grid, points, degree) the rule leaves on the per-z path."""
    tilted = build_cap_grid(RING_CAPS["tilted"], *RING_SHAPE)
    polar = build_cap_grid(SphericalCap(np.array([0.0, 0.0, 1.0]), 0.9), *RING_SHAPE)
    south = build_cap_grid(SphericalCap(np.array([0.0, 0.0, -1.0]), 0.9), *RING_SHAPE)
    small = build_cap_grid(RING_CAPS["tilted"], 16, 32)
    sphere = build_sphere_grid(*RING_SHAPE)
    return {
        "polar cap": (polar, polar.nodes, 8),
        "south cap": (south, south.nodes, 8),
        "sphere grid": (sphere, sphere.nodes, 8),
        "below the crossover": (small, small.nodes, 8),
        "a copy": (tilted, tilted.nodes.copy(), 8),
        "a subset": (tilted, tilted.nodes[:-1], 8),
        "degree 0": (tilted, tilted.nodes, 0),
        "above the bound": (tilted, tilted.nodes, RING_MAX_DEGREE + 1),
    }


@pytest.mark.parametrize("case", list(_per_z_cases()))
def test_the_rule_keeps_other_points_on_the_per_z_path(case):
    grid, points, l_max = _per_z_cases()[case]
    c = synth_field(7, 0, l_max)
    assert _ring_grid(c, points) is None
    # the per-z path's bits: those of a fresh copy of the points
    values, grads = _sh_accumulate(c, points, want_grad=True)
    ref_values, ref_grads = _sh_accumulate(c, points.copy(), want_grad=True)
    assert np.array_equal(values, ref_values) and np.array_equal(grads, ref_grads)


def test_the_grid_lookup_keeps_no_grid_alive():
    grid = build_cap_grid(RING_CAPS["tilted"], *RING_SHAPE)
    nodes, dropped = grid.nodes, weakref.ref(grid)
    c = synth_field(3, 0, 5)
    assert _ring_grid(c, nodes) is grid
    del grid
    gc.collect()
    assert dropped() is None
    # the nodes outlive their grid, and then take the per-z path
    assert _ring_grid(c, nodes) is None
