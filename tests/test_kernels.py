import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import cap_point, fd_tangent_derivative, tangent_basis
from sphaerica import cli
from sphaerica.geometry import (
    SphericalCap,
    boundary_frame,
    boundary_nodes,
    lonlat_vector,
    unit_vector,
)
from sphaerica.kernels import (
    FOUR_PI,
    KIND_DIRICHLET,
    KIND_FUNDAMENTAL,
    KIND_NEUMANN,
    _G_CONST,
    KernelSpec,
    SingularityError,
    _fundamental_many,
    dirichlet_green,
    fundamental,
    fundamental_deriv,
    kernel_grad_dot,
    kernel_value_matrix,
    neumann_green,
    neumann_green_regularized,
)
from sphaerica.quadrature import build_boundary_grid

CAP = SphericalCap(unit_vector([0.3, 0.1, 0.95]), 0.5)


def log_endpoint_integral(smooth, n_panels=52, order=24):
    """Dyadic-panel Gauss rule for int_{-1}^{1} smooth(t) ln(1-t) dt.

    Panels accumulate geometrically toward the logarithmic endpoint, which
    drives the error to machine precision; this is the independent oracle
    for spherical means of the log kernel.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    total = 0.0
    left = -1.0
    for k in range(n_panels):
        right = 1.0 - 2.0 ** (-k - 1) if k < n_panels - 1 else 1.0 - 1e-15
        half = 0.5 * (right - left)
        mid = 0.5 * (left + right)
        t = mid + half * x
        total += half * np.sum(w * smooth(t) * np.log1p(-t))
        left = right
    return total


def test_fundamental_point_values():
    assert fundamental(-1.0) == pytest.approx(1.0 / (4 * np.pi), abs=1e-17)
    assert fundamental(1.0 - 2.0 / np.e) == pytest.approx(0.0, abs=1e-16)
    with pytest.raises(SingularityError):
        fundamental(1.0)


def test_fundamental_zero_mean_independent_oracle():
    # 2 pi int G(t) dt = 0: log part balances the constant exactly
    log_part = log_endpoint_integral(lambda t: np.ones_like(t))
    total = 2 * np.pi * (log_part / (4 * np.pi) + (1 - np.log(2)) / (4 * np.pi) * 2)
    assert abs(total) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_fundamental_legendre_eigenvalues_oracle(n):
    # 2 pi int G(t) P_n(t) dt = -1/(n (n+1)): the spectral inversion constants
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    pn = lambda t: np.polynomial.legendre.legval(t, coeffs)
    log_part = log_endpoint_integral(pn)
    eig = log_part / 2.0
    assert eig == pytest.approx(-1.0 / (n * (n + 1)), abs=1e-13)


def test_fundamental_deriv_modes(rng):
    for _ in range(50):
        xi = unit_vector(rng.normal(size=3))
        eta = unit_vector(rng.normal(size=3))
        if xi @ eta > 0.999:
            continue
        grad = fundamental_deriv(xi, eta, "grad")
        assert abs(float(grad @ eta)) < 1e-12
        for direction in tangent_basis(eta):
            fd = fd_tangent_derivative(
                lambda p: fundamental(float(xi @ p)), eta, direction
            )
            assert fd == pytest.approx(float(grad @ direction), abs=1e-6)
        curl = fundamental_deriv(xi, eta, "curl")
        assert_allclose(curl, np.cross(eta, grad), atol=1e-15)


def test_normal_derivative_constant_on_cap_boundaries():
    # both arguments on the boundary: the kernel collapses to kappa_g / 4 pi
    expected = (1.0 - CAP.radius) / (4 * np.pi * CAP.boundary_sine)
    phis = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    pos, _, _ = boundary_nodes(CAP, phis)
    for i in range(12):
        for j in range(12):
            if i == j:
                continue
            bp = boundary_frame(CAP, phis[j])
            value = fundamental_deriv(pos[i], bp, "normal")
            assert value == pytest.approx(expected, abs=1e-12)


def test_dirichlet_green_boundary_zero_and_symmetry(rng):
    grid_phis = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    pos, _, _ = boundary_nodes(CAP, grid_phis)
    xi = cap_point(CAP, 0.45, 1.3)
    values = [dirichlet_green(CAP, xi, eta) for eta in pos]
    assert np.abs(values).max() < 1e-12
    for _ in range(5):
        a = cap_point(CAP, 0.8 * rng.random(), rng.uniform(0, 2 * np.pi))
        b = cap_point(CAP, 0.8 * rng.random(), rng.uniform(0, 2 * np.pi))
        if abs(1.0 - a @ b) < 1e-6:
            continue
        assert dirichlet_green(CAP, a, b) == pytest.approx(
            dirichlet_green(CAP, b, a), abs=1e-10
        )


# polar, tilted and snapped south (rotation_to_pole gives diag(1, -1, -1))
RIM_CENTERS = {
    "polar": np.array([0.0, 0.0, 1.0]),
    "tilted": unit_vector([0.2, -0.1, 1.0]),
    "south": lonlat_vector(0.0, -90.0),
}


@pytest.mark.parametrize("rho", [0.5, 0.9, 1.4])
@pytest.mark.parametrize("center", list(RIM_CENTERS), ids=list(RIM_CENTERS))
def test_regularized_dirichlet_kernel_vanishes_on_the_boundary(center, rho):
    # why the cap split has no boundary term in G_D: at interior targets
    # with 1 - xi . eta >= 2^-J to every boundary node, the regularized
    # G_D is zero there up to the rounding of 1 - xi . eta
    cap = SphericalCap(RIM_CENTERS[center], rho)
    bgrid = build_boundary_grid(cap, 512)
    fractions = np.r_[0.0, np.linspace(0.05, 0.999, 40), 1 - 1e-4, 1 - 1e-5]
    pts = np.array([cap_point(cap, f, 0.3 + 1.7 * k) for k, f in enumerate(fractions)])
    u_min = (1.0 - pts @ bgrid.nodes.T).min(axis=1)
    for J in (9, 12):
        values = kernel_value_matrix(KernelSpec(KIND_DIRICHLET, cap, J), pts, bgrid.nodes)
        sup = np.abs(values).max(axis=1)
        far = u_min >= 2.0**-J
        assert far.sum() >= 36
        # what is left is the rounding of 1 - xi . eta, relative eps / u
        assert np.all(sup[far] <= np.finfo(float).eps / u_min[far])
        assert J > 9 or sup[far].max() <= 2e-14
        assert sup[fractions <= 0.8].max() <= 2e-15
        # inside 2^-J the linear branch breaks the reflection identity
        assert sup[-1] > 0.1 and not far[-1]


def test_dirichlet_green_rejects_bad_arguments():
    with pytest.raises(ValueError):
        dirichlet_green(CAP, -CAP.center, CAP.center)
    xi = cap_point(CAP, 0.5, 0.0)
    with pytest.raises(SingularityError):
        dirichlet_green(CAP, xi, xi)


def test_neumann_green_boundary_condition(rng):
    for _ in range(5):
        xi = cap_point(CAP, 0.8 * rng.random(), rng.uniform(0, 2 * np.pi))
        for phi in np.linspace(0, 2 * np.pi, 8, endpoint=False):
            bp = boundary_frame(CAP, phi)
            grad = neumann_green(CAP, xi, bp.position, mode="grad")
            assert abs(float(bp.normal @ grad)) < 1e-10


def test_neumann_green_hemisphere_drops_center_term():
    hemi = SphericalCap(unit_vector([0.1, -0.2, 0.97]), 1.0)
    xi = cap_point(hemi, 0.5, 0.7)
    eta = cap_point(hemi, 0.8, 2.9)
    from sphaerica.geometry import reflect

    ref = reflect(hemi, xi)
    expected = (
        np.log1p(-float(xi @ eta)) + np.log(ref.scale * (1.0 - float(ref.point @ eta)))
    ) / (4 * np.pi)
    assert neumann_green(hemi, xi, eta) == pytest.approx(expected, abs=1e-15)


def test_cap_green_gradients_match_fd(rng):
    for _ in range(10):
        xi = cap_point(CAP, 0.7 * rng.random(), rng.uniform(0, 2 * np.pi))
        eta = cap_point(CAP, 0.2 + 0.7 * rng.random(), rng.uniform(0, 2 * np.pi))
        if 1.0 - xi @ eta < 1e-3:
            continue
        for func, grad in (
            (lambda p: dirichlet_green(CAP, xi, p), dirichlet_green(CAP, xi, eta, "grad")),
            (lambda p: neumann_green(CAP, xi, p), neumann_green(CAP, xi, eta, "grad")),
        ):
            assert abs(float(grad @ eta)) < 1e-12
            for direction in tangent_basis(eta):
                fd = fd_tangent_derivative(func, eta, direction)
                assert fd == pytest.approx(float(grad @ direction), abs=1e-6)


def test_regularized_kernel_seam_continuity():
    scale = 8
    delta = 2.0**-scale
    xi = cap_point(CAP, 0.4, 0.9)
    e1, _ = tangent_basis(xi)

    def eta_at(u):
        # xi . eta = 1 - u exactly, eta on the great circle through e1
        return (1.0 - u) * xi + np.sqrt(u * (2.0 - u)) * e1

    v_lin = neumann_green_regularized(CAP, xi, eta_at(delta * (1 - 1e-12)), scale)
    v_log = neumann_green_regularized(CAP, xi, eta_at(delta * (1 + 1e-12)), scale)
    assert v_lin == pytest.approx(v_log, abs=1e-12)
    g_lin = neumann_green_regularized(
        CAP, xi, eta_at(delta * (1 - 1e-12)), scale, "grad"
    )
    g_log = neumann_green_regularized(
        CAP, xi, eta_at(delta * (1 + 1e-12)), scale, "grad"
    )
    assert np.abs(g_lin - g_log).max() < 1e-10


@pytest.mark.parametrize("side", [0.5, 2.0])
def test_regularized_gradient_matches_fd_on_both_sides_of_seam(side):
    # 1 - xi.eta = side * 2^-J: the capped factor 2^J inside, 1/(1 - t) outside
    scale = 8
    u = side * 2.0**-scale
    xi = cap_point(CAP, 0.4, 0.9)
    e1, _ = tangent_basis(xi)
    eta = (1.0 - u) * xi + np.sqrt(u * (2.0 - u)) * e1
    grad = neumann_green_regularized(CAP, xi, eta, scale, "grad")
    assert abs(float(grad @ eta)) < 1e-12
    for direction in tangent_basis(eta):
        fd = fd_tangent_derivative(
            lambda p: neumann_green_regularized(CAP, xi, p, scale), eta, direction
        )
        assert fd == pytest.approx(float(grad @ direction), abs=1e-6)


def test_regularized_kernel_matches_plain_outside_ball():
    xi = cap_point(CAP, 0.4, 0.9)
    eta = cap_point(CAP, 0.47, 2.2)
    for scale in (10, 20, 40):
        if 1.0 - xi @ eta >= 2.0**-scale:
            assert neumann_green_regularized(CAP, xi, eta, scale) == pytest.approx(
                neumann_green(CAP, xi, eta), abs=1e-15
            )


def test_kernel_matrix_against_scalar_paths(rng):
    xi = np.array([cap_point(CAP, 0.3, 0.4), cap_point(CAP, 0.6, 2.0)])
    eta = np.array([cap_point(CAP, 0.5, 1.0), cap_point(CAP, 0.7, 4.2)])
    for spec, scalar in (
        (KernelSpec(KIND_DIRICHLET, CAP), lambda a, b: dirichlet_green(CAP, a, b)),
        (KernelSpec(KIND_NEUMANN, CAP), lambda a, b: neumann_green(CAP, a, b)),
        (
            KernelSpec(KIND_NEUMANN, CAP, scale=12),
            lambda a, b: neumann_green_regularized(CAP, a, b, 12),
        ),
    ):
        matrix = kernel_value_matrix(spec, xi, eta)
        for i in range(2):
            for j in range(2):
                assert matrix[i, j] == pytest.approx(scalar(xi[i], eta[j]), abs=1e-14)


def test_kernel_grad_dot_matches_scalar_gradients():
    xi = np.array([cap_point(CAP, 0.3, 0.4)])
    eta = np.array([cap_point(CAP, 0.5, 1.0), cap_point(CAP, 0.7, 4.2)])
    field = np.cross(eta, np.array([0.0, 0.0, 1.0]))
    for spec, grad_fn in (
        (
            KernelSpec(KIND_FUNDAMENTAL),
            lambda a, b: fundamental_deriv(a, b, "grad"),
        ),
        (
            KernelSpec(KIND_DIRICHLET, CAP),
            lambda a, b: dirichlet_green(CAP, a, b, "grad"),
        ),
        (
            KernelSpec(KIND_NEUMANN, CAP),
            lambda a, b: neumann_green(CAP, a, b, "grad"),
        ),
    ):
        rows = kernel_grad_dot(spec, xi, eta, field)
        # curl rows are the gradient rows of the rotated field f x eta
        curls = kernel_grad_dot(spec, xi, eta, np.cross(field, eta))
        for j in range(2):
            grad = grad_fn(xi[0], eta[j])
            assert rows[0, j] == pytest.approx(float(grad @ field[j]), abs=1e-13)
            curl_vec = np.cross(eta[j], grad)
            assert curls[0, j] == pytest.approx(float(curl_vec @ field[j]), abs=1e-13)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("bogus")
    with pytest.raises(ValueError):
        KernelSpec(KIND_DIRICHLET)
    with pytest.raises(ValueError):
        neumann_green_regularized(CAP, cap_point(CAP, 0.3, 0.4), CAP.center, None)


def test_scalar_derivatives_are_kernel_grad_dot_rows(rng):
    # the scalar APIs read the production rows, so they agree bit for bit
    kernels = (
        (KernelSpec(KIND_FUNDAMENTAL), fundamental_deriv),
        (
            KernelSpec(KIND_DIRICHLET, CAP),
            lambda a, b, m: dirichlet_green(CAP, a, b, m),
        ),
        (KernelSpec(KIND_NEUMANN, CAP), lambda a, b, m: neumann_green(CAP, a, b, m)),
        (
            KernelSpec(KIND_NEUMANN, CAP, scale=6),
            lambda a, b, m: neumann_green_regularized(CAP, a, b, 6, m),
        ),
    )
    for _ in range(20):
        xi = cap_point(CAP, 0.8 * rng.random(), rng.uniform(0, 2 * np.pi))
        eta = cap_point(CAP, 1.2 * rng.random(), rng.uniform(0, 2 * np.pi))
        rows = np.tile(eta, (3, 1))
        for spec, scalar in kernels:
            grad = kernel_grad_dot(spec, xi[None, :], rows, np.eye(3))[0]
            assert np.array_equal(scalar(xi, eta, "grad"), grad)
            assert np.array_equal(scalar(xi, eta, "curl"), np.cross(eta, grad))


def test_kernel_grad_dot_radial_rows_vanish(rng):
    # the tangential gradient is orthogonal to eta, so rows against the
    # radial field eta itself are rounding; the ring path drops them. The
    # row scale is the largest factor min(1 / (1 - xi . eta), 2^J) / 4 pi
    # by which the rows multiply a unit field.
    xi = np.array([cap_point(CAP, 0.8 * rng.random(), rng.uniform(0, 2 * np.pi))
                   for _ in range(6)])
    eta = np.array([cap_point(CAP, rng.random(), rng.uniform(0, 2 * np.pi))
                    for _ in range(40)])
    row_scale = np.minimum(1.0 / (1.0 - xi @ eta.T), 2.0**10).max() / (4 * np.pi)
    for spec in (
        KernelSpec(KIND_FUNDAMENTAL, scale=10),
        KernelSpec(KIND_DIRICHLET, CAP, scale=10),
        KernelSpec(KIND_NEUMANN, CAP, scale=10),
    ):
        radial = kernel_grad_dot(spec, xi, eta, eta)
        assert np.abs(radial).max() <= 1e-14 * row_scale


SPECS = [
    KernelSpec(KIND_FUNDAMENTAL),
    KernelSpec(KIND_FUNDAMENTAL, scale=10),
    KernelSpec(KIND_DIRICHLET, CAP),
    KernelSpec(KIND_DIRICHLET, CAP, scale=10),
    KernelSpec(KIND_NEUMANN, CAP),
    KernelSpec(KIND_NEUMANN, CAP, scale=10),
]


@pytest.mark.parametrize(
    "spec", SPECS, ids=[f"{s.kind}-J{s.scale}" for s in SPECS]
)
def test_kernel_grad_dot_ignores_the_radial_part_of_the_field(spec, rng):
    # D_eta K is tangential, so adding a_j eta_j to f_j moves the rows by
    # rounding only; the row scale is as in the test above
    xi = np.array([cap_point(CAP, 0.8 * rng.random(), rng.uniform(0, 2 * np.pi))
                   for _ in range(6)])
    eta = np.array([cap_point(CAP, rng.random(), rng.uniform(0, 2 * np.pi))
                    for _ in range(40)])
    f = rng.normal(size=(40, 3))
    a = 3.0 * rng.normal(size=40)
    factor = 1.0 / (1.0 - xi @ eta.T)
    if spec.scale is not None:
        factor = np.minimum(factor, 2.0**spec.scale)
    row_scale = factor.max() * np.abs(f).max() / (4 * np.pi)
    rows = kernel_grad_dot(spec, xi, eta, f)
    shifted = kernel_grad_dot(spec, xi, eta, f + a[:, None] * eta)
    assert np.abs(shifted - rows).max() <= 1e-14 * row_scale


def _fundamental_where(t, scale):
    """The two-branch formula that _fundamental_many patches in place."""
    u = 1.0 - t
    delta = 2.0 ** (-scale)
    with np.errstate(divide="ignore"):
        log_branch = np.log(np.maximum(u, 1e-300)) / FOUR_PI
    lin_branch = (u / delta - scale * np.log(2.0) - 1.0) / FOUR_PI
    return np.where(u >= delta, log_branch, lin_branch) + _G_CONST


@pytest.mark.parametrize("J", [0, 1, 9, 12, 30, 52, 53])
def test_regularized_fundamental_matches_the_two_branch_formula(J):
    # t across the seam: u = 1 - t from below 0 (t one ulp above 1) through
    # 0 and 2^-J exactly to u = 2, with the neighbours of 1 - 2^-J
    delta = 2.0**-J
    u = np.concatenate([
        delta * np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 8.0]),
        np.geomspace(1e-17, 2.0, 200),
    ])
    t = np.concatenate([
        1.0 - u,
        [1.0, np.nextafter(1.0, 2.0), 1.0 - delta, -1.0],
        np.nextafter(1.0 - delta, [0.0, 2.0]),
    ])
    assert np.count_nonzero(1.0 - t == delta) >= 2
    assert np.any(1.0 - t == 0.0)
    t = t.reshape(2, -1)
    assert np.array_equal(_fundamental_many(t, J), _fundamental_where(t, J))


def test_scalar_modes_validate_arguments():
    xi = cap_point(CAP, 0.5, 0.0)
    eta = cap_point(CAP, 0.3, 2.0)
    for call in (
        lambda: neumann_green(CAP, -CAP.center, eta),
        lambda: neumann_green_regularized(CAP, -CAP.center, eta, 4, "grad"),
        lambda: neumann_green_regularized(CAP, xi, eta, -1),
        lambda: dirichlet_green(CAP, xi, eta, "hessian"),
        lambda: fundamental_deriv(xi, eta, "value-ish"),
    ):
        with pytest.raises(ValueError):
            call()
    with pytest.raises(TypeError):
        neumann_green(CAP, xi, eta, "normal")
    for call in (
        lambda: fundamental_deriv(xi, xi, "grad"),
        lambda: neumann_green(CAP, xi, xi, "curl"),
        lambda: dirichlet_green(CAP, xi, xi, "grad"),
        lambda: neumann_green(CAP, xi, -CAP.center, "grad"),
        lambda: neumann_green_regularized(CAP, xi, -CAP.center, 4, "value"),
    ):
        with pytest.raises(SingularityError):
            call()


SCALE_CASES = [KIND_FUNDAMENTAL, KIND_DIRICHLET, KIND_NEUMANN, "poisson", "helmholtz", "hardy-hodge"]


@pytest.mark.parametrize(
    "case, J",
    [
        pytest.param(case, J, id=case if J == -1 else f"{case}-J{J}")
        for J in (-1, 54, 1100)
        for case in SCALE_CASES
    ],
)
def test_negative_scale_is_rejected(case, J, tmp_path, capsys):
    # 0 <= J <= 53 for every kernel kind (2^-1100 underflows to 0); the CLI
    # reports any other --J as a validation error, writes nothing and leaves
    # no --out directory behind
    if case in cli.COMMANDS:
        out = str(tmp_path / "out")
        argv = [case, "--nt", "16", "--nphi", "32", "--J", str(J), "--out", out]
        assert cli.main(argv) == 2
        assert "scale J" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
    else:
        with pytest.raises(ValueError, match="scale J"):
            KernelSpec(case, CAP, scale=J)
