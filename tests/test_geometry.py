import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import cap_point
from sphaerica.geometry import (
    E3,
    AntipodeError,
    SphericalCap,
    boundary_frame,
    boundary_nodes,
    cap_metrics,
    reflect,
    rotation_to_pole,
    stereographic_inverse,
    stereographic_project,
    unit_vector,
)

unit_vectors = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda v: 0.1 < np.linalg.norm(v) < 1.8).map(unit_vector)

cap_radii = st.sampled_from([0.1, 0.5, 1.0, 1.5, 1.9])


def test_unit_vector_normalizes():
    v = unit_vector([3.0, 4.0, 0.0])
    assert_allclose(np.linalg.norm(v), 1.0, atol=1e-15)
    with pytest.raises(ValueError):
        unit_vector([0.0, 0.0, 0.0])


def test_cap_membership_and_radius_bounds():
    cap = SphericalCap(E3, 0.5)
    assert cap.contains(E3)
    assert not cap.contains(-E3)
    boundary = np.array([np.sqrt(1 - 0.25), 0.0, 0.5])  # 1 - t = 0.5 exactly
    assert not cap.contains(boundary)
    for bad in (0.0, 2.0, -1.0):
        with pytest.raises(ValueError):
            SphericalCap(E3, bad)


def test_rotation_identity_and_south_pole():
    assert_allclose(rotation_to_pole(E3), np.eye(3))
    south = rotation_to_pole(-E3)
    assert_allclose(south @ E3, -E3)
    assert_allclose(np.linalg.det(south), 1.0)


@given(unit_vectors)
def test_rotation_properties(zeta):
    t = rotation_to_pole(zeta)
    assert_allclose(t.T @ t, np.eye(3), atol=1e-12)
    assert np.linalg.det(t) == pytest.approx(1.0, abs=1e-12)
    assert_allclose(t @ E3, zeta, atol=1e-12)
    # antipodal charts stay mirror-aligned
    mirrored = rotation_to_pole(-zeta)
    assert_allclose(mirrored, t @ np.diag([1.0, -1.0, -1.0]), atol=1e-12)


FRAME_CENTERS = {
    "random": unit_vector([0.3, -0.7, 0.2]),
    "north-snapped": unit_vector([1e-13, -2e-13, 1.0]),
    "south-snapped": unit_vector([2e-13, 1e-13, -1.0]),
    "north-pole": E3,
    "south-pole": -E3,
    "near-north": unit_vector([1e-9, 0.0, 1.0]),
    "near-south": unit_vector([0.0, -1e-9, -1.0]),
}


@pytest.mark.parametrize("name", FRAME_CENTERS)
def test_a_cap_builds_its_frame_once(name):
    cap = SphericalCap(FRAME_CENTERS[name], 0.4)
    frame = cap.frame
    assert cap.frame is frame and not frame.flags.writeable
    expected = rotation_to_pole(cap.center)
    assert np.array_equal(frame.view(np.int64), expected.view(np.int64))
    complement = cap.complement
    assert cap.complement is complement
    assert np.array_equal(complement.frame, frame @ np.diag([1.0, -1.0, -1.0]))


def test_rotation_is_deterministic():
    zeta = unit_vector([0.3, -0.7, 0.2])
    assert np.array_equal(rotation_to_pole(zeta), rotation_to_pole(zeta))


def _rotation_built(zeta):
    """rotation_to_pole as built on every call before it was kept."""
    zeta = unit_vector(zeta)
    cross = np.cross(E3, zeta)
    if np.linalg.norm(cross) < 1e-12:
        return np.eye(3) if zeta[2] > 0.0 else np.diag([1.0, -1.0, -1.0])
    v = unit_vector(cross)
    return np.column_stack([np.cross(v, zeta), v, zeta])


@pytest.mark.parametrize("name", FRAME_CENTERS)
def test_rotation_is_kept_per_centre_with_its_bits(name):
    zeta = FRAME_CENTERS[name]
    frame = rotation_to_pole(zeta)
    assert not frame.flags.writeable
    assert rotation_to_pole(zeta.copy()) is frame
    assert np.array_equal(frame.view(np.int64), _rotation_built(zeta).view(np.int64))
    # an unnormalized centre is normalized first, as before
    assert np.array_equal(rotation_to_pole(3.0 * zeta), _rotation_built(3.0 * zeta))


def test_stereographic_basic_values():
    assert_allclose(stereographic_project(E3, E3), [0.0, 0.0], atol=1e-15)
    assert_allclose(
        stereographic_project(E3, np.array([1.0, 0.0, 0.0])), [2.0, 0.0], atol=1e-15
    )
    with pytest.raises(AntipodeError):
        stereographic_project(E3, -E3)


@pytest.mark.parametrize("rho", [0.3, 1.0, 1.7])
def test_stereographic_boundary_radius(rho):
    # the boundary circle lands on |p| = 2 sqrt(rho / (2 - rho))
    cap = SphericalCap(unit_vector([0.2, 0.5, 0.8]), rho)
    pos, _, _ = boundary_nodes(cap, np.linspace(0, 2 * np.pi, 16, endpoint=False))
    p = stereographic_project(cap.center, pos)
    expected = 2.0 * np.sqrt(rho / (2.0 - rho))
    assert_allclose(np.linalg.norm(p, axis=1), expected, atol=1e-12)


@given(unit_vectors, unit_vectors)
def test_stereographic_round_trip(zeta, xi):
    if 1.0 + float(xi @ zeta) < 1e-3:
        return
    p = stereographic_project(zeta, xi)
    back = stereographic_inverse(zeta, p)
    assert_allclose(back, xi, atol=1e-12)


def test_boundary_frame_geometry():
    cap = SphericalCap(unit_vector([0.1, -0.4, 0.9]), 0.75)
    phis = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    pos, tan, nor = boundary_nodes(cap, phis)
    assert_allclose(np.linalg.norm(pos, axis=1), 1.0, atol=1e-12)
    assert_allclose(np.linalg.norm(tan, axis=1), 1.0, atol=1e-12)
    assert_allclose(np.linalg.norm(nor, axis=1), 1.0, atol=1e-12)
    for arrs in ((pos, tan), (pos, nor), (tan, nor)):
        assert np.abs(np.sum(arrs[0] * arrs[1], axis=1)).max() < 1e-12
    # outward: away from the cap center, with nu . zeta = -sqrt(rho (2 - rho))
    assert_allclose(nor @ cap.center, -cap.boundary_sine, atol=1e-12)
    # (eta, nu, tau) right-handed; tau matches the curve direction d eta/d phi
    triple = np.sum(pos * np.cross(nor, tan), axis=1)
    assert_allclose(triple, 1.0, atol=1e-12)
    d_eta = np.gradient(pos, phis, axis=0)
    d_eta /= np.linalg.norm(d_eta, axis=1, keepdims=True)
    assert np.abs(np.sum(d_eta * tan, axis=1) - 1.0).max() < 1e-2


def test_boundary_frame_hemisphere_example():
    cap = SphericalCap(E3, 1.0)
    bp = boundary_frame(cap, 0.0)
    assert_allclose(bp.position, [1.0, 0.0, 0.0], atol=1e-15)
    assert_allclose(bp.normal, [0.0, 0.0, -1.0], atol=1e-15)


@given(cap_radii, unit_vectors, st.floats(0.01, 0.99), st.floats(0, 2 * np.pi))
def test_reflection_identity(rho, zeta, t_fraction, phi):
    cap = SphericalCap(zeta, rho)
    xi = cap_point(cap, t_fraction, phi)
    ref = reflect(cap, xi)
    assert np.linalg.norm(ref.point) == pytest.approx(1.0, abs=1e-12)
    assert not cap.contains(ref.point)
    pos, _, _ = boundary_nodes(cap, np.linspace(0, 2 * np.pi, 64, endpoint=False))
    residual = (1.0 - pos @ xi) - ref.scale * (1.0 - pos @ ref.point)
    assert np.abs(residual).max() < 1e-12


def test_reflection_center_and_equator_cases():
    cap = SphericalCap(E3, 0.5)
    ref = reflect(cap, E3)
    assert ref.scale == pytest.approx(0.5 / 1.5, abs=1e-15)
    assert_allclose(ref.point, -E3, atol=1e-14)
    hemi = SphericalCap(E3, 1.0)
    theta = 0.4
    xi = np.array([np.sin(theta), 0.0, np.cos(theta)])
    ref = reflect(hemi, xi)
    assert ref.scale == pytest.approx(1.0, abs=1e-14)
    assert_allclose(ref.point, [np.sin(theta), 0.0, -np.cos(theta)], atol=1e-14)


def test_reflect_rejects_exterior_points():
    cap = SphericalCap(E3, 0.5)
    with pytest.raises(ValueError):
        reflect(cap, -E3)


def test_cap_metrics_closed_forms():
    area, circumference = cap_metrics(SphericalCap(E3, 0.5))
    assert area == pytest.approx(np.pi, abs=1e-15)
    assert circumference == pytest.approx(2 * np.pi * np.sqrt(0.75), abs=1e-14)
    assert cap_metrics(SphericalCap(E3, 1.0))[1] == pytest.approx(
        2 * np.pi, abs=1e-14
    )
    assert cap_metrics(SphericalCap(E3, 1.999999))[0] == pytest.approx(
        4 * np.pi, rel=1e-6
    )


def _point_evaluators():
    """Each public evaluator that takes points through on_points, as a
    function of the points alone."""
    from sphaerica import apps, decomposition, harmonics, layers, mfs, solvers
    from sphaerica.quadrature import FieldSamples, build_boundary_grid, build_cap_grid
    from sphaerica.quadrature import build_sphere_grid

    cap = SphericalCap(unit_vector([0.2, 0.1, 1.0]), 0.6)
    c = harmonics.synth_field(5, 0, 3)
    idx = harmonics.InnerHarmonicIndex(cap, 2, 1)
    grid = build_cap_grid(cap, 6, 12)
    sphere = build_sphere_grid(6, 12)
    on_cap = FieldSamples(grid, harmonics.sh_eval(c, grid.nodes))
    on_sphere = FieldSamples(sphere, harmonics.sh_eval(c, sphere.nodes))
    gradient = FieldSamples(grid, harmonics.sh_grad_eval(c, grid.nodes), tangential=True)
    density = layers.DensitySamples(build_boundary_grid(cap, 16), np.ones(16))
    system = mfs.FundamentalSystem(mfs.sources_on_circle(cap, 8), "gk")
    solution = mfs.MfsSolution(system, np.ones(9), "tikhonov", 0.0, 1.0)
    vortices = apps.random_vortices(cap, 2, 3)

    def rim(q):
        return q[:, 2]

    def flux(q):  # sin of the rim parameter, times the rim's radius
        return q @ cap.frame[:, 1]

    return {
        "sh_eval": lambda x: harmonics.sh_eval(c, x),
        "sh_grad_eval": lambda x: harmonics.sh_grad_eval(c, x),
        "sh_curl_eval": lambda x: harmonics.sh_curl_eval(c, x),
        "inner_harmonic_eval": lambda x: harmonics.inner_harmonic_eval(idx, x),
        "inner_harmonic_grad": lambda x: harmonics.inner_harmonic_grad(idx, x),
        "surface_potential-cap": lambda x: solvers.surface_potential(on_cap, x),
        "surface_potential-sphere": lambda x: solvers.surface_potential(on_sphere, x),
        "poisson_solve_cap": lambda x: solvers.poisson_solve_cap(cap, on_cap, -cap.center, x),
        "dirichlet_solve_cap": lambda x: solvers.dirichlet_solve_cap(cap, rim, x),
        "neumann_solve_cap": lambda x: solvers.neumann_solve_cap(cap, flux, 0.0, x),
        "invert_gradient": lambda x: solvers.invert_gradient(gradient, "grad", 8, x),
        "helmholtz_compose": lambda x: decomposition.helmholtz_compose(c, c, c, x),
        "hardy_hodge_compose_spectral": (
            lambda x: decomposition.hardy_hodge_compose_spectral(c, c, c, x)
        ),
        "single_layer": lambda x: layers.single_layer(density, x),
        "double_layer": lambda x: layers.double_layer(density, x),
        "basis_eval": lambda x: mfs.basis_eval(system, 1, x),
        "mfs_eval": lambda x: mfs.mfs_eval(solution, x),
        "vortex_exact": lambda x: apps.vortex_exact(cap, vortices, x),
    }


POINT_EVALUATORS = _point_evaluators()
BAD_POINTS = {
    "nan": (np.array([[np.nan, 0.0, 1.0]]), "finite"),
    "inf": (np.array([0.0, np.inf, 1.0]), "finite"),
    "two columns": (np.zeros((4, 2)), r"shape \(3,\) or \(N, 3\)"),
    "four entries": (np.array([0.0, 0.0, 1.0, 0.0]), r"shape \(3,\) or \(N, 3\)"),
    "a stack of stacks": (np.zeros((2, 2, 3)), r"shape \(3,\) or \(N, 3\)"),
}


@pytest.mark.parametrize("bad", list(BAD_POINTS))
@pytest.mark.parametrize("name", list(POINT_EVALUATORS))
def test_point_evaluators_reject_misshapen_and_non_finite_points(name, bad):
    points, message = BAD_POINTS[bad]
    with pytest.raises(ValueError, match=message):
        POINT_EVALUATORS[name](points)


@pytest.mark.parametrize("name", list(POINT_EVALUATORS))
def test_point_evaluators_take_one_point_and_a_stack(name):
    # the rule admits the shapes it names: one interior point and a stack
    point = cap_point(SphericalCap(unit_vector([0.2, 0.1, 1.0]), 0.6), 0.3, 0.4)
    one = np.asarray(POINT_EVALUATORS[name](point))
    stack = np.asarray(POINT_EVALUATORS[name](np.stack([point, point])))
    assert np.all(np.isfinite(one)) and stack.shape == (2, *one.shape)
