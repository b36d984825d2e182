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
