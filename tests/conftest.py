import hypothesis
import numpy as np
import pytest

from sphaerica.geometry import SphericalCap, rotation_to_pole, unit_vector

hypothesis.settings.register_profile(
    "suite", max_examples=25, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def cap_point(cap: SphericalCap, t_fraction: float, phi: float) -> np.ndarray:
    """Point inside a cap at polar fraction t_fraction in [0, 1) of the radius."""
    t = 1.0 - cap.radius * t_fraction
    frame = rotation_to_pole(cap.center)
    return t * cap.center + np.sqrt(1.0 - t * t) * (
        np.cos(phi) * frame[:, 0] + np.sin(phi) * frame[:, 1]
    )


def rim_ring(cap: SphericalCap, delta: float, count: int = 64) -> np.ndarray:
    """count points with 1 - xi . center = rho (1 - delta), inside the cap for
    delta > 0 and outside for delta < 0, at longitudes off the lattice of
    every rim grid the tests use."""
    phis = 2.0 * np.pi * (np.arange(count) + 0.37) / count
    return np.array([cap_point(cap, 1.0 - delta, phi) for phi in phis])


def random_interior_points(cap, rng, count, max_fraction=0.8):
    pts = [
        cap_point(cap, max_fraction * rng.random(), rng.uniform(0.0, 2.0 * np.pi))
        for _ in range(count)
    ]
    return np.array(pts)


def fd_tangent_derivative(evaluator, xi, direction, h=1e-5):
    plus = unit_vector(xi + h * direction)
    minus = unit_vector(xi - h * direction)
    return (evaluator(plus) - evaluator(minus)) / (2.0 * h)


def tangent_basis(xi):
    helper = (
        np.array([0.0, 0.0, 1.0]) if abs(xi[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    )
    e1 = unit_vector(np.cross(helper, xi))
    return e1, np.cross(xi, e1)
