import hypothesis
import numpy as np
import pytest

from sphaerica._convolution import _term_sums
from sphaerica.geometry import SphericalCap, _reflect_many, rotation_to_pole, unit_vector
from sphaerica.kernels import grad_terms
from sphaerica.modes import _inverse_gap

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


def kernel_gradient_sums(samples, sums, points):
    """-sum_j w_j (D_eta K(xi_i, eta_j)) . f_j for the KernelSpec K of each
    (spec, curl) of sums, at the same points: the kernel sums of
    _convolution._term_sums that the per-mode cap gradient operators
    (modes.gradient_sums) are checked against. With curl, D = eta x grad,
    summed as the gradient against f x eta. The log terms of grad_terms
    with the same points and scale share one row block Q = 1/log_gap at
    xi or its cap reflection x (the specs share their cap); each sum is its
    Neumann centre term, then its terms' x . (Q w g) in turn.
    """
    grid = samples.grid
    nodes, w = grid.nodes, grid.weights
    groups, totals = {}, []
    for k, (spec, curl) in enumerate(sums):
        field = np.cross(samples.values, nodes) if curl else samples.values
        terms, centre = grad_terms(spec, nodes, field)
        for reflected, g, scale in terms:
            g *= w[:, None]
            groups.setdefault((reflected, scale), []).append((k, g))
        totals.append(0.0 if centre is None else np.sum(w * centre))
    cap = sums[0][0].cap

    def at(x, reflected):
        return _reflect_many(cap, x)[0] if reflected else x

    for (reflected, scale), fields in groups.items():
        rows = lambda x, eta, out: _inverse_gap(at(x, reflected), eta, scale, out=out)
        parts = _term_sums(grid, rows, [g for _, g in fields], points)
        x = at(points, reflected)
        for (k, _), part in zip(fields, parts):
            totals[k] = totals[k] + np.sum(x * part, axis=1)
    return [-total for total in totals]
