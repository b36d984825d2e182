"""Curve potentials on cap boundaries and their boundary integral equations.

The single layer integrates the fundamental solution against a boundary
density, the double layer its boundary-normal derivative. On cap boundaries
both admit closed kernel structure. The double-layer kernel restricted to
the curve, and the observation-side normal derivative of the single layer,
are one constant (geodesic curvature over 4 pi), so both second-kind
equations solve in closed form: the Dirichlet one as a rank-one perturbation
of the identity, the Neumann one as Q = -2 F on its mean-free branch. The
single-layer kernel on the curve depends on the parameter difference only,
so single_layer_on_boundary evaluates it by FFT after splitting off the
periodic log singularity with spectral quadrature weights.

Off the curve both potentials are trapezoidal sums through
_convolution.apply_kernel, which takes its dense path on boundary grids and
holds at most a bounded block of kernel values at a time.

jump_probe measures the classical limit and jump behavior of the potentials
across the boundary by evaluating at points displaced along the boundary
normal and extrapolating the displacement to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ._convolution import apply_kernel
from .geometry import SphericalCap, on_points
from .kernels import (
    FOUR_PI,
    KIND_FUNDAMENTAL,
    KernelSpec,
    kernel_grad_dot,
    kernel_value_matrix,
)
from .quadrature import (
    KIND_BOUNDARY,
    FieldSamples,
    QuadratureGrid,
    _neumann_total,
    _zero_integral,
    boundary_data,
)

_FUNDAMENTAL = KernelSpec(KIND_FUNDAMENTAL)


@dataclass(frozen=True)
class DensitySamples(FieldSamples):
    """Boundary density: FieldSamples of scalar values on a boundary grid.

    mean_free marks densities whose integral is at rounding level:
    |integral| <= 1e-10 max(1, sup |q|).
    """

    mean_free: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.grid.kind != KIND_BOUNDARY or self.values.ndim != 1:
            raise ValueError("densities are scalar samples on boundary grids")
        if self.mean_free:
            _zero_integral(
                self.grid, self.values, 1e-10, "density marked mean-free integrates to"
            )


def geodesic_curvature(cap: SphericalCap) -> float:
    """Geodesic curvature of the cap boundary, (1 - rho)/sqrt(rho (2 - rho))."""
    return (1.0 - cap.radius) / cap.boundary_sine


def single_layer(density: DensitySamples, xi) -> float | np.ndarray:
    """Boundary integral of G(xi . eta) against the density.

    Plain trapezoidal quadrature; accuracy degrades within about one node
    spacing of the curve and the kernel blows up on node collision.
    """
    kernel = partial(kernel_value_matrix, _FUNDAMENTAL)
    return on_points(xi, lambda pts: apply_kernel(kernel, density, pts))


def double_layer(density: DensitySamples, xi) -> float | np.ndarray:
    """Boundary integral of the normal-derivative kernel against the density.

    The kernel is the eta-gradient of G(xi . eta) dotted with the outward
    boundary normal at eta.
    """
    normals = density.grid.normals
    kernel = lambda pts, eta: kernel_grad_dot(_FUNDAMENTAL, pts, eta, normals)
    return on_points(xi, lambda pts: apply_kernel(kernel, density, pts))


@dataclass(frozen=True)
class JumpReport:
    """Across-boundary differences of a potential at decreasing displacements."""

    taus: np.ndarray
    outside: np.ndarray
    inside: np.ndarray
    differences: np.ndarray
    jump: float
    outside_limit: float
    inside_limit: float


def _extrapolate(taus: np.ndarray, values: np.ndarray) -> float:
    """Limit tau -> 0 from the last three (tau, value) pairs via a quadratic."""
    t = taus[-3:]
    v = values[-3:]
    vand = np.vander(t, 3, increasing=True)  # columns 1, tau, tau^2
    coef = np.linalg.solve(vand, v)
    return float(coef[0])


def jump_probe(
    density: DensitySamples,
    boundary_index: int,
    taus,
    potential: str = "double",
    quantity: str = "value",
) -> JumpReport:
    """Measure the boundary jump of a layer potential at one boundary node.

    Evaluation points are (xi +- tau nu)/sqrt(1 + tau^2), i.e. rotations of
    the node xi by arctan(tau) along its normal great circle. quantity
    "normal-derivative" differentiates along that circle with a centered
    step tau/16. The reported jump extrapolates the last three displacements
    to zero with a quadratic fit; convergence in tau is first order, so the
    extrapolation is heuristic rather than certified.
    """
    taus = np.asarray(sorted(np.atleast_1d(taus), reverse=True), dtype=float)
    if taus.size < 3:
        raise ValueError("need at least three displacements to extrapolate")
    grid = density.grid
    floor = 10.0 * 2.0 * np.pi * grid.cap.boundary_sine / len(grid)
    if taus.min() < floor:
        raise ValueError(
            f"displacement {taus.min():.3e} below the resolution floor {floor:.3e};"
            " refine the boundary grid"
        )
    layer = {"double": double_layer, "single": single_layer}.get(potential)
    if layer is None:
        raise ValueError("potential must be 'single' or 'double'")
    if quantity not in ("value", "normal-derivative"):
        raise ValueError("quantity must be 'value' or 'normal-derivative'")
    xi = grid.nodes[boundary_index]
    nu = grid.normals[boundary_index]
    alphas = np.arctan(taus)
    h = alphas / 16.0

    def at(a: np.ndarray) -> np.ndarray:
        return layer(density, np.outer(np.cos(a), xi) + np.outer(np.sin(a), nu))

    def side(a: np.ndarray) -> np.ndarray:
        if quantity == "value":
            return at(a)
        return (at(a + h) - at(a - h)) / (2.0 * h)

    outside = side(alphas)
    inside = side(-alphas)
    diffs = outside - inside
    return JumpReport(
        taus=taus,
        outside=outside,
        inside=inside,
        differences=diffs,
        jump=_extrapolate(taus, diffs),
        outside_limit=_extrapolate(taus, outside),
        inside_limit=_extrapolate(taus, inside),
    )


@dataclass(frozen=True)
class BoundarySolution:
    """Density solving a boundary integral equation, plus an interior evaluator."""

    density: DensitySamples
    equation: str

    def __call__(self, xi):
        if self.equation == "dirichlet":
            return double_layer(self.density, xi)
        return single_layer(self.density, xi)


def solve_idp(grid: QuadratureGrid, boundary_values) -> BoundarySolution:
    """Second-kind boundary equation of the Dirichlet problem on a cap.

    On the boundary the double-layer kernel is the constant kappa_g / 4 pi,
    so the collocation system (I/2 + rank-one) solves in closed form:
    Q = 2 F - (kappa_g / 2 pi) * (2 integral(F) / (2 - rho)).
    """
    f = boundary_data(grid, boundary_values)
    cap = grid.cap
    denom = 2.0 - cap.radius
    if not denom > 1e-12:
        raise ValueError("degenerate cap radius")
    total = float(np.sum(grid.weights * f))
    charge = 2.0 * total / denom
    q = 2.0 * f - geodesic_curvature(cap) / (2.0 * np.pi) * charge
    return BoundarySolution(DensitySamples(grid, q), "dirichlet")


def _log_quadrature_weights(m: int) -> np.ndarray:
    """Spectral weights for int_0^{2pi} ln(4 sin^2(t/2)) f(t) dt on m nodes.

    Exact for trigonometric polynomials of degree below m/2; the weights sum
    to zero, matching the vanishing mean of the periodic log kernel.
    """
    if m % 2 != 0:
        raise ValueError("log quadrature needs an even node count")
    j = np.arange(m)
    t = 2.0 * np.pi * j / m
    k = np.arange(1, m // 2)
    weights = -(4.0 * np.pi / m) * np.sum(
        np.cos(np.outer(t, k)) / k[None, :], axis=1
    )
    weights -= (4.0 * np.pi / m**2) * np.cos(0.5 * m * t)
    return weights


def solve_inp(grid: QuadratureGrid, boundary_values) -> BoundarySolution:
    """Second-kind boundary equation of the Neumann problem on a cap.

    Collocating the normal derivative of the single-layer ansatz gives
    F = K[Q] - Q/2 with the observation-side normal-derivative kernel K. On
    cap boundaries K is the constant kappa_g / 4 pi, so the collocation
    matrix is the circulant (rank-one minus identity/2) and the mean-free
    branch solves in closed form as Q = -2 F; the zero mode is pinned by the
    solvability condition. The density must be mean-free for the single
    layer to stay harmonic, so the data is required to integrate to zero.
    """
    f = boundary_data(grid, boundary_values)
    total = _neumann_total(grid, f)
    q = -2.0 * (f - total / float(np.sum(grid.weights)))
    return BoundarySolution(DensitySamples(grid, q, mean_free=True), "neumann")


def single_layer_on_boundary(density: DensitySamples) -> np.ndarray:
    """Values of the single-layer potential at its own boundary nodes.

    On the curve the kernel depends only on the parameter difference:
    G = ln(4 sin^2(delta/2))/4pi plus a constant, so the log part is
    integrated with the spectral periodic-log weights and the remainder by
    the trapezoid rule; the resulting circulant product is evaluated by FFT.
    """
    grid = density.grid
    cap = grid.cap
    m = len(grid)
    s = cap.boundary_sine
    c0 = (np.log(s * s) - 2.0 * np.log(2.0) + 1.0) / FOUR_PI
    row = s * (_log_quadrature_weights(m) / FOUR_PI + (2.0 * np.pi / m) * c0)
    return np.fft.irfft(np.fft.rfft(row) * np.fft.rfft(density.values), n=m)


def idp_residual(solution: BoundarySolution, boundary_values) -> float:
    """Sup-norm residual of F = U2[Q] + Q/2 at the collocation nodes."""
    return _collocation_residual(solution, boundary_values, 0.5)


def inp_residual(solution: BoundarySolution, boundary_values) -> float:
    """Sup-norm residual of F = K[Q] - Q/2 at the collocation nodes."""
    return _collocation_residual(solution, boundary_values, -0.5)


def _collocation_residual(solution: BoundarySolution, boundary_values, half):
    """Sup-norm of (kappa_g / 4 pi) integral(Q) + half * Q - F at the nodes;
    on cap boundaries both collocated kernels are the constant kappa_g / 4 pi."""
    grid = solution.density.grid
    f = boundary_data(grid, boundary_values)
    q = solution.density.values
    kg = geodesic_curvature(grid.cap)
    u = kg / FOUR_PI * float(np.sum(grid.weights * q))
    return float(np.abs(u + half * q - f).max())

