"""Curve potentials on cap boundaries and their boundary integral equations.

The single layer integrates the fundamental solution against a boundary
density, the double layer its boundary-normal derivative. Both are exact on
the density's trigonometric interpolant, as chart series
(harmonics._rim_series) of the cap inside it and of the complement cap
outside it. The chart is conformal and the rim a circle in it, so the
double-layer kernel is the disc's Poisson kernel plus a constant, and the
single layer's log singularity a power series: both hold up to the curve
from either side, at any node count. On the curve the double-layer kernel,
and the observation-side normal derivative of the single layer, are one
constant (geodesic curvature over 4 pi), so both second-kind equations
solve in closed form: the Dirichlet one as a rank-one perturbation of the
identity, the Neumann one as Q = -2 F on its mean-free branch.

jump_probe measures the classical limit and jump behavior of the potentials
across the boundary by evaluating at points displaced along the boundary
normal and extrapolating the displacement to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import SphericalCap, on_points
from .harmonics import _rim_coefficients, _rim_series
from .kernels import FOUR_PI
from .quadrature import (
    KIND_BOUNDARY,
    FieldSamples,
    QuadratureGrid,
    _neumann_total,
    _zero_integral,
    boundary_data,
)


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


def _sides(cap: SphericalCap, c: np.ndarray, pts: np.ndarray):
    """(sigma, t, E) per point: sigma = +1 inside the cap, -1 outside, 0 on
    the curve (1 - t within 1e-14 of rho); t = xi . zeta, summed row by row
    so that a point gives the same bits alone as in a stack; E the harmonic
    extension Re sum_k c_k w^k of the rim series c to the point's side, in
    the cap's chart inside and on the curve, else in the complement's with
    conjugated c_k, as its frame flips a2 (rotation_to_pole)."""
    t = np.sum(pts * cap.center, axis=1)
    gap = cap.radius - (1.0 - t)
    sigma = np.where(np.abs(gap) <= 1e-14, 0.0, np.sign(gap))
    inside = sigma >= 0.0
    ext = np.empty(len(pts))
    ext[inside] = _rim_series(cap, c, pts[inside]).real
    ext[~inside] = _rim_series(cap.complement, c.conj(), pts[~inside]).real
    return sigma, t, ext


def single_layer(density: DensitySamples, xi) -> float | np.ndarray:
    """Boundary integral of G(xi . eta) against the density.

    For eta on the rim, ln(1 - xi . eta) = ln|w - e^{i phi}|^2 + ln rho
    + ln(1 + t) - ln 2 in the chart w of xi, and inside the disc
    ln|w - e^{i phi}|^2 = -2 Re sum_k (w e^{-i phi})^k / k. On the
    density's interpolant c, S = (Q/4 pi) ln((1 + t)/(2 - rho)) + E[a] with
    Q the density's integral, s the boundary sine, a_k = -s c_k/(2k) and
    a_0 = (s/2)(ln s^2 - 2 ln 2 + 1) c_0 (_sides). Outside, the complement's
    chart turns t into -t and rho into 2 - rho; on the curve both agree.
    """
    grid = density.grid
    cap = grid.cap
    s = cap.boundary_sine
    a = _rim_coefficients(density.values)
    a[1:] *= -s / (2.0 * np.arange(1, len(a)))
    a[0] *= 0.5 * s * (np.log(s * s) - 2.0 * np.log(2.0) + 1.0)
    charge = float(np.sum(grid.weights * density.values)) / FOUR_PI

    def evaluate(pts):
        sigma, t, ext = _sides(cap, a, pts)
        side = np.where(sigma < 0.0, -1.0, 1.0)
        return charge * (np.log1p(side * t) - np.log1p(side * (1.0 - cap.radius))) + ext

    return on_points(xi, evaluate)


def double_layer(density: DensitySamples, xi) -> float | np.ndarray:
    """Boundary integral of the normal-derivative kernel against the density.

    The kernel is the eta-gradient of G(xi . eta) dotted with the outward
    boundary normal at eta. In the chart it is the constant kappa_g / 4 pi
    plus half the disc's Poisson kernel, so on the density's interpolant
    D = K + (sigma/2) E (_sides), K = kappa_g / 4 pi times the density's
    integral. On the curve the kernel is the constant and D = K.
    """
    grid = density.grid
    cap = grid.cap
    c = _rim_coefficients(density.values)
    k = geodesic_curvature(cap) / FOUR_PI * float(np.sum(grid.weights * density.values))

    def evaluate(pts):
        sigma, _, ext = _sides(cap, c, pts)
        return k + 0.5 * sigma * ext

    return on_points(xi, evaluate)


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
    step tau/16. Both potentials are exact on the density's interpolant at
    any displacement, so no tau is too small for the grid. The reported jump
    extrapolates the last three displacements to zero with a quadratic fit;
    convergence in tau is first order, so the extrapolation is heuristic
    rather than certified. boundary_index must lie in [0, m) and the taus
    must be finite, positive and distinct, else ValueError.
    """
    taus = np.asarray(sorted(np.atleast_1d(taus), reverse=True), dtype=float)
    if taus.size < 3:
        raise ValueError("need at least three displacements to extrapolate")
    if not (np.all(np.isfinite(taus)) and taus[-1] > 0.0 and np.all(np.diff(taus) < 0.0)):
        raise ValueError("displacements must be finite, positive and distinct")
    grid = density.grid
    if not 0 <= boundary_index < len(grid):
        raise ValueError(f"boundary index must lie in [0, {len(grid)})")
    layer = {"double": double_layer, "single": single_layer}.get(potential)
    if layer is None:
        raise ValueError("potential must be 'single' or 'double'")
    if quantity not in ("value", "normal-derivative"):
        raise ValueError("quantity must be 'value' or 'normal-derivative'")
    xi = grid.nodes[boundary_index]
    nu = grid.normals[boundary_index]
    alphas = np.arctan(taus)
    h = alphas / 16.0

    # every point of the probe in one layer call; the layer sums each point
    # on its own, so a point gets the bits it has alone
    steps = [0.0] if quantity == "value" else [h, -h]
    a = np.concatenate([side * alphas + step for side in (1.0, -1.0) for step in steps])
    at = layer(density, np.outer(np.cos(a), xi) + np.outer(np.sin(a), nu))
    at = at.reshape(2, len(steps), taus.size)
    if quantity == "value":
        outside, inside = at[:, 0]
    else:
        outside, inside = (at[:, 0] - at[:, 1]) / (2.0 * h)
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

