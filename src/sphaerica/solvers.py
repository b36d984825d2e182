"""Surface potentials and boundary value solvers on caps and the sphere.

Quadrature of singular kernels follows two strategies. Gradient-kernel
convolutions (invert_gradient and everything built on it) integrate the
scale-J regularized kernel directly; J defaults to a value tied to the grid
resolution. The scalar surface potential additionally exploits the kernel's
zero spherical mean on full-sphere grids: at grid nodes, where the
integrand's value at the evaluation point is a sample, the singular part is
subtracted and the quadrature error drops by more than an order of
magnitude. Off-node points take the plain sum.

Every area and boundary sum here runs through _convolution.apply_kernel,
which picks ring-FFT or dense summation from the evaluation points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._convolution import apply_kernel, grad_convolution
from .geometry import SphericalCap, on_points, unit_vector
from .kernels import KIND_FUNDAMENTAL, KIND_NEUMANN, KernelSpec, kernel_value_matrix
from .quadrature import (
    KIND_CAP,
    KIND_SPHERE,
    FieldSamples,
    QuadratureGrid,
    _neumann_total,
    _on_grid,
    boundary_data,
    build_boundary_grid,
    build_cap_grid,
    integrate,
)


@dataclass(frozen=True)
class SolveReport:
    """Solution samples plus the residual diagnostics of the solve."""

    points: np.ndarray
    values: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("solution values must be finite")
        for v in self.diagnostics.values():
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError("diagnostics must be finite")


def default_scale(grid: QuadratureGrid) -> int:
    """Regularization scale tied to grid resolution: ceil(log2(1/h_t)) + 2."""
    h = grid.polar_spacing
    if h <= 0.0:
        raise ValueError("default scale needs an area grid")
    return int(np.ceil(np.log2(1.0 / h))) + 2


def surface_potential(
    samples: FieldSamples,
    xi,
    scale: int | None = None,
    xi_values=None,
) -> float | np.ndarray:
    """Quadrature of G(xi . eta) H(eta) over the sample grid.

    Nodes with 1 - xi . eta < 2^-scale use the linear continuation of the log
    kernel. When every xi is a node of a full-sphere grid, the zero-mean
    identity of the kernel turns the integrand into
    G(xi . eta)(H(eta) - H(xi)), which removes the singular contribution
    entirely; other points take the plain sum. xi_values is ignored; it goes
    once the benchmark stops passing it.
    """
    grid = samples.grid
    if scale is None:
        scale = default_scale(grid)
    kernel = partial(kernel_value_matrix, KernelSpec(KIND_FUNDAMENTAL, scale=scale))
    integral = 0.0 if grid.kind == KIND_SPHERE else None
    return on_points(xi, lambda pts: apply_kernel(kernel, samples, pts, integral))


def beltrami_fd(evaluator, xi, h: float = 1e-3) -> float:
    """Five-point gnomonic-stencil estimate of the surface Laplacian.

    evaluator maps stacked points (N, 3) to values (N,). Second order in h;
    h should stay within [1e-4, 1e-2].
    """
    if not 1e-4 <= h <= 1e-2:
        raise ValueError("step h must lie in [1e-4, 1e-2]")
    xi = unit_vector(np.asarray(xi, dtype=float))
    helper = np.array([0.0, 0.0, 1.0]) if abs(xi[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = unit_vector(np.cross(helper, xi))
    e2 = np.cross(xi, e1)
    stencil = np.stack(
        [xi + h * e1, xi - h * e1, xi + h * e2, xi - h * e2, xi]
    )
    stencil = stencil / np.linalg.norm(stencil, axis=1, keepdims=True)
    vals = np.asarray(evaluator(stencil), dtype=float)
    return float((vals[0] + vals[1] + vals[2] + vals[3] - 4.0 * vals[4]) / (h * h))


def poisson_solve_cap(
    cap: SphericalCap,
    samples: FieldSamples,
    xi_bar,
    xi,
    scale: int | None = None,
) -> float | np.ndarray:
    """Particular solution of the surface Poisson equation on a cap.

    Returns the potential of the demeaned right-hand side plus the correction
    -(1/|cap|) ln(1 - xi . xi_bar) * integral(H), with xi_bar a fixed point
    outside the closed cap. samples must lie on an area grid of this cap.
    """
    grid = samples.grid
    if grid.kind != KIND_CAP or not _on_grid(samples, build_cap_grid(cap, *grid.shape)):
        raise ValueError("samples must lie on an area grid of the solver's cap")
    xi_bar = unit_vector(np.asarray(xi_bar, dtype=float))
    if cap.contains(xi_bar) or 1.0 - float(xi_bar @ cap.center) <= cap.radius:
        raise ValueError("xi_bar must lie outside the closed cap")
    area = 2.0 * np.pi * cap.radius
    total = integrate(grid, samples)
    demeaned = FieldSamples(grid, samples.values - total / area)
    base = surface_potential(demeaned, xi, scale=scale)
    xi = np.asarray(xi, dtype=float)
    t_bar = xi @ xi_bar
    return base - np.log(1.0 - t_bar) / area * total


def _cap_boundary_samples(cap: SphericalCap, boundary_values, m: int) -> FieldSamples:
    """Boundary data of a cap solver or of the cap split's F3 trace on a
    boundary grid of this cap, with as many nodes as FieldSamples data
    (whose nodes must be its own) or m."""
    if isinstance(boundary_values, FieldSamples):
        m = len(boundary_values.grid)
    grid = build_boundary_grid(cap, m)
    return FieldSamples(grid, boundary_data(grid, boundary_values))


def dirichlet_solve_cap(
    cap: SphericalCap,
    boundary_values,
    xi,
    m: int = 512,
) -> float | np.ndarray:
    """Closed-form Poisson-type integral for the cap Dirichlet problem.

    boundary_values is either FieldSamples on a boundary grid of the cap or
    a callable on stacked boundary nodes; xi must be strictly interior
    (1 - xi . center < radius - 1e-6).
    """
    samples = _cap_boundary_samples(cap, boundary_values, m)
    s = cap.boundary_sine
    kernel = lambda x, eta: 1.0 / (1.0 - x @ eta.T)

    def evaluate(pts):
        if not np.all(cap.contains(pts, margin=1e-6)):
            raise ValueError("evaluation points must be strictly interior")
        front = (pts @ cap.center + cap.radius - 1.0) / (2.0 * np.pi * s)
        return front * apply_kernel(kernel, samples, pts)

    return on_points(xi, evaluate)


def neumann_solve_cap(
    cap: SphericalCap,
    boundary_values,
    mean_val: float,
    xi,
    m: int = 512,
) -> float | np.ndarray:
    """Single-integral representation of the cap Neumann problem.

    boundary_values carries the normal derivative on the boundary; it must
    integrate to zero (solvability). mean_val supplies the cap mean of the
    solution, which fixes the free additive constant. The representation
    kernel is the Neumann cap Green function, which for eta on the boundary
    is ln(1 - xi . eta)/2pi + (1 - rho) ln(2 - rho)/(2 pi rho).
    """
    samples = _cap_boundary_samples(cap, boundary_values, m)
    _neumann_total(samples.grid, samples.values)
    kernel = partial(kernel_value_matrix, KernelSpec(KIND_NEUMANN, cap))
    return on_points(xi, lambda pts: mean_val - apply_kernel(kernel, samples, pts))


def invert_gradient(
    samples: FieldSamples,
    mode: str,
    scale: int | None,
    xi,
) -> float | np.ndarray:
    """Reconstruct a scalar (up to its mean) from its surface gradient or
    surface curl gradient sampled on a cap or sphere grid.

    mode "grad" treats the samples as grad U, mode "curl" as curl-grad U.
    Returns -integral (D_eta K)(xi, eta) . f(eta) with K the Neumann cap
    kernel (cap grids) or the fundamental solution (sphere grids),
    regularized at the given scale. The caller adds any desired mean.
    """
    if mode not in ("grad", "curl"):
        raise ValueError("mode must be 'grad' or 'curl'")
    if not samples.tangential:
        raise ValueError("invert_gradient requires tangential samples")
    grid = samples.grid
    if scale is None:
        scale = default_scale(grid)
    kind = KIND_FUNDAMENTAL if grid.kind == KIND_SPHERE else KIND_NEUMANN
    spec = KernelSpec(kind, cap=grid.cap, scale=scale)
    curl = mode == "curl"
    return on_points(xi, lambda pts: grad_convolution(samples, spec, pts, curl))


def mvp_residual(evaluator, probe_cap: SphericalCap, which: str) -> float:
    """Residual of a mean value identity for a harmonic function.

    which = "I": |F(center) - area-term - weighted boundary term| with the
    interior average over the probe cap; which = "II": |F(center) - boundary
    average|. Both vanish for functions harmonic on the closed probe cap.
    The area term uses a 24x48 cap grid, the boundary term 128 nodes.
    """
    center = probe_cap.center
    rho = probe_cap.radius
    f_center = float(np.asarray(evaluator(center[None, :]))[0])
    bgrid = build_boundary_grid(probe_cap, 128)
    bvals = np.asarray(evaluator(bgrid.nodes), dtype=float)
    bint = float(np.sum(bgrid.weights * bvals))
    if which == "II":
        return abs(f_center - bint / (2.0 * np.pi * probe_cap.boundary_sine))
    if which != "I":
        raise ValueError("which must be 'I' or 'II'")
    agrid = build_cap_grid(probe_cap, 24, 48)
    avals = np.asarray(evaluator(agrid.nodes), dtype=float)
    aint = float(np.sum(agrid.weights * avals))
    coef = np.sqrt(2.0 - rho) / (4.0 * np.pi * np.sqrt(rho))
    return abs(f_center - aint / (4.0 * np.pi) - coef * bint)


def max_principle_check(evaluator, cap: SphericalCap) -> bool:
    """sup |F| over a 32x64 interior grid <= sup |F| over 256 boundary nodes
    + 1e-12."""
    agrid = build_cap_grid(cap, 32, 64)
    bgrid = build_boundary_grid(cap, 256)
    interior = np.abs(np.asarray(evaluator(agrid.nodes), dtype=float)).max()
    boundary = np.abs(np.asarray(evaluator(bgrid.nodes), dtype=float)).max()
    return bool(interior <= boundary + 1e-12)
