"""Surface potentials and boundary value solvers on caps and the sphere.

On full-sphere grids the surface potential and invert_gradient are exact
below the grid's band: the fundamental solution acts on spherical
harmonics of degree n as -1/(n (n + 1)) (and annihilates constants), and
its scale-J regularization as 1 - n (n + 1) lambda_n(J) on the scalar
whose gradient is inverted, so the samples are analysed, scaled and
evaluated (_sphere_values). On cap grids invert_gradient (and everything
built on it) sums the Neumann kernel's gradient per longitude mode
(modes.gradient_sums): the unregularized operator, exact below the grid's
band, plus the closed-form series in 2^-J where it holds, and elsewhere
the regularized direct log term (modes._direct_term, a kernel sum of
_convolution). The surface potential on cap grids still integrates the
scale-J regularized kernel directly (_convolution.apply_kernel, ring-FFT
or dense from the evaluation points); J defaults to a value tied to the
grid resolution.

The cap boundary solvers are not kernel sums: they evaluate their integrals
exactly on the trigonometric interpolant of the rim data, as the chart
series of harmonics._rim_series, which stays accurate up to the rim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from numpy.polynomial import legendre

from ._convolution import apply_kernel
from .geometry import SphericalCap, on_points, unit_vector
from .harmonics import _inverse_degree, _rim_coefficients, _rim_series, _synthesize_rings
from .harmonics import ShCoefficients, scale_degrees, sh_analyze, sh_eval, sh_synthesize
from .kernels import KIND_FUNDAMENTAL, KIND_NEUMANN, KernelSpec, _log_term, gap, kernel_value_matrix
from .modes import _gauss, gradient_sums
from .quadrature import (
    KIND_BOUNDARY,
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


def _sphere_values(grid, c: ShCoefficients, pts: np.ndarray) -> np.ndarray:
    """The expansion c at stacked points: synthesized on the rings that hold
    node targets (grid.node_indices), evaluated by sh_eval elsewhere."""
    idx = grid.node_indices(pts)
    if idx is None:
        return sh_eval(c, pts)
    n_t, n_phi = grid.shape
    held = np.zeros(n_t, bool)  # not np.unique: its first call imports numpy.ma
    held[idx // n_phi] = True
    if held.all():  # every ring: the whole synthesis
        return sh_synthesize(grid, c)[0, idx]
    rings = np.flatnonzero(held)
    values = _synthesize_rings(grid, [c], rings)[0]
    return values[np.searchsorted(rings, idx // n_phi), idx % n_phi]


def surface_potential(
    samples: FieldSamples,
    xi,
    scale: int | None = None,
    xi_values=None,
) -> float | np.ndarray:
    """Integral of G(xi . eta) H(eta) over the sample grid.

    On a full-sphere grid it is the samples' expansion
    (harmonics.sh_analyze) with degree n scaled by -1/(n (n + 1)) and the
    mean dropped (_sphere_values); scale is ignored there. On a cap grid it
    is the quadrature sum, where nodes with 1 - xi . eta < 2^-scale use the
    linear continuation of the log kernel. The samples must be scalar.
    xi_values is ignored; it goes once the benchmark stops passing it.
    """
    grid = samples.grid
    if samples.values.ndim != 1:
        raise ValueError("the surface potential integrates scalar samples, not 3-vectors")
    if grid.kind == KIND_SPHERE:
        c = scale_degrees(sh_analyze(samples), lambda n: -_inverse_degree(n))
        return on_points(xi, partial(_sphere_values, grid, c))
    if scale is None:
        scale = default_scale(grid)
    kernel = partial(kernel_value_matrix, KernelSpec(KIND_FUNDAMENTAL, scale=scale))
    return on_points(xi, lambda pts: apply_kernel(kernel, samples, pts))


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
    return base - on_points(xi, lambda pts: np.log(gap(pts, xi_bar)) / area * total)


def _cap_boundary_samples(cap: SphericalCap, boundary_values, m: int) -> FieldSamples:
    """Boundary data of a cap solver or of the cap split's F3 trace on a
    boundary grid of this cap: FieldSamples data keep their grid, which
    must be a boundary grid of this cap (every boundary grid comes from
    build_boundary_grid, so an equal cap has the same nodes); other data
    are taken on m nodes."""
    if isinstance(boundary_values, FieldSamples):
        grid = boundary_values.grid
        own = (
            grid.kind == KIND_BOUNDARY
            and grid.cap.radius == cap.radius
            and np.array_equal(grid.cap.center, cap.center)
        )
        if not own:
            raise ValueError("samples must lie on the collocation grid (cap boundary)")
    else:
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
    (1 - xi . center < radius - 1e-6). The Poisson integral is evaluated
    exactly on the trigonometric interpolant of the m rim values (product
    integration): in the stereographic chart it is the series
    Re sum_k c_k w^k (_rim_series), uniformly accurate up to the rim.
    """
    samples = _cap_boundary_samples(cap, boundary_values, m)
    c = _rim_coefficients(samples.values)

    def evaluate(pts):
        if not np.all(cap.contains(pts, margin=1e-6)):
            raise ValueError("evaluation points must be strictly interior")
        return _rim_series(cap, c, pts).real

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
    is ln(1 - xi . eta)/2pi + (1 - rho) ln(2 - rho)/(2 pi rho). Integrated
    term by term against the trigonometric interpolant of the data, it is
    the series of dirichlet_solve_cap with c_k scaled by R_b/(k lambda) =
    boundary_sine/k, lambda = 2/(2 - rho) the chart's rim factor, and
    c_0 = mean_val: a harmonic function's cap mean is its value at the
    centre. Points must lie inside the cap.
    """
    samples = _cap_boundary_samples(cap, boundary_values, m)
    _neumann_total(samples.grid, samples.values)
    c = _rim_coefficients(samples.values)
    c[1:] *= cap.boundary_sine / np.arange(1, len(c))
    c[0] = mean_val

    def evaluate(pts):
        if not np.all(cap.contains(pts)):
            raise ValueError("evaluation points must lie inside the cap")
        return _rim_series(cap, c, pts).real

    return on_points(xi, evaluate)


def invert_gradient(
    samples: FieldSamples,
    mode: str,
    scale: int | None,
    xi,
) -> float | np.ndarray:
    """Reconstruct a scalar (up to its mean) from its surface gradient or
    surface curl gradient sampled on a cap or sphere grid.

    mode "grad" treats the samples as grad U, mode "curl" as curl-grad U.
    Returns T_J f = -integral (D_eta K)(xi, eta) . f(eta) with K the
    Neumann cap kernel (cap grids, per longitude mode: modes.gradient_sums)
    or the fundamental solution (sphere grids: G_J * div f, F2 or F3 of
    sh_analyze scaled by _regularized_factor, exact below the band),
    regularized at J = scale (default_scale(grid) if None). The caller adds
    any desired mean. On a cap grid the points must lie inside the cap.
    """
    if mode not in ("grad", "curl"):
        raise ValueError("mode must be 'grad' or 'curl'")
    if not samples.tangential:
        raise ValueError("invert_gradient requires tangential samples")
    grid = samples.grid
    if scale is None:
        scale = default_scale(grid)
    curl = mode == "curl"
    if grid.kind == KIND_SPHERE:
        KernelSpec(KIND_FUNDAMENTAL, scale=scale)  # the kernels' rule: J in [0, 53]
        c = scale_degrees(sh_analyze(samples)[2 if curl else 1], partial(_regularized_factor, scale))
        return on_points(xi, partial(_sphere_values, grid, c))

    def evaluate(pts):
        if not np.all(grid.cap.contains(pts)):
            raise ValueError("the cap reflection requires points inside the cap")
        return gradient_sums(samples, [(KIND_NEUMANN, curl)], pts, scale)[0]

    return on_points(xi, evaluate)


def _regularized_factor(scale: int, n: np.ndarray) -> np.ndarray:
    """1 - n (n + 1) lambda_n at the degrees n = 0..L: lambda_n = 2 pi int c(u)
    P_n(1 - u) du over u = 1 - xi . eta < 2^-J, c = G_J - G, by one Gauss
    rule in v, u = 2^-J v^6, which smooths c's log singularity at u = 0."""
    x, w = _gauss(200)
    v = 0.5 * (x + 1.0)
    u = 2.0**-scale * v**6
    c = _log_term(u.copy(), scale) - np.log(u) / (4.0 * np.pi)
    lam = legendre.legvander(1.0 - u, len(n) - 1).T @ (6.0 * np.pi * w * c * u / v)
    return 1.0 - n * (n + 1.0) * lam


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
