"""Desk-scale geoscience applications with synthetic forward models.

Three reconstruction problems, each driven by seeded synthetic data and
checked against an analytic oracle: recovering a potential from its
tangential gradient field (vertical-deflection style), recovering a surface
height from a rotation-weighted divergence-free flow (geostrophic style),
and recovering a stream function with impermeable-boundary behavior from
point-vortex boundary data by fundamental-solution collocation.

All operations run in dimensionless mode by default; physical constants
only rescale fields linearly and never change the measured errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import SphericalCap, circle_points, on_points
from .harmonics import ShCoefficients, _sh_accumulate
from .kernels import (
    KIND_DIRICHLET,
    KIND_FUNDAMENTAL,
    KernelSpec,
    fundamental,
    kernel_value_matrix,
)
from .mfs import FundamentalSystem, mfs_eval, mfs_fit, sources_on_circle
from .quadrature import FieldSamples, QuadratureGrid, build_boundary_grid
from .solvers import SolveReport, invert_gradient

_EQUATOR_GUARD = 0.15


@dataclass(frozen=True)
class PhysicalConstants:
    """Scaling constants; the dimensionless defaults leave fields unscaled."""

    radius: float = 1.0
    gm: float = 1.0
    rotation_rate: float = 1.0
    gravity: float = 1.0

    def __post_init__(self):
        for name in ("radius", "gm", "rotation_rate", "gravity"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class VortexSet:
    """Point-vortex centers and strengths inside a cap."""

    centers: np.ndarray
    strengths: np.ndarray
    regularization_point: np.ndarray

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        strengths = np.asarray(self.strengths, dtype=float)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "strengths", strengths)
        if len(strengths) != centers.shape[0]:
            raise ValueError("one strength per vortex center")
        gram = centers @ centers.T
        np.fill_diagonal(gram, -1.0)
        if np.any(gram > 1.0 - 1e-12):
            raise ValueError("vortex centers must be pairwise distinct")


def random_vortices(cap: SphericalCap, count: int, seed: int) -> VortexSet:
    """Seeded vortex set, area-uniform inside the concentric cap of radius
    0.6 rho. count must be at least 1."""
    if count < 1:
        raise ValueError(f"vortex count N must be at least 1, got {count}")
    rng = np.random.default_rng(seed)
    t = 1.0 - cap.radius * 0.6 * rng.random(count)
    phi = rng.uniform(0.0, 2.0 * np.pi, count)
    centers = circle_points(cap.frame, t, np.sqrt(1.0 - t * t), phi)
    strengths = rng.uniform(-1.0, 1.0, count)
    return VortexSet(centers, strengths, -cap.center)


def vd_forward(
    potential: ShCoefficients,
    cap: SphericalCap,
    grid: QuadratureGrid,
    constants: PhysicalConstants = PhysicalConstants(),
) -> tuple[FieldSamples, FieldSamples]:
    """Sample a potential and its scaled tangential-gradient field on a grid.

    The deflection-style field is -(R/GM) grad T, tangential by
    construction.
    """
    t_vals, grad = _sh_accumulate(potential, grid.nodes, want_grad=True)
    theta = -(constants.radius / constants.gm) * grad
    return FieldSamples(grid, t_vals), FieldSamples(grid, theta, tangential=True)


def vd_reconstruct(
    theta: FieldSamples,
    scale: int,
    mean_potential: float,
    points: np.ndarray,
    constants: PhysicalConstants = PhysicalConstants(),
    oracle=None,
) -> SolveReport:
    """Recover the potential from the deflection field at chosen points.

    T_J(xi) = mean - (GM/R) * inversion at scale J of theta = -(R/GM) grad T,
    FieldSamples marked tangential. With an oracle the report carries error
    statistics against it.
    """
    factor = -constants.gm / constants.radius
    return _recover(theta, "grad", factor, scale, mean_potential, points, oracle)


def geo_forward(
    height: ShCoefficients,
    cap: SphericalCap,
    grid: QuadratureGrid,
    constants: PhysicalConstants = PhysicalConstants(),
) -> tuple[FieldSamples, FieldSamples]:
    """Sample a height field and the balanced flow it drives on a cap grid.

    v = G curl-grad H / (2 R |w| z); the cap must stay clear of the equator,
    where the balance degenerates.
    """
    z = grid.nodes[:, 2]
    _require_offequator(cap)
    h_vals, grad = _sh_accumulate(height, grid.nodes, want_grad=True)
    coef = constants.gravity / (2.0 * constants.radius * constants.rotation_rate)
    v = coef * np.cross(grid.nodes, grad) / z[:, None]
    return FieldSamples(grid, h_vals), FieldSamples(grid, v, tangential=True)


def geo_reconstruct(
    flow: FieldSamples,
    scale: int,
    mean_height: float,
    points: np.ndarray,
    constants: PhysicalConstants = PhysicalConstants(),
    oracle=None,
) -> SolveReport:
    """Recover the height field from the balanced flow at chosen points.

    H_J(xi) = mean - (2R|w|/G) * curl-mode inversion of the field z * v.
    """
    z = flow.grid.nodes[:, 2]
    coef = 2.0 * constants.radius * constants.rotation_rate / constants.gravity
    weighted = FieldSamples(flow.grid, coef * z[:, None] * flow.values, tangential=True)
    return _recover(weighted, "curl", 1.0, scale, mean_height, points, oracle)


def _recover(field, mode, factor, scale, mean, points, oracle) -> SolveReport:
    """mean + factor * (mode inversion of field at scale J) at the points.

    With an oracle (callable on stacked points) the report carries sup and
    relative l2 errors against it.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    vals = mean + factor * invert_gradient(field, mode, scale, points)
    diagnostics = {"scale": float(scale), "mean": float(mean)}
    if oracle is not None:
        truth = np.asarray(oracle(points), dtype=float)
        diagnostics.update(_error_stats(vals, truth))
    return SolveReport(points, vals, diagnostics)


def _require_offequator(cap: SphericalCap) -> None:
    """min |z| over the closed cap must clear the equator guard."""
    colat_center = np.arccos(np.clip(cap.center[2], -1.0, 1.0))
    colat_radius = np.arccos(1.0 - cap.radius)
    z_hi = np.cos(max(colat_center - colat_radius, 0.0))
    z_lo = np.cos(min(colat_center + colat_radius, np.pi))
    lo = 0.0 if z_lo < 0.0 < z_hi else min(abs(z_lo), abs(z_hi))
    if lo < _EQUATOR_GUARD:
        raise ValueError(
            f"cap approaches the equator (min |z| = {lo:.3f} < {_EQUATOR_GUARD})"
        )


def vortex_exact(cap: SphericalCap, vortices: VortexSet, xi) -> float | np.ndarray:
    """Stream function of vortices with an impermeable cap boundary.

    Sum of strength-weighted Dirichlet cap kernels anchored at the vortex
    centers; vanishes on the boundary.
    """
    spec = KernelSpec(KIND_DIRICHLET, cap=cap)

    def evaluate(pts):
        # the vortices are the block's rows, added one by one in order
        block = kernel_value_matrix(spec, vortices.centers, pts)
        block *= vortices.strengths[:, None]
        total = block[0]
        for row in block[1:]:
            total += row
        return total

    return on_points(xi, evaluate)


def vortex_boundary_data(vortices: VortexSet):
    """Boundary trace driving the harmonic correction of the stream function.

    Per vortex: strength * (G(xi . center) - ln(1 - xi . xbar) / 4 pi), with
    ln(1 - xi . xbar) / 4 pi = G(xi . xbar) - G(0) for the regularization
    point xbar.
    """
    anchors = np.vstack([vortices.centers, vortices.regularization_point])
    total = float(np.sum(vortices.strengths))
    weights = np.append(vortices.strengths, -total)
    offset = total * fundamental(0.0)
    spec = KernelSpec(KIND_FUNDAMENTAL)

    def data(pts: np.ndarray) -> np.ndarray:
        return kernel_value_matrix(spec, pts, anchors) @ weights + offset

    return data


def mfs_layout(
    cap: SphericalCap,
    n_sources: int,
    radius_offset: float,
    regularization_point: np.ndarray,
) -> tuple[FundamentalSystem, QuadratureGrid]:
    """Harmonic log-difference system and collocation grid of the MFS fits.

    n_sources basis elements: the constant and n_sources - 1 sources
    equispaced on the cap boundary enlarged by radius_offset, against
    8 (n_sources - 1) equispaced boundary nodes. Sources and nodes share
    the circle frame of the cap and the source count divides the node
    count, so with a regularization point on the cap's axis (the vortex
    sets' and mfs-fit's -cap.center) mfs_fit takes its ring path.
    """
    if n_sources < 2:
        raise ValueError(
            f"source count M must be at least 2 (the constant and one source), "
            f"got {n_sources}"
        )
    sources = sources_on_circle(cap, n_sources - 1, radius_offset)
    system = FundamentalSystem(
        sources, "gk-mod", regularization_point=regularization_point
    )
    return system, build_boundary_grid(cap, 8 * (n_sources - 1))


def vortex_mfs(
    cap: SphericalCap,
    vortices: VortexSet,
    n_sources: int = 200,
    radius_offset: float = 0.005,
    ridge: float = 1e-12,
    probes: np.ndarray | None = None,
) -> SolveReport:
    """Reconstruct the vortex stream function by boundary collocation.

    Boundary data (singular part of the stream function plus the harmonic
    regularization term) is fitted with the harmonic log-difference basis of
    mfs_layout: n_sources basis elements (constant plus sources on the
    enlarged cap boundary), least squares over 8 (n_sources - 1) equidistant
    boundary nodes. The reconstruction subtracts the fit from the data part;
    the report compares against the closed-form stream function at the
    probes.
    """
    data = vortex_boundary_data(vortices)
    system, colloc = mfs_layout(
        cap, n_sources, radius_offset, vortices.regularization_point
    )
    fit = mfs_fit(system, colloc, data, mode="tikhonov", ridge=ridge)
    if probes is None:
        probes = np.array([cap.center])
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    values = data(probes) - mfs_eval(fit, probes)
    truth = vortex_exact(cap, vortices, probes)
    diagnostics = _error_stats(values, truth)
    diagnostics["boundary_residual"] = fit.boundary_residual
    diagnostics["condition"] = fit.condition
    return SolveReport(probes, values, diagnostics)


def _error_stats(values: np.ndarray, truth: np.ndarray) -> dict:
    diff = values - truth
    scale_sup = float(np.abs(truth).max())
    scale_l2 = float(np.sqrt(np.mean(truth * truth)))
    return {
        "sup_error": float(np.abs(diff).max()),
        "l2_error": float(np.sqrt(np.mean(diff * diff))),
        "rel_sup_error": float(np.abs(diff).max() / scale_sup) if scale_sup else 0.0,
        "rel_l2_error": (
            float(np.sqrt(np.mean(diff * diff)) / scale_l2) if scale_l2 else 0.0
        ),
    }
