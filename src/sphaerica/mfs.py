"""Fundamental-system bases and least-squares collocation fitting.

Harmonic trial functions anchored at source points outside the target
region: shifted log kernels, their boundary-normal derivatives, the
log-kernel difference that is harmonic inside the region, and cap inner
harmonics. Dense collocation systems are solved by plain interpolation or
Tikhonov-regularized least squares; plain interpolation of near-boundary
sources conditions badly, so the regularized path is the default choice in
the applications.

Each collocation system is factored once: a Householder QR of [A | f] and
one SVD of its triangle give the condition number and the Tikhonov
filter-factor solution, with the cut-off described in mfs_fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import SphericalCap, boundary_nodes, on_points
from .harmonics import InnerHarmonicIndex, inner_harmonic_eval
from .kernels import FOUR_PI
from .quadrature import QuadratureGrid, boundary_data

VARIANT_GK = "gk"
VARIANT_GK_MOD = "gk-mod"
VARIANT_INNER = "inner-harmonic"
_VARIANTS = (VARIANT_GK, VARIANT_GK_MOD, VARIANT_INNER)


@dataclass(frozen=True)
class FundamentalSystem:
    """Source layout and basis choice of one fitting problem.

    sources are the anchor points (on a circle outside the target cap in the
    standard construction); regularization_point is the fixed exterior point
    of the harmonic-difference variant. include_constant keeps the constant
    1/(4 pi) as the index-0 basis element.
    """

    sources: np.ndarray
    variant: str
    regularization_point: np.ndarray | None = None
    cap: SphericalCap | None = None
    include_constant: bool = True

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown basis variant {self.variant!r}")
        if self.variant == VARIANT_GK_MOD and self.regularization_point is None:
            raise ValueError("gk-mod needs a regularization point")
        if self.variant == VARIANT_INNER and self.cap is None:
            raise ValueError("inner-harmonic basis needs a cap")
        sources = np.atleast_2d(np.asarray(self.sources, dtype=float))
        object.__setattr__(self, "sources", sources)
        sources.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.sources) + (1 if self.include_constant else 0)


def sources_on_circle(
    cap: SphericalCap, count: int, radius_offset: float = 0.005
) -> np.ndarray:
    """count equidistant source points on the boundary of the enlarged cap.

    The enlarged radius cap.radius + radius_offset must lie strictly between
    cap.radius and 2 (the antipode of the center in the 1 - xi . center
    measure), so that the sources sit on a circle outside the cap.
    """
    if not (radius_offset > 0.0 and cap.radius + radius_offset < 2.0):
        raise ValueError(
            f"source circle radius {cap.radius + radius_offset!r} must exceed "
            f"the cap radius {cap.radius!r} and stay below 2"
        )
    outer = SphericalCap(cap.center, cap.radius + radius_offset)
    phis = 2.0 * np.pi * np.arange(count) / count
    pos, _, _ = boundary_nodes(outer, phis)
    return pos


def basis_eval(
    system: FundamentalSystem, k: int, xi, mode: str = "value", normal=None
):
    """Evaluate basis element k at xi.

    Index 0 is the constant when the system includes it; source-anchored
    elements follow. mode "normal-derivative" needs the outward normals at
    xi (same leading shape).
    """
    if mode == "normal-derivative" and normal is None:
        raise ValueError("normal-derivative mode needs normals")
    nu = None if normal is None else np.atleast_2d(np.asarray(normal, dtype=float))
    return on_points(xi, lambda pts: _basis_columns(system, pts, mode, nu)[:, k])


def _log_part(pts, anchors, mode, nu):
    """Log kernel (or normal derivative) at pts: shape (P,) for one anchor
    point, (P, S) for a stack of S anchors."""
    gap = 1.0 - pts @ np.transpose(anchors)
    if np.any(gap < 1e-14):
        raise ValueError("basis evaluated at one of its source points")
    if mode == "value":
        return np.log(gap) / FOUR_PI
    # normal derivative: -(nu . anchor - t (nu . pts = 0)) / (4 pi (1 - t));
    # nu is tangential at pts, so nu . pts vanishes
    return -(nu @ np.transpose(anchors)) / (FOUR_PI * gap)


def _basis_columns(system, pts, mode="value", nu=None) -> np.ndarray:
    """Collocation block: basis values (or normal derivatives) at pts."""
    cols = []
    if system.include_constant:
        const = np.full(pts.shape[0], 1.0 / FOUR_PI)
        cols.append(np.zeros(pts.shape[0]) if mode != "value" else const)
    if system.variant == VARIANT_INNER:
        if mode != "value":
            raise NotImplementedError("inner-harmonic collocation is value-only")
        k = 1
        while len(cols) < system.size:
            degree = (k + 1) // 2
            order = 1 if k % 2 == 1 else 2
            idx = InnerHarmonicIndex(system.cap, degree, order)
            cols.append(inner_harmonic_eval(idx, pts))
            k += 1
        return np.column_stack(cols)
    block = _log_part(pts, system.sources, mode, nu)
    if system.variant == VARIANT_GK_MOD:
        block -= _log_part(pts, system.regularization_point, mode, nu)[:, None]
    return np.column_stack(cols + [block])


@dataclass(frozen=True)
class MfsSolution:
    """Fitted coefficients with the diagnostics of the collocation solve."""

    system: FundamentalSystem
    coefficients: np.ndarray
    mode: str
    boundary_residual: float
    condition: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.coefficients)):
            raise ValueError("fit produced non-finite coefficients")


def mfs_fit(
    system: FundamentalSystem,
    collocation: QuadratureGrid,
    boundary_values,
    mode: str = "tikhonov",
    ridge: float = 1e-12,
) -> MfsSolution:
    """Fit basis coefficients to boundary data at the collocation nodes.

    The M x K collocation matrix A and the data f are factored once: a
    Householder QR of [A | f] gives R and Q^T f without forming Q, and the
    SVD R = U S V^T gives condition = s_0 / s_-1. mode "interpolation"
    solves the square system (as many collocation points as basis elements)
    as V diag(1 / s) U^T Q^T f and fails loudly on numerically singular ones;
    "tikhonov" minimizes |A a - f|^2 + ridge |a|^2 as
    V diag(s / (s^2 + ridge)) U^T Q^T f, zeroing the filter factors where
    sqrt(s^2 + ridge) <= eps (M + K) sqrt(s_0^2 + ridge): the cut-off of a
    rank-revealing solve of the stacked system [A; sqrt(ridge) I]. ridge
    must be finite and non-negative; ridge = 0 gives the minimum-norm
    least-squares solution.
    """
    if not (np.isfinite(ridge) and ridge >= 0.0):
        raise ValueError(f"ridge must be finite and non-negative, got {ridge!r}")
    f = boundary_data(collocation, boundary_values)
    a_mat = _basis_columns(system, collocation.nodes)
    n_pts, n_basis = a_mat.shape
    if n_pts < n_basis:
        raise ValueError(f"{n_pts} collocation points for {n_basis} basis elements")
    if mode not in ("interpolation", "tikhonov"):
        raise ValueError("mode must be 'interpolation' or 'tikhonov'")
    if mode == "interpolation" and n_pts != n_basis:
        raise ValueError("interpolation needs a square system")
    r_full = np.linalg.qr(np.column_stack([a_mat, f]), mode="r")
    u_mat, sv, vt_mat = np.linalg.svd(r_full[:n_basis, :n_basis])
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else np.inf
    if mode == "interpolation":
        if sv[-1] <= n_basis * np.finfo(float).eps * sv[0]:
            raise np.linalg.LinAlgError(
                "collocation matrix numerically singular; use tikhonov mode"
            )
        filt = 1.0 / sv
    else:
        damped = sv**2 + ridge
        keep = np.sqrt(damped) > (
            np.finfo(float).eps * (n_pts + n_basis) * np.sqrt(damped[0])
        )
        filt = np.zeros_like(sv)
        filt[keep] = sv[keep] / damped[keep]
    coeffs = vt_mat.T @ (filt * (u_mat.T @ r_full[:n_basis, n_basis]))
    residual = float(np.abs(a_mat @ coeffs - f).max())
    return MfsSolution(system, coeffs, mode, residual, condition)


def mfs_eval(solution: MfsSolution, xi) -> float | np.ndarray:
    """Evaluate the fitted combination at xi (away from the source points)."""
    return on_points(
        xi, lambda pts: _basis_columns(solution.system, pts) @ solution.coefficients
    )
