"""Deterministic quadrature grids on caps, the full sphere, and cap boundaries.

Area grids are product rules: Gauss-Legendre in the polar coordinate
t = xi . zeta times a uniform longitude rule, mapped through the cap's
rotation frame. Boundary grids are equispaced in the curve parameter
(trapezoidal rule, spectrally accurate for smooth periodic integrands).
All constructions and reductions are bit-reproducible for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import E3, SphericalCap, boundary_nodes, circle_points, rotation_to_pole

KIND_CAP = "cap-area"
KIND_SPHERE = "sphere-area"
KIND_BOUNDARY = "boundary-line"


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and positive weights of one quadrature rule.

    kind is one of "cap-area", "sphere-area", "boundary-line". Boundary grids
    also carry tangent/normal frames and the curve parameters of their nodes.
    shape records (n_t, n_phi) for area grids and (m,) for boundary grids.
    """

    kind: str
    nodes: np.ndarray
    weights: np.ndarray
    shape: tuple
    cap: SphericalCap | None = None
    phis: np.ndarray | None = None
    tangents: np.ndarray | None = None
    normals: np.ndarray | None = None

    def __post_init__(self):
        for arr in (self.nodes, self.weights, self.phis, self.tangents, self.normals):
            if arr is not None:
                arr.setflags(write=False)

    def __len__(self) -> int:
        return self.nodes.shape[0]

    @property
    def polar_spacing(self) -> float:
        """Mean node spacing of the polar (t) coordinate; 0 for boundary grids."""
        if self.kind == KIND_BOUNDARY:
            return 0.0
        span = 2.0 if self.kind == KIND_SPHERE else self.cap.radius
        return span / self.shape[0]

    @property
    def polar_frame(self) -> np.ndarray:
        """Columns (a1, a2, zeta) = rotation_to_pole(cap center, or E3) of the
        product rule: zeta is the ring axis and longitude 0 lies along a1."""
        return rotation_to_pole(E3 if self.cap is None else self.cap.center)

    def node_indices(self, points: np.ndarray) -> np.ndarray | None:
        """Indices of the area-grid nodes the points are, or None unless
        every point is bitwise equal to its node (also for boundary grids and
        for no points). O(P): the ring comes from t = xi . zeta, the
        longitude index from rounding phi n_phi / 2 pi."""
        if len(points) == 0 or self.kind == KIND_BOUNDARY:
            return None
        n_t, n_phi = self.shape
        a1, a2, zeta = self.polar_frame.T
        ring_t = self.nodes[::n_phi] @ zeta
        t = points @ zeta
        ring = np.clip(np.searchsorted(ring_t, t), 1, n_t - 1)
        ring -= t - ring_t[ring - 1] < ring_t[ring] - t
        phi = np.arctan2(points @ a2, points @ a1)
        lon = np.rint(phi * (n_phi / (2.0 * np.pi))).astype(int) % n_phi
        idx = ring * n_phi + lon
        return idx if np.array_equal(self.nodes[idx], points) else None


@dataclass(frozen=True)
class FieldSamples:
    """Scalar or 3-vector values co-indexed with a quadrature grid.

    tangential marks 3-vector samples whose radial part is at rounding
    level: |f . xi| < 1e-10 max(1, sup |f|) at every node, a bound relative
    to the field's size, so rescaling a tangential field keeps it tangential.
    """

    grid: QuadratureGrid
    values: np.ndarray
    tangential: bool = False

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        n = len(self.grid)
        if values.shape not in ((n,), (n, 3)):
            raise ValueError(f"samples of shape {values.shape} for {n} grid nodes")
        if not np.all(np.isfinite(values)):
            raise ValueError("samples must be finite")
        if self.tangential:
            if values.ndim != 2:
                raise ValueError("tangential samples must be 3-vectors")
            radial = np.abs(np.sum(values * self.grid.nodes, axis=1))
            sup = np.linalg.norm(values, axis=1).max(initial=0.0)
            if radial.max(initial=0.0) >= 1e-10 * max(1.0, sup):
                raise ValueError("samples marked tangential have radial part")
        values.setflags(write=False)


def _polar_product_grid(zeta: np.ndarray, t_lo: float, n_t: int, n_phi: int):
    """Nodes/weights of the Gauss-Legendre x uniform product rule, t in [t_lo, 1]."""
    x, w = np.polynomial.legendre.leggauss(n_t)
    half = 0.5 * (1.0 - t_lo)
    t = t_lo + half * (x + 1.0)
    wt = w * half
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    wphi = 2.0 * np.pi / n_phi
    sin_t = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
    nodes = circle_points(rotation_to_pole(zeta), t[:, None], sin_t[:, None], phis)
    weights = np.broadcast_to((wt * wphi)[:, None], (n_t, n_phi))
    return nodes.reshape(-1, 3), np.ascontiguousarray(weights).reshape(-1)


def build_cap_grid(cap: SphericalCap, n_t: int, n_phi: int) -> QuadratureGrid:
    """Product rule over a cap; total weight is the cap area 2 pi rho."""
    if n_t < 2 or n_phi < 4:
        raise ValueError("cap grid needs n_t >= 2 and n_phi >= 4")
    nodes, weights = _polar_product_grid(cap.center, 1.0 - cap.radius, n_t, n_phi)
    return QuadratureGrid(KIND_CAP, nodes, weights, (n_t, n_phi), cap=cap)


def build_sphere_grid(n_t: int, n_phi: int) -> QuadratureGrid:
    """Product rule over the full sphere; exact for spherical polynomials of
    degree <= min(2 n_t - 1, n_phi - 1)."""
    if n_t < 2 or n_phi < 4:
        raise ValueError("sphere grid needs n_t >= 2 and n_phi >= 4")
    nodes, weights = _polar_product_grid(E3, -1.0, n_t, n_phi)
    return QuadratureGrid(KIND_SPHERE, nodes, weights, (n_t, n_phi))


def build_boundary_grid(cap: SphericalCap, m: int) -> QuadratureGrid:
    """Equispaced rule on the cap boundary; total weight 2 pi sqrt(rho (2-rho))."""
    if m < 8:
        raise ValueError("boundary grid needs m >= 8")
    phis = 2.0 * np.pi * np.arange(m) / m
    pos, tan, nor = boundary_nodes(cap, phis)
    weights = np.full(m, 2.0 * np.pi * cap.boundary_sine / m)
    return QuadratureGrid(
        KIND_BOUNDARY, pos, weights, (m,), cap=cap, phis=phis, tangents=tan, normals=nor
    )


def _on_grid(samples: FieldSamples, grid: QuadratureGrid) -> bool:
    """Whether samples belong to grid: their nodes are the grid's nodes. A
    grid built the same way counts, as its weights and frames follow."""
    return np.array_equal(samples.grid.nodes, grid.nodes)


def boundary_data(grid: QuadratureGrid, data) -> np.ndarray:
    """Values of boundary data at the nodes of a boundary grid.

    data is FieldSamples on that grid (its nodes are the grid's nodes), a
    callable on the stacked nodes, or an array with one value per node. Each
    form must give one finite scalar per node.
    """
    if grid.kind != KIND_BOUNDARY:
        raise ValueError("boundary data needs a boundary grid")
    if isinstance(data, FieldSamples):
        if not _on_grid(data, grid):
            raise ValueError("samples must lie on the collocation grid (cap boundary)")
        data = data.values
    values = np.asarray(data(grid.nodes) if callable(data) else data, dtype=float)
    if values.shape != (len(grid),):
        raise ValueError("boundary data shape does not match the grid")
    if not np.all(np.isfinite(values)):
        raise ValueError("boundary data must be finite")
    return values


def _zero_integral(
    grid: QuadratureGrid, values: np.ndarray, tol: float, what: str
) -> float:
    """Integral of samples that must vanish, to tol max(1, sup |v|): relative
    to the data's size, so rescaled valid data stays valid."""
    total = float(np.sum(grid.weights * values))
    if abs(total) > tol * max(1.0, np.abs(values).max(initial=0.0)):
        raise ValueError(f"{what} {total:.3e}")
    return total


def _neumann_total(grid: QuadratureGrid, values: np.ndarray) -> float:
    """Boundary integral of Neumann data; solvability requires it to vanish."""
    message = "Neumann data violates solvability: integral"
    return _zero_integral(grid, values, 1e-8, message)


def sample(grid: QuadratureGrid, fn) -> FieldSamples:
    """Evaluate a vectorized node function into (non-tangential) FieldSamples."""
    return FieldSamples(grid, np.asarray(fn(grid.nodes), dtype=float))


def integrate(grid: QuadratureGrid, samples: FieldSamples):
    """Weighted sum over the grid in fixed index order (pairwise reduction)."""
    if not _on_grid(samples, grid):
        raise ValueError("samples do not belong to this grid")
    v = samples.values
    if v.ndim == 1:
        return float(np.sum(grid.weights * v))
    return np.sum(grid.weights[:, None] * v, axis=0)


def mean_value(samples: FieldSamples) -> float:
    """Quadrature mean of scalar samples over their grid."""
    total = float(np.sum(samples.grid.weights))
    return integrate(samples.grid, samples) / total
