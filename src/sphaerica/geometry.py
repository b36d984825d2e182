"""Geometric primitives on the unit sphere.

Points are plain numpy unit vectors of shape (3,) (or stacked (N, 3) arrays).
This module supplies spherical caps, the deterministic rotation that carries
the north pole onto a cap center, the circles of a cap in that frame,
stereographic projection, parameterized frames of cap boundaries, and the
Kelvin-type reflection of an interior point across a cap boundary. A cap
builds its frame once, on first use, and every chart, area grid, boundary
grid and node lookup of that cap reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

E3 = np.array([0.0, 0.0, 1.0])

_ANTIPODE_TOL = 1e-14


class AntipodeError(ValueError):
    """Evaluation at (numerically) the antipode of the projection pole."""


def unit_vector(v) -> np.ndarray:
    """Normalize a 3-vector (or (N, 3) stack) onto the unit sphere.

    Idempotent at machine precision: inputs already within 1e-12 of unit
    length pass through bit-identically, so repeated construction of the
    same geometry stays reproducible.
    """
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    if not np.all(np.isfinite(n)) or np.any(n == 0.0):
        raise ValueError("cannot normalize zero or non-finite vector")
    return v / np.where(np.abs(n - 1.0) <= 1e-12, 1.0, n)


def on_points(xi, evaluate):
    """evaluate(pts) on stacked points pts (N, 3).

    A single point (3,) is evaluated as a stack of one, and its result is
    returned as a float (scalar results) or one row (vector results). Points
    of any other shape, or not finite, raise ValueError. A float array is
    passed on as itself, not a copy (harmonics' ring path keys on it).
    """
    xi = np.asarray(xi, dtype=float)
    if xi.ndim not in (1, 2) or xi.shape[-1] != 3:
        raise ValueError(f"points must have shape (3,) or (N, 3), not {xi.shape}")
    if not np.all(np.isfinite(xi)):
        raise ValueError("points must be finite")
    if xi.ndim != 1:
        return evaluate(xi)
    out = evaluate(xi[None, :])[0]
    return float(out) if np.ndim(out) == 0 else out


def _stacked_product(rows: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """rows @ b for stacked rows (P, k), into out when given. BLAS multiplies
    a single row, or a single column b (k, 1), by gemv, which rounds
    differently from a gemm, so either is multiplied as two and the first
    kept."""
    if rows.shape[0] == 1:
        product = _stacked_product(np.concatenate([rows, rows]), b)[:1]
    elif b.ndim == 2 and b.shape[1] == 1:
        product = np.matmul(rows, np.concatenate([b, b], axis=1))[:, :1]
    else:
        return np.matmul(rows, b, out=out)
    if out is None:
        return product
    out[...] = product
    return out


def lonlat_vector(lon_deg: float, lat_deg: float) -> np.ndarray:
    """Unit vector from geographic longitude and latitude in degrees."""
    lon = np.radians(lon_deg)
    lat = np.radians(lat_deg)
    return np.array(
        [np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)]
    )


@dataclass(frozen=True)
class SphericalCap:
    """Open cap {xi : 1 - xi . center < radius} with radius in (0, 2).

    The radius is measured in the t = xi . center coordinate, so radius 1 is a
    hemisphere and radius -> 2 exhausts the sphere.
    """

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", unit_vector(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not 0.0 < self.radius < 2.0:
            raise ValueError(f"cap radius must lie in (0, 2), got {self.radius}")
        self.center.setflags(write=False)

    def contains(self, xi, margin: float = 0.0):
        """Strict membership 1 - xi . center < radius - margin. A single
        point is decided as a stack of one, so as it is inside a stack."""
        xi = np.asarray(xi, dtype=float)
        t = _stacked_product(np.atleast_2d(xi), self.center)
        inside = 1.0 - t < self.radius - margin
        return inside if xi.ndim > 1 else inside[0]

    @cached_property
    def frame(self) -> np.ndarray:
        """rotation_to_pole(center), built on first use and read-only."""
        return rotation_to_pole(self.center)

    @property
    def boundary_sine(self) -> float:
        """Euclidean radius of the boundary circle, sqrt(rho (2 - rho)).

        The line element of the boundary parameterization is this constant:
        d sigma = boundary_sine * d phi.
        """
        return float(np.sqrt(self.radius * (2.0 - self.radius)))

    @cached_property
    def complement(self) -> "SphericalCap":
        """The complementary cap, center -zeta and radius 2 - rho, built once.
        Its frame equals frame @ diag(1, -1, -1) (rotation_to_pole), but is
        its own rotation_to_pole, whose zero entries can carry the other sign."""
        return SphericalCap(-self.center, 2.0 - self.radius)


def cap_metrics(cap: SphericalCap) -> tuple[float, float]:
    """(area, circumference) of a cap: (2 pi rho, 2 pi sqrt(rho (2 - rho)))."""
    return 2.0 * np.pi * cap.radius, 2.0 * np.pi * cap.boundary_sine


def rotation_to_pole(zeta) -> np.ndarray:
    """Rotation matrix t with t @ E3 = zeta, deterministic in zeta.

    The first column is normalize(E3 x zeta) x zeta, which fixes the
    in-plane orientation reproducibly; the construction stays numerically
    orthonormal arbitrarily close to the poles, and snaps to the identity
    (north) or the rotation by pi about the x axis (south) only when the cross
    product is too short to normalize. It satisfies rotation_to_pole(-zeta)
    = rotation_to_pole(zeta) @ diag(1, -1, -1), so charts of antipodal caps
    stay mirror-aligned. The matrix is read-only and built once per centre:
    the last few are kept, keyed by the bits of the normalized zeta.
    """
    return _rotation_of(unit_vector(zeta).tobytes())


@lru_cache(maxsize=32)
def _rotation_of(bits: bytes) -> np.ndarray:
    """rotation_to_pole of the unit vector with these float64 bits."""
    zeta = np.frombuffer(bits)
    cross = np.cross(E3, zeta)
    if np.linalg.norm(cross) < 1e-12:
        frame = np.eye(3) if zeta[2] > 0.0 else np.diag([1.0, -1.0, -1.0])
    else:
        v = unit_vector(cross)
        frame = np.column_stack([np.cross(v, zeta), v, zeta])
    frame.setflags(write=False)
    return frame


def _chart_products(frame: np.ndarray, zeta: np.ndarray, xi):
    """(chart, xi @ chart, 1 + xi . zeta) of the chart of the unit vector
    zeta, chart the columns (a1, a2) of its frame rotation_to_pole(zeta) with
    zeta itself: one (P, 3) @ (3, 3) product, which rounds each row as a
    single point does."""
    chart = np.column_stack([frame[:, :2], zeta])
    proj = np.asarray(xi, dtype=float) @ chart
    denom = 1.0 + proj[..., 2]
    if np.any(denom < _ANTIPODE_TOL):
        raise AntipodeError("stereographic projection evaluated at the antipode")
    return chart, proj, denom


def stereographic_project(zeta, xi) -> np.ndarray:
    """Project xi from the antipode of zeta onto the tangent-plane chart.

    Returns (2 xi . a1, 2 xi . a2) / (1 + xi . zeta) where (a1, a2) are the
    first two columns of rotation_to_pole(zeta). Shape (2,) for a single
    point, (N, 2) for stacked input.
    """
    zeta = unit_vector(zeta)
    _, proj, denom = _chart_products(rotation_to_pole(zeta), zeta, xi)
    return np.stack([2.0 * proj[..., j] / denom for j in (0, 1)], axis=-1)


def stereographic_inverse(zeta, p) -> np.ndarray:
    """Inverse of stereographic_project; p is a planar point (2,) or (N, 2)."""
    zeta = unit_vector(zeta)
    t = rotation_to_pole(zeta)
    p = np.asarray(p, dtype=float)
    r2 = np.sum(p * p, axis=-1)
    c = (4.0 - r2) / (4.0 + r2)
    scale = 4.0 / (4.0 + r2)
    planar = p[..., 0, None] * t[:, 0] + p[..., 1, None] * t[:, 1]
    return c[..., None] * zeta + scale[..., None] * planar


@dataclass(frozen=True)
class BoundaryPoint:
    """A point of a cap boundary with its oriented tangent-normal frame.

    tangent is the positively oriented unit tangent (cap interior on the
    left), normal is the outward unit normal (tangent to the sphere, pointing
    away from the cap center), phi the curve parameter in [0, 2 pi).
    """

    position: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray
    phi: float


def circle_points(frame: np.ndarray, t, sin_t, phis) -> np.ndarray:
    """Points t zeta + sin_t (cos phi a1 + sin phi a2), for (a1, a2, zeta)
    the columns of frame and t, sin_t, phis broadcast together (a last axis
    of 3 is added). Every circle of a cap (area rings, boundary nodes, MFS
    sources, vortex centres) is built here in the cap's frame.
    """
    t, sin_t, phis = (np.asarray(a, dtype=float)[..., None] for a in (t, sin_t, phis))
    a1, a2, zeta = frame.T
    return t * zeta + sin_t * (np.cos(phis) * a1 + np.sin(phis) * a2)


def boundary_nodes(
    cap: SphericalCap, phis: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized boundary frames: (positions, tangents, normals), each (m, 3).

    eta(phi) = (1 - rho) zeta + s (cos phi a1 + sin phi a2) with
    s = sqrt(rho (2 - rho)); nu = ((1 - rho) eta - zeta) / s; tau = eta x nu,
    in the area grids' frame (a1, a2, zeta) = cap.frame.
    """
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    rho = cap.radius
    s = cap.boundary_sine
    frame = cap.frame
    pos = circle_points(frame, 1.0 - rho, s, phis)
    nor = ((1.0 - rho) * pos - frame[:, 2]) / s
    tan = np.cross(pos, nor)
    return pos, tan, nor


def boundary_frame(cap: SphericalCap, phi: float) -> BoundaryPoint:
    """Boundary frame at curve parameter phi (line element: boundary_sine dphi)."""
    pos, tan, nor = boundary_nodes(cap, np.array([float(phi)]))
    return BoundaryPoint(pos[0], tan[0], nor[0], float(phi) % (2.0 * np.pi))


@dataclass(frozen=True)
class Reflection:
    """Image point and scale of the cap reflection.

    The pair satisfies 1 - xi . eta = scale * (1 - point . eta) for every eta
    on the cap boundary, with point outside the closed cap whenever xi is
    inside.
    """

    point: np.ndarray
    scale: float


def _reflect_many(cap: SphericalCap, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reflection points and scales for stacked xi (N, 3) inside the cap."""
    if not np.all(cap.contains(xi)):
        raise ValueError("the cap reflection requires points inside the cap")
    rho = cap.radius
    s2 = rho * (2.0 - rho)
    t = _stacked_product(xi, cap.center)
    scale = (1.0 + 2.0 * t * (rho - 1.0) + (rho - 1.0) ** 2) / s2
    # stable coefficient of zeta, equal to (scale - 1)/(scale (rho - 1)) but
    # finite at rho = 1
    c2 = 2.0 * (rho - 1.0 + t) / (scale * s2)
    point = xi / scale[:, None] - c2[:, None] * cap.center
    return point, scale


def reflect(cap: SphericalCap, xi) -> Reflection:
    """Reflect an interior point xi across the boundary of the cap."""
    point, scale = _reflect_many(cap, np.asarray(xi, dtype=float)[None, :])
    return Reflection(point[0], float(scale[0]))
