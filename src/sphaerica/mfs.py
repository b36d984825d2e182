"""Fundamental-system bases and least-squares collocation fitting.

Harmonic trial functions anchored at source points outside the target
region: shifted log kernels, their boundary-normal derivatives, the
log-kernel difference that is harmonic inside the region, and cap inner
harmonics. Collocation systems are solved by plain interpolation or
Tikhonov-regularized least squares; plain interpolation of near-boundary
sources conditions badly, so the regularized path is the default choice in
the applications.

mfs_fit solves each collocation system on one of two paths, chosen from the
layout alone:

- the ring path, for Tikhonov fits of the log-kernel bases whose K sources
  lie equispaced on a circle concentric with the m equispaced collocation
  nodes (the layout of sources_on_circle and build_boundary_grid), with K
  dividing m. The kernel then depends on the azimuth difference only, so
  FFTs on both sides split A into K blocks of r = m / K rows (the circulant
  MFS of Smyrlis and Karageorghis, J. Sci. Comput. 16, 2001): one kernel
  column and its FFT, O(m) logs and O(m log m) work, without forming the
  collocation matrix.
- the factored path, for every other system: a Householder QR of [A | f]
  and one SVD of its triangle.

Both give the condition number and the Tikhonov filter-factor solution with
the same filter factors and cut-off, described in mfs_fit.

mfs_eval sums a fit on a ring of sources (the layout of sources_on_circle,
decided from the system alone) as one chart series of the cap whose rim
holds the sources: ln(1 - xi . y_k) is a power series in the chart
variable w, so the K coefficients collapse into one FFT and every point
sums its own number of powers, set by its distance from the source circle
(the Fourier form of the charge simulation method on a disc: Katsurada and
Okamoto, J. Fac. Sci. Univ. Tokyo IA 35, 1988). Points that would need more
powers than there are sources take the log columns, each row formed and
summed alone; so do all points of other layouts and of the inner-harmonic
basis, but in chunks of about 2 MiB contracted by one matrix-vector
product each. The whole (P, n) basis block is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._convolution import _chunk_blocks
from .geometry import (
    SphericalCap,
    _stacked_product,
    boundary_nodes,
    circle_points,
    on_points,
    rotation_to_pole,
)
from .harmonics import InnerHarmonicIndex, _rim_series, inner_harmonic_eval
from .kernels import FOUR_PI, _coincident, gap
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

    @cached_property
    def _ring(self) -> SphericalCap | None:
        """The cap on whose rim the sources form a ring (_source_ring), the
        chart of mfs_eval's series; None for other layouts."""
        return _source_ring(self)


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


def _log_part(pts, anchors, mode, nu, out=None, alone=False):
    """Log kernel (or normal derivative) at pts: shape (P,) for one anchor
    point, (P, S) for a stack of S anchors, written into out when given
    (the values run in place). With alone, each point's gaps are formed
    as the point alone: a stack's gap product can round a row by its place
    (kernels.gap)."""
    if alone:
        u = np.empty((len(pts), len(anchors))) if out is None else out
        for i in range(len(pts)):
            gap(pts[i : i + 1], anchors, out=u[i : i + 1])
    else:
        u = gap(pts, anchors, out=out)
    if _coincident(u):
        raise ValueError("basis evaluated at one of its source points")
    if mode == "value":
        np.log(u, out=u)
        u /= FOUR_PI
        return u
    # normal derivative: -(nu . anchor - t (nu . pts = 0)) / (4 pi (1 - t));
    # nu is tangential at pts, so nu . pts vanishes
    return np.divide(-(nu @ np.transpose(anchors)), FOUR_PI * u, out=u)


def _basis_columns(system, pts, mode="value", nu=None) -> np.ndarray:
    """Collocation block: basis values (or normal derivatives) at pts."""
    block = _source_columns(system, pts, mode, nu)
    if not system.include_constant:
        return block
    const = np.full(pts.shape[0], 1.0 / FOUR_PI if mode == "value" else 0.0)
    return np.column_stack([const, block])


def _source_columns(system, pts, mode="value", nu=None, out=None, alone=False) -> np.ndarray:
    """The basis block without the constant column, written into out (a
    C-contiguous buffer) when given; alone as in _log_part."""
    if system.variant == VARIANT_INNER:
        if mode != "value":
            raise NotImplementedError("inner-harmonic collocation is value-only")
        n_cols = system.size - (1 if system.include_constant else 0)
        if out is None:
            out = np.empty((pts.shape[0], n_cols))
        for k in range(n_cols):
            idx = InnerHarmonicIndex(system.cap, (k + 2) // 2, 1 if k % 2 == 0 else 2)
            out[:, k] = inner_harmonic_eval(idx, pts)
        return out
    block = _log_part(pts, system.sources, mode, nu, out=out, alone=alone)
    if system.variant == VARIANT_GK_MOD:
        block -= _log_part(pts, system.regularization_point, mode, nu)[:, None]
    return block


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

    mode "interpolation" solves the square system (as many collocation
    points as basis elements) as A^-1 f and fails loudly on numerically
    singular ones; "tikhonov" minimizes |A a - f|^2 + ridge |a|^2 for the
    m x n collocation matrix A (m nodes, n basis elements) as
    V diag(s / (s^2 + ridge)) U^T f, from the SVD A = U S V^T, zeroing the
    filter factors where sqrt(s^2 + ridge) <= eps (m + n) sqrt(s_0^2 + ridge):
    the cut-off of a rank-revealing solve of the stacked system
    [A; sqrt(ridge) I]. ridge must be finite and non-negative; ridge = 0
    gives the minimum-norm least-squares solution. condition is s_0 / s_-1.

    Tikhonov fits take the ring path when the layout is circulant: the
    variant is gk, or gk-mod with the regularization point on the axis
    zeta = rotation_to_pole(collocation.cap.center)[:, 2]; the K sources lie
    at one height along zeta at azimuths 2 pi j / K in that frame, as
    sources_on_circle builds them; and K divides the m collocation nodes.
    Source points are checked against that lattice, and the regularization
    point against the axis, to 1e-13 (rounding level: the points are not
    rebuilt bit for bit). With r = m / K, source mode q couples only to
    collocation modes q, q + K, ..., q + (r - 1) K, so after FFTs A is K
    blocks of r x 1 (r x 2 for mode 0, which also carries the constant).
    Their norms, and one small SVD, are the singular values of A; the
    coefficients come back by an inverse FFT, and the boundary residual from
    FFT products, without forming A.

    Every other system takes the factored path: a Householder QR of [A | f]
    gives R and Q^T f without forming Q, and the SVD of R gives S, V and
    U^T Q^T f.
    """
    if not (np.isfinite(ridge) and ridge >= 0.0):
        raise ValueError(f"ridge must be finite and non-negative, got {ridge!r}")
    f = boundary_data(collocation, boundary_values)
    n_pts, n_basis = len(collocation), system.size
    if n_pts < n_basis:
        raise ValueError(f"{n_pts} collocation points for {n_basis} basis elements")
    if mode not in ("interpolation", "tikhonov"):
        raise ValueError("mode must be 'interpolation' or 'tikhonov'")
    if mode == "interpolation" and n_pts != n_basis:
        raise ValueError("interpolation needs a square system")
    if mode == "tikhonov" and _is_ring_layout(system, collocation):
        coeffs, residual, sv = _ring_fit(system, collocation, f, ridge)
        return MfsSolution(system, coeffs, mode, residual, _condition(sv))
    a_mat = _basis_columns(system, collocation.nodes)
    r_full = np.linalg.qr(np.column_stack([a_mat, f]), mode="r")
    u_mat, sv, vt_mat = np.linalg.svd(r_full[:n_basis, :n_basis])
    if mode == "interpolation":
        if sv[-1] <= n_basis * np.finfo(float).eps * sv[0]:
            raise np.linalg.LinAlgError(
                "collocation matrix numerically singular; use tikhonov mode"
            )
        filt = 1.0 / sv
    else:
        filt = _filter_factors(sv, ridge, n_pts + n_basis)
    coeffs = vt_mat.T @ (filt * (u_mat.T @ r_full[:n_basis, n_basis]))
    residual = float(np.abs(a_mat @ coeffs - f).max())
    return MfsSolution(system, coeffs, mode, residual, _condition(sv))


def _condition(sv: np.ndarray) -> float:
    return float(sv.max() / sv.min()) if sv.min() > 0.0 else np.inf


def _filter_factors(sv: np.ndarray, ridge: float, n_rows: int) -> np.ndarray:
    """Tikhonov filter factors s / (s^2 + ridge), zero below the cut-off
    sqrt(s^2 + ridge) <= eps n_rows sqrt(s_0^2 + ridge)."""
    damped = sv**2 + ridge
    keep = np.sqrt(damped) > np.finfo(float).eps * n_rows * np.sqrt(damped.max())
    filt = np.zeros_like(sv)
    filt[keep] = sv[keep] / damped[keep]
    return filt


_RING_TOL = 1e-13
_ROUNDOFF = np.finfo(float).eps / 2


def _is_ring_layout(system: FundamentalSystem, collocation: QuadratureGrid) -> bool:
    """Whether the log-kernel sources sit on the circulant lattice of the
    collocation circle, to _RING_TOL (the rule stated in mfs_fit)."""
    sources = system.sources
    n_src = len(sources)
    if system.variant == VARIANT_INNER or not n_src or len(collocation) % n_src:
        return False
    frame = collocation.polar_frame
    if system.variant == VARIANT_GK_MOD:
        off_axis = np.cross(system.regularization_point, frame[:, 2])
        if np.abs(off_axis).max() > _RING_TOL:
            return False
    return _lattice_height(sources, frame) is not None


def _lattice_height(sources: np.ndarray, frame: np.ndarray) -> float | None:
    """The height t_s along zeta = frame[:, 2] at which the K sources lie at
    azimuths 2 pi k / K of the frame (a1, a2, zeta), to _RING_TOL; None if
    they do not."""
    n_src = len(sources)
    height, a1, a2 = sources[0] @ frame[:, [2, 0, 1]]
    lattice = circle_points(
        frame, height, np.hypot(a1, a2), 2.0 * np.pi * np.arange(n_src) / n_src
    )
    return float(height) if np.abs(sources - lattice).max() <= _RING_TOL else None


def _source_ring(system: FundamentalSystem) -> SphericalCap | None:
    """The cap (zeta, 1 - t_s) whose rim holds the log-kernel sources on
    its lattice (_lattice_height in the cap's frame), or None. zeta is -x
    for a gk-mod regularization point x that the sources ring, else the
    unit normal of the source polygon, sum_k y_k x y_{k+1}."""
    sources = system.sources
    if system.variant == VARIANT_INNER or not len(sources):
        return None

    def axes():
        if system.variant == VARIANT_GK_MOD:
            yield -np.asarray(system.regularization_point, dtype=float)
        yield np.sum(np.cross(sources, np.roll(sources, -1, axis=0)), axis=0)

    for zeta in axes():
        if not (np.all(np.isfinite(zeta)) and np.any(zeta)):
            continue
        height = _lattice_height(sources, rotation_to_pole(zeta))
        if height is not None and abs(height) < 1.0:
            return SphericalCap(zeta, 1.0 - height)
    return None


def _ring_fit(system, collocation, f, ridge):
    """Tikhonov fit on a ring layout: (coefficients, residual, singular
    values). Unitary DFTs of the m nodes and the K sources turn A into the
    blocks b_q[l] = kernel_hat[q + l K] / sqrt(r) of the kernel column."""
    n_src = len(system.sources)
    n_pts = len(collocation)
    ratio = n_pts // n_src
    nodes = collocation.nodes
    column = _log_part(nodes, system.sources[0], "value", None)
    if system.variant == VARIANT_GK_MOD:
        column -= _log_part(nodes, system.regularization_point, "value", None)
    kernel_hat = np.fft.fft(column)
    # row l, column q: collocation mode q + l K
    blocks = kernel_hat.reshape(ratio, n_src) / np.sqrt(ratio)
    data = np.fft.fft(f).reshape(ratio, n_src) / np.sqrt(n_pts)
    block0 = blocks[:, :1]
    if system.include_constant:
        # the constant column 1 / 4 pi is sqrt(m) / 4 pi times collocation mode 0
        const = np.zeros((ratio, 1))
        const[0, 0] = np.sqrt(n_pts) / FOUR_PI
        block0 = np.hstack([const, block0])
    u0, sv0, vt0 = np.linalg.svd(block0, full_matrices=False)
    norms = np.linalg.norm(blocks[:, 1:], axis=0)
    sv = np.concatenate([sv0, norms])
    filt = _filter_factors(sv, ridge, n_pts + system.size)
    # block 0's coefficients: the constant's (if any), then source mode 0's
    lead = vt0.conj().T @ (filt[: len(sv0)] * (u0.conj().T @ data[:, 0]))
    # b_q^H f_q / s_q is u_q^H f_q for the unit vector u_q = b_q / s_q
    proj = np.sum(blocks[:, 1:].conj() * data[:, 1:], axis=0)
    scale = np.divide(filt[len(sv0) :], norms, out=np.zeros_like(norms), where=norms > 0)
    spectrum = np.concatenate([lead[-1:], scale * proj])
    weights = np.sqrt(n_src) * np.fft.ifft(spectrum).real
    fitted = np.fft.ifft(kernel_hat * np.tile(np.fft.fft(weights), ratio)).real
    if system.include_constant:
        fitted += lead[0].real / FOUR_PI
        weights = np.concatenate([[lead[0].real], weights])
    return weights, float(np.abs(fitted - f).max()), sv


def mfs_eval(solution: MfsSolution, xi) -> float | np.ndarray:
    """Evaluate the fitted combination at xi (away from the source points).

    On a ring of K sources (_source_ring, decided from the system alone)
    the fit is one chart series of the cap (zeta, 1 - t_s) whose rim holds
    them, w = (s/s_s) e^{i phi}, s = tan(theta/2): inside the source
    circle ln(1 - xi . y_k) = ln((1 + t)(1 - t_s)/2) - 2 Re sum_{m>=1}
    w^m e^{-i m phi_k}/m, so with a^ the FFT of the source coefficients
    and A = sum_k a_k the value is Re sum_m c_m w^m (harmonics._rim_series),
    c_0 = (a_0 + A ln((1 - t_s)/2))/4 pi and c_m = -2 a^_{m mod K}/(4 pi m),
    plus A ln(1 + t)/4 pi for gk and A (ln(1 + t) - ln(1 - xi . x))/4 pi
    for gk-mod unless x = -zeta, where the two cancel. A point at
    r = s/s_s < 1 sums its own n powers, the least n with r^n <= u (1 - r),
    u the unit roundoff, so the tail is below u r/(n + 1) times
    2 max|a^|/4 pi, the scale of the terms themselves. Points with n > K,
    where K log columns cost less, or r >= 1 take the log columns, each
    row's gaps formed and summed as the point alone: a point gets the same
    bits alone as in a stack. At the CLI's 2048 interior probes of the
    rho = 0.9 cap, sources 0.005 outside it, n <= 199: none falls back
    from M = 200 to 800.

    Other layouts and the inner-harmonic basis form the source columns in
    chunks of targets (_convolution._chunk_blocks), each written into one
    reused buffer of at most about 2 MiB and contracted by one
    matrix-vector product, and add the constant term to the result. At
    M = 800 on the CLI's probes the whole block and its 1 - xi . eta
    temporary would hold 26.2 MB; vortex_mfs there, its fit included,
    peaks 1.45 MB above entry on its first call with the series and
    2.92 MB with the chunked log columns (tracemalloc).
    """
    return on_points(xi, lambda pts: _evaluate(solution, pts))


def _evaluate(solution, pts):
    ring = solution.system._ring
    if ring is None:
        return _log_sums(solution, pts)
    system = solution.system
    first = 1 if system.include_constant else 0
    a = solution.coefficients[first:]
    t, powers = _series_powers(ring, pts)
    out = np.empty(pts.shape[0])
    series = np.flatnonzero(powers <= len(a))
    if series.size:
        terms = powers[series].astype(int) + 1
        m = np.arange(1, int(powers[series].max()) + 1)
        c = np.empty(len(m) + 1, complex)
        c[0] = a.sum() * np.log(0.5 * ring.radius) / FOUR_PI  # 1 - t_s = rho_s
        if first:
            c[0] += solution.coefficients[0] / FOUR_PI
        c[1:] = np.fft.fft(a)[m % len(a)] * (-2.0 / FOUR_PI) / m
        values = _rim_series(ring, c, pts[series], terms=terms).real
        regular = _regular_part(system, ring, pts[series], t[series])
        if regular is not None:
            values += a.sum() * regular
        out[series] = values
    rest = np.flatnonzero(powers > len(a))
    if rest.size:
        out[rest] = _log_sums(solution, pts[rest], alone=True)
    return out


def _series_powers(ring, pts):
    """(t, n): each point's height t = xi . zeta and its power count n, the
    least n with r^n <= u (1 - r) for r = s/s_s, u the unit roundoff, from
    r^2 = (1 - t)(1 + t_s)/((1 + t)(1 - t_s)); inf unless r < 1."""
    t = _stacked_product(pts, ring.center)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt((1.0 - t) / (1.0 + t) * ((2.0 - ring.radius) / ring.radius))
        n = np.ceil(np.log(_ROUNDOFF * (1.0 - r)) / np.log(r))
    return t, np.where(r < 1.0, n, np.inf)


def _regular_part(system, ring, pts, t):
    """The per-point column that the series leaves out, per unit of A:
    ln(1 + t)/4 pi less the gk-mod regularization column, or None where
    the two cancel (x = -zeta)."""
    if system.variant == VARIANT_GK:
        return np.log(1.0 + t) / FOUR_PI
    point = np.asarray(system.regularization_point, dtype=float)
    if np.all(ring.center == -point):
        return None
    return np.log(1.0 + t) / FOUR_PI - _log_part(pts, point, "value", None)


def _log_sums(solution, pts, alone=False):
    """The log columns contracted with the coefficients in chunks of
    targets: one matrix-vector product per chunk, or with alone each row
    formed (_log_part) and summed as the point alone."""
    system = solution.system
    coefficients = solution.coefficients
    out = np.empty(pts.shape[0])
    first = 1 if system.include_constant else 0
    layout = (1, (system.size - first,), float)
    for i0, i1, [block] in _chunk_blocks(pts.shape[0], layout):
        columns = _source_columns(system, pts[i0:i1], out=block[0], alone=alone)
        if alone:
            columns *= coefficients[first:]
            np.sum(columns, axis=1, out=out[i0:i1])
        else:
            np.matmul(columns, coefficients[first:], out=out[i0:i1])
    if first:
        out += coefficients[0] / FOUR_PI
    return out
