"""The one quadrature sum behind every kernel integral of the package.

apply_kernel sums a kernel against sampled values with the weights of a
quadrature grid: area convolutions on cap and sphere grids, and boundary
integrals (layer potentials, the cap solvers' representation integrals and
the boundary terms of the cap split) on boundary grids. The backend follows
from the grid and the targets:

- targets that are grid nodes (bitwise equal to grid.nodes[idx]) use
  ring-FFT summation. Area grids are products of Gauss rings and a uniform
  longitude rule about one axis, and every kernel convolved here is
  invariant under rotation about that axis, so between two rings the kernel
  matrix is circulant in longitude. Each ring that holds a target needs its
  first node's kernel row (two for vector samples) against all N nodes and
  rFFT products over the source rings: O(n_t N) kernel evaluations plus
  O(n_t^2 n_phi log n_phi) FFT work instead of O(P N) kernel pairs.
- any other targets, and every target of a boundary grid, use the dense
  path: (P, N) kernel blocks, chunked so each temporary holds at most
  _CHUNK_DOUBLES values.
"""

from __future__ import annotations

import numpy as np

from .kernels import kernel_grad_dot
from .quadrature import KIND_BOUNDARY, FieldSamples

_CHUNK_DOUBLES = 8_000_000


def _chunks(n_points: int, n_nodes: int):
    # no chunk of one row out of several: BLAS multiplies a single row by
    # gemv, whose rounding differs from the gemm of a taller block, so the
    # sums would depend on where the chunk boundaries fall
    step = max(2, _CHUNK_DOUBLES // max(n_nodes, 1))
    bounds = list(range(0, n_points, step)) + [n_points]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return zip(bounds[:-1], bounds[1:])


def apply_kernel(kernel, samples, points: np.ndarray, centers=None) -> np.ndarray:
    """sum_j w_j A(xi_i, eta_j) over the sample grid, for stacked points xi.

    samples is FieldSamples (DensitySamples is a subclass).
    Scalar samples h: kernel(xi, eta) returns kernel values K (P, N) and
    A = K h, or A = K (h - centers_i) when centers are given (singular
    subtraction against the integrand at the evaluation points). Vector
    samples f: kernel(xi, eta, field) returns the rows (D_eta K) . field
    (P, N) for a tangential D_eta and A = (D_eta K) . f. The kernel must be
    invariant under rotations about the grid's ring axis (polar_frame[:, 2]).
    """
    idx = _node_indices(samples.grid, points)
    if idx is None:
        return _dense(kernel, samples, points, centers)
    return _ring(kernel, samples, idx, centers)


def _node_indices(grid, points):
    """Grid indices of the points if every one is bitwise a node, else None."""
    if len(points) and grid.kind != KIND_BOUNDARY:
        idx = grid.node_lookup(points)
        if np.array_equal(grid.nodes[idx], points):
            return idx
    return None


def grad_convolution(samples, spec, points: np.ndarray, curl: bool) -> np.ndarray:
    """-sum_j w_j (D_eta K(xi_i, eta_j)) . f_j for the KernelSpec K; with curl,
    D = eta x grad, summed as the gradient against f x eta (same product)."""
    if curl:
        grid = samples.grid
        samples = FieldSamples(grid, np.cross(samples.values, grid.nodes))
    kernel = lambda x, eta, f: kernel_grad_dot(spec, x, eta, f)
    return -apply_kernel(kernel, samples, points)


def _dense(kernel, samples, points, centers):
    grid = samples.grid
    h = samples.values
    w = grid.weights
    out = np.empty(points.shape[0])
    for i0, i1 in _chunks(points.shape[0], len(grid)):
        if h.ndim == 2:
            rows = kernel(points[i0:i1], grid.nodes, h)
            out[i0:i1] = np.sum(w[None, :] * rows, axis=1)
            continue
        k = kernel(points[i0:i1], grid.nodes)
        if centers is None:
            out[i0:i1] = np.sum(w[None, :] * k * h[None, :], axis=1)
        else:
            out[i0:i1] = np.sum(
                w[None, :] * k * (h[None, :] - centers[i0:i1, None]), axis=1
            )
    return out


def _ring_fields(grid, h):
    """Fields to evaluate the kernel against, and the weighted coefficient
    of each: a vector field splits onto the local (e_t, e_phi) frame, which
    rotates with the nodes about the ring axis. Vector kernels are tangential
    gradients, so the radial component would only add zero rows."""
    w = grid.weights
    if h.ndim == 1:
        return [(None, w * h)]
    nodes = grid.nodes
    e_phi = np.cross(grid.polar_frame[:, 2], nodes)
    e_phi /= np.linalg.norm(e_phi, axis=1, keepdims=True)
    e_t = np.cross(e_phi, nodes)
    return [(e, w * np.sum(h * e, axis=1)) for e in (e_t, e_phi)]


def _ring(kernel, samples, idx, centers):
    grid = samples.grid
    n_t, n_phi = grid.shape
    fields = [
        (e, np.fft.rfft(c.reshape(n_t, n_phi), axis=1))
        for e, c in _ring_fields(grid, samples.values)
    ]
    ring, lon = np.divmod(idx, n_phi)
    rings, slot = np.unique(ring, return_inverse=True)
    out = np.empty(idx.shape[0])
    for r0, r1 in _chunks(rings.shape[0], len(grid)):
        firsts = grid.nodes[rings[r0:r1] * n_phi]
        acc = 0.0
        for e, spectrum in fields:
            rows = kernel(firsts, grid.nodes) if e is None else kernel(firsts, grid.nodes, e)
            # correlation in longitude: conj(rfft(kernel row)) * rfft(values),
            # summed over the source rings
            row_spectra = np.fft.rfft(rows.reshape(r1 - r0, n_t, n_phi), axis=2)
            acc = acc + np.einsum("rkf,kf->rf", row_spectra.conj(), spectrum)
        values = np.fft.irfft(acc, n=n_phi, axis=1)
        sel = (slot >= r0) & (slot < r1)
        out[sel] = values[slot[sel] - r0, lon[sel]]
        if centers is not None:
            # scalar samples: every node of a ring shares the weighted row
            # sum of the ring's first node
            row_sums = rows @ grid.weights
            out[sel] -= centers[sel] * row_sums[slot[sel] - r0]
    return out
