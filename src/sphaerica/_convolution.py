"""The one quadrature sum behind every kernel integral of the package.

apply_kernel sums a kernel against sampled values with the weights of a
quadrature grid: area convolutions on cap and sphere grids, and boundary
integrals (layer potentials, the cap solvers' representation integrals and
the boundary terms of the cap split) on boundary grids. The backend follows
from the grid and the targets:

- targets that are grid nodes (bitwise equal to grid.nodes[idx], the rule
  of QuadratureGrid.node_indices) use ring-FFT summation. Area grids are
  products of Gauss rings and a uniform longitude rule about one axis, and
  every kernel convolved here is invariant under rotation about that axis,
  so between two rings the kernel matrix is circulant in longitude. Each
  ring that holds a target needs its first node's kernel row (two for
  vector samples) against all N nodes and rFFT products over the source
  rings: O(n_t N) kernel evaluations plus O(n_t^2 n_phi log n_phi) FFT work
  instead of O(P N) kernel pairs. Given the kernel's integral, they also
  subtract the singular part against the sample at the target.
- any other targets, and every target of a boundary grid, use the dense
  path: (P, N) kernel blocks, chunked so each temporary holds at most
  _CHUNK_DOUBLES values. A kernel block takes several elementwise passes
  (a gradient block: 1 - xi . eta, then the rows divided by it, per log
  term; a scalar block: the kernel values), and the rows are then weighted
  in place and summed. The chunk is sized for the cache, 2 MiB: a block
  that stays in a core's L2 between passes is not streamed from memory on
  each one. On a 2-core Xeon with 2 MiB of L2 per core, decompose_cap_at
  at 250 off-grid probes of a 96x192 grid took 0.29 s with 64 MB chunks and
  0.15 s with 2 MiB; chunks of a few rows pay Python overhead per chunk.
"""

from __future__ import annotations

import numpy as np

from .kernels import kernel_grad_dot
from .quadrature import FieldSamples

_CHUNK_DOUBLES = 262_144


def _chunks(n_points: int, n_nodes: int):
    # no chunk of one row out of several: BLAS multiplies a single row by
    # gemv, whose rounding differs from the gemm of a taller block, so the
    # sums would depend on where the chunk boundaries fall
    step = max(2, _CHUNK_DOUBLES // max(n_nodes, 1))
    bounds = list(range(0, n_points, step)) + [n_points]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return zip(bounds[:-1], bounds[1:])


def apply_kernel(kernel, samples, points: np.ndarray, integral=None) -> np.ndarray:
    """sum_j w_j A(xi_i, eta_j) over the sample grid, for stacked points xi.

    samples is FieldSamples (DensitySamples is a subclass).
    Scalar samples h: kernel(xi, eta) returns kernel values K (P, N) and
    A = K h, or, at node targets when integral (the exact integral of
    K(xi, .) over the grid's domain) is given, A = K (h - h(xi)) and
    integral h(xi) is added to the sum. Vector samples f: kernel(xi, eta,
    field) returns the rows (D_eta K) . field (P, N) for a tangential D_eta
    and A = (D_eta K) . f. The kernel must be invariant under rotations
    about the grid's ring axis (polar_frame[:, 2]), and must return a new
    array: the dense path weights the rows in place.
    """
    idx = samples.grid.node_indices(points)
    if idx is None:
        return _dense(kernel, samples, points)
    return _ring(kernel, samples, idx, integral)


def grad_convolution(samples, spec, points: np.ndarray, curl: bool) -> np.ndarray:
    """-sum_j w_j (D_eta K(xi_i, eta_j)) . f_j for the KernelSpec K; with curl,
    D = eta x grad, summed as the gradient against f x eta (same product)."""
    if curl:
        grid = samples.grid
        samples = FieldSamples(grid, np.cross(samples.values, grid.nodes))
    kernel = lambda x, eta, f: kernel_grad_dot(spec, x, eta, f)
    return -apply_kernel(kernel, samples, points)


def _dense(kernel, samples, points):
    grid = samples.grid
    h = samples.values
    w = grid.weights
    out = np.empty(points.shape[0])
    for i0, i1 in _chunks(points.shape[0], len(grid)):
        pts = points[i0:i1]
        rows = kernel(pts, grid.nodes, h) if h.ndim == 2 else kernel(pts, grid.nodes)
        # weighted in place, in the order (w K) h of the scalar sum
        rows *= w
        if h.ndim == 1:
            rows *= h
        out[i0:i1] = np.sum(rows, axis=1)
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


def _ring(kernel, samples, idx, integral):
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
        if integral is not None:
            # scalar samples: every node of a ring shares the weighted row
            # sum of the ring's first node
            row_sums = rows @ grid.weights
            out[sel] -= samples.values[idx[sel]] * row_sums[slot[sel] - r0]
    if integral:
        out += integral * samples.values[idx]
    return out
