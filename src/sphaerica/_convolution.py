"""The one quadrature sum behind every area integral of the package.

apply_kernel sums a kernel against scalar samples with the weights of a
cap or sphere grid; grad_convolution sums a KernelSpec's gradient against
vector samples. Boundary integrals never come here: the cap solvers and
the layer potentials are rim series (solvers._rim_series). The backend
follows from the targets:

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
- any other targets use the dense path in chunks of at most
  _CHUNK_DOUBLES kernel values. A scalar chunk holds the (P, N) kernel
  values, weighted in place and summed. A gradient sum forms no kernel
  rows: each log term is (x . g_j) Q_ij with Q = 1/(1 - x . eta)
  (kernels.grad_terms, kernels.log_gap), so the sum is x . (Q F) with
  F = w g formed once per call. One chunk-sized Q buffer
  serves every chunk and both log terms, and the Neumann centre column is
  summed once, to a scalar. Each target gets one (N,) @ (N, 3) product: a
  product over the whole chunk would round differently with the chunk's
  height. The chunk is sized for the cache, 2 MiB: a block that stays in a
  core's L2 between passes is not streamed from memory on each one. On a
  2-core Xeon with 2 MiB of L2 per core, decompose_cap_at at 250 off-grid
  probes of a 96x192 grid took 0.29 s with 64 MB chunks and 0.15 s with
  2 MiB, before the gradient sums were contracted; chunks of a few rows pay
  Python overhead per chunk. Reusing one buffer also keeps the gradient
  sums from handing a 2 MiB temporary back to the allocator on every chunk,
  which glibc unmaps and faults in again unless something earlier in the
  process freed a larger block and so raised its mmap threshold.
"""

from __future__ import annotations

import numpy as np

from .kernels import grad_terms, kernel_grad_dot, log_gap, term_points
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
    """sum_j w_j K(xi_i, eta_j) h_j over the sample grid, for stacked points xi.

    samples is scalar FieldSamples h on an area grid, and kernel(xi, eta)
    returns the kernel values K (P, N) as a new array (the dense path
    weights it in place). At node targets, when integral (the exact
    integral of K(xi, .) over the grid's domain) is given, the sum is
    K (h - h(xi)) plus integral h(xi). The kernel must be invariant under
    rotations about the grid's ring axis (polar_frame[:, 2]).
    """
    idx = samples.grid.node_indices(points)
    if idx is None:
        return _dense(kernel, samples, points)
    return _ring(kernel, samples, idx, integral)


def grad_convolution(samples, spec, points: np.ndarray, curl: bool) -> np.ndarray:
    """-sum_j w_j (D_eta K(xi_i, eta_j)) . f_j for the KernelSpec K; with curl,
    D = eta x grad, summed as the gradient against f x eta (same product)."""
    grid = samples.grid
    if curl:
        samples = FieldSamples(grid, np.cross(samples.values, grid.nodes))
    idx = grid.node_indices(points)
    if idx is None:
        return -_dense_grad(spec, samples, points)
    kernel = lambda x, eta, f: kernel_grad_dot(spec, x, eta, f)
    return -_ring(kernel, samples, idx, None)


def _dense(kernel, samples, points):
    grid = samples.grid
    out = np.empty(points.shape[0])
    for i0, i1 in _chunks(points.shape[0], len(grid)):
        rows = kernel(points[i0:i1], grid.nodes)
        # weighted in place, in the order (w K) h
        rows *= grid.weights
        rows *= samples.values
        out[i0:i1] = np.sum(rows, axis=1)
    return out


def _dense_grad(spec, samples, points):
    """sum_j w_j (D_eta K(xi_i, eta_j)) . f_j, contracted term by term as
    x_i . (Q F) without forming the rows (module docstring)."""
    grid = samples.grid
    nodes, w = grid.nodes, grid.weights
    terms, centre = grad_terms(spec, nodes, samples.values)
    fields = [(reflected, w[:, None] * g, scale) for reflected, g, scale in terms]
    base = 0.0 if centre is None else np.sum(w * centre)
    bounds = list(_chunks(points.shape[0], len(grid)))
    # sized for the tallest chunk: _chunks may merge a one-row tail into it
    buffer = np.empty(max((i1 - i0 for i0, i1 in bounds), default=0) * len(grid))
    out = np.empty(points.shape[0])
    for i0, i1 in bounds:
        q_rows = buffer[: (i1 - i0) * len(grid)].reshape(i1 - i0, len(grid))
        acc = base
        for reflected, f, scale in fields:
            x = term_points(spec, points[i0:i1], reflected)
            q = log_gap(x, nodes, scale, out=q_rows)
            np.divide(1.0, q, out=q)
            qf = np.matmul(q[:, None, :], f)[:, 0, :]
            acc = acc + np.sum(x * qf, axis=1)
        out[i0:i1] = acc
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
            # scalar samples: a ring's nodes share its first node's weighted
            # row sum, summed per row (a gemv would round with the row count)
            rows *= grid.weights
            row_sums = np.sum(rows, axis=1)
            out[sel] -= samples.values[idx[sel]] * row_sums[slot[sel] - r0]
    if integral:
        out += integral * samples.values[idx]
    return out
