"""The one quadrature sum behind every area integral of the package.

apply_kernel sums a kernel against scalar samples with the weights of a
cap or sphere grid; grad_convolution sums a KernelSpec's gradient against
vector samples, and grad_convolutions several such sums at once, sharing
their kernel blocks off the nodes (the two halves of a cap split).
Boundary integrals never come here: the cap solvers and the layer
potentials are rim series (solvers._rim_series), and the global operators
on sphere grids are spherical-harmonic transforms (harmonics.sh_analyze).
The backend follows from the targets:

- targets that are grid nodes (bitwise equal to grid.nodes[idx], the rule
  of QuadratureGrid.node_indices) use ring-FFT summation. Area grids are
  products of Gauss rings and a uniform longitude rule about one axis, and
  every kernel convolved here is invariant under rotation about that axis,
  so between two rings the kernel matrix is circulant in longitude. Each
  ring that holds a target needs its first node's kernel row against all
  N nodes and rFFT products over the source rings: O(n_t N) kernel
  evaluations plus O(n_t^2 n_phi log n_phi) FFT work instead of O(P N)
  kernel pairs. Given the kernel's integral (d_inv_convolve), they also
  subtract the singular part against the sample at the target. Vector
  samples split onto the ring frame (e_t, e_phi), and the kernel gives one
  row block per frame field; the two blocks share each log term's gap
  (kernels.kernel_grad_rows). A chunk of rings is sized for everything it
  holds at once: its row blocks, a vector kernel's two work blocks and the
  row spectra.
- any other targets use the dense path in chunks of at most
  _CHUNK_DOUBLES kernel values. A scalar chunk holds the (P, N) kernel
  values, written, weighted in place and summed. A gradient sum forms no
  kernel rows: each log term is (x . g_j) Q_ij with Q = 1/(1 - x . eta)
  (kernels.grad_terms, kernels.log_gap), so the sum is x . (Q F) with
  F = w g formed once per call. One chunk-sized Q buffer
  serves every chunk and every log term, and the Neumann centre column is
  summed once, to a scalar. Sums whose log terms have the same points and
  scale (the Neumann F2 and the Dirichlet F3 of the cap split) share each
  Q block, one product per sum. Each target gets one (N,) @ (N, 3) product: a
  product over the whole chunk would round differently with the chunk's
  height. The chunk is sized for the cache, 2 MiB: a block that stays in a
  core's L2 between passes is not streamed from memory on each one. On a
  2-core Xeon with 2 MiB of L2 per core, decompose_cap_at at 250 off-grid
  probes of a 96x192 grid took 0.29 s with 64 MB chunks and 0.15 s with
  2 MiB, before the gradient sums were contracted; chunks of a few rows pay
  Python overhead per chunk.

Every path writes its chunks into one set of buffers allocated once per
call (_chunk_blocks), and the kernels write their blocks into them (out=),
so no chunk hands a temporary of its size back to the allocator, which
glibc unmaps and faults in again on the next chunk unless something earlier
in the process freed a larger block and so raised its mmap threshold. A
kernel callable takes out= (scalar kernels) or returns a rows function that
takes out= and work= (vector kernels, kernels.kernel_grad_rows).
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .kernels import grad_terms, kernel_grad_rows, log_gap, term_points
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


def _chunk_blocks(n_points: int, *layout):
    """(i0, i1, views) for each chunk of _chunks, over buffers allocated once.

    layout gives each buffer as (count, row shape, dtype); views holds, per
    buffer, a (count, i1 - i0, *row shape) view whose count blocks are
    C-contiguous. The chunks are sized for every buffer together and the
    buffers for the tallest chunk (_chunks may merge a one-row tail into
    it), so each chunk reuses the memory of the last.
    """
    nbytes = sum(c * math.prod(shape) * np.dtype(t).itemsize for c, shape, t in layout)
    bounds = list(_chunks(n_points, nbytes // 8))
    tallest = max((i1 - i0 for i0, i1 in bounds), default=0)
    buffers = [np.empty((c, tallest, *shape), t) for c, shape, t in layout]
    for i0, i1 in bounds:
        yield i0, i1, [buffer[:, : i1 - i0] for buffer in buffers]


def apply_kernel(kernel, samples, points: np.ndarray) -> np.ndarray:
    """sum_j w_j K(xi_i, eta_j) h_j over the sample grid, for stacked points xi.

    samples is scalar FieldSamples h on an area grid, and kernel(xi, eta,
    out=) writes the kernel values K (P, N) into the buffer out and returns
    them (both paths work on them in place). The kernel must be invariant
    under rotations about the grid's ring axis (polar_frame[:, 2]).
    """
    idx = samples.grid.node_indices(points)
    if idx is None:
        return _dense(kernel, samples, points)
    return _ring(kernel, samples, idx, None)


def grad_convolution(samples, spec, points: np.ndarray, curl: bool) -> np.ndarray:
    """-sum_j w_j (D_eta K(xi_i, eta_j)) . f_j for the KernelSpec K; with curl,
    D = eta x grad, summed as the gradient against f x eta (same product)."""
    return grad_convolutions(samples, [(spec, curl)], points)[0]


def grad_convolutions(samples, sums, points: np.ndarray) -> list:
    """grad_convolution for each (spec, curl) of sums, at the same points.

    Off the nodes, log terms with the same points and scale share one Q
    block; on the ring path each sum runs on its own. The specs of one call
    share their cap and scale.
    """
    grid = samples.grid
    values = [
        np.cross(samples.values, grid.nodes) if curl else samples.values
        for _, curl in sums
    ]
    idx = grid.node_indices(points)
    if idx is None:
        fields = [(spec, f) for (spec, _), f in zip(sums, values)]
        return [-s for s in _dense_grads(fields, grid, points)]
    return [
        -_ring(partial(kernel_grad_rows, spec), FieldSamples(grid, f), idx, None)
        for (spec, _), f in zip(sums, values)
    ]


def _dense(kernel, samples, points):
    grid = samples.grid
    out = np.empty(points.shape[0])
    for i0, i1, [block] in _chunk_blocks(points.shape[0], (1, (len(grid),), float)):
        rows = kernel(points[i0:i1], grid.nodes, out=block[0])
        # weighted in place, in the order (w K) h
        rows *= grid.weights
        rows *= samples.values
        np.sum(rows, axis=1, out=out[i0:i1])
    return out


def _dense_grads(sums, grid, points):
    """sum_j w_j (D_eta K(xi_i, eta_j)) . f_j for each (spec, f) of sums,
    contracted term by term as x_i . (Q F) without forming the rows (module
    docstring). Log terms with the same points and scale share one Q block,
    one product per sum; the specs share their cap and scale."""
    nodes, w = grid.nodes, grid.weights
    terms, bases = {}, []
    for k, (spec, f) in enumerate(sums):
        spec_terms, centre = grad_terms(spec, nodes, f)
        for reflected, g, scale in spec_terms:
            terms.setdefault((reflected, scale), []).append((k, w[:, None] * g))
        bases.append(0.0 if centre is None else np.sum(w * centre))
    spec = sums[0][0]
    out = [np.empty(points.shape[0]) for _ in sums]
    for i0, i1, [block] in _chunk_blocks(points.shape[0], (1, (len(grid),), float)):
        q_rows = block[0]
        acc = list(bases)
        for (reflected, scale), fields in terms.items():
            x = term_points(spec, points[i0:i1], reflected)
            q = log_gap(x, nodes, scale, out=q_rows)
            np.divide(1.0, q, out=q)
            for k, f in fields:
                qf = np.matmul(q[:, None, :], f)[:, 0, :]
                acc[k] = acc[k] + np.sum(x * qf, axis=1)
        for o, a in zip(out, acc):
            o[i0:i1] = a
    return out


def _ring_frame(grid):
    """The local (e_t, e_phi) frame, which rotates with the nodes about the
    ring axis."""
    e_phi = np.cross(grid.polar_frame[:, 2], grid.nodes)
    e_phi /= np.linalg.norm(e_phi, axis=1, keepdims=True)
    return [np.cross(e_phi, grid.nodes), e_phi]


def _ring(kernel, samples, idx, integral):
    """Ring-FFT sums at the node targets idx (module docstring).

    Scalar samples: kernel(x, eta, out=) writes the (P, N) kernel rows into
    out and returns them. Vector samples split onto the ring frame, and
    kernel(eta, frame) returns rows(x, out=, work=), which writes one row
    block per frame field into out using two work blocks
    (kernels.kernel_grad_rows); vector kernels are tangential gradients,
    so the radial component would only add zero rows. At node targets,
    when integral (the exact integral of K(xi, .) over the grid's domain)
    is given, the sum is K (h - h(xi)) plus integral h(xi).
    """
    grid = samples.grid
    n_t, n_phi = grid.shape
    vector = samples.values.ndim == 2
    frame = _ring_frame(grid) if vector else [None]
    # the weighted sample spectrum per frame field, conjugated: the
    # correlation in longitude conj(rfft(row)) * rfft(values) is summed as
    # the conjugate of rfft(row) * conj(rfft(values))
    def spectrum(e):
        c = samples.values if e is None else np.sum(samples.values * e, axis=1)
        return np.fft.rfft((grid.weights * c).reshape(n_t, n_phi), axis=1).conj()

    sample_spectra = [spectrum(e) for e in frame]
    ring, lon = np.divmod(idx, n_phi)
    rings, slot = np.unique(ring, return_inverse=True)
    out = np.empty(idx.shape[0])
    rows_at = kernel(grid.nodes, frame) if vector else None
    # a chunk's row blocks (and the vector kernels' work blocks) and their
    # spectra: buffers allocated once per call, chunks sized for all of them
    layout = (
        (len(frame) + (2 if vector else 0), (len(grid),), float),
        (len(frame), (n_t, n_phi // 2 + 1), complex),
    )
    for r0, r1, (real, spectra_out) in _chunk_blocks(rings.shape[0], *layout):
        firsts = grid.nodes[rings[r0:r1] * n_phi]
        if vector:
            blocks = rows_at(firsts, out=real[: len(frame)], work=real[len(frame) :])
        else:
            blocks = [kernel(firsts, grid.nodes, out=real[0])]
        row_spectra = [
            np.fft.rfft(rows.reshape(r1 - r0, n_t, n_phi), axis=2, out=buffer)
            for rows, buffer in zip(blocks, spectra_out)
        ]
        sel = (slot >= r0) & (slot < r1)
        acc = np.einsum("rkf,kf->rf", row_spectra[0], sample_spectra[0])
        for row_spectrum, sample_spectrum in zip(row_spectra[1:], sample_spectra[1:]):
            acc += np.einsum("rkf,kf->rf", row_spectrum, sample_spectrum)
        values = np.fft.irfft(acc.conj(), n=n_phi, axis=1)
        out[sel] = values[slot[sel] - r0, lon[sel]]
        if integral is not None:
            # scalar samples: a ring's nodes share its first node's weighted
            # row sum, summed per row (a gemv would round with the row count)
            rows = blocks[0]
            rows *= grid.weights
            row_sums = np.sum(rows, axis=1)
            out[sel] -= samples.values[idx[sel]] * row_sums[slot[sel] - r0]
    if integral:
        out += integral * samples.values[idx]
    return out
