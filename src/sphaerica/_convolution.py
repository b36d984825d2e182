"""The one quadrature sum behind the package's kernel sums.

A kernel sum is S_i = sum_j R(x_i, eta_j) F_j over the nodes eta_j of a
cap or sphere grid (_term_sums): one row function R(x, eta, out=), which
writes its (P, N) values into a buffer, against one or more weighted column
blocks F (N, c), each with its own (P, c) sum. Three sums of the package
run here:

- the surface potential on cap grids (solvers.surface_potential through
  apply_kernel): the scale-J regularized fundamental solution against w h;
- the pointwise D^-1 on sphere nodes (decomposition.d_inv_convolve): its
  kernel against the columns w h and w, from which the subtracted sum is
  formed;
- the direct log term of the cap gradient sums (modes._direct_term) at the
  scales and targets where its closed-form series in 2^-J does not hold:
  Q = 1/max(1 - x . eta, 2^-J) against w g for every field g, each (P, 3)
  sum then dotted with its target x.

The cap gradient sums themselves run per longitude mode (modes.py), the
global operators on sphere grids are spherical-harmonic transforms
(harmonics.sh_analyze), and boundary integrals are rim series
(harmonics._rim_series): none of them comes here. The chunking below
(_chunks, _chunk_blocks) also serves the ring synthesis of harmonics and
the MFS evaluation of mfs.
The backend follows from the targets:

- targets that are grid nodes (bitwise equal to grid.nodes[idx], the rule
  of QuadratureGrid.node_indices) use ring-FFT summation (_ring). Area
  grids are products of Gauss rings and a uniform longitude rule about one
  axis, and every row function here is invariant under rotation about that
  axis, so between two rings R is circulant in longitude, and each column
  of F is one ring correlation. Each ring that holds a target needs its
  first node's row against all N nodes, rFFT'd against the columns'
  longitude spectra: O(n_t N) row values plus O(n_t^2 n_phi log n_phi) FFT
  work per column instead of O(P N) pairs. A chunk of rings holds one row
  block and its spectra, which serve every column block.
- any other targets use the dense path (_dense) in chunks of at most
  _CHUNK_DOUBLES row values. Each target gets one (N,) @ (N, c) product per
  column block: a product over the whole chunk would round differently
  with the chunk's height. The chunk is sized for the cache, 2 MiB: a block
  that stays in a core's L2 between passes is not streamed from memory on
  each one. On a 2-core Xeon with 2 MiB of L2 per core, decompose_cap_at at
  250 off-grid probes of a 96x192 grid took 0.29 s with 64 MB chunks and
  0.15 s with 2 MiB, before the gradient sums were contracted; chunks of a
  few rows pay Python overhead per chunk.

Both paths write their chunks into one set of buffers allocated once per
call (_chunk_blocks), and the row functions write into them (out=), so no
chunk hands a temporary of its size back to the allocator, which glibc
unmaps and faults in again on the next chunk unless something earlier in
the process freed a larger block and so raised its mmap threshold.
"""

from __future__ import annotations

import math

import numpy as np

_CHUNK_DOUBLES = 262_144


def _chunks(n_points: int, n_nodes: int):
    step = max(1, _CHUNK_DOUBLES // max(n_nodes, 1))
    return ((i0, min(i0 + step, n_points)) for i0 in range(0, n_points, step))


def _chunk_blocks(n_points: int, *layout):
    """(i0, i1, views) for each chunk of _chunks, over buffers allocated once.

    layout gives each buffer as (count, row shape, dtype); views holds, per
    buffer, a (count, i1 - i0, *row shape) view whose count blocks are
    C-contiguous. The chunks are sized for every buffer together and the
    buffers for the first chunk, the tallest, so each chunk reuses the
    memory of the last.
    """
    nbytes = sum(c * math.prod(shape) * np.dtype(t).itemsize for c, shape, t in layout)
    bounds = list(_chunks(n_points, nbytes // 8))
    tallest = bounds[0][1] if bounds else 0
    buffers = [np.empty((c, tallest, *shape), t) for c, shape, t in layout]
    for i0, i1 in bounds:
        yield i0, i1, [buffer[:, : i1 - i0] for buffer in buffers]


def apply_kernel(kernel, samples, points: np.ndarray) -> np.ndarray:
    """sum_j w_j K(xi_i, eta_j) h_j over the sample grid, for stacked points xi.

    samples is scalar FieldSamples h on an area grid, and kernel(xi, eta,
    out=) writes the kernel values K (P, N) into the buffer out and returns
    them. The kernel must be invariant under rotations about the grid's
    ring axis (polar_frame[:, 2]).
    """
    grid = samples.grid
    weighted = (grid.weights * samples.values)[:, None]
    [sums] = _term_sums(grid, kernel, [weighted], points)
    return sums[:, 0]


def _term_sums(grid, rows, blocks, points):
    """sum_j R(x_i, eta_j) F_j at the targets x, one (P, c) sum per column
    block F (N, c) of blocks.

    rows(x, eta, out=) writes R (P, N) into the buffer out and returns it.
    Grid nodes take the ring path, other targets the dense path (module
    docstring).
    """
    idx = grid.node_indices(points)
    if idx is None:
        return _dense(grid, rows, blocks, points)
    return _ring(grid, rows, blocks, idx)


def _dense(grid, rows, blocks, points):
    """_term_sums at any targets: per chunk, the rows in one reused buffer,
    then per column block one (N,) @ (N, c) product per target."""
    out = [np.empty((points.shape[0], f.shape[1])) for f in blocks]
    for i0, i1, [block] in _chunk_blocks(points.shape[0], (1, (len(grid),), float)):
        q = rows(points[i0:i1], grid.nodes, out=block[0])
        for f, s in zip(blocks, out):
            s[i0:i1] = np.matmul(q[:, None, :], f)[:, 0, :]
    return out


def _ring(grid, rows, blocks, idx):
    """_term_sums at the node targets idx: per chunk of rings, the rows of
    the rings' first nodes and their spectra in one reused buffer each,
    correlated in longitude with every column (module docstring)."""
    n_t, n_phi = grid.shape
    spectra = []
    for f in blocks:
        # the columns' spectra, conjugated: the correlation in longitude
        # conj(rfft(row)) * rfft(column) is summed as the conjugate of
        # rfft(row) * conj(rfft(column))
        s = np.fft.rfft(f.T.reshape(-1, n_t, n_phi), axis=2)
        spectra.append(np.conj(s, out=s))
    ring, lon = np.divmod(idx, n_phi)
    rings, slot = np.unique(ring, return_inverse=True)
    out = [np.empty((idx.shape[0], f.shape[1])) for f in blocks]
    layout = ((1, (len(grid),), float), (1, (n_t, n_phi // 2 + 1), complex))
    for r0, r1, (real, buffer) in _chunk_blocks(rings.shape[0], *layout):
        sel = np.flatnonzero((slot >= r0) & (slot < r1))
        at_ring, at_lon = slot[sel] - r0, lon[sel]
        q = rows(grid.nodes[rings[r0:r1] * n_phi], grid.nodes, out=real[0])
        row_spectra = np.fft.rfft(
            q.reshape(r1 - r0, n_t, n_phi), axis=2, out=buffer[0]
        )
        for columns, s in zip(spectra, out):
            acc = np.einsum("rkf,ckf->rcf", row_spectra, columns)
            s[sel] = np.fft.irfft(acc.conj(), n=n_phi, axis=2)[at_ring, :, at_lon]
    return out
