"""The one quadrature sum behind every area integral of the package.

Every area integral is a term sum S_i = sum_j R(x_i, eta_j) F_j over the
nodes eta_j of a cap or sphere grid (_term_sums). A group of terms has one
row function R(x, eta, out=), which writes its (P, N) values into a
buffer: a scalar kernel's values at the targets, or the factor
Q = 1/(1 - x . eta) of a kernel gradient's log term (kernels.log_gap), at
the targets or at their cap reflections (kernels.term_points). One or more
weighted column blocks F (N, c) share each group's rows: w h for a scalar
kernel, w g for a log term (kernels.grad_terms), w h and w for the
subtracted D^-1 sum (decomposition.d_inv_convolve). A log term's value at
a pair is (x . g_j) Q_ij, so its (P, 3) sum is dotted with its points x:
the gradient sum is x . (Q F). apply_kernel sums a scalar kernel against
w h. grad_convolutions sums the gradients of one or more KernelSpecs: their
log terms are grouped by (reflected, scale), so sums with the same points
and scale share each Q block (and, at the nodes, its spectrum), and a
Neumann centre column is summed once, to a scalar.
The callers: the surface potential on cap grids, the pointwise D^-1
(decomposition.d_inv_convolve, the one sum on sphere grids), and the direct
log term of the cap gradient sums (modes.gradient_sums) at the scales and
targets where its closed-form series in 2^-J does not hold. The cap
gradient sums themselves (invert_gradient and the cap split on cap grids)
run per longitude mode in modes.py; the sums here with a cap kernel remain
as the tests' reference for them. Boundary integrals never come here: the
cap solvers and the layer potentials are rim series
(harmonics._rim_series), and the global operators on sphere grids are
spherical-harmonic transforms (harmonics.sh_analyze).
The backend follows from the targets:

- targets that are grid nodes (bitwise equal to grid.nodes[idx], the rule
  of QuadratureGrid.node_indices) use ring-FFT summation (_ring). Area
  grids are products of Gauss rings and a uniform longitude rule about one
  axis, and every row function here is invariant under rotation about that
  axis (a cap reflection commutes with it), so between two rings R is
  circulant in longitude, and each column of F is one ring correlation.
  Each ring that holds a target needs its first node's row against all N
  nodes, rFFT'd against the columns' longitude spectra: O(n_t N) row values
  plus O(n_t^2 n_phi log n_phi) FFT work per column instead of O(P N)
  pairs. A chunk of rings holds one row block and its spectra, which serve
  every column of the group before the next group's rows are written.
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
from functools import partial

import numpy as np

from .kernels import grad_terms, log_gap, term_points

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
    [[sums]] = _term_sums(grid, [(None, kernel, [weighted])], points)
    return sums[:, 0]


def grad_convolutions(samples, sums, points: np.ndarray) -> list:
    """-sum_j w_j (D_eta K(xi_i, eta_j)) . f_j for the KernelSpec K of each
    (spec, curl) of sums, at the same points; with curl, D = eta x grad,
    summed as the gradient against f x eta (same product).

    Log terms with the same points and scale form one group, whose Q block
    serves each sum with its own columns (module docstring); the specs of
    one call share their cap and scale. Each sum is its Neumann centre
    term, then its groups' dot products in turn.
    """
    grid = samples.grid
    nodes, w = grid.nodes, grid.weights
    groups, totals = {}, []
    for k, (spec, curl) in enumerate(sums):
        terms, centre = grad_terms(
            spec, nodes, np.cross(samples.values, nodes) if curl else samples.values
        )
        for reflected, g, scale in terms:
            g *= w[:, None]
            groups.setdefault((reflected, scale), []).append((k, g))
        totals.append(0.0 if centre is None else np.sum(w * centre))
    spec = sums[0][0]
    results = _term_sums(
        grid,
        [
            (
                partial(term_points, spec, reflected=reflected),
                partial(_inverse_gap, scale=scale),
                [f for _, f in fields],
            )
            for (reflected, scale), fields in groups.items()
        ],
        points,
    )
    for fields, parts in zip(groups.values(), results):
        for (k, _), part in zip(fields, parts):
            totals[k] = totals[k] + part
    return [-total for total in totals]


def _inverse_gap(x, eta, scale, out=None):
    """Q = 1/log_gap(x, eta), the rows of a gradient log term, in out."""
    q = log_gap(x, eta, scale, out=out)
    return np.divide(1.0, q, out=q)


def _term_sums(grid, groups, points):
    """sum_j R(x_i, eta_j) F_j for each group (x_of, rows, blocks) of terms:
    a list per group of one sum per column block F (N, c) of blocks.

    rows(x, eta, out=) writes R (P, N) into the buffer out and returns it.
    With x_of None, x are the targets and a sum has shape (P, c);
    otherwise x = x_of(targets), the points of a gradient log term, and
    each target's (3,) sum is dotted with its x, shape (P,). Grid nodes
    take the ring path, other targets the dense path (module docstring).
    """
    idx = grid.node_indices(points)
    if idx is None:
        return _dense(grid, groups, points)
    return _ring(grid, groups, points, idx)


def _empty_sums(groups, n_points):
    """The sums of _term_sums for n_points targets, to be filled."""
    return [
        [np.empty(n_points if x_of else (n_points, f.shape[1])) for f in blocks]
        for x_of, _, blocks in groups
    ]


def _dense(grid, groups, points):
    """_term_sums at any targets: per chunk and group, the rows in one
    reused buffer, then per column block one (N,) @ (N, c) product per
    target and, for a log term, its dot with x."""
    out = _empty_sums(groups, points.shape[0])
    for i0, i1, [block] in _chunk_blocks(points.shape[0], (1, (len(grid),), float)):
        for (x_of, rows, blocks), sums in zip(groups, out):
            x = x_of(points[i0:i1]) if x_of else points[i0:i1]
            q = rows(x, grid.nodes, out=block[0])
            for f, s in zip(blocks, sums):
                qf = np.matmul(q[:, None, :], f)[:, 0, :]
                s[i0:i1] = np.sum(x * qf, axis=1) if x_of else qf
    return out


def _ring(grid, groups, points, idx):
    """_term_sums at the node targets idx: per chunk of rings and group, the
    rows of the rings' first nodes and their spectra in one reused buffer
    each, correlated in longitude with every column (module docstring)."""
    n_t, n_phi = grid.shape

    def spectrum(f):
        # the columns' spectra, conjugated: the correlation in longitude
        # conj(rfft(row)) * rfft(column) is summed as the conjugate of
        # rfft(row) * conj(rfft(column))
        s = np.fft.rfft(f.T.reshape(-1, n_t, n_phi), axis=2)
        return np.conj(s, out=s)

    spectra = [[spectrum(f) for f in blocks] for _, _, blocks in groups]
    xs = [x_of(points) if x_of else None for x_of, _, _ in groups]
    ring, lon = np.divmod(idx, n_phi)
    rings, slot = np.unique(ring, return_inverse=True)
    out = _empty_sums(groups, idx.shape[0])
    layout = ((1, (len(grid),), float), (1, (n_t, n_phi // 2 + 1), complex))
    for r0, r1, (real, buffer) in _chunk_blocks(rings.shape[0], *layout):
        sel = np.flatnonzero((slot >= r0) & (slot < r1))
        at_ring, at_lon = slot[sel] - r0, lon[sel]
        firsts = grid.nodes[rings[r0:r1] * n_phi]
        for (x_of, rows, _), col_spectra, x, sums in zip(groups, spectra, xs, out):
            q = rows(x_of(firsts) if x_of else firsts, grid.nodes, out=real[0])
            row_spectra = np.fft.rfft(
                q.reshape(r1 - r0, n_t, n_phi), axis=2, out=buffer[0]
            )
            for columns, s in zip(col_spectra, sums):
                acc = np.einsum("rkf,ckf->rcf", row_spectra, columns)
                qf = np.fft.irfft(acc.conj(), n=n_phi, axis=2)[at_ring, :, at_lon]
                s[sel] = np.sum(x[sel] * qf, axis=1) if x_of else qf
    return out
