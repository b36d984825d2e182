"""Helmholtz and Hardy-Hodge decompositions of spherical vector fields.

A field splits into a radial part, a curl-free tangential part (surface
gradient of a scalar), and a divergence-free tangential part (surface curl
gradient of a scalar). On the full sphere every operator of the split is
diagonal in spherical harmonics, so the global splits analyse the field on
its sphere grid (harmonics.sh_analyze), act on the coefficients and
synthesize the scalars at the nodes (harmonics.sh_synthesize): exact below
the grid's band. On caps the scalars are recovered by convolving the field
with the Neumann and Dirichlet cap kernels' gradients, plus the cap
solvers' integrals of the F3 trace (neumann_solve_cap of its tangential
derivative in F2, dirichlet_solve_cap of it in F3). The Hardy-Hodge variant
recombines the Helmholtz scalars through the half-integer shifted square
root of the (shifted) surface Laplacian, whose inverse acts spectrally as
1/(n + 1/2) and pointwise as a weakly singular convolution (d_inv_convolve);
the tests and the CLI cross-check the two. The Hardy-Hodge split is global
only: the nonlocal operator does not restrict to subdomains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._convolution import _ring, grad_convolution, grad_convolutions
from .geometry import on_points
from .harmonics import (
    ShCoefficients,
    scale_degrees,
    sh_analyze,
    sh_curl_eval,
    sh_eval,
    sh_grad_eval,
    sh_synthesize,
)
from .kernels import KIND_DIRICHLET, KIND_NEUMANN, KernelSpec
from .quadrature import KIND_BOUNDARY, KIND_SPHERE, FieldSamples, mean_value
from .solvers import (
    _cap_boundary_samples,
    default_scale,
    dirichlet_solve_cap,
    neumann_solve_cap,
)

_SQRT_SING_FLOOR = 1e-300


@dataclass(frozen=True)
class DecompositionScalars:
    """Scalars of one field split: radial, curl-free and divergence-free
    (Helmholtz) or inner, outer and surface sources (Hardy-Hodge)."""

    f1: FieldSamples
    f2: FieldSamples
    f3: FieldSamples


def helmholtz_compose(
    f1: ShCoefficients, f2: ShCoefficients, f3: ShCoefficients, xi
) -> np.ndarray:
    """xi F1(xi) + grad F2(xi) + curl-grad F3(xi) from spectral scalars."""

    def evaluate(pts):
        out = pts * sh_eval(f1, pts)[:, None]
        out = out + sh_grad_eval(f2, pts)
        return out + sh_curl_eval(f3, pts)

    return on_points(xi, evaluate)


def helmholtz_decompose_sphere(samples: FieldSamples) -> DecompositionScalars:
    """Global decomposition; scalars are produced at the field's own nodes.

    F2 and F3 are synthesized from the field's coefficients
    (harmonics.sh_analyze), of zero mean: the global split fixes them only
    up to constants. F1 is the pointwise radial part.
    """
    grid = samples.grid
    _, f2, f3 = sh_analyze(samples)
    f1 = np.sum(samples.values * grid.nodes, axis=1)
    return DecompositionScalars(
        *(FieldSamples(grid, f) for f in (f1, *sh_synthesize(grid, f2, f3)))
    )


def helmholtz_decompose_cap(
    samples: FieldSamples,
    boundary_f3=None,
    scale: int | None = None,
    m: int = 512,
) -> DecompositionScalars:
    """Cap decomposition with Dirichlet data for the divergence-free scalar.

    boundary_f3 gives the boundary trace of F3 (callable on stacked boundary
    nodes, an array of m trace values, or None for the zero trace); a trace
    of the wrong length or with non-finite values raises ValueError. F2
    and F3 convolve the Neumann and Dirichlet cap kernels and add the
    boundary terms of decompose_cap_at, whose strict-interior rule the grid
    nodes must meet. F2 is demeaned over the cap. Scalars are returned at
    the grid nodes; decompose_cap_at evaluates at other interior points.
    """
    grid = samples.grid
    f1 = np.sum(samples.values * grid.nodes, axis=1)
    f2, f3 = decompose_cap_at(
        samples, grid.nodes, boundary_f3=boundary_f3, scale=scale, m=m
    )
    return DecompositionScalars(
        FieldSamples(grid, f1), FieldSamples(grid, f2), FieldSamples(grid, f3)
    )


def decompose_cap_at(
    samples: FieldSamples,
    points: np.ndarray,
    boundary_field=None,
    boundary_f3=None,
    scale: int | None = None,
    m: int = 512,
    demean: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """(F2, F3) of the cap decomposition at interior evaluation points.

    The F3 trace adds neumann_solve_cap of its d/dsigma (by parts, the rim
    integral of d_tau G_N F3) to F2 and dirichlet_solve_cap of it to F3.
    Points must lie 1e-6 inside the rim (the Dirichlet solver's rule; the
    area sums run first, so a point outside the cap fails in their kernels'
    reflected term). Off the grid nodes the two area sums share one Q block
    per log term (_convolution.grad_convolutions).
    boundary_f3 is the F3 trace as for helmholtz_decompose_cap, or
    FieldSamples on a boundary grid of the cap, whose node count then
    replaces m (the cap solvers' rule, solvers._cap_boundary_samples).
    boundary_field is ignored; it goes once the benchmark stops passing it.
    With demean, F2 is shifted by its cap mean on the sample grid, at the
    cost of one F2 pass over all grid nodes unless points equal grid.nodes
    (F3 is only ever evaluated at points); callers fixing the constant
    gauge themselves can skip it. A grid without a cap raises ValueError.
    """
    grid = samples.grid
    cap = grid.cap
    if cap is None or grid.kind == KIND_BOUNDARY:
        raise ValueError("the cap decomposition needs a cap area grid")
    if scale is None:
        scale = default_scale(grid)
    trace = _cap_boundary_samples(
        cap, np.zeros(m) if boundary_f3 is None else boundary_f3, m
    )
    n = len(trace.grid)
    d_phi = np.fft.irfft(1j * np.arange(n // 2 + 1) * np.fft.rfft(trace.values), n=n)
    flux = FieldSamples(trace.grid, d_phi / cap.boundary_sine)

    pts = np.atleast_2d(np.asarray(points, dtype=float))
    spec_n = KernelSpec(KIND_NEUMANN, cap=cap, scale=scale)
    spec_d = KernelSpec(KIND_DIRICHLET, cap=cap, scale=scale)

    def with_flux(f2: np.ndarray, target: np.ndarray) -> np.ndarray:
        return f2 + neumann_solve_cap(cap, flux, 0.0, target)

    # one pass for both area sums: off the nodes they share each Q block
    f2, f3 = grad_convolutions(samples, [(spec_n, False), (spec_d, True)], pts)
    f2 = with_flux(f2, pts)
    f3 = f3 + dirichlet_solve_cap(cap, trace, pts)
    if demean:
        nodes = grid.nodes
        f2_nodes = (
            f2
            if np.array_equal(pts, nodes)
            else with_flux(grad_convolution(samples, spec_n, nodes, curl=False), nodes)
        )
        f2 = f2 - mean_value(FieldSamples(grid, f2_nodes))
    return f2, f3


def d_apply(c: ShCoefficients, power: int) -> ShCoefficients:
    """Spectral action of the shifted square-root operator: (n + 1/2)^power."""
    if power not in (1, -1):
        raise ValueError("power must be +1 or -1")
    return scale_degrees(c, lambda n: (n + 0.5) ** power)


def d_inv_convolve(samples: FieldSamples, xi) -> float | np.ndarray:
    """Inverse of the shifted square-root operator as a convolution.

    Kernel 1/(2 pi sqrt(2 (1 - xi . eta))); the singularity is subtracted
    against the analytic kernel integral, which equals 2:
    integral k (F - F(xi)) + 2 F(xi). xi must be grid nodes (their values
    feed the subtraction): indices, or points bitwise equal to nodes
    (grid.node_indices), with the same bits; other points raise ValueError.
    A scalar index or a single (3,) point gives a float, stacks an array.
    """
    grid = samples.grid
    if grid.kind != KIND_SPHERE:
        raise ValueError("the convolution path needs a sphere grid")
    xi = np.asarray(xi)
    by_index = xi.dtype.kind in "iu"
    idx = np.atleast_1d(xi) if by_index else grid.node_indices(np.atleast_2d(xi))
    if idx is None:
        raise ValueError("evaluation points must coincide with grid nodes")
    out = _ring(_d_inv_kernel, samples, idx, 2.0)
    return float(out[0]) if xi.ndim == (0 if by_index else 1) else out


def _d_inv_kernel(xi: np.ndarray, eta: np.ndarray, out=None) -> np.ndarray:
    """1/(2 pi sqrt(2 (1 - xi . eta))), zero at coincident points; out, a
    C-contiguous (P, N) buffer, receives it, each step in place."""
    u = np.matmul(xi, eta.T, out=out)
    np.subtract(1.0, u, out=u)
    np.maximum(u, _SQRT_SING_FLOOR, out=u)
    coincident = np.nonzero(u < 1e-14)
    u *= 2.0
    np.sqrt(u, out=u)
    u *= 2.0 * np.pi
    np.divide(1.0, u, out=u)
    u[coincident] = 0.0
    return u


def hardy_hodge_decompose_sphere(
    samples: FieldSamples, scale: int | None = None
) -> DecompositionScalars:
    """Global source split via the Helmholtz scalars (F1, F2, F3) and the
    spectral inverse d_apply(., -1) of the shifted square-root operator D.

    The inner and outer scalars are D^-1 (F1/2 + F2/4) -+ F2/2, formed on
    the field's coefficients (harmonics.sh_analyze) and synthesized at the
    nodes; F3 passes through. scale is ignored; it goes once the benchmark
    stops passing it.
    """
    grid = samples.grid
    f1, f2, f3 = sh_analyze(samples)
    d = d_apply(ShCoefficients(f1.l_max, 0.5 * f1.coeffs + 0.25 * f2.coeffs), -1)
    t1, t2 = (ShCoefficients(d.l_max, d.coeffs + k * f2.coeffs) for k in (-0.5, 0.5))
    return DecompositionScalars(
        *(FieldSamples(grid, t) for t in sh_synthesize(grid, t1, t2, f3))
    )


def hardy_hodge_compose_spectral(
    t1: ShCoefficients, t2: ShCoefficients, t3: ShCoefficients, xi
) -> np.ndarray:
    """Compose a field from Hardy-Hodge scalars spectrally.

    The inner/outer operators act as xi (D + 1/2) - grad and
    xi (D - 1/2) + grad; on degree n that is (n + 1) and n radial weights.
    """
    # D + 1/2 and D - 1/2 act on degree n as n + 1 and n
    up1 = scale_degrees(t1, lambda n: n + 1.0)
    up2 = scale_degrees(t2, lambda n: n)

    def evaluate(pts):
        out = pts * sh_eval(up1, pts)[:, None] - sh_grad_eval(t1, pts)
        out = out + pts * sh_eval(up2, pts)[:, None] + sh_grad_eval(t2, pts)
        return out + sh_curl_eval(t3, pts)

    return on_points(xi, evaluate)
