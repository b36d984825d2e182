"""Helmholtz and Hardy-Hodge decompositions of spherical vector fields.

A field splits into a radial part, a curl-free tangential part (surface
gradient of a scalar), and a divergence-free tangential part (surface curl
gradient of a scalar). The scalars are recovered by convolving the field
with gradient kernels: the fundamental solution globally, the Neumann and
Dirichlet cap kernels on caps. The Hardy-Hodge variant recombines the
Helmholtz scalars through the half-integer shifted square root of the
(shifted) surface Laplacian, whose inverse acts spectrally as 1/(n + 1/2)
and pointwise as a weakly singular convolution; both paths are implemented
and cross-checked in the tests. The Hardy-Hodge split is global only: the
nonlocal operator does not restrict to subdomains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._convolution import _ring, apply_kernel, grad_convolution
from .geometry import on_points
from .harmonics import (
    ShCoefficients,
    scale_degrees,
    sh_curl_eval,
    sh_eval,
    sh_grad_eval,
)
from .kernels import (
    KIND_DIRICHLET,
    KIND_FUNDAMENTAL,
    KIND_NEUMANN,
    KernelSpec,
    kernel_grad_dot,
)
from .quadrature import KIND_BOUNDARY, KIND_SPHERE, FieldSamples, mean_value
from .solvers import _cap_boundary_samples, default_scale

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


def helmholtz_decompose_sphere(
    samples: FieldSamples, scale: int | None = None
) -> DecompositionScalars:
    """Global decomposition; scalars are produced at the field's own nodes.

    F2 and F3 are gradient/curl convolutions with the fundamental solution,
    regularized at the given scale, and are demeaned (the global split fixes
    them only up to constants). F1 is the pointwise radial part.
    """
    grid = samples.grid
    if grid.kind != KIND_SPHERE:
        raise ValueError("helmholtz_decompose_sphere needs a sphere grid")
    if scale is None:
        scale = default_scale(grid)
    spec = KernelSpec(KIND_FUNDAMENTAL, scale=scale)
    f1 = np.sum(samples.values * grid.nodes, axis=1)
    f2 = FieldSamples(grid, grad_convolution(samples, spec, grid.nodes, curl=False))
    f3 = FieldSamples(grid, grad_convolution(samples, spec, grid.nodes, curl=True))
    return DecompositionScalars(
        FieldSamples(grid, f1),
        FieldSamples(grid, f2.values - mean_value(f2)),
        FieldSamples(grid, f3.values - mean_value(f3)),
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
    convolves the Neumann cap kernel and carries a boundary correction
    weighted by the trace; F3 convolves the Dirichlet cap kernel plus its
    one boundary term, the trace against the kernel's normal derivative. F2
    is demeaned over the cap. Scalars are returned at the grid nodes;
    decompose_cap_at evaluates at other interior points.
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
    bgrid = trace.grid

    pts = np.atleast_2d(np.asarray(points, dtype=float))
    spec_n = KernelSpec(KIND_NEUMANN, cap=cap, scale=scale)
    spec_d = KernelSpec(KIND_DIRICHLET, cap=cap, scale=scale)
    tangent_n = lambda x, eta: kernel_grad_dot(spec_n, x, eta, bgrid.tangents)
    normal_d = lambda x, eta: kernel_grad_dot(spec_d, x, eta, bgrid.normals)

    def f2_at(target: np.ndarray) -> np.ndarray:
        f2 = grad_convolution(samples, spec_n, target, curl=False)
        return f2 + apply_kernel(tangent_n, trace, target)

    f2 = f2_at(pts)
    f3 = grad_convolution(samples, spec_d, pts, curl=True)
    f3 = f3 + apply_kernel(normal_d, trace, pts)
    if demean:
        f2_nodes = f2 if np.array_equal(pts, grid.nodes) else f2_at(grid.nodes)
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
    """
    grid = samples.grid
    if grid.kind != KIND_SPHERE:
        raise ValueError("the convolution path needs a sphere grid")

    def evaluate(pts):
        idx = grid.node_indices(pts)
        if idx is None:
            raise ValueError("evaluation points must coincide with grid nodes")
        return _ring(_d_inv_kernel, samples, idx, 2.0)

    xi = np.asarray(xi)
    if xi.dtype.kind in "iu":
        out = _ring(_d_inv_kernel, samples, np.atleast_1d(xi), 2.0)
        return float(out[0]) if xi.ndim == 0 else out
    return on_points(xi, evaluate)


def _d_inv_kernel(xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """1/(2 pi sqrt(2 (1 - xi . eta))), zero at coincident points."""
    u = np.maximum(1.0 - xi @ eta.T, _SQRT_SING_FLOOR)
    k = 1.0 / (2.0 * np.pi * np.sqrt(2.0 * u))
    return np.where(u < 1e-14, 0.0, k)


def hardy_hodge_decompose_sphere(
    samples: FieldSamples, scale: int | None = None
) -> DecompositionScalars:
    """Global source split via the Helmholtz scalars (F1, F2, F3) and the
    convolution inverse of the shifted square-root operator D.

    The inner and outer scalars are D^-1 (F1/2 + F2/4) -+ F2/2; D^-1 is
    linear, so one convolution serves both. F3 passes through.
    """
    helm = helmholtz_decompose_sphere(samples, scale=scale)
    grid = samples.grid
    f2 = helm.f2.values
    mixed = FieldSamples(grid, 0.5 * helm.f1.values + 0.25 * f2)
    d = d_inv_convolve(mixed, np.arange(len(grid)))
    return DecompositionScalars(
        FieldSamples(grid, d - 0.5 * f2), FieldSamples(grid, d + 0.5 * f2), helm.f3
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
