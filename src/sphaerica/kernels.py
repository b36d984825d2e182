"""Closed-form kernels of the surface Laplacian on the unit sphere.

The fundamental solution G(t) = ln(1-t)/(4 pi) + (1 - ln 2)/(4 pi), its cap
Green functions with Dirichlet or Neumann boundary behavior (built from the
cap reflection), and closed-form tangential derivatives of all of them.

A KernelSpec names one of three kinds (fundamental, Dirichlet cap, Neumann
cap) and an optional scale 0 <= J <= 53 for every kind: with a scale, the
singular log branch continues linearly inside 1 - xi . eta < 2^-J. The cap
kernels reject xi outside their cap with ValueError (the reflection is only
defined inside it).

Each formula is written once, in the vectorized core, and every kernel
block (the D^-1 kernel and the MFS log basis too) starts from one gap
1 - x . eta and one coincidence test. kernel_value_matrix evaluates a
KernelSpec for stacked points, and its gradient is grad_terms (per-node
factors) over log_gap (the gap, floored or checked) at the targets or
their cap reflections. kernel_grad_dot assembles them into rows; the
direct log term of the cap gradient sums (modes._direct_term) contracts
its term as x . (Q F), Q = 1/log_gap, without forming the rows.
kernel_value_matrix and log_gap write their (P, N) blocks into caller
buffers when given (out=), so that a chunked sum reuses one set of
buffers for every chunk. The scalar entry points
(fundamental, fundamental_deriv, dirichlet_green, neumann_green,
neumann_green_regularized) evaluate one (xi, eta) pair through that same
core, so the finite-difference tests of the scalar APIs check the
arithmetic the solvers run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import BoundaryPoint, SphericalCap, _reflect_many, _stacked_product

FOUR_PI = 4.0 * np.pi
_G_CONST = (1.0 - np.log(2.0)) / FOUR_PI  # G(0): the constant of G
_SING_TOL = 1e-14

KIND_FUNDAMENTAL = "fundamental"
KIND_DIRICHLET = "dirichlet-cap"
KIND_NEUMANN = "neumann-cap"


class SingularityError(ValueError):
    """Kernel evaluated at (numerically) coincident arguments."""


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel to evaluate: kind, owning cap, regularization scale."""

    kind: str
    cap: SphericalCap | None = None
    scale: int | None = None

    def __post_init__(self):
        if self.kind not in (KIND_FUNDAMENTAL, KIND_DIRICHLET, KIND_NEUMANN):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind != KIND_FUNDAMENTAL and self.cap is None:
            raise ValueError("cap kernels require a cap")
        # 2^-53 is the least positive 1 - t for doubles t: a finer scale only
        # regularizes coincident points, and from J = 1075 on 2^-J is 0
        if self.scale is not None and not 0 <= self.scale <= 53:
            raise ValueError(f"scale J must lie in [0, 53], got {self.scale}")


def gap(x: np.ndarray, eta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 - x . eta for stacked x (P, 3) against stacked eta (N, 3), shape
    (P, N), or against one point eta (3,), shape (P,): every kernel block
    starts here. out, a C-contiguous buffer of that shape, receives it, and
    1 - t runs in place. A single x is multiplied as a stack
    (geometry._stacked_product), so a point gets the bits it has in one."""
    u = _stacked_product(x, np.transpose(eta), out=out)
    return np.subtract(1.0, u, out=u)


def _coincident(u: np.ndarray) -> bool:
    """Whether gaps u hold a coincident pair, u < _SING_TOL, with no boolean
    block formed; fmin skips NaN, as the comparison would."""
    return bool(np.fmin.reduce(u, axis=None, initial=np.inf) < _SING_TOL)


def _log_term(u: np.ndarray, scale: int | None) -> np.ndarray:
    """ln(u)/(4 pi) over gaps u, in place. With a scale, the log branch is
    replaced by its linear continuation inside u < 2^-scale; without one, a
    coincident pair raises SingularityError."""
    if scale is None:
        if _coincident(u):
            raise SingularityError("kernel evaluated at its singularity")
        np.log(u, out=u)
        u /= FOUR_PI
        return u
    # the log branch of max(u, 2^-J) at every pair, in place; the linear
    # branch only at the few pairs inside 2^-J, which it overwrites
    delta = 2.0 ** (-scale)
    near = np.nonzero(u < delta)
    u_near = u[near]
    np.maximum(u, delta, out=u)
    np.log(u, out=u)
    u /= FOUR_PI
    u[near] = (u_near / delta - scale * np.log(2.0) - 1.0) / FOUR_PI
    return u


def _fundamental_many(
    t: np.ndarray, scale: int | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Vectorized fundamental solution G(t) = _log_term(1 - t) + G(0); out,
    an array of t's shape (t itself allowed), receives the values."""
    u = np.subtract(1.0, np.asarray(t, dtype=float), out=out)
    return np.add(_log_term(u, scale), _G_CONST, out=u)


def _neumann_centre(cap: SphericalCap, eta: np.ndarray) -> tuple[float, np.ndarray]:
    """(coef, zeta . eta) of the Neumann kernel's centre term
    coef ln(1 + zeta . eta), coef = (1 - rho)/(2 pi rho), where it is finite."""
    c = eta @ cap.center
    if _coincident(1.0 + c):
        raise SingularityError("Neumann kernel at the antipode of the cap center")
    return (1.0 - cap.radius) / (2.0 * np.pi * cap.radius), c


def fundamental(t: float) -> float:
    """Fundamental solution at t = xi . eta, singular as t -> 1."""
    return float(_fundamental_many(np.array([float(t)]))[0])


def fundamental_deriv(xi, eta, mode: str = "grad"):
    """Derivative of G(xi . eta) in its second argument.

    mode "grad" returns the tangential gradient at eta, "curl" returns
    eta x grad, and "normal" the normal derivative (eta must then be a
    BoundaryPoint).
    """
    return _pair(KernelSpec(KIND_FUNDAMENTAL), xi, eta, mode)


def dirichlet_green(cap: SphericalCap, xi, eta, mode: str = "value"):
    """Cap Green function with zero boundary values, or its eta-derivatives.

    The value is log(1 - xi.eta)/4pi - log(r (1 - check.eta))/4pi with
    (check, r) the reflection of xi. Modes: value, grad, curl, normal
    (normal requires a BoundaryPoint eta).
    """
    return _pair(KernelSpec(KIND_DIRICHLET, cap), xi, eta, mode)


def neumann_green(cap: SphericalCap, xi, eta, mode: str = "value"):
    """Cap Green function with vanishing boundary normal derivative.

    Value: log(1 - xi.eta)/4pi + log(r (1 - check.eta))/4pi
    + (1 - rho) ln(1 + zeta.eta) / (2 pi rho). Modes as for dirichlet_green.
    """
    return _pair(KernelSpec(KIND_NEUMANN, cap), xi, eta, mode)


def neumann_green_regularized(
    cap: SphericalCap, xi, eta, scale: int, mode: str = "value"
):
    """Scale-J regularization of the Neumann cap kernel.

    Inside 1 - xi.eta < 2^-J the singular log term is replaced by its linear
    continuation 2^J (1 - xi.eta)/4pi - J ln2/4pi - 1/4pi; value and gradient
    are continuous across the seam. Other terms are unchanged. Modes as for
    dirichlet_green.
    """
    if scale is None:
        raise ValueError("the regularized kernel needs a scale J")
    return _pair(KernelSpec(KIND_NEUMANN, cap, scale), xi, eta, mode)


def _pair(spec: KernelSpec, xi, eta, mode: str):
    """One (xi, eta) pair of kernel_value_matrix / kernel_grad_dot.

    mode "value" gives the kernel, "grad" its tangential eta-gradient (the
    rows of kernel_grad_dot against the three unit fields), "curl" the
    surface curl gradient eta x grad, and "normal" the gradient dotted with
    the normal of a BoundaryPoint eta.
    """
    if mode == "normal":
        if not isinstance(eta, BoundaryPoint):
            raise TypeError("normal mode requires a BoundaryPoint")
        return float(eta.normal @ _pair(spec, xi, eta.position, "grad"))
    eta = np.asarray(eta, dtype=float)
    if mode == "value":
        return float(kernel_value_matrix(spec, xi, eta)[0, 0])
    if mode == "curl":
        return np.cross(eta, _pair(spec, xi, eta, "grad"))
    if mode != "grad":
        raise ValueError(f"unknown mode {mode!r}")
    return kernel_grad_dot(spec, xi, np.tile(eta, (3, 1)), np.eye(3))[0]


def kernel_value_matrix(
    spec: KernelSpec, xi: np.ndarray, eta: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Kernel values for stacked xi (P, 3) against stacked eta (N, 3).

    out, a C-contiguous (P, N) buffer, receives them: the fundamental kernel
    forms no other (P, N) array, a cap kernel one more for its reflected
    term.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    eta = np.atleast_2d(np.asarray(eta, dtype=float))
    u = _log_term(gap(xi, eta, out=out), spec.scale)
    if spec.kind == KIND_FUNDAMENTAL:
        return np.add(u, _G_CONST, out=u)
    # the reflected term ln(r (1 - check . eta))/(4 pi), smooth inside the
    # cap and never regularized
    check, r = _reflect_many(spec.cap, xi)
    refl = gap(check, eta)
    np.log(refl, out=refl)
    refl += np.log(r)[:, None]
    refl /= FOUR_PI
    if spec.kind == KIND_DIRICHLET:
        return np.subtract(u, refl, out=u)
    u += refl
    coef, c = _neumann_centre(spec.cap, eta)
    u += coef * np.log1p(c)
    return u


def log_gap(
    points: np.ndarray, eta: np.ndarray, scale: int | None, out: np.ndarray | None = None
) -> np.ndarray:
    """gap(points, eta), the denominator of every log term of a kernel
    gradient, into out as for gap. With a scale it is floored at 2^-scale
    in place, which caps the term's factor at 2^scale; without one, a
    coincident pair raises SingularityError.
    """
    u = gap(points, eta, out=out)
    if scale is not None:
        np.maximum(u, 2.0**-scale, out=u)
    elif _coincident(u):
        raise SingularityError("kernel gradient at its singularity")
    return u


def grad_terms(spec: KernelSpec, eta: np.ndarray, field: np.ndarray):
    """Per-node factors of (D_eta K(xi, eta_j)) . field_j for a KernelSpec.

    Returns (terms, centre). Each log term is (reflected, g, scale): its
    value at (xi, eta_j) is (x . g_j) / log_gap(x, eta_j) at that scale,
    with x = xi, or its cap reflection when reflected, and g the
    tangential part of the field scaled by the term's -+1/4pi, since
    (x - t eta) . f = x . f_tan. centre is the Neumann kernel's
    xi-independent column (N,), else None.
    """
    f = np.asarray(field, dtype=float)
    f_tan = f - np.sum(f * eta, axis=1)[:, None] * eta
    terms = [(False, f_tan * (-1.0 / FOUR_PI), spec.scale)]
    if spec.kind == KIND_FUNDAMENTAL:
        return terms, None
    sign = 1.0 if spec.kind == KIND_DIRICHLET else -1.0
    terms.append((True, f_tan * (sign / FOUR_PI), None))
    if spec.kind != KIND_NEUMANN:
        return terms, None
    coef, c = _neumann_centre(spec.cap, eta)
    return terms, coef * (f_tan @ spec.cap.center) / (1.0 + c)


def kernel_grad_dot(
    spec: KernelSpec, xi: np.ndarray, eta: np.ndarray, field: np.ndarray
) -> np.ndarray:
    """Rows of sum-ready (D_eta K(xi_i, eta_j)) . field_j, shape (P, N).

    D is the tangential gradient; for the surface curl gradient pass the
    rotated field f x eta, as (eta x D K) . f = D K . (f x eta). The log
    branch uses the spec's regularization scale when present. Each log term
    of grad_terms adds (x . g) / log_gap at its points x, xi or their cap
    reflections, and the Neumann centre column comes last.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    eta = np.atleast_2d(np.asarray(eta, dtype=float))
    terms, centre = grad_terms(spec, eta, field)
    rows = 0.0
    for reflected, g, scale in terms:
        x = _reflect_many(spec.cap, xi)[0] if reflected else xi
        rows = rows + (x @ g.T) / log_gap(x, eta, scale)
    return rows if centre is None else rows + centre[None, :]
