"""Closed-form kernels of the surface Laplacian on the unit sphere.

The fundamental solution G(t) = ln(1-t)/(4 pi) + (1 - ln 2)/(4 pi), its cap
Green functions with Dirichlet or Neumann boundary behavior (built from the
cap reflection), and closed-form tangential derivatives of all of them.

A KernelSpec names one of three kinds (fundamental, Dirichlet cap, Neumann
cap) and an optional scale J >= 0 for every kind: with a scale, the
singular log branch continues linearly inside 1 - xi . eta < 2^-J. The cap
kernels reject xi outside their cap with ValueError (the reflection is only
defined inside it).

Each formula is written once, in the vectorized core: kernel_value_matrix
and kernel_grad_dot evaluate a KernelSpec for stacked points, and every
solver and convolution calls them. The scalar entry points (fundamental,
fundamental_deriv, dirichlet_green, neumann_green, neumann_green_regularized)
evaluate one (xi, eta) pair through that same core, so the finite-difference
tests of the scalar APIs check the arithmetic the solvers run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import BoundaryPoint, SphericalCap, _reflect_many

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
        if self.scale is not None and self.scale < 0:
            raise ValueError(f"scale J must be >= 0, got {self.scale}")


def _fundamental_many(t: np.ndarray, scale: int | None = None) -> np.ndarray:
    """Vectorized fundamental solution; with a scale, the log branch is
    replaced by its linear continuation inside 1 - t < 2^-scale."""
    t = np.asarray(t, dtype=float)
    u = 1.0 - t
    if scale is None:
        if np.any(u < _SING_TOL):
            raise SingularityError("kernel evaluated at its singularity")
        return np.log(u) / FOUR_PI + _G_CONST
    delta = 2.0 ** (-scale)
    with np.errstate(divide="ignore"):
        log_branch = np.log(np.maximum(u, 1e-300)) / FOUR_PI
    lin_branch = (u / delta - scale * np.log(2.0) - 1.0) / FOUR_PI
    return np.where(u >= delta, log_branch, lin_branch) + _G_CONST


def _cap_terms_value(
    cap: SphericalCap, xi: np.ndarray, eta: np.ndarray, sign: float, scale: int | None
) -> np.ndarray:
    """log(1 - xi.eta)/4pi (possibly regularized) + sign * reflected log term.

    xi has shape (P, 3), eta (N, 3); returns (P, N). The reflected term is
    smooth for xi inside the cap and carries no regularization.
    """
    t = xi @ eta.T
    check, scale_arr = _reflect_many(cap, xi)
    t_ref = check @ eta.T
    base = _fundamental_many(t, scale) - _G_CONST
    refl = (np.log(scale_arr)[:, None] + np.log(1.0 - t_ref)) / FOUR_PI
    return base + sign * refl


def _neumann_zeta_term(cap: SphericalCap, eta: np.ndarray) -> np.ndarray:
    """(1 - rho) ln(1 + zeta . eta) / (2 pi rho), shape (N,)."""
    c = _center_cosine(cap, eta)
    return (1.0 - cap.radius) / (2.0 * np.pi * cap.radius) * np.log1p(c)


def _center_cosine(cap: SphericalCap, eta: np.ndarray) -> np.ndarray:
    """zeta . eta, where the Neumann kernel's center term is finite."""
    c = eta @ cap.center
    if np.any(1.0 + c < _SING_TOL):
        raise SingularityError("Neumann kernel at the antipode of the cap center")
    return c


def fundamental(t: float) -> float:
    """Fundamental solution at t = xi . eta, singular as t -> 1."""
    return float(_fundamental_many(float(t)))


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


def kernel_value_matrix(spec: KernelSpec, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Kernel values for stacked xi (P, 3) against stacked eta (N, 3)."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    eta = np.atleast_2d(np.asarray(eta, dtype=float))
    if spec.kind == KIND_FUNDAMENTAL:
        return _fundamental_many(xi @ eta.T, spec.scale)
    sign = -1.0 if spec.kind == KIND_DIRICHLET else 1.0
    out = _cap_terms_value(spec.cap, xi, eta, sign, spec.scale)
    if spec.kind == KIND_NEUMANN:
        out = out + _neumann_zeta_term(spec.cap, eta)[None, :]
    return out


def kernel_grad_dot(
    spec: KernelSpec, xi: np.ndarray, eta: np.ndarray, field: np.ndarray
) -> np.ndarray:
    """Rows of sum-ready (D_eta K(xi_i, eta_j)) . field_j, shape (P, N).

    D is the tangential gradient; for the surface curl gradient pass the
    rotated field f x eta, as (eta x D K) . f = D K . (f x eta). The log
    branch uses the spec's regularization scale when present. The arithmetic
    below reuses buffers; these products dominate the cost of every
    convolution solver, so the number of (P, N) temporaries matters.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    eta = np.atleast_2d(np.asarray(eta, dtype=float))
    f = np.asarray(field, dtype=float)
    radial = np.sum(f * eta, axis=1)

    def block(points: np.ndarray, scale: int | None, log_branch: bool):
        # ((points_i . f_j) - t_ij (eta_j . f_j)) / (1 - t_ij), with the
        # factor capped at 2^scale on the regularized log branch
        t = points @ eta.T
        rows = points @ f.T
        rows -= t * radial[None, :]
        np.subtract(1.0, t, out=t)
        if log_branch:
            np.maximum(t, 1e-300, out=t)
        elif np.any(t < _SING_TOL):
            raise SingularityError("kernel gradient at its singularity")
        np.reciprocal(t, out=t)
        if log_branch and scale is not None:
            np.minimum(t, 2.0**scale, out=t)
        elif log_branch and np.any(t > 1.0 / _SING_TOL):
            raise SingularityError("kernel gradient at its singularity")
        rows *= t
        return rows

    out = block(xi, spec.scale, log_branch=True)
    out *= -1.0 / FOUR_PI
    if spec.kind == KIND_FUNDAMENTAL:
        return out
    check, _ = _reflect_many(spec.cap, xi)
    refl = block(check, None, log_branch=False)
    sign = 1.0 if spec.kind == KIND_DIRICHLET else -1.0
    refl *= sign / FOUR_PI
    out += refl
    if spec.kind == KIND_NEUMANN:
        c = _center_cosine(spec.cap, eta)
        zeta_dot = (spec.cap.center @ f.T - c * radial) / (1.0 + c)
        coef = (1.0 - spec.cap.radius) / (2.0 * np.pi * spec.cap.radius)
        out += coef * zeta_dot[None, :]
    return out
