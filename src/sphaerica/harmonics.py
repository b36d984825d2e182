"""Real spherical harmonics and inner harmonics on spherical caps.

The spherical harmonics are real, fully normalized (unit L2 norm over the
sphere), and free of the Condon-Shortley phase. Degrees are capped at 128;
the three-term recurrences used here are stable in that range. Inner
harmonics on a cap are pullbacks of planar disc harmonics through the
stereographic chart of the cap center.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    AntipodeError,
    SphericalCap,
    on_points,
    rotation_to_pole,
    stereographic_project,
    unit_vector,
)

MAX_DEGREE = 128
_ANTIPODE_TOL = 1e-14


@dataclass(frozen=True)
class ShCoefficients:
    """Dense real spherical-harmonic coefficients c[n, j-1], 1 <= j <= 2n+1.

    Order index j maps to azimuthal order m = j - 1 - n. Entries outside the
    triangular region are zero. seed records the generator seed when the
    coefficients are synthetic.
    """

    l_max: int
    coeffs: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        if not 0 <= self.l_max <= MAX_DEGREE:
            raise ValueError(f"degree must lie in [0, {MAX_DEGREE}]")
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.l_max + 1, 2 * self.l_max + 1):
            raise ValueError("coefficient array must have shape (L+1, 2L+1)")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)
        c.setflags(write=False)


def scale_degrees(c: ShCoefficients, factor) -> ShCoefficients:
    """Multiply the degree-n coefficients by factor(n), n as a float array."""
    degrees = np.arange(c.l_max + 1, dtype=float)
    return ShCoefficients(c.l_max, c.coeffs * factor(degrees)[:, None], seed=c.seed)


def coefficients_from_entries(l_max: int, entries: dict) -> ShCoefficients:
    """Build ShCoefficients from a {(n, j): value} mapping."""
    c = np.zeros((l_max + 1, 2 * l_max + 1))
    for (n, j), v in entries.items():
        if not (0 <= n <= l_max and 1 <= j <= 2 * n + 1):
            raise ValueError(f"index (n={n}, j={j}) out of range")
        c[n, j - 1] = v
    return ShCoefficients(l_max, c)


def synth_field(
    seed: int, n_min: int, n_max: int, decay_exponent: float = 2.0
) -> ShCoefficients:
    """Seeded random coefficients, uniform in [-1, 1] scaled by (n+1)^-decay.

    Degrees below n_min are zeroed. The draw order is fixed, so identical
    seeds give identical coefficients.
    """
    if not 0 <= n_min <= n_max:
        raise ValueError("need 0 <= n_min <= n_max")
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, size=(n_max + 1, 2 * n_max + 1))
    for n in range(n_max + 1):
        c[n, 2 * n + 1 :] = 0.0
        c[n, : 2 * n + 1] *= (n + 1.0) ** (-decay_exponent)
    c[:n_min, :] = 0.0
    return ShCoefficients(n_max, c, seed=seed)


def _trig_orders(phi: np.ndarray, l_max: int):
    """cos(m phi), sin(m phi) for m = 0..l_max, shapes (L+1, N)."""
    n_pts = phi.shape[0]
    cos_m = np.empty((l_max + 1, n_pts))
    sin_m = np.empty((l_max + 1, n_pts))
    cos_m[0] = 1.0
    sin_m[0] = 0.0
    if l_max >= 1:
        cos_m[1] = np.cos(phi)
        sin_m[1] = np.sin(phi)
    for m in range(2, l_max + 1):
        cos_m[m] = cos_m[m - 1] * cos_m[1] - sin_m[m - 1] * sin_m[1]
        sin_m[m] = sin_m[m - 1] * cos_m[1] + cos_m[m - 1] * sin_m[1]
    return cos_m, sin_m


def _sh_accumulate(c: ShCoefficients, points: np.ndarray, want_grad: bool):
    """Shared evaluation core; returns (values, gradients or None).

    Recurses the fully normalized associated Legendre functions over n for
    each order m and accumulates coefficient-weighted contributions. The
    gradient path uses d/dtheta via the degree-lowering relation and the
    m/sin(theta) azimuthal factor; it degrades within ~1e-8 of the poles.
    """
    L = c.l_max
    z = np.clip(points[:, 2], -1.0, 1.0)
    sin_t = np.sqrt(np.clip(1.0 - z * z, 1e-30, None))
    phi = np.arctan2(points[:, 1], points[:, 0])
    cos_m, sin_m = _trig_orders(phi, L)

    values = np.zeros(points.shape[0])
    grads = np.zeros_like(points) if want_grad else None
    if want_grad:
        cos_p = points[:, 0] / sin_t
        sin_p = points[:, 1] / sin_t
        theta_hat = np.stack([z * cos_p, z * sin_p, -sin_t], axis=1)
        phi_hat = np.stack([-sin_p, cos_p, np.zeros_like(z)], axis=1)

    inv_sqrt4pi = 0.5 / np.sqrt(np.pi)
    pmm = np.full(points.shape[0], inv_sqrt4pi)
    sqrt2 = np.sqrt(2.0)
    for m in range(L + 1):
        if m > 0:
            pmm = pmm * sin_t * np.sqrt((2 * m + 1.0) / (2 * m))
        p_prev = np.zeros_like(pmm)  # P(n-1, m)
        p_curr = pmm
        for n in range(m, L + 1):
            cc = c.coeffs[n, n + m] if m <= n else 0.0
            cs = c.coeffs[n, n - m] if m > 0 else 0.0
            azim = sqrt2 if m > 0 else 1.0
            combo = cc * cos_m[m] + cs * sin_m[m]
            if cc != 0.0 or cs != 0.0:
                values += azim * p_curr * combo
                if want_grad:
                    e = (
                        np.sqrt((2 * n + 1.0) * (n * n - m * m) / (2 * n - 1.0))
                        if n > m
                        else 0.0
                    )
                    dp_dtheta = (n * z * p_curr - e * p_prev) / sin_t
                    grads += (azim * dp_dtheta * combo)[:, None] * theta_hat
                    if m > 0:
                        dcombo = m * (cs * cos_m[m] - cc * sin_m[m])
                        grads += (azim * p_curr / sin_t * dcombo)[:, None] * phi_hat
            if n < L:
                alpha = np.sqrt(
                    (4.0 * (n + 1) ** 2 - 1.0) / ((n + 1) ** 2 - m * m)
                )
                beta = (
                    np.sqrt(
                        (2.0 * n + 3.0)
                        * (n - m)
                        * (n + m)
                        / ((2.0 * n - 1.0) * ((n + 1) ** 2 - m * m))
                    )
                    if n > m
                    else 0.0
                )
                p_next = alpha * z * p_curr - beta * p_prev
                p_prev, p_curr = p_curr, p_next
    return values, grads


def sh_eval(c: ShCoefficients, xi) -> float | np.ndarray:
    """Evaluate sum of c[n, j] Y_{n, j} at xi ((3,) or (N, 3))."""
    return on_points(xi, lambda pts: _sh_accumulate(c, pts, want_grad=False)[0])


def sh_grad_eval(c: ShCoefficients, xi) -> np.ndarray:
    """Tangential surface gradient of the expansion at xi ((3,) or (N, 3))."""
    return on_points(xi, lambda pts: _sh_accumulate(c, pts, want_grad=True)[1])


def sh_curl_eval(c: ShCoefficients, xi) -> np.ndarray:
    """Surface curl gradient xi x grad of the expansion."""
    xi = np.asarray(xi, dtype=float)
    return np.cross(xi, sh_grad_eval(c, xi))


@dataclass(frozen=True)
class InnerHarmonicIndex:
    """Degree/order index of an inner harmonic on a cap.

    order k = 1 selects the cosine branch, k = 2 the sine branch (k = 2
    requires degree >= 1).
    """

    cap: SphericalCap
    degree: int
    order: int

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if self.order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        if self.order == 2 and self.degree < 1:
            raise ValueError("order 2 requires degree >= 1")


def _inner_radius(cap: SphericalCap) -> float:
    # chart radius (rho (2 - rho))^(1/4) of the planar disc harmonics
    return (cap.radius * (2.0 - cap.radius)) ** 0.25


def inner_harmonic_eval(idx: InnerHarmonicIndex, xi) -> float | np.ndarray:
    """Inner harmonic of the cap at xi: the planar disc harmonic of the
    stereographic image."""
    R = _inner_radius(idx.cap)

    def evaluate(pts):
        p = stereographic_project(idx.cap.center, pts)
        wn = ((p[:, 0] + 1j * p[:, 1]) / R) ** idx.degree
        part = wn.real if idx.order == 1 else wn.imag
        return part / (R * np.sqrt(np.pi))

    return on_points(xi, evaluate)


def inner_harmonic_grad(idx: InnerHarmonicIndex, xi) -> np.ndarray:
    """Tangential surface gradient of an inner harmonic."""
    return on_points(xi, lambda pts: _inner_harmonic_grad(idx, pts))


def _inner_harmonic_grad(idx: InnerHarmonicIndex, pts: np.ndarray) -> np.ndarray:
    zeta = idx.cap.center
    frame = rotation_to_pole(zeta)
    a1, a2 = frame[:, 0], frame[:, 1]
    n = idx.degree
    R = _inner_radius(idx.cap)

    denom = 1.0 + pts @ zeta
    if np.any(denom < _ANTIPODE_TOL):
        raise AntipodeError("inner harmonic gradient at the antipode of the cap")
    p1 = 2.0 * (pts @ a1) / denom
    p2 = 2.0 * (pts @ a2) / denom
    w = (p1 + 1j * p2) / R
    dw = n * w ** max(n - 1, 0) / R if n > 0 else np.zeros_like(w)
    # planar gradient: for Re(w^n) it is (Re dw, -Im dw), for Im(w^n)
    # (Im dw, Re dw), with dw = n w^(n-1) / R
    if idx.order == 1:
        gp1, gp2 = dw.real, -dw.imag
    else:
        gp1, gp2 = dw.imag, dw.real
    gp1 = gp1 / (R * np.sqrt(np.pi))
    gp2 = gp2 / (R * np.sqrt(np.pi))

    # tangential gradients of the chart components
    proj_a1 = a1[None, :] - (pts @ a1)[:, None] * pts
    proj_a2 = a2[None, :] - (pts @ a2)[:, None] * pts
    proj_zeta = zeta[None, :] - (pts @ zeta)[:, None] * pts
    grad_p1 = 2.0 * proj_a1 / denom[:, None] - (p1 / denom)[:, None] * proj_zeta
    grad_p2 = 2.0 * proj_a2 / denom[:, None] - (p2 / denom)[:, None] * proj_zeta
    return gp1[:, None] * grad_p1 + gp2[:, None] * grad_p2


def log_series(xi, eta, zeta, rho: float, n_terms: int) -> float:
    """Partial sum of the separable expansion of ln(1 - xi . eta).

    The expansion splits the log kernel into three boundary-free logs plus a
    series of products of inner harmonics of the cap (rho, zeta) at xi and of
    the complementary cap (2 - rho, -zeta) at eta. It converges when the
    stereographic image of xi is closer to the chart origin than that of eta;
    successive terms shrink geometrically with ratio |p(xi)| / |p(eta)|.

    The series is evaluated with the mirror-compatible chart on the eta side
    (delivered by rotation_to_pole(-zeta)), which makes the sine products
    enter with a minus sign, and each term carries the chart scale factor
    (s/4)^n with s = sqrt(rho (2 - rho)). Both adjustments are required for
    the partial sums to converge to ln(1 - xi . eta).
    """
    xi = unit_vector(np.asarray(xi, dtype=float))
    eta = unit_vector(np.asarray(eta, dtype=float))
    zeta = unit_vector(np.asarray(zeta, dtype=float))
    p_xi = stereographic_project(zeta, xi)
    p_eta = stereographic_project(zeta, eta)
    if not np.linalg.norm(p_xi) < np.linalg.norm(p_eta):
        raise ValueError("series requires |p(xi)| < |p(eta)| in the zeta chart")
    cap_xi = SphericalCap(zeta, rho)
    cap_eta = cap_xi.complement
    s = cap_xi.boundary_sine
    total = (
        -np.log(2.0)
        + np.log(1.0 + float(xi @ zeta))
        + np.log(1.0 - float(eta @ zeta))
    )
    scale = s / 4.0
    factor = 1.0
    acc = 0.0
    for n in range(1, n_terms + 1):
        factor *= scale
        h1x = inner_harmonic_eval(InnerHarmonicIndex(cap_xi, n, 1), xi)
        h2x = inner_harmonic_eval(InnerHarmonicIndex(cap_xi, n, 2), xi)
        h1e = inner_harmonic_eval(InnerHarmonicIndex(cap_eta, n, 1), eta)
        h2e = inner_harmonic_eval(InnerHarmonicIndex(cap_eta, n, 2), eta)
        acc += (2.0 / n) * factor * (h1x * h1e - h2x * h2e)
    return total - s * np.pi * acc
