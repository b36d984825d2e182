"""Real spherical harmonics, their transforms on sphere grids, and inner
harmonics on spherical caps.

The spherical harmonics are real, fully normalized (unit L2 norm over the
sphere), and free of the Condon-Shortley phase. Degrees are capped at 128;
the three-term recurrences used here are stable in that range. On a
Gauss-Legendre x uniform sphere grid, sh_analyze and sh_synthesize are
exact spherical-harmonic transforms below the grid's band (Driscoll &
Healy, Adv. Appl. Math. 15, 1994; Swarztrauber & Spotz, J. Comput. Phys.
159, 2000): every global operator of the package is diagonal in this
basis. Inner harmonics on a cap are pullbacks of planar disc harmonics
through the stereographic chart of the cap center.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    SphericalCap,
    on_points,
    rotation_to_pole,
    stereographic_project,
    unit_vector,
)
from .quadrature import KIND_SPHERE

MAX_DEGREE = 128


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


def _recurrence(L: int):
    """Constants of the Qbar recurrences to degree L: Qbar_mm (m = 0..L),
    the constant that starts order m, and (L, L + 1) tables alpha, beta of
    Qbar_{n+1,m} = alpha[n, m] z Qbar_nm - beta[n, m] Qbar_{n-1,m}, zero
    where n < m. The per-order loop of _sh_accumulate and the per-degree
    pass of the transforms (_degree_rows) both take them from here."""
    k = np.arange(1, L + 1)
    qmm = np.cumprod(np.append(0.5 / np.sqrt(np.pi), np.sqrt((2 * k + 1.0) / (2 * k))))
    n, m = np.nonzero(np.tri(L, L + 1, dtype=bool))
    hi2 = (n + 1.0) ** 2 - m * m
    alpha, beta = np.zeros((2, L, L + 1))
    alpha[n, m] = np.sqrt((4.0 * (n + 1.0) ** 2 - 1.0) / hi2)
    beta[n, m] = np.sqrt((2.0 * n + 3.0) * (n - m) * (n + m) / ((2.0 * n - 1.0) * hi2))
    return qmm, alpha, beta


def _sh_accumulate(c: ShCoefficients, points: np.ndarray, want_grad: bool):
    """Shared evaluation core; returns (values, gradients or None).

    With w = x + i y = sin(theta) e^(i phi), the expansion is
    Re sum_m D_m(z) w^m, where D_m = sum_n c_nm Qbar_nm(z): c_n0 the zonal
    coefficients, sqrt(2) (a_nm - i b_nm) for the cosine and sine
    coefficients of order m >= 1, and Qbar_nm = Pbar_nm / sin^m(theta) a
    polynomial in z. Qbar_nm obeys the three-term recurrence of Pbar_nm in
    n, so it is recurred once per distinct z, one order m at a time into
    one (L+1, n_z) buffer, and reduced by one small matrix product with the
    order's coefficient rows. The nodes of a ring grid share their ring's z,
    so the recurrences cost O(L^2) per ring rather than per node. Each point
    then sums over m by Horner's rule in w, O(L) per point.

    The gradient is the tangential projection of the Cartesian gradient
    (Re H1, -Im H1, Re H2) of Re sum_m D_m(z) (x + i y)^m, with
    H1 = sum_m m D_m w^(m-1) and H2 = sum_m D'_m w^m. Since
    dQbar_nm/dz = sqrt((n - m)(n + m + 1)) Qbar_n,m+1, D'_m is a product
    with the order m + 1 buffer: no derivative recurrence, no division by
    sin(theta) and no pole branch, so the gradient keeps full accuracy up
    to the poles, where w = 0 leaves the m = 1 terms.
    """
    L = c.l_max
    z, zi = np.unique(np.clip(points[:, 2], -1.0, 1.0), return_inverse=True)
    buf = np.empty((L + 1, z.shape[0]))
    tmp = np.empty(z.shape[0])
    # D_m and, for the gradient, D'_m at the distinct z
    d = np.empty((L + 1, z.shape[0]), dtype=complex)
    d_z = np.zeros((L + 1, z.shape[0]), dtype=complex) if want_grad else None
    qmm, alpha, beta = _recurrence(L)
    for m in range(L + 1):
        q = buf[m:]
        q[0] = qmm[m]
        n = np.arange(m, L + 1.0)
        # Q_{n+1} = alpha z Q_n - beta Q_{n-1}, in place in the buffer
        steps = zip(alpha[m:, m].tolist(), beta[m:, m].tolist())
        for i, (a, b) in enumerate(steps, start=1):
            np.multiply(z, a, out=q[i])
            q[i] *= q[i - 1]
            if i > 1:
                q[i] -= np.multiply(q[i - 2], b, out=tmp)
        d[m] = _order_sum(c, m, n, q)
        if want_grad and m > 0:
            d_z[m - 1] = _order_sum(c, m - 1, n, q, np.sqrt((n - m + 1.0) * (n + m)))
    w = points[:, 0] + 1j * points[:, 1]
    term = np.empty(points.shape[0], dtype=complex)

    def horner(rows: np.ndarray) -> np.ndarray:
        # sum_k rows[k](z) w^k at every point
        acc = np.zeros(points.shape[0], dtype=complex)
        for row in rows[::-1]:
            acc *= w
            acc += np.take(row, zi, out=term)
        return acc

    values = horner(d).real
    if not want_grad:
        return values, None
    h1 = horner(np.arange(1, L + 1)[:, None] * d[1:])
    h2 = horner(d_z)
    grad = np.stack([h1.real, -h1.imag, h2.real], axis=1)
    grad -= np.sum(grad * points, axis=1)[:, None] * points
    return values, grad


def _order_sum(c: ShCoefficients, m: int, n: np.ndarray, q: np.ndarray, factor=1.0):
    """sum_n c_nm factor_n q_n over the degrees n, with q the Qbar rows of
    those degrees (at order m for D_m, at order m + 1 for D'_m): real for
    m = 0, and for m >= 1 complex, sqrt(2) (a_nm - i b_nm) weighted."""
    rows = n.astype(int)
    cc = c.coeffs[rows, rows + m] * factor
    if m == 0:
        return cc @ q
    cs = c.coeffs[rows, rows - m] * factor
    r = (np.sqrt(2.0) * np.stack([cc, -cs])) @ q
    return r[0] + 1j * r[1]


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


def _degree_rows(z: np.ndarray, L: int):
    """Yield (n, q) for n = 0..L, q[m] = Qbar_nm(z) for m = 0..L + 1 (zero
    for m > n): each step advances every order at once, in two reused
    buffers, so no (n_z, L + 1, L + 1) table is held."""
    qmm, alpha, beta = _recurrence(L)
    q, prev = np.zeros((2, L + 2, z.shape[0]))
    q[0] = qmm[0]
    for n in range(L + 1):
        yield n, q
        if n < L:
            a, b = alpha[n, : n + 1, None], beta[n, : n + 1, None]
            prev[: n + 1] = a * z * q[: n + 1] - b * prev[: n + 1]
            q, prev = prev, q
            q[n + 1] = qmm[n + 1]


def _rings(grid):
    """(z, sin theta, weight) per ring of a sphere grid, whose first node is
    (sin theta, 0, z)."""
    if grid.kind != KIND_SPHERE:
        raise ValueError("the transform needs a sphere grid")
    first = grid.nodes[:: grid.shape[1]]
    return first[:, 2], first[:, 0], grid.weights[:: grid.shape[1]]


def sh_analyze(samples):
    """Coefficients of samples on a sphere grid to the band
    L = min(n_t - 1, (n_phi - 1) // 2, MAX_DEGREE), exact for data of
    degree at most L; a grid with n_t > 129 and n_phi > 257 is analysed to
    degree 128 only, as Qbar is stable to there.

    Scalar samples give ShCoefficients, vector samples f give (F1, F2, F3)
    with f = xi F1 + grad F2 + xi x grad F3, F2 and F3 of zero mean, from
    integral f . grad Y = n (n + 1) F2_n and f . (xi x grad Y) =
    (f x xi) . grad Y. For Y = Re Qbar_nm w^m, w = x + i y, and tangential
    f, f . grad Y = Re[m Qbar_nm w^(m-1) (f_x + i f_y) + Qbar'_nm w^m f_z]:
    the gradient identity of _sh_accumulate. One rFFT per ring gives the
    longitude sums, one pass over the degrees the latitude sums.
    """
    grid = samples.grid
    z, s, w = _rings(grid)
    n_t, n_phi = grid.shape
    L = min(n_t - 1, (n_phi - 1) // 2, MAX_DEGREE)
    m = np.arange(L + 1)
    s_m = s ** m[:, None]

    def spectrum(v):  # w_k conj(sum_j v_kj e^(-i m phi_j)), [m, ring k]
        return np.fft.rfft(v.reshape(n_t, n_phi), axis=1)[:, : L + 1].T.conj() * w

    v = samples.values
    # [m, k, slot, scalar]: the weights of Qbar_nm (slot 0), Qbar'_n,m-1 (1)
    terms = np.zeros((L + 2, n_t, 2, 1 if v.ndim == 1 else 3), complex)
    radial = v if v.ndim == 1 else np.sum(v * grid.nodes, axis=1)
    terms[:-1, :, 0, 0] = s_m * spectrum(radial)
    if v.ndim == 1:
        return _analysis_pass(z, L, terms)[0]
    for j, f in ((1, v - radial[:, None] * grid.nodes), (2, np.cross(v, grid.nodes))):
        fx, fy, fz = (spectrum(f[:, i]) for i in range(3))
        terms[1:-1, :, 0, j] = m[1:, None] * s_m[:-1] * (fx[:-1] + 1j * fy[:-1])
        terms[1:, :, 1, j] = s_m * fz
    f1, f2, f3 = _analysis_pass(z, L, terms)
    return f1, scale_degrees(f2, _inverse_degree), scale_degrees(f3, _inverse_degree)


def _inverse_degree(n):
    """1 / (n (n + 1)), 0 at n = 0: minus the inverse surface Laplacian."""
    return np.where(n > 0, 1.0 / np.maximum(n * (n + 1.0), 1.0), 0.0)


def _analysis_pass(z, L, terms) -> list:
    """ShCoefficients of each scalar j of the (L + 2, n_z, 2, J) terms t,
    from a_nm = sum_k Qbar_nm(z_k) t[m, k, 0, j] + sqrt((n - m)(n + m + 1))
    sum_k Qbar_n,m+1(z_k) t[m + 1, k, 1, j]: Re a_n0, and sqrt(2) (Re, Im)
    a_nm for m >= 1. Per degree, one batched product of every row against
    both slots, as real pairs."""
    J = terms.shape[-1]
    flat = terms.view(float).reshape(L + 2, z.shape[0], 4 * J)
    sums = np.zeros((L + 1, L + 2, 1, 4 * J))
    for n, q in _degree_rows(z, L):
        np.matmul(q[: n + 2, None], flat[: n + 2], out=sums[n, : n + 2])
    sums = sums.view(complex).reshape(L + 1, L + 2, 2, J)
    n, m = np.nonzero(np.tri(L + 1, dtype=bool))
    a = sums[n, m, 0] + np.sqrt((n - m) * (n + m + 1.0))[:, None] * sums[n, m + 1, 1]
    a[m > 0] *= np.sqrt(2.0)
    c = np.zeros((J, L + 1, 2 * L + 1))
    c[:, n, n - m] = a.imag.T
    c[:, n, n + m] = a.real.T
    return [ShCoefficients(L, cj) for cj in c]


def sh_synthesize(grid, *coeffs: ShCoefficients) -> np.ndarray:
    """Values at the nodes of a sphere grid, one row per coefficient set of
    degree at most (n_phi - 1) // 2: D_m = sum_n c_nm Qbar_nm
    (_sh_accumulate) at the ring latitudes from one pass over the degrees,
    then Re sum_m D_m sin^m(theta) e^(i m phi) by one inverse rFFT per ring.
    """
    z, s, _ = _rings(grid)
    n_t, n_phi = grid.shape
    L = max(c.l_max for c in coeffs)
    if L > (n_phi - 1) // 2:
        raise ValueError(f"{n_phi} longitudes need degree <= {(n_phi - 1) // 2}")
    # [n, part, set, m]: c_n0, and (a_nm, -b_nm) / sqrt(2) for m >= 1, half
    # the weights of D_m, as the inverse rFFT adds each term's conjugate
    rows = np.zeros((L + 1, 2, len(coeffs), L + 1))
    for j, c in enumerate(coeffs):
        n, m = np.nonzero(np.tri(c.l_max + 1, dtype=bool))
        rows[n, 0, j, m] = c.coeffs[n, n + m]
        rows[n, 1, j, m] = -c.coeffs[n, n - m] * (m > 0)
    rows[..., 1:] *= np.sqrt(0.5)
    d = np.zeros((2, len(coeffs), L + 1, n_t))
    for n, q in _degree_rows(z, L):
        d[:, :, : n + 1] += rows[n, :, :, : n + 1, None] * q[: n + 1]
    spectra = np.zeros((len(coeffs), n_t, n_phi // 2 + 1), complex)
    d = (d[0] + 1j * d[1]) * s ** np.arange(L + 1)[:, None]
    spectra[..., : L + 1] = np.swapaxes(d, 1, 2)
    return np.fft.irfft(spectra, n_phi, axis=2, norm="forward").reshape(len(coeffs), -1)


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

    p1, p2 = stereographic_project(zeta, pts).T
    denom = 1.0 + pts @ zeta
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
