"""Real spherical harmonics, their transforms on sphere grids, and the
chart series of spherical caps, inner harmonics among them.

The spherical harmonics are real, fully normalized (unit L2 norm over the
sphere), and free of the Condon-Shortley phase. Degrees are capped at 128;
the recurrence is stable in that range. Every evaluation takes Qbar_nm from
one pass over the degrees, each step advancing every order at a set of
distinct z (_degree_rows; Reinecke & Seljebotn, A&A 554, A112, 2013). On
a Gauss-Legendre x uniform sphere grid, sh_analyze and sh_synthesize are
exact spherical-harmonic transforms below the grid's band (Driscoll &
Healy, Adv. Appl. Math. 15, 1994; Swarztrauber & Spotz, J. Comput. Phys.
159, 2000): every global operator of the package is diagonal in this
basis. The closed-form harmonic functions of a cap are one chart series
Re sum c_k w^k (_rim_series), w the cap's stereographic chart with the rim
at |w| = 1: the cap solvers, layer potentials and cap split, the inner
harmonics and their gradients (one-term series), the log-kernel series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    SphericalCap,
    _chart_products,
    on_points,
    stereographic_project,
    unit_vector,
)
from ._convolution import _chunk_blocks
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


def _recurrence():
    """Qbar_mm and the (128, 129, 1) tables of the recurrence Qbar_{n+1,m} =
    alpha[n, m] z Qbar_nm - beta[n, m] Qbar_{n-1,m}, zero where n < m."""
    k = np.arange(1, MAX_DEGREE + 1)
    qmm = np.cumprod(np.append(0.5 / np.sqrt(np.pi), np.sqrt((2 * k + 1.0) / (2 * k))))
    n, m = np.nonzero(np.tri(MAX_DEGREE, MAX_DEGREE + 1, dtype=bool))
    hi2 = (n + 1.0) ** 2 - m * m
    alpha, beta = np.zeros((2, MAX_DEGREE, MAX_DEGREE + 1, 1))
    alpha[n, m, 0] = np.sqrt((4.0 * (n + 1.0) ** 2 - 1.0) / hi2)
    beta[n, m, 0] = np.sqrt((2.0 * n + 3.0) * (n - m) * (n + m) / ((2.0 * n - 1.0) * hi2))
    return qmm, alpha, beta


_QMM, _ALPHA, _BETA = _recurrence()


def _degree_rows(z: np.ndarray, L: int, work: np.ndarray):
    """Yield (n, q) for n = 0..L, q[m] = Qbar_nm(z) for m = 0..L + 1 (zero
    for m > n), the module's one Legendre recurrence: each step advances
    every order at once, in place in the (3, L + 2, n_z) buffers work."""
    q, prev, tmp = work
    q[:], prev[:] = 0.0, 0.0
    q[0] = _QMM[0]
    for n in range(L + 1):
        yield n, q
        if n < L:  # prev = alpha z q - beta prev over the orders 0..n
            step = np.multiply(_ALPHA[n, : n + 1], z, out=tmp[: n + 1])
            step *= q[: n + 1]
            prev[: n + 1] *= _BETA[n, : n + 1]
            np.subtract(step, prev[: n + 1], out=prev[: n + 1])
            q, prev = prev, q
            q[n + 1] = _QMM[n + 1]


def _order_sums(coeffs, z: np.ndarray, grad: bool):
    """Yield (i0, i1, d) per chunk of the latitudes z: d[j] = D_m(z[i0:i1])
    = sum_n w_nm Qbar_nm [m, z] for coefficient set j, w_n0 = c_n0 and
    w_nm = sqrt(2) (a_nm - i b_nm), so that the set's expansion is
    Re sum_m D_m w^m; with grad, d[1, m + 1] holds D'_m = dD_m/dz =
    sum_n w_nm sqrt((n - m)(n + m + 1)) Qbar_n,m+1. Each chunk (of
    _chunk_blocks, in reused buffers) adds each degree's products in place;
    each z is summed alone, so the chunk boundaries change no value."""
    L = max(c.l_max for c in coeffs)
    weights = np.zeros((L + 1, 2, len(coeffs) + grad, L + 1))
    for j, c in enumerate(coeffs):
        n, m = np.nonzero(np.tri(c.l_max + 1, dtype=bool))
        weights[n, 0, j, m] = c.coeffs[n, n + m]
        weights[n, 1, j, m] = -c.coeffs[n, n - m] * (m > 0)
    weights[..., 1:] *= np.sqrt(2.0)
    if grad:
        n, m = np.ogrid[: L + 1, :L]
        slope = np.sqrt((n - m).clip(0) * (n + m + 1.0))[:, None]
        weights[..., 1, 1:] = weights[..., 0, :-1] * slope
    size = weights[0].size
    layout = (3 * (L + 2), (), float), (2 * size, (), float), (size // 2, (), complex)
    for i0, i1, (work, sums, d) in _chunk_blocks(z.size, *layout):
        parts, product = sums.reshape(2, *weights.shape[1:], i1 - i0)
        parts[:] = 0.0
        for n, q in _degree_rows(z[i0:i1], L, work.reshape(3, L + 2, -1)):
            np.multiply(weights[n, ..., : n + 1, None], q[: n + 1], out=product[..., : n + 1, :])
            parts[..., : n + 1, :] += product[..., : n + 1, :]
        d = d.reshape(-1, L + 1, i1 - i0)
        d.real, d.imag = parts
        yield i0, i1, d


def _sh_accumulate(c: ShCoefficients, points: np.ndarray, want_grad: bool):
    """Shared evaluation core; returns (values, gradients or None).

    With w = x + i y = sin(theta) e^(i phi), the expansion is
    Re sum_m D_m(z) w^m, D_m from _order_sums once per distinct z, in chunks
    of them: a ring grid's nodes share their ring's z and fit in one chunk,
    and a tilted grid, whose nodes mostly have their own z, holds no
    (L + 1, N) block. Each point sums over m by Horner's rule in w. The
    gradient is the tangential projection of the Cartesian gradient
    (Re H1, -Im H1, Re H2) of Re sum_m D_m(z) (x + i y)^m: H2 =
    sum_m D'_m w^m with D'_m = dD_m/dz, and H1 = sum_m m D_m w^(m-1) =
    sum_k>0 b_k w^(k-1) over the partial sums b_k of the values' Horner
    pass. No term divides by sin(theta): full accuracy up to the poles.
    """
    L = c.l_max
    z, zi = np.unique(np.clip(points[:, 2], -1.0, 1.0), return_inverse=True)
    w = points[:, 0] + 1j * points[:, 1]
    # [sum, point]: the values' sum, H2 and H1
    sums = np.empty((3 if want_grad else 1, points.shape[0]), complex)
    h = min(len(sums), 2)  # the Horner rows: d[0, k] = D_k, d[1, k] = D'_k-1
    for i0, i1, d in _order_sums([c], z, want_grad):
        if i1 - i0 == z.size:  # one chunk holds every point: sum in place
            at, zl, wa, acc = None, zi, w, sums
        else:  # the points whose z lie in the chunk
            at = np.flatnonzero((zi >= i0) & (zi < i1))
            zl, wa = zi[at] - i0, w[at]
            acc = np.empty((len(sums), at.size), complex)
        np.take(d[:, L], zl, axis=1, out=acc[:h], mode="clip")
        acc[h:] = 0.0
        term = np.empty_like(acc[:h])
        for k in range(L - 1, -1, -1):
            if want_grad:
                acc[2] *= wa
                acc[2] += acc[0]
            r = h if k else 1  # H2 = sum_k>0 d[1, k] w^(k-1) stops at k = 1
            acc[:r] *= wa
            acc[:r] += np.take(d[:r, k], zl, axis=1, out=term[:r], mode="clip")
        if at is not None:
            for total, part in zip(sums, acc):
                total[at] = part
    d = term = None  # the chunk buffers go before the (N, 3) temporaries
    values = sums[0].real.copy()  # not a view that keeps H1 and H2 alive
    if not want_grad:
        return values, None
    grad = np.stack([sums[2].real, -sums[2].imag, sums[1].real], axis=1)
    grad -= np.sum(grad * points, axis=1)[:, None] * points
    return values, grad


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
    for n, q in _degree_rows(z, L, np.empty((3, L + 2, z.shape[0]))):
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
    degree at most (n_phi - 1) // 2: D_m(z) of _order_sums at the ring
    latitudes, as sh_eval at its points' z, then Re sum_m D_m sin^m(theta)
    e^(i m phi) by one inverse rFFT per ring."""
    return _synthesize_rings(grid, coeffs).reshape(len(coeffs), -1)


def _synthesize_rings(grid, coeffs, rings=slice(None)) -> np.ndarray:
    """sh_synthesize on the rings `rings` of the grid (all by default), as
    (sets, rings, n_phi): each ring's latitude is summed alone, so a ring
    gets the bits it has in the whole grid."""
    z, s, _ = _rings(grid)
    z, s = z[rings], s[rings]
    n_phi = grid.shape[1]
    L = max(c.l_max for c in coeffs)
    if L > (n_phi - 1) // 2:
        raise ValueError(f"{n_phi} longitudes need degree <= {(n_phi - 1) // 2}")
    spectra = np.zeros((len(coeffs), len(z), n_phi // 2 + 1), complex)
    s_m = s ** np.arange(L + 1)[:, None]
    for i0, i1, d in _order_sums(coeffs, z, False):
        d[:, 1:] *= 0.5  # the inverse rFFT adds each term's conjugate
        spectra[:, i0:i1, : L + 1] = np.swapaxes(d * s_m[:, i0:i1], 1, 2)
    return np.fft.irfft(spectra, n_phi, axis=2, norm="forward")


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


def _rim_radius(cap: SphericalCap) -> float:
    """R_b = 2 sqrt(rho/(2 - rho)), the rim's radius in the cap's chart."""
    return 2.0 * np.sqrt(cap.radius / (2.0 - cap.radius))


def _rim_coefficients(values: np.ndarray) -> np.ndarray:
    """c_k with sum_k Re(c_k e^{ik phi}) the trigonometric interpolant of m
    equispaced rim values: rfft / m, the terms 0 < k < m/2 doubled (an even
    m's Nyquist term is not). Trailing c_k at most eps max |c| are dropped:
    past the data's bandwidth they are rounding noise, and each kept term
    costs _rim_series a pass over the targets."""
    c = np.fft.rfft(values) / len(values)
    c[1 : (len(values) + 1) // 2] *= 2.0
    kept = np.flatnonzero(np.abs(c) > np.finfo(float).eps * np.abs(c).max())
    return c[: kept[-1] + 1 if kept.size else 1]


def _times_w(re, im, u, v, out, tmp):
    """(re + i im)(u + i v) into (out, im), and re, now free, in real
    arithmetic: numpy's complex product rounds a vector's body and tail apart."""
    np.multiply(re, u, out=out)
    np.multiply(im, v, out=tmp)
    out -= tmp
    np.multiply(re, v, out=tmp)
    im *= u
    im += tmp
    return out, im, re


def _rim_series(cap: SphericalCap, c: np.ndarray, pts: np.ndarray, grad: bool = False):
    """S = sum_k c_k w^k as a complex array, w = stereographic_project / R_b
    in complex form: Re S is the harmonic extension of the rim interpolant
    sum_k Re(c_k e^{ik phi}), Im S its harmonic conjugate (the chart is
    conformal, and rim node j of a boundary grid sits at exp(2 pi i j/m)).
    With grad, (S, the tangential gradient of Re S): Re S' grad u - Im S'
    grad v for w = u + i v, with S' = dS/dw from the same Horner loop and
    grad (u, v) = (2 (a1, a2)/R_b - (u, v) zeta)/(1 + xi . zeta) less its
    part along xi, from the chart's one product. No step mixes points, so a
    point gives the same bits alone as inside a stack.
    """
    rim = _rim_radius(cap)
    frame, proj, denom = _chart_products(cap.frame, cap.center, pts)
    u, v = (2.0 * proj[:, j] / denom / rim for j in (0, 1))
    n = len(pts)
    re, im = np.full(n, c[-1].real), np.full(n, c[-1].imag)
    t1, t2 = np.empty(n), np.empty(n)
    if grad:
        dre, dim = np.zeros(n), np.zeros(n)
    for ck in c[-2::-1]:
        if grad:  # S' by the same rule, from (re, im) before they advance
            dre, dim, t1 = _times_w(dre, dim, u, v, t1, t2)
            dre += re
            dim += im
        re, im, t1 = _times_w(re, im, u, v, t1, t2)
        re += ck.real
        im += ck.imag
    out = np.empty(n, complex)
    out.real, out.imag = re, im
    if not grad:
        return out
    # the ambient gradient k1 a1 + k2 a2 + k3 zeta, less its part along xi
    k1, k2 = dre / denom * (2.0 / rim), dim / denom * (-2.0 / rim)
    k3 = (dim * v - dre * u) / denom
    along = k1 * proj[:, 0] + k2 * proj[:, 1] + k3 * proj[:, 2]
    rows = zip(frame, pts.T)  # component j: (a1_j, a2_j, zeta_j) and xi_j
    return out, np.stack([k1 * a + k2 * b + k3 * z - along * x for (a, b, z), x in rows], 1)


def _inner_coefficients(idx: InnerHarmonicIndex) -> np.ndarray:
    """The one-term rim series c_n w^n of an inner harmonic, the disc
    harmonic (p/R)^n / (R sqrt(pi)) of p = R_b w, R = (rho (2 - rho))^(1/4):
    c_n = (R_b/R)^n / (R sqrt(pi)), times -i for order 2."""
    R = (idx.cap.radius * (2.0 - idx.cap.radius)) ** 0.25
    c = np.zeros(idx.degree + 1, complex)
    c[-1] = (1.0, -1j)[idx.order - 1] * (_rim_radius(idx.cap) / R) ** idx.degree
    c[-1] /= R * np.sqrt(np.pi)
    return c


def inner_harmonic_eval(idx: InnerHarmonicIndex, xi) -> float | np.ndarray:
    """Inner harmonic of the cap at xi: the planar disc harmonic of the
    stereographic image, as a one-term rim series."""
    return on_points(xi, lambda pts: _rim_series(idx.cap, _inner_coefficients(idx), pts).real)


def inner_harmonic_grad(idx: InnerHarmonicIndex, xi) -> np.ndarray:
    """Tangential surface gradient of an inner harmonic."""
    return on_points(xi, lambda pts: _rim_series(idx.cap, _inner_coefficients(idx), pts, True)[1])


def log_series(xi, eta, zeta, rho: float, n_terms: int) -> float:
    """Partial sum of the separable expansion of ln(1 - xi . eta), -ln 2 +
    ln(1 + xi . zeta) + ln(1 - eta . zeta) - 2 Re sum_{n <= n_terms} (p p'/4)^n
    / n, p = stereographic_project(zeta, xi) and p' the point of eta in the
    complement's chart (-zeta): the rim series of xi in the cap (zeta, rho)
    with c_n = (R_b p'/4)^n / n. It converges, with ratio |p p'|/4, when that
    is below 1; rho sets only the chart scale, not the partial sums."""
    xi, eta, zeta = (unit_vector(v) for v in (xi, eta, zeta))
    cap = SphericalCap(zeta, rho)
    p = complex(*stereographic_project(zeta, xi))
    q = complex(*stereographic_project(-zeta, eta))
    if not abs(p * q) < 4.0:
        raise ValueError("series requires |p(xi)| < |p(eta)| in the zeta chart")
    ratio = np.full(n_terms, q * _rim_radius(cap) / 4.0)
    c = np.concatenate([[0.0], np.cumprod(ratio) / np.arange(1, n_terms + 1)])
    total = -np.log(2.0) + np.log(1.0 + float(xi @ zeta)) + np.log(1.0 - float(eta @ zeta))
    return total - 2.0 * _rim_series(cap, c, xi[None])[0].real
