"""Gradient area operators of the cap kernels, one longitude mode at a time.

A cap grid is Gauss rings in t = xi . zeta times uniform longitudes about
the cap centre zeta, and the Neumann and Dirichlet cap kernels are
invariant under rotation about zeta, so their gradient area operators
-integral D_eta K(xi, eta) . g(eta) (g = f, or f x eta for the curl form)
are diagonal in the longitude modes of the field (Borges & Daripa, J.
Comput. Phys. 169, 2001; Young, Hao & Martinsson, J. Comput. Phys. 231,
2012). With s = tan(theta/2) the chart radius, R its value on the rim and
u_+- = g_theta +- i g_phi per ring and mode (one rFFT per ring), mode m of
the unregularized (J = infinity) operator is, for m >= 1,

  A_m(t) = -(1/2pi) int_{t' < t} (s/s')^m u_+ / sin' dt'
           + (1/2pi) int_{t' > t} (s'/s)^m u_- / sin' dt'
           + sigma (s/R)^m I_m,   I_m = (1/2pi) int (s'/R)^m u_- / sin' dt',

the direct log term, kinked at t' = t, then the reflected term, whose modes
(s s'/R^2)^m/m are smooth (sigma = +1 Neumann, -1 Dirichlet); mode 0 has
the kernels -1/(4pi s') and s'/(4pi), and the Neumann centre term adds to
its constant. Each kinked integral is cumulative: between two rings the
integrand is summed by Gauss-Legendre on sub-nodes, with the data's
polynomial part (u / sin^q, q = (m + 1) mod 2) taken from its Legendre
series on the rings, and carried to the next ring by the ratio (s/s')^m,
so each mode holds O(n_t) state and no moment matrix is built or cached.
At grid nodes the modes are summed by one inverse rFFT per ring; other
targets take each mode's barycentric interpolant in t (Berrut &
Trefethen, SIAM Rev. 46, 2004), divided by sin^(m mod 2) to a polynomial,
then the trigonometric series at their longitude, point by point.

The paper's scale J regularizes the direct term inside 1 - xi . eta <
delta = 2^-J. Its difference from the log kernel integrates, by parts,
against h = div g, and where the delta-disc about a target lies inside the
cap, T_J = T + (delta/4) h + (delta^2/48) Lap h + O(delta^3); h = Lap T
per mode. The series is used when delta n_b (n_b + 1) <= 1, n_b the
result's bandwidth (the highest degree of its modes' Legendre content);
elsewhere, at every target when the rule fails and at targets whose
delta-disc crosses the rim, only the direct term is summed with the
regularized kernel (_direct_term, a kernel sum of _convolution), and the
reflected and centre terms are the chart series sum_m sigma I_m w^m
(harmonics._rim_series, w = s e^(i phi)/R).
"""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np
from numpy.polynomial import legendre

from ._convolution import _term_sums
from .geometry import _chart_products, _stacked_product
from .harmonics import _rim_series
from .kernels import KIND_FUNDAMENTAL, KIND_NEUMANN, KernelSpec, grad_terms, log_gap

# Gauss-Legendre points per interval between two rings
_SUB_NODES = 12
# longitude modes below this fraction of the largest are rounding, and so
# are Legendre coefficients below _TRIM (the rings' division by sin theta
# and the transform leave about 1e-13): both are dropped
_TRIM_MODES = 1e-14
_TRIM = 1e-12
# the bandwidth counts Legendre coefficients above this fraction
_BAND = 1e-10
# the series is used when delta n_b (n_b + 1) is at most this
_SERIES_BOUND = 1.0


@lru_cache(maxsize=4)
def _gauss(n: int):
    x, w = legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _kept(a: np.ndarray, axis: int, tol: float = _TRIM) -> int:
    """How many leading entries along axis hold more than tol of the
    largest magnitude of a (at least one)."""
    mag = np.abs(a)
    peak = mag.max(initial=0.0)
    other = tuple(i for i in range(a.ndim) if i != axis)
    kept = np.flatnonzero(mag.max(axis=other) > tol * peak)
    return int(kept[-1]) + 1 if kept.size else 1


class _Rings:
    """The rings of a cap grid in x in [-1, 1], t = 1 - rho (1 - x)/2: their
    Gauss weights in x and barycentric weights, sin theta and s."""

    def __init__(self, grid):
        n_t, n_phi = grid.shape
        rho = grid.cap.radius
        self.rho, self.n_t, self.n_phi = rho, n_t, n_phi
        t = grid.nodes[::n_phi] @ grid.cap.center
        self.x = 1.0 - 2.0 * (1.0 - t) / rho
        self.w = grid.weights[::n_phi] * (n_phi / (np.pi * rho))
        self.lam = (-1.0) ** np.arange(n_t) * np.sqrt((1.0 - self.x**2) * self.w)
        self.sin, self.s = _sin_s(self.x, rho)
        self.rim = np.sqrt(rho / (2.0 - rho))  # R = tan(theta_rim / 2)
        self.vander = legendre.legvander(self.x, n_t - 1)

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        """Legendre coefficients (n_t, C) of the ring values (n_t, C): exact
        for polynomials of degree below n_t."""
        c = (self.vander * self.w[:, None]).T @ values
        return c * (np.arange(self.n_t) + 0.5)[:, None]


def _series(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_k c_k P_k(x) for coefficient columns c (K, C), shape (len(x), C)."""
    return legendre.legvander(x, len(c) - 1) @ c


def _sin_s(x: np.ndarray, rho: float):
    """(sin theta, s = tan(theta/2)) at x, from 1 - t and 1 + t."""
    below = 0.5 * rho * (1.0 - x)
    above = 2.0 - below
    sin = np.sqrt(below * above)
    return sin, sin / above


def _power(base: np.ndarray, m: np.ndarray) -> np.ndarray:
    """base ** m for each mode m, shape (len(m), *base.shape)."""
    return np.power(base[None], m.reshape(-1, *([1] * base.ndim)))


def _mode_spectra(grid, rings, fields):
    """(u_+, u_-), each (C, M + 1, n_t) complex: the longitude spectra
    (2 pi / n_phi) sum_j (g_theta +- i g_phi) e^(-i m phi_j) per ring for
    each field g (N, 3), cut after the last mode holding more than
    _TRIM_MODES of the largest. One FFT of z = g_theta + i g_phi per ring
    gives both: u_+ at mode m, and u_- as the conjugate at mode -m. The
    frame projection and z are written into one real and one complex
    block, and every later step runs in place in them."""
    n_t, n_phi = grid.shape
    local = np.empty((len(fields), len(grid.nodes), 3))  # a1, a2, zeta parts
    for k, field in enumerate(fields):
        np.matmul(field, grid.cap.frame, out=local[k])
    g1, g2, g3 = (local[..., k].reshape(-1, n_t, n_phi) for k in range(3))
    # (g1 + i g2) e^(-i phi) = (cos g1 + sin g2) + i g_phi
    z = np.empty(g1.shape, complex)
    z.real, z.imag = g1, g2
    z *= np.exp(-2j * np.pi * np.arange(n_phi) / n_phi)
    z.real *= (1.0 - 0.5 * rings.rho * (1.0 - rings.x))[:, None]
    g3 *= rings.sin[:, None]
    z.real -= g3
    spectra = np.fft.fft(z, axis=2, out=z)
    spectra *= 2.0 * np.pi / n_phi
    half = np.arange((n_phi + 1) // 2)
    both = np.maximum(np.abs(spectra[..., half]), np.abs(spectra[..., -half]))
    modes = _kept(both, 2, _TRIM_MODES)
    plus = spectra[..., :modes]
    minus = np.conj(spectra[..., -half[:modes]])
    return np.swapaxes(plus, 1, 2), np.swapaxes(minus, 1, 2)


def _area_modes(rings, u_plus, u_minus, sigma, centre):
    """(A, I0): the J = infinity operator's modes at the rings, (C, M + 1,
    n_t), and the reflected and centre terms' chart-series coefficients
    (C, M + 1) (module docstring)."""
    C, n_modes, n_t = u_plus.shape
    m = np.arange(n_modes)
    q = (m + 1) % 2
    # the data's polynomial parts u / sin^q on the sub-nodes of every
    # interval [-1, x_0], [x_0, x_1], ..., [x_{n-1}, 1]
    edges = np.concatenate([[-1.0], rings.x, [1.0]])
    xs, ws = _gauss(_SUB_NODES)
    half = 0.5 * np.diff(edges)[:, None]
    x_sub = edges[:-1, None] + half * (xs + 1.0)
    w_sub = half * ws * (0.5 * rings.rho)  # weights in t
    sin_sub, s_sub = _sin_s(x_sub, rings.rho)
    sin_q = rings.sin ** q[:, None]
    data = np.concatenate([u_plus / sin_q, u_minus / sin_q]).reshape(-1, n_t)
    c = rings.coefficients(data.T)
    c = c[: _kept(c, 0)]
    sub = _series(x_sub.ravel(), c).T.reshape(2, C, n_modes, *x_sub.shape)
    # kernel factors: (s_end/s')^m / sin' (outer) and (s'/s_start)^m / sin'
    # (inner) times sin'^q for m >= 1, and the mode-0 kernels
    s_up = np.concatenate([rings.s, [0.0]])[:, None]
    s_low = np.concatenate([[rings.rim], rings.s])[:, None]
    odd = np.where(m % 2 == 1, 1.0, 0.0)[:, None, None]
    per_sin = odd / sin_sub + (1.0 - odd)
    outer = _power(s_up / s_sub, m) * per_sin * (-w_sub / (2.0 * np.pi))
    inner = _power(s_sub / s_low, m) * per_sin * (w_sub / (2.0 * np.pi))
    outer[0] = -w_sub * (2.0 - 0.5 * rings.rho * (1.0 - x_sub)) / (4.0 * np.pi)
    inner[0] = w_sub * sin_sub * s_sub / (4.0 * np.pi)
    # per interval (rings first), carried ring to ring by the ratios
    # (s_i / s_(i-1))^m < 1
    local_out = np.einsum("mkq,cmkq->kcm", outer, sub[0])
    local_in = np.einsum("mkq,cmkq->kcm", inner, sub[1])
    ratio = np.power((rings.s[1:] / rings.s[:-1])[:, None], m)
    acc = np.empty((n_t, C, n_modes), complex)
    inward = np.empty_like(acc)
    acc[0] = local_out[0]
    inward[-1] = local_in[-1]
    for i in range(1, n_t):
        np.multiply(ratio[i - 1], acc[i - 1], out=acc[i])
        acc[i] += local_out[i]
        j = n_t - 1 - i
        np.multiply(ratio[j], inward[j + 1], out=inward[j])
        inward[j] += local_in[j + 1]
    acc += inward
    acc = np.moveaxis(acc, 0, 2)
    inward = np.moveaxis(inward, 0, 2)
    i0 = (rings.s[0] / rings.rim) ** m * inward[..., 0] + local_in[0]
    coef = sigma[:, None] * np.ones(n_modes)
    coef[:, 0] += centre
    i0 = coef * i0
    reflected = i0[..., None] * _power(rings.s / rings.rim, m)
    return acc + reflected, i0


def _laplacian(rings, values, m, p):
    """Lap V / sin^p at the rings for V = sin^p F per column, F given by its
    ring values (n_t, C), of modes m and parities p (C,)."""
    c = rings.coefficients(values)
    c = c[: _kept(c, 0)]
    scl = 2.0 / rings.rho
    d1 = _series(rings.x, legendre.legder(c, 1, scl)) if len(c) > 1 else 0.0
    d2 = _series(rings.x, legendre.legder(c, 2, scl)) if len(c) > 2 else 0.0
    t = (1.0 - 0.5 * rings.rho * (1.0 - rings.x))[:, None]
    sin2 = (rings.sin**2)[:, None]
    zeroth = (p * (2.0 * t * t - 1.0) - m * m) * values / sin2
    return sin2 * d2 - (2.0 + 2.0 * p) * t * d1 + zeroth


def _bandwidth(rings, values, p) -> int:
    """n_b: the highest k + p over the Legendre coefficients c_k of the
    columns (n_t, C) holding more than _BAND of the largest."""
    c = np.abs(rings.coefficients(values))
    k = np.arange(len(c))[:, None] + p
    return int(np.max(np.where(c > _BAND * c.max(initial=0.0), k, 0), initial=0))


def gradient_sums(samples, sums, points: np.ndarray, scale: int | None) -> list:
    """-integral D_eta K(xi, eta) . g(eta) over a cap grid at the points, for
    each (kind, curl) of sums: K the Neumann or Dirichlet cap kernel of the
    grid's cap, g the samples, or samples x eta with curl. scale None gives
    the unregularized operator; a scale J gives T_J (module docstring), J
    in [0, 53] as for every kernel, checked before any work. The points
    must lie inside the cap.
    """
    spec = KernelSpec(KIND_FUNDAMENTAL, scale=scale)
    grid = samples.grid
    cap = grid.cap
    rings = _Rings(grid)
    n_t, n_phi = grid.shape
    fields = [
        np.cross(samples.values, grid.nodes) if curl else samples.values for _, curl in sums
    ]
    u_plus, u_minus = _mode_spectra(grid, rings, fields)
    neumann = np.array([kind == KIND_NEUMANN for kind, _ in sums])
    sigma = np.where(neumann, 1.0, -1.0)
    centre = np.where(neumann, 2.0 * (1.0 - cap.radius) / cap.radius, 0.0)
    modes, i0 = _area_modes(rings, u_plus, u_minus, sigma, centre)
    C, n_modes, _ = modes.shape
    m = np.tile(np.arange(n_modes), C)
    p = m % 2
    # the columns (n_t, C M) of each mode's polynomial part A_m / sin^p
    sin_p = rings.sin ** (np.arange(n_modes) % 2)[:, None]  # (M + 1, n_t)
    poly = (modes / sin_p).reshape(-1, n_t).T
    points = np.atleast_2d(np.asarray(points, dtype=float))
    series = np.ones(len(points), bool)
    if scale is not None:
        delta = 2.0**-scale
        n_b = _bandwidth(rings, poly, p)
        if delta * n_b * (n_b + 1.0) <= _SERIES_BOUND:
            lap = _laplacian(rings, poly, m, p)
            lap2 = _laplacian(rings, lap, m, p)
            poly = poly + (0.25 * delta) * lap + (delta * delta / 48.0) * lap2
            series = _disc_inside(cap, points, delta)
        else:
            series[:] = False
    out = np.empty((C, len(points)))
    if series.any():
        idx = grid.node_indices(points)
        if idx is None:
            out[:] = _off_nodes(cap, rings, poly, C, n_modes, points)
        else:
            spectra = np.swapaxes(poly.T.reshape(C, n_modes, n_t) * sin_p, 1, 2).copy()
            spectra[..., 1:] *= 0.5
            values = np.fft.irfft(spectra, n_phi, axis=2, norm="forward")
            out[:] = values.reshape(C, -1)[:, idx]
    fallback = np.flatnonzero(~series)
    if fallback.size:
        pts = points[fallback]
        direct = _direct_term(spec, grid, fields, pts)
        for k in range(C):
            out[k, fallback] = direct[k] + _rim_series(cap, i0[k], pts).real
    return list(out)


def _direct_term(spec, grid, fields, points) -> list:
    """-sum_j w_j (D_eta G(x_i, eta_j)) . g_j at the points x for each field
    g (N, 3), G the fundamental solution of spec at its scale: the direct
    log term, a kernel sum over the grid's nodes (_convolution._term_sums).
    Its value at a pair is (x . g_j) Q_ij (kernels.grad_terms), so one row
    block Q = 1/log_gap serves every field, and each field's (P, 3) sum
    Q (w g) is dotted with x here."""
    blocks = []
    for field in fields:
        [(_, g, _)], _ = grad_terms(spec, grid.nodes, field)
        g *= grid.weights[:, None]
        blocks.append(g)
    sums = _term_sums(grid, partial(_inverse_gap, scale=spec.scale), blocks, points)
    return [-np.sum(points * s, axis=1) for s in sums]


def _inverse_gap(x, eta, scale, out=None):
    """Q = 1/log_gap(x, eta), the rows of a gradient log term, in out."""
    q = log_gap(x, eta, scale, out=out)
    return np.divide(1.0, q, out=q)


def _disc_inside(cap, points, delta) -> np.ndarray:
    """Whether the disc 1 - xi . eta < delta about each point lies inside
    the cap: cos(theta + gamma) > 1 - rho, cos gamma = 1 - delta."""
    t = _stacked_product(points, cap.center)
    sin = np.sqrt(np.maximum((1.0 - t) * (1.0 + t), 0.0))
    return t * (1.0 - delta) - sin * np.sqrt(delta * (2.0 - delta)) > 1.0 - cap.radius


def _off_nodes(cap, rings, poly, C, n_modes, points):
    """Re sum_m A_m(t) e^(i m phi) at points off the nodes: each column of
    poly (n_t, C M) interpolated barycentrically in x, times sin^(m mod 2),
    then the trigonometric series, point by point."""
    _, proj, _ = _chart_products(cap.frame, cap.center, points)
    t = proj[:, 2]
    x = 1.0 - 2.0 * (1.0 - t) / rings.rho
    d = x[:, None] - rings.x
    exact = d == 0.0
    weights = rings.lam / np.where(exact, 1.0, d)
    hit = exact.any(axis=1)
    weights[hit] = exact[hit]
    # real and imaginary parts side by side; each node's term is added to
    # every point in turn, so no sum mixes points
    parts = np.ascontiguousarray(poly).view(float)
    num = np.zeros((len(points), parts.shape[1]))
    term = np.empty_like(num)
    for i in range(rings.n_t):
        num += np.multiply(weights[:, i, None], parts[i], out=term)
    num /= np.sum(weights, axis=1)[:, None]
    values = num.view(complex).reshape(len(points), C, n_modes)
    r = np.sqrt(proj[:, 0] ** 2 + proj[:, 1] ** 2)
    safe = np.where(r > 0.0, r, 1.0)
    c1, s1 = np.where(r > 0.0, proj[:, 0] / safe, 1.0), proj[:, 1] / safe
    out = np.zeros((C, len(points)))
    cm, sm = np.ones(len(points)), np.zeros(len(points))
    for k in range(n_modes):
        v = values[:, :, k]
        term = v.real * cm[:, None] - v.imag * sm[:, None]
        out += (term * (r[:, None] if k % 2 else 1.0)).T
        cm, sm = cm * c1 - sm * s1, sm * c1 + cm * s1
    return out
