"""The cap gradient operators per longitude mode (modes.gradient_sums).

Unregularized (J = infinity), the Neumann kernel's gradient operator maps
grad U to U minus its cap mean, and the cap split's area parts with its rim
series give (p, s) for f = grad p + curl s: exact below the grid's band, at
the nodes and off them up to the rim. At a finite J the series
T_J = T + (delta/4) h + (delta^2/48) Lap h holds where the rule
delta n_b (n_b + 1) <= 1 does and the delta-disc lies inside the cap;
elsewhere the direct log term is the regularized kernel sum of
_convolution (modes._direct_term) and the reflected and centre terms a
chart series. The cap kernels' own gradient sums
(conftest.kernel_gradient_sums) are the reference at a finite J.
"""

from unittest import mock

import numpy as np
import pytest

from conftest import kernel_gradient_sums, random_interior_points, rim_ring
from sphaerica import decomposition, modes, solvers
from sphaerica.apps import geo_reconstruct, vd_reconstruct
from sphaerica.decomposition import decompose_cap_at, helmholtz_decompose_cap
from sphaerica.geometry import SphericalCap, unit_vector
from sphaerica.harmonics import sh_curl_eval, sh_eval, sh_grad_eval, synth_field
from sphaerica.kernels import KIND_FUNDAMENTAL, KIND_NEUMANN, KernelSpec
from sphaerica.modes import _direct_term
from sphaerica.quadrature import FieldSamples, build_cap_grid, build_sphere_grid, mean_value
from sphaerica.solvers import invert_gradient

CAPS = {
    "polar": SphericalCap(np.array([0.0, 0.0, 1.0]), 0.9),
    "tilted": SphericalCap(unit_vector([0.2, -0.1, 1.0]), 0.9),
    "south": SphericalCap(np.array([0.0, 0.0, -1.0]), 0.7),
    "wide": SphericalCap(unit_vector([0.3, 0.5, -0.2]), 1.4),
}
SHAPE = (40, 80)
DEGREE = 12  # within the band of SHAPE


def _targets(cap, grid):
    """Every node, then 60 interior probes out to (1 - 1e-5) rho."""
    probes = random_interior_points(cap, np.random.default_rng(5), 60, 1.0 - 1e-5)
    return {"nodes": grid.nodes, "probes": np.concatenate([probes, rim_ring(cap, 1e-5, 8)])}


@pytest.mark.parametrize("mode", ["grad", "curl"])
@pytest.mark.parametrize("name", CAPS)
def test_inversion_is_exact_without_regularization(name, mode):
    cap = CAPS[name]
    grid = build_cap_grid(cap, *SHAPE)
    u = synth_field(3, 1, DEGREE)
    grad = sh_grad_eval(u, grid.nodes)
    f = grad if mode == "grad" else np.cross(grid.nodes, grad)
    samples = FieldSamples(grid, f, tangential=True)
    mean = mean_value(FieldSamples(grid, sh_eval(u, grid.nodes)))
    sup = np.abs(sh_eval(u, grid.nodes) - mean).max()
    for pts in _targets(cap, grid).values():
        want = sh_eval(u, pts) - mean
        [exact] = modes.gradient_sums(samples, [(KIND_NEUMANN, mode == "curl")], pts, None)
        assert np.abs(exact - want).max() <= 1e-12 * sup
        # J = 53: delta = 2^-53, the series adds rounding only
        got = invert_gradient(samples, mode, 53, pts)
        assert np.abs(got - want).max() <= 1e-12 * sup


@pytest.mark.parametrize("name", CAPS)
def test_cap_split_is_exact_without_regularization(name):
    cap = CAPS[name]
    grid = build_cap_grid(cap, *SHAPE)
    p, s = synth_field(4, 1, DEGREE), synth_field(5, 1, DEGREE)
    f = sh_grad_eval(p, grid.nodes) + sh_curl_eval(s, grid.nodes)
    samples = FieldSamples(grid, f, tangential=True)
    p_mean = mean_value(FieldSamples(grid, sh_eval(p, grid.nodes)))
    trace = lambda q: sh_eval(s, q)
    sup = max(np.abs(sh_eval(c, grid.nodes)).max() for c in (p, s))
    for key, pts in _targets(cap, grid).items():
        if key == "probes":  # the split's rim series needs 1e-6 of margin
            pts = pts[cap.contains(pts, margin=1e-6)]
        f2, f3 = decompose_cap_at(samples, pts, boundary_f3=trace, scale=53, m=512)
        assert np.abs(f2 - (sh_eval(p, pts) - p_mean)).max() <= 1e-12 * sup
        assert np.abs(f3 - sh_eval(s, pts)).max() <= 1e-12 * sup


def test_mode_zero_of_the_neumann_operator():
    # U = t = xi . zeta on a polar cap: f = grad t has mode 0 only, and the
    # operator gives t minus its cap mean 1 - rho/2 at every ring
    cap = CAPS["polar"]
    grid = build_cap_grid(cap, 16, 32)
    t = grid.nodes @ cap.center
    f = cap.center - t[:, None] * grid.nodes
    samples = FieldSamples(grid, f, tangential=True)
    [got] = modes.gradient_sums(samples, [(KIND_NEUMANN, False)], grid.nodes, None)
    assert np.abs(got - (t - (1.0 - 0.5 * cap.radius))).max() <= 1e-14


def _series_field(cap, shape, degree):
    grid = build_cap_grid(cap, *shape)
    u = synth_field(6, 1, degree)
    return grid, FieldSamples(grid, sh_grad_eval(u, grid.nodes), tangential=True)


def test_far_from_the_rule_every_target_takes_the_kernel_sums():
    # degree 12 at J = 3 and 4: delta n (n + 1) = 19.5 and 9.75 > 1. Every
    # direct log term is then the regularized sum of the fundamental
    # solution, and what is added to it, the reflected and centre terms'
    # chart series, does not depend on J
    cap = CAPS["tilted"]
    grid, samples = _series_field(cap, SHAPE, DEGREE)
    pts = random_interior_points(cap, np.random.default_rng(1), 30)
    rest = []
    for scale in (3, 4):
        sent = []

        def recording(spec, grid, fields, points):
            sent.append(points)
            return _direct_term(spec, grid, fields, points)

        with mock.patch.object(modes, "_direct_term", recording):
            got = invert_gradient(samples, "grad", scale, pts)
        assert len(sent) == 1 and np.array_equal(sent[0], pts)
        spec = KernelSpec(KIND_FUNDAMENTAL, scale=scale)
        rest.append(got - kernel_gradient_sums(samples, [(spec, False)], pts)[0])
    assert np.abs(rest[0] - rest[1]).max() <= 1e-14 * np.abs(rest[0]).max()


def test_targets_whose_disc_crosses_the_rim_take_the_kernel_sums():
    cap = CAPS["polar"]
    grid, samples = _series_field(cap, SHAPE, DEGREE)
    near = rim_ring(cap, 1e-4, 8)
    inside = random_interior_points(cap, np.random.default_rng(2), 8)
    assert not modes._disc_inside(cap, near, 2.0**-12).any()
    assert modes._disc_inside(cap, inside, 2.0**-12).all()
    calls = []

    def recording(spec, grid, fields, points):
        calls.append(points)
        return _direct_term(spec, grid, fields, points)

    with mock.patch.object(modes, "_direct_term", recording):
        mixed = invert_gradient(samples, "grad", 12, np.concatenate([inside, near]))
    [sent] = calls
    assert np.array_equal(sent, near)
    # each point keeps its value in a stack of its own kind
    assert np.array_equal(mixed[:8], invert_gradient(samples, "grad", 12, inside))
    assert np.array_equal(mixed[8:], invert_gradient(samples, "grad", 12, near))


def test_series_follows_the_kernel_sums_at_a_finite_scale():
    # the ring sums of the regularized kernel converge to T_J, which the
    # series gives within O(delta^3 n^6): at J = 12 and degree 25 (inside
    # 0.8 rho) they differ by 5.7e-3 of the sup at 64x128 and 9.8e-4 at
    # 128x256, their quadrature error, while T_J - T is 6.0e-3
    cap = CAPS["polar"]
    inner = SphericalCap(cap.center, 0.8 * cap.radius)
    gaps = []
    for shape in ((64, 128), (128, 256)):
        grid, samples = _series_field(cap, shape, 25)
        pts = grid.nodes[inner.contains(grid.nodes)]
        spec = KernelSpec(KIND_NEUMANN, cap=cap, scale=12)
        ring = kernel_gradient_sums(samples, [(spec, False)], pts)[0]
        got = invert_gradient(samples, "grad", 12, pts)
        exact = modes.gradient_sums(samples, [(KIND_NEUMANN, False)], pts, None)[0]
        sup = np.abs(exact).max()
        gaps.append(np.abs((got - ring) - np.mean(got - ring)).max() / sup)
        shift = np.abs((got - exact) - np.mean(got - exact)).max() / sup
    assert gaps[1] <= 0.25 * gaps[0]
    assert gaps[1] <= 0.25 * shift


@pytest.mark.parametrize("mode", ["grad", "curl"])
@pytest.mark.parametrize("where", ["exterior", "antipode"])
def test_points_outside_the_cap_fail_before_any_area_work(where, mode):
    cap = CAPS["tilted"]
    grid, samples = _series_field(cap, (12, 24), 4)
    probe = -cap.center if where == "antipode" else rim_ring(cap, -1e-3, 1)[0]
    refuse = mock.Mock(side_effect=AssertionError("area work ran"))
    with mock.patch.object(solvers, "gradient_sums", refuse):
        with pytest.raises(ValueError, match="inside the cap"):
            invert_gradient(samples, mode, 8, probe)
    with mock.patch.object(decomposition, "gradient_sums", refuse):
        with pytest.raises(ValueError, match="inside the cap"):
            decompose_cap_at(samples, probe[None], scale=8, m=64)
        # inside the cap but within the 1e-6 margin of the rim
        with pytest.raises(ValueError, match="strictly interior"):
            decompose_cap_at(samples, rim_ring(cap, 5e-7, 2), scale=8, m=64)


def test_rule_reads_the_bandwidth_of_the_result():
    # degree 25 on 64x128: n_b = 25, so the series holds at J = 10 (0.63)
    # and not at J = 9 (1.27)
    cap = CAPS["polar"]
    grid, samples = _series_field(cap, (64, 128), 25)
    rings = modes._Rings(grid)
    modes_, _ = modes._area_modes(
        rings, *modes._mode_spectra(grid, rings, [samples.values]), np.ones(1), np.zeros(1)
    )
    n_modes = modes_.shape[1]
    p = np.arange(n_modes) % 2
    poly = (modes_[0] / rings.sin ** p[:, None]).T
    assert modes._bandwidth(rings, poly, p) == 25


# every public cap caller of gradient_sums, as a function of (samples,
# points, J)
CAP_CALLERS = {
    "invert_gradient": lambda f, pts, J: invert_gradient(f, "grad", J, pts),
    "decompose_cap_at": lambda f, pts, J: decompose_cap_at(f, pts, scale=J, m=64),
    "helmholtz_decompose_cap": lambda f, pts, J: helmholtz_decompose_cap(f, scale=J, m=64),
    "vd_reconstruct": lambda f, pts, J: vd_reconstruct(f, J, 0.0, pts),
    "geo_reconstruct": lambda f, pts, J: geo_reconstruct(f, J, 0.0, pts),
}


@pytest.mark.parametrize("caller", CAP_CALLERS)
@pytest.mark.parametrize("scale", [60, -1])
def test_cap_callers_reject_a_scale_outside_the_kernels_range_before_any_work(caller, scale):
    # the kernels' rule, as on the sphere path: J in [0, 53]
    cap = CAPS["polar"]
    grid, samples = _series_field(cap, (12, 24), 4)
    pts = random_interior_points(cap, np.random.default_rng(0), 5)
    refuse = mock.Mock(side_effect=AssertionError("area work ran"))
    with mock.patch.object(modes, "_mode_spectra", refuse):
        with pytest.raises(ValueError, match=r"scale J must lie in \[0, 53\]"):
            CAP_CALLERS[caller](samples, pts, scale)


def test_a_fractional_scale_is_accepted_on_cap_and_sphere_grids():
    cap = CAPS["polar"]
    grid, samples = _series_field(cap, (12, 24), 4)
    pts = random_interior_points(cap, np.random.default_rng(0), 5)
    for run in CAP_CALLERS.values():
        run(samples, pts, 2.5)
    sphere = build_sphere_grid(12, 24)
    field = FieldSamples(sphere, sh_grad_eval(synth_field(6, 1, 4), sphere.nodes), tangential=True)
    assert np.all(np.isfinite(invert_gradient(field, "grad", 2.5, sphere.nodes[:3])))
    assert np.all(np.isfinite(invert_gradient(samples, "grad", 2.5, pts)))
