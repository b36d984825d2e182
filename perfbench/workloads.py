"""The three benchmark workloads: seeded solves, oracle gates, CLI fidelity.

A solve is one pipeline the CLI ships, composed from the public functions
of sphaerica and checked against its analytic oracle. Library functions are
always reached through their module (``solvers.surface_potential``), so
the traced run can wrap them in place.

Every workload object builds its grids once in ``__init__`` (the set-up)
and then serves ``solve(seed)``, which returns the list of oracle checks.
``fidelity(seed)`` composes the same pipeline for a CLI configuration and
compares the CSV files byte for byte with what ``cli.run`` writes.
"""

from __future__ import annotations

import filecmp
import math
import os
from dataclasses import dataclass

import numpy as np

from sphaerica import (
    apps,
    cli,
    decomposition,
    gridio,
    harmonics,
    layers,
    mfs,
    quadrature,
    solvers,
)
from sphaerica.geometry import SphericalCap, rotation_to_pole, unit_vector


@dataclass(frozen=True)
class Check:
    """One oracle comparison.

    error is the gated quantity, an absolute sup error unless the name
    says "rel", and must not exceed tol; rel_sup is the sup error relative
    to the sup of the oracle, which feeds the run's oracle_err.
    """

    name: str
    error: float
    tol: float
    rel_sup: float

    @property
    def passed(self) -> bool:
        return math.isfinite(self.error) and self.error <= self.tol


def _sup_check(name: str, values, truth, tol: float, relative: bool = False) -> Check:
    err = float(np.abs(np.asarray(values) - np.asarray(truth)).max())
    rel = err / float(np.abs(truth).max())
    return Check(name, rel if relative else err, tol, rel)


def _report_check(name: str, rep, key: str, tol: float) -> Check:
    """Gate on one of the relative errors an apps SolveReport carries."""
    return Check(name, rep.diagnostics[key], tol, rep.diagnostics["rel_sup_error"])


def _cli_config(*argv: str) -> cli.RunConfig:
    return cli.config_from_args(list(argv))


def _run_cli(*argv: str) -> None:
    status = cli.run(_cli_config(*argv))
    if status != 0:
        raise RuntimeError(f"cli {argv[0]} exited with status {status}")


def _same_file(a: str, b: str) -> None:
    if not filecmp.cmp(a, b, shallow=False):
        raise AssertionError(f"{a} differs from the CLI output {b}")


def _interior(cap: SphericalCap) -> SphericalCap:
    # every reported sup error is taken on the concentric 0.8 rho cap
    return SphericalCap(cap.center, 0.8 * cap.radius)


def _cap_points(cap: SphericalCap, t: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Points at polar coordinate t and longitude phi about the cap center."""
    frame = rotation_to_pole(cap.center)
    sin_t = np.sqrt(1.0 - t * t)
    return t[:, None] * cap.center + sin_t[:, None] * (
        np.cos(phi)[:, None] * frame[:, 0] + np.sin(phi)[:, None] * frame[:, 1]
    )


class SphereSplit:
    """Hardy-Hodge split of xi P + grad P + curl Q on a 48x96 sphere grid,
    plus the surface potential of P at every node.

    Node-to-node N^2 convolutions are over 95% of a solve (5 N^2 kernel
    pairs), so this is where a ring-FFT or kernel-arithmetic change shows.
    """

    SHAPE = (48, 96)
    DEGREES = (1, 8)
    SCALE = 12
    # acceptance tolerances of criterion 10 (convolution vs spectral D^-1)
    # and criterion 3 (surface potential, which also leaves out the two
    # outermost Gauss rows, |z| > 0.995). Criterion 9 pins the global split
    # at 1e-3 on a 96x192 grid with degree <= 3 fields; on this 48x96 grid
    # with degree <= 8 fields the split errs 1.1e-3 to 3.0e-3 (seeds 1-30)
    # at every J from 7 to 14, so the gate is 1e-2 and the gap is reported.
    TOL_SPLIT = 1e-2
    TOL_D_INV = 2e-3
    TOL_POTENTIAL = 1e-6
    POTENTIAL_ROWS_Z = 0.995

    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        self.grid = quadrature.build_sphere_grid(*self.SHAPE)
        self.keep_rows = np.abs(self.grid.nodes[:, 2]) <= self.POTENTIAL_ROWS_Z

    def _path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)

    def _compose(self, p, q):
        grid = self.grid
        nodes = grid.nodes
        p_vals = harmonics.sh_eval(p, nodes)
        # same expression as the CLI's hardy-hodge field, plus the curl part
        field = quadrature.FieldSamples(
            grid,
            nodes * p_vals[:, None]
            + harmonics.sh_grad_eval(p, nodes)
            + harmonics.sh_curl_eval(q, nodes),
        )
        hh = decomposition.hardy_hodge_decompose_sphere(field, scale=self.SCALE)
        potential = solvers.surface_potential(
            quadrature.FieldSamples(grid, p_vals),
            nodes,
            scale=self.SCALE,
            xi_values=p_vals,
        )
        gridio.save_field_csv(self._path("split_t1.csv"), hh.f1)
        gridio.save_field_csv(self._path("split_t2.csv"), hh.f2)
        gridio.save_field_csv(self._path("split_t3.csv"), hh.f3)
        gridio.save_field_csv(
            self._path("split_potential.csv"), quadrature.FieldSamples(grid, potential)
        )
        return hh, potential

    def _demeaned(self, c) -> np.ndarray:
        v = harmonics.sh_eval(c, self.grid.nodes)
        return v - float(np.sum(self.grid.weights * v) / (4.0 * np.pi))

    def solve(self, seed: int) -> list[Check]:
        lo, hi = self.DEGREES
        p = harmonics.synth_field(seed, lo, hi)
        q = harmonics.synth_field(seed + 1, lo, hi)
        hh, potential = self._compose(p, q)
        t1, t2, t3 = hh.f1.values, hh.f2.values, hh.f3.values
        nodes = self.grid.nodes
        # tilde F1 - tilde F2 = -F2 recovers the curl-free scalar; F3 passes
        # through; tilde F1 + tilde F2 = D^-1 F1 + D^-1 F2 / 2 with F1 = P
        # and F2 = P (zero mean), i.e. 3/2 D^-1 P
        d_inv_truth = 1.5 * harmonics.sh_eval(decomposition.d_apply(p, -1), nodes)
        n = np.arange(hi + 1, dtype=float)
        inv_lap = np.where(n > 0, -1.0 / np.maximum(n * (n + 1.0), 1.0), 0.0)
        u = harmonics.ShCoefficients(hi, p.coeffs * inv_lap[:, None])
        u_truth = harmonics.sh_eval(u, nodes)
        rows = self.keep_rows
        return [
            _sup_check("split.f2", t2 - t1, self._demeaned(p), self.TOL_SPLIT),
            _sup_check("split.f3", t3, self._demeaned(q), self.TOL_SPLIT),
            _sup_check("split.d_inv", t1 + t2, d_inv_truth, self.TOL_D_INV),
            _sup_check(
                "surface_potential", potential[rows], u_truth[rows], self.TOL_POTENTIAL
            ),
        ]

    def fidelity(self, seed: int) -> None:
        """The split matches ``sphaerica hardy-hodge`` on the same grid."""
        out = self._path("cli_hardy_hodge")
        nt, nphi = self.SHAPE
        _run_cli(
            "hardy-hodge", "--nt", str(nt), "--nphi", str(nphi),
            "--J", str(self.SCALE), "--seed", str(seed), "--out", out,
        )
        p = harmonics.synth_field(seed, *self.DEGREES)
        # the CLI field has no curl part; a zero Q adds exact zeros
        self._compose(p, harmonics.ShCoefficients(0, np.zeros((1, 1))))
        _same_file(self._path("split_t1.csv"), os.path.join(out, "hardy_hodge_f1.csv"))
        _same_file(self._path("split_t2.csv"), os.path.join(out, "hardy_hodge_f2.csv"))


class CapRecovery:
    """The CLI's vertical-deflections (through its --in CSV path) and
    geostrophic pipelines at their defaults: 64x128 cap grids, L = 25,
    J = 12, probes at the grid nodes inside the 0.8 rho cap.

    The convolution runs through the Neumann-regularized cap kernel on a
    rectangular probes x nodes product; SH synthesis at L = 25 is a real
    share; it is the only workload that reads CSV as well as writing it.
    """

    # criterion 12 gates the relative l2 error of both recoveries
    TOL_REL_L2 = 0.02

    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        self.vd = _cli_config("vertical-deflections")
        self.geo = _cli_config("geostrophic")
        self.vd_grid = quadrature.build_cap_grid(self.vd.cap(), self.vd.nt, self.vd.nphi)
        self.geo_grid = quadrature.build_cap_grid(
            self.geo.cap(), self.geo.nt, self.geo.nphi
        )
        self.geo_keep = _interior(self.geo.cap()).contains(self.geo_grid.nodes)

    def _path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)

    def _vertical_deflections(self, seed: int):
        cfg = self.vd
        cap = cfg.cap()
        coeffs = harmonics.synth_field(seed, cfg.nmin, cfg.nmax)
        t_samples, theta = apps.vd_forward(coeffs, cap, self.vd_grid)
        gridio.save_field_csv(self._path("vd_theta.csv"), theta)
        loaded = gridio.load_field_csv(self._path("vd_theta.csv"))
        if loaded.samples is None:
            raise ValueError("deflection CSV lost its grid metadata")
        theta = quadrature.FieldSamples(
            loaded.samples.grid, loaded.samples.values, tangential=True
        )
        grid = theta.grid
        keep = _interior(cap).contains(grid.nodes)
        rep = apps.vd_reconstruct(
            theta,
            cfg.scale,
            quadrature.mean_value(t_samples),
            grid.nodes[keep],
            oracle=lambda pts: harmonics.sh_eval(coeffs, pts),
        )
        recon = np.zeros(len(grid))
        recon[keep] = rep.values
        gridio.save_field_csv(
            self._path("vd_recon.csv"), quadrature.FieldSamples(grid, recon)
        )
        return rep

    def _geostrophic(self, seed: int):
        cfg = self.geo
        grid = self.geo_grid
        coeffs = harmonics.synth_field(seed, cfg.nmin, cfg.nmax)
        h_samples, flow = apps.geo_forward(coeffs, cfg.cap(), grid)
        rep = apps.geo_reconstruct(
            flow,
            cfg.scale,
            quadrature.mean_value(h_samples),
            grid.nodes[self.geo_keep],
            oracle=lambda pts: harmonics.sh_eval(coeffs, pts),
        )
        recon = np.zeros(len(grid))
        recon[self.geo_keep] = rep.values
        gridio.save_field_csv(
            self._path("geo_recon.csv"), quadrature.FieldSamples(grid, recon)
        )
        return rep

    def solve(self, seed: int) -> list[Check]:
        vd = self._vertical_deflections(seed)
        geo = self._geostrophic(seed)
        return [
            _report_check("vd.rel_l2", vd, "rel_l2_error", self.TOL_REL_L2),
            _report_check("geo.rel_l2", geo, "rel_l2_error", self.TOL_REL_L2),
        ]

    def fidelity(self, seed: int) -> None:
        """Both recoveries match ``sphaerica vertical-deflections --in`` and
        ``sphaerica geostrophic`` byte for byte."""
        out = self._path("cli_cap_recovery")
        self.solve(seed)
        _run_cli(
            "vertical-deflections", "--seed", str(seed),
            "--in", self._path("vd_theta.csv"), "--out", out,
        )
        _run_cli("geostrophic", "--seed", str(seed), "--out", out)
        _same_file(
            self._path("vd_recon.csv"),
            os.path.join(out, "vertical_deflections_tj.csv"),
        )
        _same_file(self._path("geo_recon.csv"), os.path.join(out, "geostrophic_hj.csv"))


class BoundaryMfs:
    """MFS vortex fits at three basis sizes, the CLI's boundary commands
    (mfs-fit, dirichlet, neumann, idp, inp, jump-test) at their defaults,
    and the cap Helmholtz split at 250 off-grid probes of a 96x192 cap.

    LAPACK (SVD and lstsq in mfs_fit) and 1-D boundary products dominate;
    the area convolutions here are off-grid only, so a ring-FFT change
    should leave this workload unchanged.
    """

    VORTEX_SOURCES = (200, 400, 800)
    N_VORTICES = 5
    CAP_AT_SHAPE = (96, 192)
    CAP_AT_PROBES = 250
    CAP_AT_SCALE = 12
    # acceptance tolerances: criterion 12 (vortex MFS, relative sup),
    # 5 (Dirichlet trace and cross-solver), 6 (Neumann and inp) and
    # 7 (jump relations). No criterion covers the mfs-fit command: at its
    # defaults (sources 0.005 outside the boundary) its relative sup error
    # is 2.04e-4, twice criterion 12's bound, so it is gated at 1e-3.
    # Criterion 9 pins the cap split at 1e-3 at grid-node probes; at
    # off-grid probes it errs 1.3e-3 to 3.9e-3 (seeds 1-60) at every J from
    # 9 to 12, so the gate is 1e-2 and the gap is reported.
    TOL_MFS_REL = 1e-4
    TOL_MFS_FIT_REL = 1e-3
    TOL_DIRICHLET = 1e-8
    TOL_IDP_CROSS = 1e-7
    TOL_NEUMANN = 1e-7
    TOL_INP = 1e-6
    TOL_JUMP_REL = 0.02
    TOL_SINGLE_JUMP = 1e-3
    TOL_CAP_AT = 1e-2

    def __init__(self, work_dir: str):
        # nothing is written to work_dir: the boundary commands write no CSV
        cfg = _cli_config("mfs-fit")
        self.cfg = cfg
        self.cap = cfg.cap()
        inner = _interior(self.cap)
        self.igrid = quadrature.build_cap_grid(
            inner, max(cfg.nt // 2, 8), max(cfg.nphi // 2, 16)
        )
        self.bgrid = quadrature.build_boundary_grid(self.cap, cfg.m)
        self.area_grid = quadrature.build_cap_grid(self.cap, cfg.nt, cfg.nphi)
        self.colloc = quadrature.build_boundary_grid(self.cap, 4 * cfg.n_sources)
        taus = [2.0**-k for k in range(4, 10)]
        needed = int(np.ceil(10.0 * 2.0 * np.pi * self.cap.boundary_sine / min(taus)))
        self.taus = taus
        self.jump_grid = quadrature.build_boundary_grid(
            self.cap, max(cfg.m, 1 << int(np.ceil(np.log2(needed))))
        )
        # the tilted cap of criterion 9
        self.split_cap = SphericalCap(unit_vector([0.2, -0.1, 1.0]), 0.9)
        self.split_grid = quadrature.build_cap_grid(self.split_cap, *self.CAP_AT_SHAPE)

    def _offset(self) -> float:
        cfg = self.cfg
        return cfg.rho_bar - self.cap.radius if cfg.rho_bar > 0 else 0.005

    def _inner(self, degree: int, order: int):
        idx = harmonics.InnerHarmonicIndex(self.cap, degree, order)
        return idx, (lambda pts: harmonics.inner_harmonic_eval(idx, pts))

    def _normal_data(self, idx) -> np.ndarray:
        b = self.bgrid
        return np.sum(b.normals * harmonics.inner_harmonic_grad(idx, b.nodes), axis=1)

    def _vortex(self, seed: int) -> list[Check]:
        vortices = apps.random_vortices(self.cap, self.N_VORTICES, seed)
        checks = []
        for count in self.VORTEX_SOURCES:
            rep = apps.vortex_mfs(
                self.cap,
                vortices,
                n_sources=count,
                radius_offset=self._offset(),
                ridge=self.cfg.ridge,
                probes=self.igrid.nodes,
            )
            checks.append(
                _report_check(f"vortex_mfs.{count}.rel", rep, "rel_sup_error", self.TOL_MFS_REL)
            )
        return checks

    def _mfs_fit(self) -> Check:
        idx, data = self._inner(3, 1)
        sources = mfs.sources_on_circle(self.cap, self.cfg.n_sources - 1, self._offset())
        system = mfs.FundamentalSystem(
            sources, "gk-mod", regularization_point=-self.cap.center
        )
        fit = mfs.mfs_fit(system, self.colloc, data, mode="tikhonov", ridge=self.cfg.ridge)
        vals = mfs.mfs_eval(fit, self.igrid.nodes)
        truth = harmonics.inner_harmonic_eval(idx, self.igrid.nodes)
        return _sup_check("mfs_fit.rel", vals, truth, self.TOL_MFS_FIT_REL, relative=True)

    def _dirichlet(self) -> list[Check]:
        idx, data = self._inner(3, 1)
        vals = solvers.dirichlet_solve_cap(self.cap, data, self.igrid.nodes, m=self.cfg.m)
        truth = harmonics.inner_harmonic_eval(idx, self.igrid.nodes)
        return [_sup_check("dirichlet", vals, truth, self.TOL_DIRICHLET)]

    def _neumann(self) -> list[Check]:
        idx, data = self._inner(1, 1)
        mean = quadrature.mean_value(quadrature.sample(self.area_grid, data))
        vals = solvers.neumann_solve_cap(
            self.cap,
            quadrature.FieldSamples(self.bgrid, self._normal_data(idx)),
            mean,
            self.igrid.nodes,
        )
        truth = harmonics.inner_harmonic_eval(idx, self.igrid.nodes)
        return [_sup_check("neumann", vals, truth, self.TOL_NEUMANN)]

    def _idp(self) -> list[Check]:
        idx, data = self._inner(2, 1)
        solution = layers.solve_idp(self.bgrid, data)
        vals = solution(self.igrid.nodes)
        layers.idp_residual(solution, data)
        cross = solvers.dirichlet_solve_cap(self.cap, data, self.igrid.nodes, m=self.cfg.m)
        truth = harmonics.inner_harmonic_eval(idx, self.igrid.nodes)
        return [
            _sup_check("idp", vals, truth, self.TOL_IDP_CROSS),
            _sup_check("idp.cross", vals, cross, self.TOL_IDP_CROSS),
        ]

    def _inp(self) -> list[Check]:
        idx, _ = self._inner(1, 1)
        data = self._normal_data(idx)
        solution = layers.solve_inp(self.bgrid, data)
        vals = solution(self.igrid.nodes)
        truth = harmonics.inner_harmonic_eval(idx, self.igrid.nodes)
        layers.inp_residual(solution, data)
        shift = float(np.mean(vals - truth))
        return [_sup_check("inp", vals - shift, truth, self.TOL_INP)]

    def _jump(self) -> list[Check]:
        grid = self.jump_grid
        node = len(grid) // 5
        q = 0.8 + 0.5 * np.cos(grid.phis) - 0.3 * np.sin(2.0 * grid.phis)
        rep = layers.jump_probe(
            layers.DensitySamples(grid, q), node, self.taus, "double", "value"
        )
        qt = 0.5 * np.cos(grid.phis) - 0.3 * np.sin(3.0 * grid.phis)
        tilde = layers.DensitySamples(grid, qt, mean_free=True)
        rep1 = layers.jump_probe(tilde, node, self.taus, "single", "value")
        rep2 = layers.jump_probe(tilde, node, self.taus, "single", "normal-derivative")
        double_rel = abs(rep.jump + q[node]) / abs(q[node])
        normal_rel = abs(rep2.jump - qt[node]) / abs(qt[node])
        single = abs(rep1.jump)
        return [
            Check("jump.double.rel", double_rel, self.TOL_JUMP_REL, double_rel),
            Check("jump.single", single, self.TOL_SINGLE_JUMP, single / np.abs(qt).max()),
            Check("jump.normal.rel", normal_rel, self.TOL_JUMP_REL, normal_rel),
        ]

    def _cap_at(self, seed: int) -> list[Check]:
        grid = self.split_grid
        cap = self.split_cap
        p = harmonics.synth_field(seed, 0, 5, 1.0)
        s = harmonics.synth_field(seed + 1, 0, 5, 1.0)

        def field(pts):
            return harmonics.sh_grad_eval(p, pts) + harmonics.sh_curl_eval(s, pts)

        samples = quadrature.FieldSamples(grid, field(grid.nodes), tangential=True)
        rng = np.random.default_rng(seed)
        count = self.CAP_AT_PROBES
        t = 1.0 - 0.8 * cap.radius * rng.random(count)
        phi = rng.uniform(0.0, 2.0 * np.pi, count)
        pts = _cap_points(cap, t, phi)
        f2, f3 = decomposition.decompose_cap_at(
            samples,
            pts,
            boundary_field=field,
            boundary_f3=lambda q: harmonics.sh_eval(s, q),
            scale=self.CAP_AT_SCALE,
            m=self.cfg.m,
            demean=False,
        )
        p_ref = harmonics.sh_eval(p, pts)
        # F2 is fixed up to a constant: compare after removing the mean offset
        offset = float(np.mean(f2 - p_ref))
        return [
            _sup_check("cap_at.f2", f2 - offset, p_ref, self.TOL_CAP_AT),
            _sup_check("cap_at.f3", f3, harmonics.sh_eval(s, pts), self.TOL_CAP_AT),
        ]

    def solve(self, seed: int) -> list[Check]:
        return (
            self._vortex(seed)
            + [self._mfs_fit()]
            + self._dirichlet()
            + self._neumann()
            + self._idp()
            + self._inp()
            + self._jump()
            + self._cap_at(seed)
        )

    def fidelity(self, seed: int) -> None:
        """The boundary commands are already replayed at CLI defaults."""


WORKLOADS = {
    "sphere-split": SphereSplit,
    "cap-recovery": CapRecovery,
    "boundary-mfs": BoundaryMfs,
}
