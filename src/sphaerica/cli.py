"""Command-line driver: deterministic runs, CSV grids, text reports.

Every command reads a flat key=value config (optional) overridden by flags,
runs one pipeline, writes result grids through gridio and a report of all
parameters and measured errors, and exits 0 on success, 2 on validation
errors, 3 on numerical failure. Identical configurations and seeds produce
byte-identical outputs at a fixed BLAS thread count, which SPHAERICA_THREADS
pins (mfs-fit's errors change in the last digits with the thread count).
"""

from __future__ import annotations

import os

_threads = os.environ.get("SPHAERICA_THREADS")
if _threads:
    # best effort: caps BLAS pools when set before numpy spins them up
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import selfcheck as selfcheck_mod
from .apps import (
    _error_stats,
    geo_forward,
    geo_reconstruct,
    mfs_layout,
    random_vortices,
    vd_forward,
    vd_reconstruct,
    vortex_exact,
    vortex_mfs,
)
from .decomposition import (
    d_apply,
    d_inv_convolve,
    hardy_hodge_decompose_sphere,
    helmholtz_decompose_sphere,
)
from .geometry import SphericalCap, lonlat_vector
from .gridio import CsvFormatError, format_value, load_field_csv, save_field_csv
from .harmonics import (
    InnerHarmonicIndex,
    _sh_accumulate,
    inner_harmonic_eval,
    inner_harmonic_grad,
    scale_degrees,
    sh_eval,
    sh_grad_eval,
    synth_field,
)
from .layers import DensitySamples, inp_residual, idp_residual, jump_probe, solve_idp, solve_inp
from .mfs import mfs_eval, mfs_fit
from .quadrature import (
    FieldSamples,
    build_boundary_grid,
    build_cap_grid,
    build_sphere_grid,
    integrate,
    mean_value,
    sample,
)
from .solvers import (
    beltrami_fd,
    dirichlet_solve_cap,
    neumann_solve_cap,
    poisson_solve_cap,
    surface_potential,
)

@dataclass(frozen=True)
class RunConfig:
    """All run parameters; validated against the target operation."""

    command: str
    cap_center_lon: float = 0.0
    cap_center_lat: float = 90.0
    cap_radius: float = 0.9
    nt: int = 64
    nphi: int = 128
    m: int = 512
    scale: int = 12
    seed: int = 1
    nmin: int = 3
    nmax: int = 25
    n_sources: int = 200
    rho_bar: float = -1.0
    ridge: float = 1e-12
    n_vortices: int = 5
    in_path: str | None = None
    out_dir: str = "."

    def cap(self) -> SphericalCap:
        return SphericalCap(
            lonlat_vector(self.cap_center_lon, self.cap_center_lat), self.cap_radius
        )


# flag and config key of each RunConfig field: the name with dashes, or the
# paper's symbol; the cast is the default's type (str for a None default)
_RENAMED = {
    "scale": "J", "n_sources": "M", "ridge": "lambda", "n_vortices": "N",
    "in_path": "in", "out_dir": "out",
}
_CONFIG_KEYS = {
    _RENAMED.get(f.name, f.name.replace("_", "-")): (
        f.name, str if f.default is None else type(f.default)
    )
    for f in fields(RunConfig)
    if f.name != "command"
}


def load_config_file(path: str) -> dict:
    """Flat key=value file; blank lines and #-comments allowed."""
    overrides = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or key not in _CONFIG_KEYS:
                raise ValueError(f"config line {lineno}: cannot parse {line!r}")
            attr, cast = _CONFIG_KEYS[key]
            overrides[attr] = cast(value.strip())
    return overrides


class Report:
    def __init__(self, command: str):
        self.lines = [f"command = {command}"]

    def add(self, key: str, value) -> None:
        self.lines.append(f"{key} = {format_value(value)}")

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(self.lines) + "\n")


def _interior_grid(cfg: RunConfig):
    cap = cfg.cap()
    inner = SphericalCap(cap.center, 0.8 * cap.radius)
    return cap, build_cap_grid(inner, max(cfg.nt // 2, 8), max(cfg.nphi // 2, 16))


def _out_path(cfg: RunConfig, filename: str) -> str:
    """Path of one output file. The directory is made with the first file, so
    a run that fails validation before it writes leaves no directory behind."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, filename)


def _save(cfg: RunConfig, name: str, samples: FieldSamples) -> None:
    save_field_csv(_out_path(cfg, f"{name}.csv"), samples)


def _report_errors(report: Report, stats: dict) -> None:
    """Report lines of the sup, l2 and relative l2 errors of _error_stats."""
    for key in ("sup_error", "l2_error", "rel_l2_error"):
        report.add(key, stats[key])


def _save_checked(cfg, report, igrid, vals, idx: InnerHarmonicIndex) -> None:
    """Write <command>.csv and report the errors against the inner harmonic."""
    _save(cfg, cfg.command, FieldSamples(igrid, vals))
    _report_errors(report, _error_stats(vals, inner_harmonic_eval(idx, igrid.nodes)))


def _recover(cfg, report, reconstruct, field, mean, coeffs, name: str) -> None:
    """Run one cap recovery at the grid nodes inside the 0.8-radius cap.

    Writes the recovered values (zero outside that cap) to <name>.csv and
    reports the errors against the synthetic field and the scale J.
    """
    grid = field.grid
    cap = cfg.cap()
    keep = SphericalCap(cap.center, 0.8 * cap.radius).contains(grid.nodes)
    rep = reconstruct(
        field, cfg.scale, mean, grid.nodes[keep], oracle=lambda p: sh_eval(coeffs, p)
    )
    recon = np.zeros(len(grid))
    recon[keep] = rep.values
    _save(cfg, name, FieldSamples(grid, recon))
    _report_errors(report, rep.diagnostics)
    report.add("scale", cfg.scale)


def _source_offset(cfg: RunConfig, cap: SphericalCap) -> float:
    """Offset of the MFS source circle (radius rho-bar) beyond the cap.

    sources_on_circle rejects a circle that is not outside the cap.
    """
    return cfg.rho_bar - cap.radius if cfg.rho_bar > 0 else 0.005


def cmd_selfcheck(cfg: RunConfig, report: Report) -> int:
    results = selfcheck_mod.run_all(seed=cfg.seed)
    ok = True
    for name, passed, metric in results:
        report.add(name, f"{'PASS' if passed else 'FAIL'} ({format_value(metric)})")
        ok = ok and passed
    report.add("selfcheck", "PASS" if ok else "FAIL")
    return 0 if ok else 3


def cmd_poisson(cfg: RunConfig, report: Report) -> int:
    cap, igrid = _interior_grid(cfg)
    grid = build_cap_grid(cap, cfg.nt, cfg.nphi)
    coeffs = synth_field(cfg.seed, cfg.nmin, cfg.nmax)
    lap = scale_degrees(coeffs, lambda n: -n * (n + 1.0))
    h = sample(grid, lambda p: sh_eval(lap, p))
    xi_bar = -cap.center
    vals = poisson_solve_cap(cap, h, xi_bar, igrid.nodes, scale=cfg.scale)
    _save(cfg, "poisson", FieldSamples(igrid, vals))
    # consistency: at an exterior point the potential part has surface
    # Laplacian -(1/4pi) integral(H)
    total = integrate(grid, h)
    demeaned = FieldSamples(grid, h.values - total / (2.0 * np.pi * cap.radius))
    fd = beltrami_fd(
        lambda p: surface_potential(demeaned, p, scale=cfg.scale), -cap.center, 1e-3
    )
    report.add("exterior_fd_residual", abs(fd))
    report.add("rhs_integral", total)
    return 0


def cmd_dirichlet(cfg: RunConfig, report: Report) -> int:
    cap, igrid = _interior_grid(cfg)
    idx = InnerHarmonicIndex(cap, 3, 1)
    vals = dirichlet_solve_cap(
        cap, lambda p: inner_harmonic_eval(idx, p), igrid.nodes, m=cfg.m
    )
    _save_checked(cfg, report, igrid, vals, idx)
    return 0


def cmd_neumann(cfg: RunConfig, report: Report) -> int:
    cap, igrid = _interior_grid(cfg)
    idx = InnerHarmonicIndex(cap, 1, 1)
    bgrid = build_boundary_grid(cap, cfg.m)
    data = np.sum(bgrid.normals * inner_harmonic_grad(idx, bgrid.nodes), axis=1)
    area_grid = build_cap_grid(cap, cfg.nt, cfg.nphi)
    mean = mean_value(sample(area_grid, lambda p: inner_harmonic_eval(idx, p)))
    vals = neumann_solve_cap(cap, FieldSamples(bgrid, data), mean, igrid.nodes)
    _save_checked(cfg, report, igrid, vals, idx)
    return 0


def cmd_idp(cfg: RunConfig, report: Report) -> int:
    cap, igrid = _interior_grid(cfg)
    bgrid = build_boundary_grid(cap, cfg.m)
    idx = InnerHarmonicIndex(cap, 2, 1)
    data = lambda p: inner_harmonic_eval(idx, p)
    solution = solve_idp(bgrid, data)
    vals = solution(igrid.nodes)
    _save_checked(cfg, report, igrid, vals, idx)
    report.add("collocation_residual", idp_residual(solution, data))
    cross = dirichlet_solve_cap(cap, data, igrid.nodes, m=cfg.m)
    report.add("cross_solver_sup", float(np.abs(vals - cross).max()))
    return 0


def cmd_inp(cfg: RunConfig, report: Report) -> int:
    cap, igrid = _interior_grid(cfg)
    bgrid = build_boundary_grid(cap, cfg.m)
    idx = InnerHarmonicIndex(cap, 1, 1)
    data = np.sum(bgrid.normals * inner_harmonic_grad(idx, bgrid.nodes), axis=1)
    solution = solve_inp(bgrid, data)
    vals = solution(igrid.nodes)
    _save(cfg, "inp", FieldSamples(igrid, vals))
    truth = inner_harmonic_eval(idx, igrid.nodes)
    shift = float(np.mean(vals - truth))
    _report_errors(report, _error_stats(vals - shift, truth))
    report.add("constant_shift", shift)
    report.add("collocation_residual", inp_residual(solution, data))
    report.add("density_mean", float(np.sum(bgrid.weights * solution.density.values)))
    return 0


def cmd_jump_test(cfg: RunConfig, report: Report) -> int:
    cap = cfg.cap()
    taus = [2.0**-k for k in range(4, 10)]
    bgrid = build_boundary_grid(cap, cfg.m)
    q = 0.8 + 0.5 * np.cos(bgrid.phis) - 0.3 * np.sin(2.0 * bgrid.phis)
    density = DensitySamples(bgrid, q)
    node = cfg.m // 5
    rep = jump_probe(density, node, taus, potential="double", quantity="value")
    report.add("double_value_jump", rep.jump)
    report.add("double_value_expected", -q[node])
    report.add("double_value_rel_error", abs(rep.jump + q[node]) / abs(q[node]))
    qt = 0.5 * np.cos(bgrid.phis) - 0.3 * np.sin(3.0 * bgrid.phis)
    tilde = DensitySamples(bgrid, qt, mean_free=True)
    rep1 = jump_probe(tilde, node, taus, potential="single", quantity="value")
    report.add("single_value_jump", rep1.jump)
    rep2 = jump_probe(
        tilde, node, taus, potential="single", quantity="normal-derivative"
    )
    report.add("single_normal_jump", rep2.jump)
    report.add("single_normal_expected", qt[node])
    report.add("single_normal_rel_error", abs(rep2.jump - qt[node]) / abs(qt[node]))
    return 0


def cmd_helmholtz(cfg: RunConfig, report: Report) -> int:
    grid = build_sphere_grid(cfg.nt, cfg.nphi)
    p_coeffs = synth_field(cfg.seed, 1, min(cfg.nmax, 8))
    s_coeffs = synth_field(cfg.seed + 1, 1, min(cfg.nmax, 8))
    f = FieldSamples(
        grid,
        sh_grad_eval(p_coeffs, grid.nodes)
        + np.cross(grid.nodes, sh_grad_eval(s_coeffs, grid.nodes)),
        tangential=True,
    )
    helm = helmholtz_decompose_sphere(f, scale=cfg.scale)
    _save(cfg, "helmholtz_f2", helm.f2)
    _save(cfg, "helmholtz_f3", helm.f3)
    for name, scalars, coeffs in (("f2", helm.f2, p_coeffs), ("f3", helm.f3, s_coeffs)):
        truth = sh_eval(coeffs, grid.nodes)
        truth = truth - float(np.sum(grid.weights * truth) / (4.0 * np.pi))
        report.add(f"{name}_sup_error", float(np.abs(scalars.values - truth).max()))
    report.add("f1_sup", float(np.abs(helm.f1.values).max()))
    return 0


def cmd_hardy_hodge(cfg: RunConfig, report: Report) -> int:
    grid = build_sphere_grid(cfg.nt, cfg.nphi)
    p_coeffs = synth_field(cfg.seed, 1, min(cfg.nmax, 8))
    values, grad = _sh_accumulate(p_coeffs, grid.nodes, want_grad=True)
    f = FieldSamples(grid, grid.nodes * values[:, None] + grad)
    hh = hardy_hodge_decompose_sphere(f, scale=cfg.scale)
    _save(cfg, "hardy_hodge_f1", hh.f1)
    _save(cfg, "hardy_hodge_f2", hh.f2)
    # tilde F2 - tilde F1 is the curl-free scalar F2: here P less its mean
    truth = values - float(np.sum(grid.weights * values) / (4.0 * np.pi))
    f2_error = np.abs(hh.f2.values - hh.f1.values - truth).max()
    report.add("f2_sup_error", float(f2_error))
    # spectral vs convolution inverse on the radial scalar, P at the nodes
    idx = np.arange(0, len(grid), max(len(grid) // 128, 1))
    spec = d_apply(p_coeffs, -1)
    radial = FieldSamples(grid, np.sum(f.values * grid.nodes, axis=1))
    conv = d_inv_convolve(radial, idx)
    report.add(
        "d_inv_path_disagreement",
        float(np.abs(conv - sh_eval(spec, grid.nodes[idx])).max()),
    )
    return 0


def cmd_vertical_deflections(cfg: RunConfig, report: Report) -> int:
    cap = cfg.cap()
    coeffs = synth_field(cfg.seed, cfg.nmin, cfg.nmax)
    t_samples, theta = vd_forward(coeffs, cap, build_cap_grid(cap, cfg.nt, cfg.nphi))
    if cfg.in_path:
        loaded = load_field_csv(cfg.in_path)
        if loaded.samples is None:
            raise ValueError("input grid metadata missing or inconsistent")
        theta = FieldSamples(loaded.samples.grid, loaded.samples.values, tangential=True)
    t_mean = mean_value(t_samples)
    _recover(
        cfg, report, vd_reconstruct, theta, t_mean, coeffs, "vertical_deflections_tj"
    )
    report.add("t_mean", t_mean)
    return 0


def cmd_geostrophic(cfg: RunConfig, report: Report) -> int:
    cap = cfg.cap()
    coeffs = synth_field(cfg.seed, cfg.nmin, cfg.nmax)
    h_samples, flow = geo_forward(coeffs, cap, build_cap_grid(cap, cfg.nt, cfg.nphi))
    h_mean = mean_value(h_samples)
    _recover(cfg, report, geo_reconstruct, flow, h_mean, coeffs, "geostrophic_hj")
    return 0


def cmd_vortex(cfg: RunConfig, report: Report) -> int:
    cap, igrid = _interior_grid(cfg)
    vortices = random_vortices(cap, cfg.n_vortices, cfg.seed)
    offset = _source_offset(cfg, cap)
    rep = vortex_mfs(
        cap,
        vortices,
        n_sources=cfg.n_sources,
        radius_offset=offset,
        ridge=cfg.ridge,
        probes=igrid.nodes,
    )
    _save(cfg, "vortex_psi", FieldSamples(igrid, rep.values))
    truth = vortex_exact(cap, vortices, igrid.nodes)
    _save(cfg, "vortex_error", FieldSamples(igrid, rep.values - truth))
    for key in ("sup_error", "rel_sup_error", "boundary_residual", "condition"):
        report.add(key, rep.diagnostics[key])
    return 0


def cmd_mfs_fit(cfg: RunConfig, report: Report) -> int:
    cap = cfg.cap()
    offset = _source_offset(cfg, cap)
    idx = InnerHarmonicIndex(cap, 3, 1)
    data = lambda p: inner_harmonic_eval(idx, p)
    system, colloc = mfs_layout(cap, cfg.n_sources, offset, -cap.center)
    fit = mfs_fit(system, colloc, data, mode="tikhonov", ridge=cfg.ridge)
    report.add("boundary_residual", fit.boundary_residual)
    report.add("condition", fit.condition)
    _, igrid = _interior_grid(cfg)
    vals = mfs_eval(fit, igrid.nodes)
    _report_errors(report, _error_stats(vals, inner_harmonic_eval(idx, igrid.nodes)))
    return 0


_DISPATCH = {
    "selfcheck": cmd_selfcheck,
    "poisson": cmd_poisson,
    "dirichlet": cmd_dirichlet,
    "neumann": cmd_neumann,
    "idp": cmd_idp,
    "inp": cmd_inp,
    "jump-test": cmd_jump_test,
    "helmholtz": cmd_helmholtz,
    "hardy-hodge": cmd_hardy_hodge,
    "vertical-deflections": cmd_vertical_deflections,
    "geostrophic": cmd_geostrophic,
    "vortex": cmd_vortex,
    "mfs-fit": cmd_mfs_fit,
}
COMMANDS = tuple(_DISPATCH)

# geostrophic caps must clear the equator
_COMMAND_DEFAULTS = {
    "geostrophic": {"cap_radius": 0.5},
}


def run(cfg: RunConfig) -> int:
    """Dispatch one configured command; returns the exit status."""
    if cfg.command not in _DISPATCH:
        print(f"unknown command {cfg.command!r}", file=sys.stderr)
        return 2
    report = Report(cfg.command)
    for field_ in fields(cfg):
        # out_dir changes where results land, never what they are
        if field_.name not in ("command", "out_dir"):
            report.add(f"config.{field_.name}", getattr(cfg, field_.name))
    try:
        status = _DISPATCH[cfg.command](cfg, report)
        name = cfg.command.replace("-", "_")
        report.write(_out_path(cfg, f"{name}_report.txt"))
    # LinAlgError is a ValueError, so the numerical failures come first
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, CsvFormatError, NotImplementedError, OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphaerica",
        description="spherical potential theory toolkit",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="flat key=value config file")
    for key, (dest, cast) in _CONFIG_KEYS.items():
        parser.add_argument(f"--{key}", type=cast, dest=dest)
    return parser


def config_from_args(argv=None) -> RunConfig:
    args = build_parser().parse_args(argv)
    overrides: dict = dict(_COMMAND_DEFAULTS.get(args.command, {}))
    if args.config:
        overrides.update(load_config_file(args.config))
    for field_ in fields(RunConfig):
        value = getattr(args, field_.name, None)
        if value is not None and field_.name != "command":
            overrides[field_.name] = value
    return RunConfig(command=args.command, **overrides)


def main(argv=None) -> int:
    try:
        cfg = config_from_args(argv)
    except (ValueError, OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
