import os
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sphaerica import cli
from sphaerica.apps import vd_forward
from sphaerica.cli import (
    COMMANDS,
    RunConfig,
    config_from_args,
    load_config_file,
    main,
    run,
)
from sphaerica.geometry import SphericalCap, unit_vector
from sphaerica.gridio import (
    CsvFormatError,
    _distinct_text,
    _grid_metadata,
    _lonlat_of,
    format_value,
    load_field_csv,
    save_field_csv,
)
from sphaerica.harmonics import synth_field
from sphaerica.layers import solve_idp, solve_inp
from sphaerica.mfs import FundamentalSystem, mfs_fit, sources_on_circle
from sphaerica.quadrature import (
    FieldSamples,
    build_boundary_grid,
    build_cap_grid,
    build_sphere_grid,
    sample,
)
from sphaerica.solvers import dirichlet_solve_cap, neumann_solve_cap

CAP = SphericalCap(unit_vector([0.2, -0.3, 0.95]), 0.6)
# -0.0, the smallest subnormal, a subnormal and a normal near the subnormal
# range, and values near the top of the float range
EDGE_VALUES = [-0.0, 5e-324, 2.5e-310, 2.2250738585072014e-308, 1e300, -1e300]


def _per_cell_csv(samples: FieldSamples) -> bytes:
    """A field CSV written one format(x, ".17g") call per cell."""
    lon, lat = _lonlat_of(samples.grid.nodes)
    meta = _grid_metadata(samples.grid)
    lines = ["# grid " + " ".join(f"{k}={format_value(v)}" for k, v in meta.items())]
    vector = samples.values.ndim == 2
    lines.append("lon_deg,lat_deg,vx,vy,vz" if vector else "lon_deg,lat_deg,value")
    for i in range(len(lon)):
        cells = [lon[i], lat[i], *np.atleast_1d(samples.values[i])]
        lines.append(",".join(format(float(x), ".17g") for x in cells))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _table_format_csv(samples: FieldSamples) -> bytes:
    """A field CSV body written by one %-format over the whole table,
    coordinates included, as save_field_csv once did."""
    lon, lat = _lonlat_of(samples.grid.nodes)
    table = np.column_stack([lon, lat, samples.values])
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return ((row * len(table)) % tuple(table.ravel().tolist())).encode("utf-8")


def _edge_samples(grid, vector: bool) -> FieldSamples:
    rng = np.random.default_rng(len(grid))
    values = rng.normal(size=(len(grid), 3) if vector else len(grid))
    flat = values.reshape(-1)
    flat[: len(EDGE_VALUES)] = EDGE_VALUES
    return FieldSamples(grid, values)


class TestCsv:
    def test_scalar_round_trip_byte_identical(self, tmp_path):
        grid = build_cap_grid(CAP, 6, 8)
        samples = sample(grid, lambda p: np.sin(3 * p[:, 0]) + p[:, 2])
        first = tmp_path / "field.csv"
        save_field_csv(first, samples)
        loaded = load_field_csv(first)
        assert loaded.samples is not None
        second = tmp_path / "again.csv"
        save_field_csv(second, loaded.samples)
        assert first.read_bytes() == second.read_bytes()
        assert_allclose(loaded.values, samples.values, atol=0)

    def test_vector_round_trip_and_zero_vector(self, tmp_path):
        grid = build_sphere_grid(4, 8)
        values = np.cross(grid.nodes, np.array([0.0, 0.0, 1.0]))
        values[0] = 0.0  # zero vectors are legal samples
        samples = FieldSamples(grid, values)
        path = tmp_path / "vec.csv"
        save_field_csv(path, samples)
        loaded = load_field_csv(path)
        assert loaded.samples is not None
        assert_allclose(loaded.samples.values, values, atol=0)

    def test_rejects_non_finite_with_row_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("lon_deg,lat_deg,value\n0,0,1.0\n10,0,nan\n")
        with pytest.raises(CsvFormatError, match="row 3"):
            load_field_csv(path)

    def test_rejects_duplicates_and_bad_schema(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("lon_deg,lat_deg,value\n0,10,1.0\n0,10,2.0\n")
        with pytest.raises(CsvFormatError, match="duplicate"):
            load_field_csv(path)
        path.write_text("lon,lat,value\n0,10,1.0\n")
        with pytest.raises(CsvFormatError, match="header"):
            load_field_csv(path)
        path.write_text("lon_deg,lat_deg,value\n0,10\n")
        with pytest.raises(CsvFormatError, match="columns"):
            load_field_csv(path)

    @pytest.mark.parametrize("vector", [False, True])
    @pytest.mark.parametrize(
        "grid",
        [
            build_sphere_grid(4, 8),
            build_cap_grid(CAP, 6, 8),
            build_boundary_grid(CAP, 16),
        ],
        ids=["sphere", "cap", "boundary"],
    )
    def test_save_matches_per_cell_format(self, tmp_path, grid, vector):
        samples = _edge_samples(grid, vector)
        path = tmp_path / "field.csv"
        save_field_csv(path, samples)
        assert path.read_bytes() == _per_cell_csv(samples)
        loaded = load_field_csv(path)
        assert loaded.samples is not None
        assert np.array_equal(loaded.values, samples.values)
        assert np.array_equal(np.signbit(loaded.values), np.signbit(samples.values))

    @pytest.mark.parametrize("vector", [False, True])
    @pytest.mark.parametrize(
        "grid",
        [
            build_sphere_grid(48, 96),
            build_cap_grid(SphericalCap(np.array([0.0, 0.0, 1.0]), 0.5), 64, 128),
            build_cap_grid(SphericalCap(unit_vector([0.3, 0.2, 1.0]), 0.9), 96, 192),
            build_boundary_grid(CAP, 512),
        ],
        ids=["sphere-48x96", "polar-64x128", "tilted-96x192", "boundary-512"],
    )
    def test_save_matches_the_table_format(self, tmp_path, grid, vector):
        # coordinates formatted once per distinct value give the bytes of
        # one %-format over the whole table
        samples = _edge_samples(grid, vector)
        path = tmp_path / "field.csv"
        save_field_csv(path, samples)
        body = path.read_bytes().split(b"\n", 2)[2]
        assert body == _table_format_csv(samples)

    def test_distinct_values_keep_their_own_text(self):
        x = np.array([0.0, -0.0, 5e-324, -2.5e-310, 0.0, -0.0, 90.0, 5e-324])
        assert list(_distinct_text(x)) == ["%.17g" % v for v in x.tolist()]

    BAD_FLOAT = "could not convert string to float"

    @pytest.mark.parametrize(
        "header,rows,message",
        [
            ("value", "0,10,1.0\n5,10\n", "row 3: expected 3 columns"),
            ("vx,vy,vz", "0,10,1,2\n", "row 2: expected 5 columns"),
            # a short row and a long row: as many commas in all as two good rows
            ("value", "0,10\n5,10,1.0,2.0\n", "row 2: expected 3 columns"),
            ("value", "0,10,1.0\n5,10,abc\n", f"row 3: {BAD_FLOAT}: 'abc'"),
            ("value", "0,10,x\n5,10\n", f"row 2: {BAD_FLOAT}: 'x'"),
            ("value", "0,10,1.0\n5,10,nan\n", "row 3: non-finite value"),
            ("vx,vy,vz", "0,10,1,-inf,2\n", "row 2: non-finite value"),
            ("value", "0,10,1.0\n0,10,2.0\n", "duplicate nodes"),
            ("value", "\n0,10,1.0\n \n5,10,x\n", f"row 5: {BAD_FLOAT}: 'x'"),
        ],
    )
    def test_error_messages(self, tmp_path, header, rows, message):
        path = tmp_path / "bad.csv"
        meta = "# grid kind=sphere-area nt=2 nphi=4"
        path.write_text(f"{meta}\nlon_deg,lat_deg,{header}\n{rows}")
        with pytest.raises(CsvFormatError) as info:
            load_field_csv(path)
        assert str(info.value) == message

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("lon_deg,lat_deg,value\n\n0,10,1.0\n  \n5,10,2.0\n\n")
        loaded = load_field_csv(path)
        assert loaded.values.tolist() == [1.0, 2.0]
        assert loaded.lats.tolist() == [10.0, 10.0]
        path.write_text("lon_deg,lat_deg,value\n\n")
        assert load_field_csv(path).values.shape == (0,)

    def test_file_without_metadata_loads_bare(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("lon_deg,lat_deg,value\n0,10,1.0\n5,10,2.0\n")
        loaded = load_field_csv(path)
        assert loaded.samples is None
        assert loaded.values.tolist() == [1.0, 2.0]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# grid kind=sphere-area nt=2 nphi=4\n")
        with pytest.raises(CsvFormatError, match="empty file"):
            load_field_csv(path)

    @pytest.mark.parametrize(
        "consumer", ["solve_idp", "solve_inp", "mfs_fit", "dirichlet", "neumann"]
    )
    def test_loaded_boundary_samples_match_the_originals(self, tmp_path, consumer):
        # the loaded samples sit on a grid rebuilt from the metadata line, not
        # on the original object; its nodes are the same, so it is accepted
        grid = build_boundary_grid(CAP, 64)
        original = FieldSamples(grid, np.cos(2.0 * grid.phis))
        save_field_csv(tmp_path / "trace.csv", original)
        loaded = load_field_csv(tmp_path / "trace.csv").samples
        assert loaded.grid is not grid
        system = FundamentalSystem(sources_on_circle(CAP, 16), "gk")
        probes = build_cap_grid(SphericalCap(CAP.center, 0.5 * CAP.radius), 4, 8).nodes
        solve = {
            "solve_idp": lambda data: solve_idp(grid, data).density.values,
            "solve_inp": lambda data: solve_inp(grid, data).density.values,
            "mfs_fit": lambda data: mfs_fit(system, grid, data).coefficients,
            "dirichlet": lambda data: dirichlet_solve_cap(CAP, data, probes),
            "neumann": lambda data: neumann_solve_cap(CAP, data, 0.0, probes),
        }[consumer]
        assert np.array_equal(solve(loaded), solve(original))


def _reference_table(path) -> np.ndarray:
    """The rows of a field CSV as the join/split/float pass read them before
    numpy's reader did: every non-blank row after the header, with the
    schema's comma count, through one join, one split and one float
    conversion."""
    lines = path.read_text(encoding="utf-8").splitlines()
    lines = lines[2:] if lines[0].startswith("# grid") else lines[1:]
    body = [line for line in lines if line.strip()]
    width = body[0].count(",") + 1
    assert all(line.count(",") == width - 1 for line in body)
    return np.array(list(map(float, ",".join(body).split(",")))).reshape(-1, width)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


EDGE_FILES = {
    "crlf": ("# grid kind=sphere-area nt=2 nphi=4\r\nlon_deg,lat_deg,value\r\n"
             "0,10,1.0\r\n5,10,2.0\r\n", [1.0, 2.0]),
    "whitespace-lines": ("lon_deg,lat_deg,value\n0,10,1.0\n \t \n5,10,2.0\n", [1.0, 2.0]),
    "empty-body": ("# grid kind=sphere-area nt=2 nphi=4\nlon_deg,lat_deg,value\n", []),
    "underscore": ("lon_deg,lat_deg,value\n0,10,1_0\n", [10.0]),
    "tab-in-cell": ("lon_deg,lat_deg,value\n0,10,1\t0\n",
                    "row 2: could not convert string to float: '1\\t0'"),
    "hash-in-row": ("lon_deg,lat_deg,value\n0,10,1.0\n5,10,2.0 # c\n",
                    "row 3: could not convert string to float: '2.0 # c'"),
}


class TestReader:
    @pytest.mark.parametrize("vector", [False, True])
    @pytest.mark.parametrize(
        "grid",
        [
            build_sphere_grid(24, 48),
            build_cap_grid(SphericalCap(np.array([0.0, 0.0, 1.0]), 0.5), 16, 32),
            build_cap_grid(SphericalCap(unit_vector([0.3, 0.2, 1.0]), 0.9), 16, 32),
            build_boundary_grid(CAP, 64),
        ],
        ids=["sphere", "polar", "tilted", "boundary"],
    )
    def test_values_match_the_join_split_pass(self, tmp_path, grid, vector):
        path = tmp_path / "field.csv"
        save_field_csv(path, _edge_samples(grid, vector))
        loaded = load_field_csv(path)
        table = _reference_table(path)
        values = table[:, 2:] if vector else table[:, 2]
        assert _same_bits(loaded.values, values)
        assert _same_bits(loaded.lons, table[:, 0])
        assert _same_bits(loaded.lats, table[:, 1])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_17_digit_cells_match_the_join_split_pass(self, tmp_path, seed):
        # decimal text that no double prints as: every cell must round to
        # the nearest double as float() rounds it
        rng = np.random.default_rng(seed)
        digits = rng.integers(0, 10, size=(500, 3, 17))
        signs = rng.choice(["", "-"], size=(500, 3))
        exps = rng.integers(-320, 300, size=(500, 3))
        rows = [
            ",".join([str(i), str(seed)] + [
                f"{signs[i, j]}{d[0]}.{''.join(map(str, d[1:]))}e{exps[i, j]}"
                for j, d in enumerate(digits[i])
            ])
            for i in range(500)
        ]
        path = tmp_path / "digits.csv"
        path.write_text("lon_deg,lat_deg,vx,vy,vz\n" + "\n".join(rows) + "\n")
        table = _reference_table(path)
        assert _same_bits(load_field_csv(path).values, table[:, 2:])

    @pytest.mark.parametrize("name", EDGE_FILES)
    def test_edge_files_load_or_fail_as_the_row_pass(self, tmp_path, name):
        text, expected = EDGE_FILES[name]
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(expected, str):
                with pytest.raises(CsvFormatError) as info:
                    load_field_csv(path)
                assert str(info.value) == expected
                return
            values = load_field_csv(path).values
        assert values.shape == (len(expected),)
        assert values.tolist() == expected

    @pytest.mark.parametrize(
        "char", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_line_separators_other_than_newline_are_rejected(self, tmp_path, char):
        # str.splitlines breaks lines at each of them, numpy's reader takes
        # them as blanks (0,10,\f1.0 would load as (0, 10, 1)): the load
        # names the character wherever it stands
        meta = "# grid kind=sphere-area nt=2 nphi=4"
        for text in [
            f"lon_deg,lat_deg,value\n0,10,{char}1.0\n",
            f"{meta}\nlon_deg,lat_deg,value\n0,10,1.0{char}\n5,10,2.0\n",
            f"{meta}{char}\nlon_deg,lat_deg,value\n0,10,1.0\n",
        ]:
            path = tmp_path / "separator.csv"
            path.write_bytes(text.encode("utf-8"))
            with pytest.raises(CsvFormatError) as info:
                load_field_csv(path)
            assert str(info.value) == f"line separator {char!r} in the file"

    def test_load_peak(self, tmp_path):
        # the 64x128 cap grid of vertical-deflections at the CLI defaults
        cfg = config_from_args(["vertical-deflections"])
        cap = cfg.cap()
        coeffs = synth_field(cfg.seed, cfg.nmin, cfg.nmax)
        _, theta = vd_forward(coeffs, cap, build_cap_grid(cap, cfg.nt, cfg.nphi))
        path = tmp_path / "theta.csv"
        save_field_csv(path, theta)
        load_field_csv(path)
        tracemalloc.start()
        try:
            loaded = load_field_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.samples is not None and loaded.values.shape == (64 * 128, 3)
        assert peak <= 2.5e6


class TestConfig:
    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\ncap-radius=0.5\nseed = 7\nJ=9\n")
        overrides = load_config_file(path)
        assert overrides == {"cap_radius": 0.5, "seed": 7, "scale": 9}
        path.write_text("bogus-key=1\n")
        with pytest.raises(ValueError):
            load_config_file(path)

    def test_flags_override_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed=7\nnt=10\n")
        cfg = config_from_args(
            ["selfcheck", "--config", str(path), "--seed", "9"]
        )
        assert cfg.seed == 9
        assert cfg.nt == 10

    def test_flag_table_follows_run_config(self):
        # a literal copy of the flags and config keys: their order, fields
        # and casts, which --help, flags and config files depend on
        table = {
            "cap-center-lon": ("cap_center_lon", float),
            "cap-center-lat": ("cap_center_lat", float),
            "cap-radius": ("cap_radius", float),
            "nt": ("nt", int),
            "nphi": ("nphi", int),
            "m": ("m", int),
            "J": ("scale", int),
            "seed": ("seed", int),
            "nmin": ("nmin", int),
            "nmax": ("nmax", int),
            "M": ("n_sources", int),
            "rho-bar": ("rho_bar", float),
            "lambda": ("ridge", float),
            "N": ("n_vortices", int),
            "in": ("in_path", str),
            "out": ("out_dir", str),
        }
        assert list(cli._CONFIG_KEYS.items()) == list(table.items())

    def test_cap_construction(self):
        cfg = RunConfig("selfcheck", cap_center_lon=30.0, cap_center_lat=0.0)
        cap = cfg.cap()
        assert_allclose(cap.center, [np.sqrt(3) / 2, 0.5, 0.0], atol=1e-12)


class TestRuns:
    def test_selfcheck_exit_zero(self, tmp_path):
        cfg = RunConfig("selfcheck", out_dir=str(tmp_path))
        assert run(cfg) == 0
        report = (tmp_path / "selfcheck_report.txt").read_text()
        assert "FAIL" not in report

    def test_validation_error_exit_two(self, tmp_path):
        # equator-straddling cap rejected by the geostrophic balance guard
        cfg = RunConfig(
            "geostrophic",
            cap_center_lat=0.0,
            cap_radius=0.9,
            nt=12,
            nphi=24,
            out_dir=str(tmp_path),
        )
        assert run(cfg) == 2

    @pytest.mark.parametrize("command", ["vortex", "mfs-fit"])
    def test_sources_inside_the_cap_exit_two(self, tmp_path, command):
        # rho-bar 0.5 lies inside the default cap of radius 0.9
        argv = [command, "--rho-bar", "0.5", "--M", "40", "--nt", "16", "--nphi", "32"]
        assert main(argv + ["--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", ["vortex", "mfs-fit"])
    def test_single_basis_element_exit_two(self, tmp_path, capfd, command):
        argv = [command, "--M", "1", "--nt", "16", "--nphi", "32"]
        assert main(argv + ["--out", str(tmp_path)]) == 2
        err = capfd.readouterr().err
        assert "source count M must be at least 2" in err and "m >= 8" not in err

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_vortex_count_below_one_exit_two(self, tmp_path, capfd, count):
        argv = ["vortex", "--N", count, "--M", "40", "--nt", "16", "--nphi", "32"]
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert "vortex count N must be at least 1" in capfd.readouterr().err
        assert not (tmp_path / "vortex_report.txt").exists()

    @pytest.mark.parametrize("command", ["vortex", "mfs-fit"])
    @pytest.mark.parametrize("ridge", ["-1", "nan"])
    def test_bad_ridge_exit_two_before_lapack(self, tmp_path, capfd, command, ridge):
        argv = [command, "--lambda", ridge, "--M", "40", "--nt", "16", "--nphi", "32"]
        assert main(argv + ["--out", str(tmp_path)]) == 2
        err = capfd.readouterr().err
        assert "validation error" in err and "ridge" in err
        # LAPACK reports illegal arguments on the process's own stderr
        assert "On entry to" not in err and "illegal value" not in err

    def test_unknown_command_exit_two(self, tmp_path):
        assert run(RunConfig("nonsense", out_dir=str(tmp_path))) == 2

    def test_missing_config_file_exit_two(self, tmp_path):
        missing = tmp_path / "missing.cfg"
        assert main(["dirichlet", "--config", str(missing), "--out", str(tmp_path)]) == 2

    def test_numerical_failure_exit_three_without_report(self, tmp_path, monkeypatch):
        def fail(cfg, report):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setitem(cli._DISPATCH, "dirichlet", fail)
        assert run(RunConfig("dirichlet", out_dir=str(tmp_path))) == 3
        assert not (tmp_path / "dirichlet_report.txt").exists()

    VD_SIZES = ["--nt", "16", "--nphi", "32", "--J", "8"]

    def _theta_csv(self, tmp_path):
        """theta of vertical-deflections at VD_SIZES, written as the CLI reads it."""
        cfg = config_from_args(["vertical-deflections", *self.VD_SIZES])
        cap = cfg.cap()
        coeffs = synth_field(cfg.seed, cfg.nmin, cfg.nmax)
        _, theta = vd_forward(coeffs, cap, build_cap_grid(cap, cfg.nt, cfg.nphi))
        path = tmp_path / "theta.csv"
        save_field_csv(path, theta)
        return path

    def test_vertical_deflections_from_input_file(self, tmp_path):
        theta = self._theta_csv(tmp_path)
        direct, loaded = tmp_path / "direct", tmp_path / "loaded"
        argv = ["vertical-deflections", *self.VD_SIZES]
        assert main([*argv, "--out", str(direct)]) == 0
        assert main([*argv, "--in", str(theta), "--out", str(loaded)]) == 0
        name = "vertical_deflections_tj.csv"
        assert (loaded / name).read_bytes() == (direct / name).read_bytes()

    def test_input_file_without_grid_line_exit_two(self, tmp_path):
        theta = self._theta_csv(tmp_path)
        theta.write_text(theta.read_text().split("\n", 1)[1])
        argv = ["vertical-deflections", *self.VD_SIZES, "--in", str(theta)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2

    def test_input_file_with_oversized_grid_line_exit_two(self, tmp_path, capsys):
        # 3 rows under a grid line naming 10^14 nodes: the sizes are checked
        # against the rows before any grid is built
        theta = self._theta_csv(tmp_path)
        meta, header, *rows = theta.read_text().splitlines()
        huge = meta.replace(" nt=16 nphi=32 ", " nt=10000000 nphi=10000000 ")
        assert huge != meta
        theta.write_text("\n".join([huge, header, *rows[:3]]) + "\n")
        assert load_field_csv(theta).samples is None
        argv = ["vertical-deflections", *self.VD_SIZES, "--in", str(theta)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert "metadata missing or inconsistent" in capsys.readouterr().err

    def test_hardy_hodge_split_matches_the_synthetic_potential(self, tmp_path):
        # the field is xi P + grad P, so tilde F2 - tilde F1 = F2 = P - mean P
        argv = ["hardy-hodge", "--nt", "32", "--nphi", "64", "--out", str(tmp_path)]
        assert main(argv) == 0
        lines = (tmp_path / "hardy_hodge_report.txt").read_text().splitlines()
        report = dict(line.split(" = ", 1) for line in lines)
        assert float(report["f2_sup_error"]) < 1e-2

    def test_dirichlet_run_writes_grid_and_report(self, tmp_path):
        cfg = RunConfig("dirichlet", nt=16, nphi=32, m=128, out_dir=str(tmp_path))
        assert run(cfg) == 0
        loaded = load_field_csv(tmp_path / "dirichlet.csv")
        assert loaded.samples is not None
        report = (tmp_path / "dirichlet_report.txt").read_text()
        assert "sup_error" in report

    def test_runs_are_byte_deterministic(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            cfg = RunConfig(
                "vortex",
                nt=16,
                nphi=32,
                n_sources=40,
                seed=5,
                out_dir=str(out),
            )
            assert run(cfg) == 0
        for name in ("vortex_psi.csv", "vortex_error.csv", "vortex_report.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_command_runs_byte_deterministic(self, tmp_path, command):
        sizes = ["--nt", "16", "--nphi", "32", "--m", "128", "--M", "40", "--J", "8"]
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main([command, *sizes, "--out", str(out)]) == 0
        report = command.replace("-", "_") + "_report.txt"
        assert (outs[0] / report).is_file()
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1]))
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
