"""Deterministic CSV exchange of sampled fields.

Scalar schema: lon_deg,lat_deg,value. Vector schema:
lon_deg,lat_deg,vx,vy,vz. Values are written with 17 significant digits
(lossless for float64), rows in grid index order, decimal point '.', UTF-8,
newline-delimited. A leading comment line carries the grid construction
parameters so a load can rebuild the exact grid; files without it load as
bare samples.

A save writes every cell as "%.17g" text, the same text as
format(x, ".17g"). Ring grids repeat their coordinates from ring to ring,
so each distinct longitude and latitude is formatted once, by one
%-format; a second %-format puts that text into a row template, and one
more fills in all the values. A load reads the file's text once and
rejects line breaks other than a newline; numpy's C reader parses the rows
after the header, and a table it does not take whole goes through the row
pass, which names the first bad row in the CsvFormatError.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import SphericalCap
from .quadrature import (
    KIND_BOUNDARY,
    KIND_CAP,
    KIND_SPHERE,
    FieldSamples,
    QuadratureGrid,
    build_boundary_grid,
    build_cap_grid,
    build_sphere_grid,
)

_SCALAR_HEADER = "lon_deg,lat_deg,value"
_VECTOR_HEADER = "lon_deg,lat_deg,vx,vy,vz"
_WIDTHS = {_SCALAR_HEADER: 3, _VECTOR_HEADER: 5}
_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # str.splitlines' other line breaks


class CsvFormatError(ValueError):
    """Malformed field CSV (schema, finiteness, or node problems)."""


@dataclass(frozen=True)
class LoadedField:
    """Samples read from CSV, with the rebuilt grid when metadata allows."""

    lons: np.ndarray
    lats: np.ndarray
    values: np.ndarray
    metadata: dict
    samples: FieldSamples | None


def _lonlat_of(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lon = np.degrees(np.arctan2(nodes[:, 1], nodes[:, 0]))
    lat = np.degrees(np.arcsin(np.clip(nodes[:, 2], -1.0, 1.0)))
    return lon, lat


def _format(x: float) -> str:
    return format(float(x), ".17g")


def format_value(v) -> str:
    """Floats with 17 significant digits (lossless), anything else as str."""
    return _format(v) if isinstance(v, float) else str(v)


def _grid_metadata(grid: QuadratureGrid) -> dict:
    # cap centers stored as exact components: lossless and bit-stable on
    # reload, unlike a degree round trip
    meta = {"kind": grid.kind}
    if grid.kind == KIND_SPHERE:
        meta.update(nt=grid.shape[0], nphi=grid.shape[1])
        return meta
    cx, cy, cz = (float(c) for c in grid.cap.center)
    if grid.kind == KIND_CAP:
        meta.update(nt=grid.shape[0], nphi=grid.shape[1])
    else:
        meta.update(m=grid.shape[0])
    meta.update(cx=cx, cy=cy, cz=cz, rho=grid.cap.radius)
    return meta


def _rebuild_grid(meta: dict, rows: int) -> QuadratureGrid | None:
    """The grid the metadata names, or None. Its size is checked against the
    row count first, so a wrong line allocates nothing."""
    kind = meta.get("kind")
    keys = ("m",) if kind == KIND_BOUNDARY else ("nt", "nphi")
    try:
        sizes = [int(meta[k]) for k in keys]
        if math.prod(sizes) != rows:
            return None
        if kind == KIND_SPHERE:
            return build_sphere_grid(*sizes)
        center = np.array(
            [float(meta["cx"]), float(meta["cy"]), float(meta["cz"])]
        )
        cap = SphericalCap(center, float(meta["rho"]))
        if kind == KIND_CAP:
            return build_cap_grid(cap, *sizes)
        if kind == KIND_BOUNDARY:
            return build_boundary_grid(cap, *sizes)
    except (KeyError, ValueError):
        return None
    return None


def _distinct_text(x: np.ndarray) -> np.ndarray:
    """The "%.17g" text of each entry of x, formatted once per distinct
    value. Values are told apart by their bits, so 0.0 and -0.0 keep their
    own text."""
    bits, inverse = np.unique(x.view(np.int64), return_inverse=True)
    text = ("%.17g\n" * len(bits)) % tuple(bits.view(float).tolist())
    return np.array(text.split("\n")[:-1], dtype=object)[inverse]


def save_field_csv(path, samples: FieldSamples) -> None:
    """Write samples in grid index order; lossless and reproducible."""
    grid = samples.grid
    lon, lat = _lonlat_of(grid.nodes)
    meta = _grid_metadata(grid)
    meta_line = "# grid " + " ".join(f"{k}={format_value(v)}" for k, v in meta.items())
    header = _VECTOR_HEADER if samples.values.ndim == 2 else _SCALAR_HEADER
    values = samples.values.reshape(len(grid), -1)
    # the coordinates go into the row template as text, then one %-format
    # fills in the values
    coords = np.column_stack([_distinct_text(lon), _distinct_text(lat)])
    row = "%s,%s" + ",%%.17g" * values.shape[1] + "\n"
    template = (row * len(values)) % tuple(coords.ravel().tolist())
    body = template % tuple(values.ravel().tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{meta_line}\n{header}\n{body}")


def _parse_rows(lines: list[str], width: int) -> np.ndarray:
    """Parse the lines after the header (row 2 on) one by one, naming the
    first bad row."""
    rows = []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise CsvFormatError(f"row {lineno}: expected {width} columns")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise CsvFormatError(f"row {lineno}: {exc}") from None
        if not all(np.isfinite(rows[-1])):
            raise CsvFormatError(f"row {lineno}: non-finite value")
    return np.array(rows, dtype=float).reshape(len(rows), width)


def _split_head(lines: list[str]) -> tuple[dict, int, list[str]]:
    """(metadata, width, the lines after the header) of a file's lines."""
    meta: dict = {}
    if lines and lines[0].startswith("# grid"):
        meta = dict(t.partition("=")[::2] for t in lines.pop(0)[len("# grid") :].split())
    if not lines:
        raise CsvFormatError("empty file")
    header = lines[0].strip()
    if header not in _WIDTHS:
        raise CsvFormatError(f"unrecognized header {header!r}")
    return meta, _WIDTHS[header], lines[1:]


def _read_table(rows: list[str], width: int) -> np.ndarray:
    """The rows by numpy's reader (comments=None: a '#' in a row fails) if
    it takes them whole, at that width with finite cells; otherwise by the
    row pass, which names the first bad row."""
    try:
        with warnings.catch_warnings():  # numpy warns on an empty body
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return _parse_rows(rows, width)
    whole = len(data) and data.shape[1] == width and np.isfinite(data).all()
    return data if whole else _parse_rows(rows, width)


def load_field_csv(path) -> LoadedField:
    """Parse a field CSV; rejects malformed rows, non-finite values, and
    duplicate nodes. Returns grid-attached samples when the metadata line is
    present and consistent with the rows."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    for ch in _BREAKS:  # one scan each: a regex class costs about 5x as much
        if ch in text:
            raise CsvFormatError(f"line separator {ch!r} in the file")
    meta, width, rows = _split_head(text.splitlines())
    del text  # the lines hold it now: one copy at a time
    data = _read_table(rows, width)
    del rows
    lons, lats = data[:, 0], data[:, 1]
    if len(set(zip(lons.tolist(), lats.tolist()))) != len(data):
        raise CsvFormatError("duplicate nodes")
    values = data[:, 2:] if width == 5 else data[:, 2]
    grid = _rebuild_grid(meta, len(data)) if meta else None
    samples = None
    if grid is not None:
        glon, glat = _lonlat_of(grid.nodes)
        if np.abs(glon - lons).max() < 1e-9 and np.abs(glat - lats).max() < 1e-9:
            samples = FieldSamples(grid, values)
    return LoadedField(lons, lats, values, meta, samples)
