"""Spans around the public functions of sphaerica, for the traced run.

``install`` replaces every public function of the traced modules, in every
loaded sphaerica module that holds a reference to it, by a wrapper that
opens a span while the recorder is enabled and calls straight through
otherwise. Nothing under ``src/`` changes: the untraced run never installs
the wrappers.

A span records its layer, start, end, the time its child spans cover and
the work counts computed from its arguments' array sizes (kernel pairs,
SH point-terms, basis sizes, CSV payload bytes, grid nodes). Self time is
the duration minus the child time. Kernel evaluation has no span of its
own; it shows inside the calling solvers and decomposition spans, and
``.pair_ns`` (self time per kernel pair) is its proxy.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

TRACED_MODULES = (
    "quadrature",
    "harmonics",
    "solvers",
    "decomposition",
    "layers",
    "mfs",
    "apps",
    "gridio",
)

# layer of each public function; the rest of a module's public functions
# report as "<module>.other"
LAYER_OF = {
    "quadrature.build_cap_grid": "quadrature.build",
    "quadrature.build_sphere_grid": "quadrature.build",
    "quadrature.build_boundary_grid": "quadrature.build",
    "decomposition.helmholtz_decompose_sphere": "decomposition.helmholtz",
    "decomposition.d_inv_convolve": "decomposition.d_inv",
    "decomposition.decompose_cap_at": "decomposition.cap_at",
    "solvers.surface_potential": "solvers.surface_potential",
    "solvers.invert_gradient": "solvers.invert_gradient",
    "solvers.dirichlet_solve_cap": "solvers.boundary",
    "solvers.neumann_solve_cap": "solvers.boundary",
    "mfs.mfs_fit": "mfs.fit",
    "mfs.mfs_eval": "mfs.eval",
    "apps.vd_forward": "apps.forward",
    "apps.geo_forward": "apps.forward",
    "apps.vd_reconstruct": "apps.reconstruct",
    "apps.geo_reconstruct": "apps.reconstruct",
    "apps.vortex_mfs": "apps.reconstruct",
    "gridio.save_field_csv": "gridio.save",
    "gridio.load_field_csv": "gridio.load",
}
# whole modules that form one layer
MODULE_LAYER = {"harmonics": "harmonics.synth", "layers": "layers.solve"}


def _rows(points) -> int:
    return np.atleast_2d(np.asarray(points, dtype=float)).shape[0]


def _helmholtz(a, _):
    n = len(a["samples"].grid)
    return {"decomposition.helmholtz.pairs": 2 * n * n}


def _d_inv(a, _):
    xi = np.asarray(a["xi"])
    rows = xi.size if xi.dtype.kind in "iu" else _rows(xi)
    return {"decomposition.d_inv.pairs": rows * len(a["samples"].grid)}


def _cap_at(a, _):
    grid = a["samples"].grid
    per_target = 2 * len(grid) + 3 * a["m"]
    targets = _rows(a["points"])
    if a["demean"] and a["points"] is not grid.nodes:
        targets += len(grid)
    return {"decomposition.cap_at.pairs": targets * per_target}


def _grid_pairs(name, points_arg):
    def count(a, _):
        return {name: _rows(a[points_arg]) * len(a["samples"].grid)}

    return count


def _layer_pairs(a, _):
    return {"layers.pairs": _rows(a["xi"]) * len(a["density"].grid)}


def _sh_terms(a, _):
    return {"harmonics.point_terms": _rows(a["xi"]) * (a["c"].l_max + 1) ** 2}


def _inner_terms(a, _):
    return {"harmonics.point_terms": _rows(a["xi"])}


def _basis(a, _):
    return {"mfs.basis": a["system"].size}


def _nodes(_, grid):
    return {"quadrature.nodes": len(grid)}


def _bytes_written(a, _):
    values = a["samples"].values
    # float64 payload: lon, lat and the value columns of every row
    return {"gridio.bytes_written": 8 * (values.size + 2 * values.shape[0])}


def _bytes_read(_, loaded):
    size = loaded.lons.size + loaded.lats.size + loaded.values.size
    return {"gridio.bytes_read": 8 * size}


COUNTERS = {
    "decomposition.helmholtz_decompose_sphere": _helmholtz,
    "decomposition.d_inv_convolve": _d_inv,
    "decomposition.decompose_cap_at": _cap_at,
    "solvers.surface_potential": _grid_pairs("solvers.surface_potential.pairs", "xi"),
    "solvers.invert_gradient": _grid_pairs("solvers.invert_gradient.pairs", "xi"),
    "layers.single_layer": _layer_pairs,
    "layers.double_layer": _layer_pairs,
    "harmonics.sh_eval": _sh_terms,
    "harmonics.sh_grad_eval": _sh_terms,
    "harmonics.inner_harmonic_eval": _inner_terms,
    "harmonics.inner_harmonic_grad": _inner_terms,
    "mfs.mfs_fit": _basis,
    "quadrature.build_cap_grid": _nodes,
    "quadrature.build_sphere_grid": _nodes,
    "quadrature.build_boundary_grid": _nodes,
    "gridio.save_field_csv": _bytes_written,
    "gridio.load_field_csv": _bytes_read,
}


@dataclass
class Span:
    layer: str
    start: float
    parent: "Span | None"
    end: float = 0.0
    child_time: float = 0.0
    counts: dict = field(default_factory=dict)


class Recorder:
    """Keeps the spans of the current phase in memory while enabled."""

    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self._open: Span | None = None

    def start(self) -> None:
        self.spans = []
        self._open = None
        self.enabled = True

    def stop(self) -> list[Span]:
        self.enabled = False
        return self.spans

    def call(self, layer, counter, signature, fn, args, kwargs):
        span = Span(layer, time.perf_counter(), self._open)
        self._open = span
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open = span.parent
            if span.parent is not None:
                span.parent.child_time += span.end - span.start
            self.spans.append(span)
        if counter is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span.counts = counter(bound.arguments, result)
        return result


def _wrap(recorder: Recorder, qualname: str, fn):
    module = qualname.split(".")[0]
    layer = LAYER_OF.get(qualname) or MODULE_LAYER.get(module, f"{module}.other")
    counter = COUNTERS.get(qualname)
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        return recorder.call(layer, counter, signature, fn, args, kwargs)

    return traced


def install(recorder: Recorder) -> int:
    """Wrap the public functions of the traced modules; returns how many."""
    loaded = [m for name, m in sys.modules.items() if name.startswith("sphaerica.")]
    originals = {}
    for short in TRACED_MODULES:
        module = sys.modules[f"sphaerica.{short}"]
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                originals[obj] = _wrap(recorder, f"{short}.{name}", obj)
    for module in loaded:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in originals:
                setattr(module, name, originals[obj])
    return len(originals)


def phase_metrics(spans: list[Span]) -> dict:
    """Self time per layer ("<layer>_s") and summed counts of one phase."""
    out: dict = defaultdict(float)
    for span in spans:
        out[f"{span.layer}_s"] += span.end - span.start - span.child_time
        for key, value in span.counts.items():
            out[key] += value
    out["covered_s"] = sum(s.end - s.start for s in spans if s.parent is None)
    return dict(out)
