"""Benchmark of the sphaerica solve pipelines.

    python3 perfbench/run.py --workload sphere-split --seed 1 --seconds 25 --trace 0

Run from the repository root. One client drives a closed loop of solves
in this process: solve k uses seed + k and starts when solve k - 1 has
returned. Every solve is checked against its analytic oracle.

--trace 0 reports the end-to-end metrics of an untraced run. --trace 1
wraps the public functions of the library in spans (see spans.py),
alternates untraced and traced solves, runs the one-off CLI fidelity check
and reports the per-layer metrics. The last line of standard output is the
result JSON; the lines before it record the environment and details. The
exit status is 0 only if every solve met its oracle tolerance.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy is first imported, here and in the
# set-up probes this process starts. One thread: a single client drives the
# loop, the kernel products are elementwise numpy, and on a small shared
# machine a second spinning BLAS thread can stall a solve many times over.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# the process (and the set-up probes it starts) stays on one CPU: moving
# between CPUs adds run-to-run spread to these memory-bound solves
PINNED_CPU = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {PINNED_CPU})

import argparse
import json
import math
import platform
import shutil
import statistics
import subprocess
import time
import tracemalloc
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 15
# oracle_err comes from one untimed solve at this fixed seed: the largest
# error over a run's own seeds moves by up to 20% (quartile spread) from
# seed to seed, which would hide an accuracy change. Every solve is gated.
REFERENCE_SEED = 0
SETUP_TIMEOUT_S = 60


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("sphere-split", "cap-recovery", "boundary-mfs")
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true", help="time one set-up and print it"
    )
    return parser.parse_args(argv)


def _import_workloads():
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    return workloads


def setup_probe(workload: str) -> None:
    """Child mode: time importing sphaerica and building one workload."""
    start = time.perf_counter()
    workloads = _import_workloads()
    work_dir = WORK / f"setup-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    workloads.WORKLOADS[workload](str(work_dir))
    print(time.perf_counter() - start)
    shutil.rmtree(work_dir, ignore_errors=True)


def measure_setup(workload: str) -> float:
    """Set-up time of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--setup-probe"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {
            lib: {k: deps[lib].get(k) for k in ("name", "version", "openblas configuration")}
            for lib in ("blas", "lapack")
            if lib in deps
        }
    except (TypeError, KeyError):
        blas = "unavailable"
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": PINNED_CPU,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": int(BLAS_THREADS),
        "blas": blas,
    }


class Solves:
    """Runs solves, times them and keeps the oracle results."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.worst_rel = 0.0
        self.last_rel = 0.0
        self.worst = {}

    def run(self, seed: int) -> float:
        self.attempted += 1
        start = time.perf_counter()
        try:
            checks = self.workload.solve(seed)
        except Exception:
            elapsed = time.perf_counter() - start
            self.failed += 1
            print(f"solve seed={seed} raised:", file=sys.stderr)
            traceback.print_exc()
            return elapsed
        elapsed = time.perf_counter() - start
        missed = [c for c in checks if not c.passed]
        self.last_rel = max(c.rel_sup for c in checks)
        self.worst_rel = max(self.worst_rel, self.last_rel)
        for c in checks:
            if c.error > self.worst.get(c.name, (0.0, c.tol))[0]:
                self.worst[c.name] = (c.error, c.tol)
        if missed:
            self.failed += 1
            for c in missed:
                print(
                    f"solve seed={seed} missed {c.name}: {c.error:.3e} > {c.tol:.1e}",
                    file=sys.stderr,
                )
        return elapsed


def tail(times: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 11:
        return {"percentile": None, "value": None, "samples": n}
    ordered = sorted(times)
    return {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11], "samples": n}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(args, solves: Solves) -> dict:
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    solves.run(REFERENCE_SEED)
    peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
    reference_err = solves.last_rel

    # the set-up probes are spread over the timed phase, between solves and
    # outside their timing, so that their median sees the same drift of the
    # machine's speed as the solves do
    setup, times = [], []
    solving = 0.0
    while not times or solving < args.seconds:
        times.append(solves.run(args.seed + len(times)))
        solving += times[-1]
        while len(setup) < min(SETUP_REPEATS, math.ceil(SETUP_REPEATS * solving / args.seconds)):
            setup.append(measure_setup(args.workload))
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup(args.workload))
    print(json.dumps({"setup_s": setup, "solve_s": times, "solve_s_tail": tail(times)}))
    return {
        "solve_s_p50": metric(statistics.median(times), "s"),
        "solves_per_s": metric(len(times) / solving, "1/s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_alloc_mb": metric(peak / 1e6, "MB"),
        "oracle_err": metric(reference_err, "ratio"),
    }


# per-layer metrics, reported on every workload (zero where it does not reach
# the layer)
LAYER_TIMES = (
    "decomposition.helmholtz",
    "decomposition.d_inv",
    "solvers.surface_potential",
    "solvers.invert_gradient",
    "decomposition.cap_at",
)
SELF_TIMES = (
    "harmonics.synth_s",
    "mfs.fit_s",
    "mfs.eval_s",
    "layers.solve_s",
    "solvers.boundary_s",
    "gridio.save_s",
    "gridio.load_s",
    "apps.forward_s",
    "apps.reconstruct_s",
    "quadrature.solve_build_s",
    "quadrature.other_s",
    "decomposition.other_s",
    "solvers.other_s",
    "mfs.other_s",
    "apps.other_s",
)
COUNTS = {
    "harmonics.point_terms": "count",
    "mfs.basis": "count",
    "layers.pairs": "pairs",
    "gridio.bytes_written": "B",
    "gridio.bytes_read": "B",
    "quadrature.solve_nodes": "count",
}


def traced(args, solves: Solves, spans, recorder, setup_spans) -> tuple[dict, bool]:
    solves.run(REFERENCE_SEED)  # warm-up
    plain, timed, per_solve = [], [], []
    k = 0
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < args.seconds:
        plain.append(solves.run(args.seed + k))
        recorder.start()
        timed.append(solves.run(args.seed + k + 1))
        layer = spans.phase_metrics(recorder.stop())
        layer["trace.unattributed_s"] = timed[-1] - layer.pop("covered_s")
        # grid builds inside a solve are reported apart from the set-up ones
        for old, new in (("quadrature.build_s", "quadrature.solve_build_s"),
                         ("quadrature.nodes", "quadrature.solve_nodes")):
            if old in layer:
                layer[new] = layer.pop(old)
        per_solve.append(layer)
        k += 2

    def med(key: str) -> float:
        return statistics.median(s.get(key, 0.0) for s in per_solve)

    # work counts come from array sizes, so every seed must repeat them
    counts = {k: v for k, v in per_solve[0].items() if not k.endswith("_s")}
    counts_repeat = all(
        {k: v for k, v in s.items() if not k.endswith("_s")} == counts for s in per_solve
    )

    out = {}
    for layer in LAYER_TIMES:
        seconds = med(f"{layer}_s")
        pairs = med(f"{layer}.pairs")
        out[f"{layer}_s"] = metric(seconds, "s")
        out[f"{layer}.pairs"] = metric(pairs, "pairs")
        out[f"{layer}.pair_ns"] = metric(1e9 * seconds / pairs if pairs else 0.0, "ns")
    for key in SELF_TIMES:
        out[key] = metric(med(key), "s")
    for key, unit in COUNTS.items():
        out[key] = metric(med(key), unit)
    terms = out["harmonics.point_terms"]["value"]
    synth = out["harmonics.synth_s"]["value"]
    out["harmonics.ns_per_point_term"] = metric(1e9 * synth / terms if terms else 0.0, "ns")
    setup = spans.phase_metrics(setup_spans)
    out["quadrature.build_s"] = metric(setup.get("quadrature.build_s", 0.0), "s")
    out["quadrature.nodes"] = metric(setup.get("quadrature.nodes", 0.0), "count")
    out["trace.overhead_s"] = metric(statistics.median(timed) - statistics.median(plain), "s")
    out["trace.unattributed_s"] = metric(med("trace.unattributed_s"), "s")
    print(json.dumps({"untraced_solve_s": plain, "traced_solve_s": timed}))
    return out, counts_repeat


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sphaerica" / "__init__.py").is_file():
        print(f"error: no sphaerica sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    workloads = _import_workloads()
    work_dir = WORK / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed}))
    correct = True
    try:
        if args.trace:
            import spans

            recorder = spans.Recorder()
            spans.install(recorder)
            recorder.start()
            workload = workloads.WORKLOADS[args.workload](str(work_dir))
            setup_spans = recorder.stop()
            try:
                workload.fidelity(args.seed)
            except (AssertionError, RuntimeError) as exc:
                print(f"fidelity check failed: {exc}", file=sys.stderr)
                correct = False
            solves = Solves(workload)
            metrics, counts_repeat = traced(args, solves, spans, recorder, setup_spans)
            if not counts_repeat:
                print("work counts differ between solves", file=sys.stderr)
                correct = False
        else:
            solves = Solves(workloads.WORKLOADS[args.workload](str(work_dir)))
            metrics = untraced(args, solves)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(
        json.dumps(
            {
                "worst_errors": solves.worst,
                "oracle_err_run": solves.worst_rel,
                "failed_ratio": solves.failed / solves.attempted,
            }
        )
    )
    correct = correct and solves.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": solves.attempted,
                "failed": solves.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
