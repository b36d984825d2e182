"""Run the benchmark once per seed and summarise every metric.

    python3 perfbench/record.py --workload cap-recovery --trace 0 \
        --seeds 1-10 --seconds 25 --out perfbench/baseline/untraced.json

For each workload and metric it stores the values of every run, their
median and quartiles (statistics.quantiles, n=4) and the spread, the
distance between the quartiles as a share of the median. Results of
several invocations accumulate in one file, keyed by workload and trace
mode. Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    return json.loads(lines[0]), json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {}
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        units = {}
        env = None
        for seed in seed_list(args.seeds):
            head, result = run_once(workload, seed, args.seconds, args.trace)
            env = env or head["env"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(workload, seed, "ok", flush=True)
        record[f"{workload}/trace{args.trace}"] = {
            "seeds": args.seeds,
            "seconds": args.seconds,
            "env": env,
            "metrics": {
                name: {"unit": units[name], **summarise(v)} for name, v in values.items()
            },
        }
        for name, v in values.items():
            s = summarise(v)
            print(f"  {name:40s} median {s['median']:.6g}  spread {s['spread']:.4f}")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
