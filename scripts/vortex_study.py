#!/usr/bin/env python3
"""Vortex stream-function reconstruction error versus source count and
source-circle offset.

Mirrors the collocation experiment of the vortex application: seeded
vortices in a polar cap, log-difference basis anchored on an enlarged
boundary circle, Tikhonov least squares, errors measured against the
closed-form stream function at interior probes.
"""

import argparse

import numpy as np

from sphaerica.apps import random_vortices, vortex_mfs
from sphaerica.geometry import SphericalCap

def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--vortices", type=int, default=5)
    parser.add_argument("--counts", type=int, nargs="+", default=[50, 100, 200, 400])
    parser.add_argument(
        "--offsets", type=float, nargs="+", default=[5e-6, 0.005, 0.068]
    )
    args = parser.parse_args()

    cap = SphericalCap(np.array([0.0, 0.0, 1.0]), 0.9)
    vortices = random_vortices(cap, args.vortices, args.seed)
    rng = np.random.default_rng(args.seed + 1)
    frame = cap.frame
    probes = []
    for _ in range(200):
        t = 1.0 - 0.8 * cap.radius * rng.random()
        phi = rng.uniform(0.0, 2.0 * np.pi)
        probes.append(
            t * cap.center
            + np.sqrt(1 - t * t)
            * (np.cos(phi) * frame[:, 0] + np.sin(phi) * frame[:, 1])
        )
    probes = np.array(probes)

    header = " ".join(f"M={c:<6d}" for c in args.counts)
    print(f"{'offset':>10s}  rel sup error per source count: {header}")
    for offset in args.offsets:
        row = []
        for count in args.counts:
            report = vortex_mfs(
                cap, vortices, n_sources=count, radius_offset=offset, probes=probes
            )
            row.append(f"{report.diagnostics['rel_sup_error']:8.1e}")
        print(f"{offset:10.2e}  {'  '.join(row)}")


if __name__ == "__main__":
    main()
