"""Smoke runs of the study scripts at small sizes, in a fresh interpreter."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# row counts of the tables a script prints after its first: rim_study.py
# follows its per-ring table with the cap solvers' rim sweep and the layer
# potentials' sweep across the rim
FOLLOWING_TABLES = {"rim_study.py": [5, 10]}


@pytest.mark.parametrize(
    "script, args, rows",
    [
        ("scale_study.py", ["--nt", "24", "--nphi", "48", "--scales", "4", "6"], 2),
        ("vortex_study.py", ["--counts", "20", "40"], 3),
        ("rim_study.py", ["--nt", "24", "--nphi", "48", "--m", "128", "--rings", "4"], 4),
    ],
)
def test_study_script_prints_its_table(script, args, rows):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    path = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    tables = [rows] + FOLLOWING_TABLES.get(script, [])
    assert len(lines) == sum(1 + n for n in tables)
    start = 0
    for n in tables:
        # a header, then n rows of three finite numbers
        with pytest.raises(ValueError):
            float(lines[start].split()[0])
        for line in lines[start + 1 : start + 1 + n]:
            numbers = [float(cell) for cell in line.split()]
            assert len(numbers) == 3
            assert all(math.isfinite(x) for x in numbers)
        start += 1 + n
