#!/usr/bin/env python3
"""Smoke self-test of the benchmark, at tiny size.

Runs every workload named in ``BENCHMARK.json`` untraced and traced with
``--size tiny`` and asserts that each run is correct and prints every
metric the file names, with the unit the file gives it.  From the
repository root::

    python3 perfbench/smoke.py

Takes about a minute; exits non-zero on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class SmokeFailure(Exception):
    pass


def expect(ok: bool, message: object) -> None:
    """Like ``assert``, but kept under ``python -O``."""
    if not ok:
        raise SmokeFailure(message)


def run(workload: str, trace: int) -> dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(command, capture_output=True, text=True,
                          cwd=ROOT, timeout=300, check=False)
    expect(done.returncode == 0, f"{workload} trace={trace} exited "
           f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    try:
        check_all()
    except SmokeFailure as failure:
        print(f"smoke: FAILED: {failure}", file=sys.stderr)
        return 1
    return 0


def check_all() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in expected.items():
            report = run(workload, trace)
            expect(set(report) == {"correct", "attempted", "failed",
                                   "metrics"}, report.keys())
            expect(report["correct"] and report["failed"] == 0, report)
            expect(report["attempted"] >= 1, report)
            printed = report["metrics"]
            names = {m["name"] for m in metrics}
            expect(set(printed) == names, (
                f"{workload} trace={trace}: missing "
                f"{sorted(names - set(printed))}, extra "
                f"{sorted(set(printed) - names)}"))
            for metric in metrics:
                got = printed[metric["name"]]
                expect(got["unit"] == metric["unit"], (metric, got))
                expect(isinstance(got["value"], (int, float)), got)
            print(f"ok {workload} trace={trace}: {len(printed)} metrics")


if __name__ == "__main__":
    sys.exit(main())
