"""Self-test of the benchmark at its smallest sizes.

Run from the repository root::

    python3 perfbench/selftest.py

For every workload it runs ``run.py --small`` untraced twice with one seed
and traced once, and checks that

- every run exits 0 and reports ``correct``;
- every metric named in ``BENCHMARK.json`` appears with its unit (the
  end-to-end ones untraced, the per-layer ones traced), and nothing else;
- the two same-seed runs give identical ``sim_*`` metrics and digests.

It also checks that ``run.py`` fails, printing no result, in a directory
holding only ``BENCHMARK.json`` and ``perfbench/``.  Exits 1 on any
failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(workload: str, trace: int, cwd: str = ROOT
        ) -> Tuple[int, List[str]]:
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace),
         "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return process.returncode, process.stdout.strip().splitlines()


def digest(lines: List[str]) -> str:
    return next(line.split()[1] for line in lines
                if line.strip().startswith("digest "))


def check_units(result: dict, expected: Dict[str, str]) -> List[str]:
    problems = []
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: missing "
                        f"{sorted(set(expected) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        if name in metrics and metrics[name].get("unit") != unit:
            problems.append(f"{name}: unit {metrics[name].get('unit')!r}, "
                            f"expected {unit!r}")
        if name in metrics and not isinstance(metrics[name].get("value"),
                                              (int, float)):
            problems.append(f"{name}: value is not a number")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems: List[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for _ in range(2):
            code, lines = run(workload, 0)
            if code != 0:
                problems.append(f"{workload}: exit {code}: {lines[-3:]}")
                break
            runs.append((json.loads(lines[-1]), digest(lines)))
        if len(runs) == 2:
            (first, first_digest), (second, second_digest) = runs
            problems += [f"{workload}: {p}"
                         for p in check_units(first, end_to_end)]
            if not first["correct"]:
                problems.append(f"{workload}: untraced run not correct")
            sim_first = {k: v for k, v in first["metrics"].items()
                         if k.startswith("sim_")}
            sim_second = {k: v for k, v in second["metrics"].items()
                          if k.startswith("sim_")}
            if sim_first != sim_second:
                problems.append(f"{workload}: sim_* metrics differ between "
                                f"same-seed runs")
            if first_digest != second_digest:
                problems.append(f"{workload}: digests differ between "
                                f"same-seed runs")
        code, lines = run(workload, 1)
        if code != 0:
            problems.append(f"{workload}: traced exit {code}: {lines[-3:]}")
        else:
            traced = json.loads(lines[-1])
            problems += [f"{workload} traced: {p}"
                         for p in check_units(traced, per_layer)]
        print(f"{workload}: {'ok' if not problems else 'problems so far'}")

    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, lines = run("roam_udp", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith("{") for line in lines):
        problems.append("run.py did not fail without the program's sources")

    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest " + ("passed" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
