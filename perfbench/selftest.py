"""Benchmark self-test: counts repeat exactly.

Usage, from the repository root:

    python3 perfbench/selftest.py

For every workload, two traced repetitions with seed 7 must give identical
counters (calls, ICP and fit iterations, convergence ratios, maps and clouds
written) and identical output digests, so a later change can cite a count
as exact. Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run  # noqa: E402


SEED = 7


def check_repeat(name: str) -> list[str]:
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    run_dir = run.WORK / f"selftest-{name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        inp = run_dir / "in"
        inp.mkdir(parents=True)
        workload.generate(inp, SEED)
        reps = [run.run_repetition(workload, SEED, inp, run_dir / f"trace{i}", True) for i in range(2)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    first, second = (run.counters(r["layers"]) for r in reps)
    problems = [
        f"{name}: {key} is {first[key]} then {second[key]}" for key in first if first[key] != second[key]
    ]
    if reps[0]["output_digest"] != reps[1]["output_digest"]:
        problems.append(f"{name}: output digests differ")
    problems += [f"{name}: {p}" for p in run.check(workload, reps)]
    nonzero = {k: v for k, v in first.items() if v}
    print(f"{name}: {len(nonzero)} non-zero counters, e.g. " + json.dumps(dict(list(nonzero.items())[:6])))
    return problems


def main() -> int:
    run.import_program()
    from perfbench.workloads import WORKLOADS

    problems = []
    for name in WORKLOADS:
        problems += check_repeat(name)
    for problem in problems:
        print(f"FAILED: {problem}")
    print("selftest: " + ("passed" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
