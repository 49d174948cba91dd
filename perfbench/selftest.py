"""Quick self-test of the benchmark: every workload, both modes, short runs.

Usage (from the repository root)::

    python3 perfbench/selftest.py [workload ...]

Runs ``perfbench/run.py --seconds 1`` for each workload with ``--trace 0``
and ``--trace 1`` and asserts that the run passes its correctness checks
and that its last line names every metric ``BENCHMARK.json`` lists for
that mode, with the listed unit. Then copies ``BENCHMARK.json`` and the
benchmark's files, without the simulator, to a scratch directory and
asserts that the benchmark refuses to run there. Takes a few minutes,
mostly cold set-up.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check(workload: str, trace: int, spec: dict) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, f"{workload} trace={trace}: printed {got}, listed {wanted}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
        if not trace:
            assert m["value"] > 0, (name, m)
    print(f"ok  {workload:15s} trace={trace} ops={result['attempted']} "
          f"failed={result['failed']}", flush=True)


def check_refuses_without_sources() -> None:
    bare = ROOT / ".perfbench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "fleet-steady", 0)
        assert proc.returncode != 0, "benchmark ran without the simulator's sources"
        assert not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without the simulator's sources", flush=True)


def main(argv) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = argv or [w["name"] for w in spec["workloads"]]
    for workload in names:
        for trace in (0, 1):
            check(workload, trace, spec)
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
