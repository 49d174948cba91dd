"""Benchmark of the MEADOW simulator, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-steady --seed 1 --seconds 10 --trace 0

Each run starts the workload in a fresh interpreter (``worker.py``) with
the simulator's sources on ``PYTHONPATH``, one BLAS thread, a private
packing-cache file that does not exist yet (so packing is cold) and no
surface store other than the one sweep-store writes under the run's
private scratch directory. ``--trace 0`` prints the end-to-end metrics;
``setup_s`` is the median of three cold set-ups, each in its own
process. ``--trace 1`` prints the per-layer metrics of a traced run and
writes its spans to ``.perfbench_out/``. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. A failed correctness check exits with status 1.

Workloads and metrics are described in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper-cold", "fleet-steady", "fleet-overload", "sweep-store")
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
#: Every child must be done by then; the whole run must end within 180 s.
BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(tmp: Path, index: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # A fresh, never-written path: packing statistics are computed cold
    # and nothing outside the checkout is read or written.
    env["REPRO_PACKING_CACHE"] = str(tmp / f"packing-cache-{index}.json")
    return env


def spawn(cmd, env, deadline: float) -> str:
    """Run one child to completion within the run's deadline."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before all processes ran")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1]} exceeded the time budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:4])} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{cmd[1]} printed nothing")
    return lines[-1]


def worker(args, mode: str, tmp: Path, index: int, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--mode", mode, "--tmp", str(tmp),
    ]
    if args.trace:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(out_dir / f"trace-{args.workload}-seed{args.seed}.json")]
    cmd += ["--spawned-at", repr(time.monotonic())]
    return json.loads(spawn(cmd, child_env(tmp, index), deadline))


def import_seconds(tmp: Path, deadline: float) -> float:
    """Median time of ``import repro.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    samples = [
        float(spawn([sys.executable, "-c", code], child_env(tmp, 100 + i), deadline))
        for i in range(IMPORT_SAMPLES)
    ]
    return statistics.median(samples)


def _git(*args: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return proc.stdout.strip() if proc.returncode == 0 else ""


def provenance(seed: int, numpy_version: str) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    toplevel = _git("rev-parse", "--show-toplevel")
    in_repo = bool(toplevel) and Path(toplevel).resolve() == ROOT
    sha = _git("rev-parse", "HEAD") if in_repo else ""
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_sha": sha or "unknown",
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no"))
        if sha else None,
        "seed": seed,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        result = worker(args, "run", tmp, 0, deadline)
        metrics = dict(result["metrics"])
        if args.trace:
            metrics["cli.import_s"] = [import_seconds(tmp, deadline), "s"]
        else:
            setups = [result["setup_s"]] + [
                worker(args, "setup", tmp, i, deadline)["setup_s"]
                for i in range(1, SETUP_SAMPLES)
            ]
            result["notes"].append(
                "setup_s samples: " + ", ".join(f"{s:.3f}" for s in setups))
            metrics["setup_s"] = [statistics.median(setups), "s"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    stamp = provenance(args.seed, result["numpy"])
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} units={result['units']}")
    print("provenance: " + json.dumps(stamp, sort_keys=True))
    print(f"digest: sha256 {result['digest']} (simulated statistics)")
    for note in result["notes"]:
        print(f"note: {note}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:28s} {value:>16.6f} {unit}")
    print(f"ops {result['attempted']} ops_failed {result['failed']}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    correct = not result["problems"]
    print(f"checks: {'all passed' if correct else 'FAILED'}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
