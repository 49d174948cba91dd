"""Golden guard: the latency model's raw numbers, pinned per plan.

The serving goldens in ``test_serving_claims.py`` pin *composed* fleet
metrics; twice in this repo's history an upstream ``sim/`` change
drifted them silently and the re-pin landed a PR late (the ROADMAP
"known wart"). This guard sits one layer lower: it pins the modeled
latency/energy of representative operating points for every execution
plan at both bandwidth corners, straight off the latency surface. Any
fidelity-level change — packing, dataflow, energy model — trips this
file in the same commit that caused it, with a one-line re-record hint
instead of a cryptic downstream diff.

Re-record (only when a fidelity change is intentional), after bumping
``FIDELITY_VERSION`` in ``repro/sim/surface_store.py`` so surface
stores written by the old model stop matching::

    PYTHONPATH=src python tests/integration/test_golden_guard.py --record
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import MeadowEngine, zcu102_config
from repro.baselines import cta, flightllm, gemm_baseline
from repro.core import ExecutionPlan
from repro.models import OPT_125M
from repro.sim.surface_store import FIDELITY_VERSION

GOLDEN_PATH = Path(__file__).with_name("golden_model_numbers.json")

RECORD_HINT = (
    "modeled numbers drifted — if the fidelity change is intentional, "
    "bump FIDELITY_VERSION in src/repro/sim/surface_store.py and "
    "re-record in THIS commit with: "
    "PYTHONPATH=src python tests/integration/test_golden_guard.py --record"
)

_PLANS = {
    "meadow": ExecutionPlan.meadow,
    "gemm": gemm_baseline,
    "cta": cta,
    "flightllm": flightllm,
}

#: Bandwidth corners of the paper's sweep (Gbps).
_BANDWIDTHS = (1.0, 12.0)


def compute_goldens():
    """Current modeled numbers for every (plan, bandwidth) corner."""
    out = {}
    for plan_name, plan_factory in sorted(_PLANS.items()):
        for bw in _BANDWIDTHS:
            engine = MeadowEngine(OPT_125M, zcu102_config(bw), plan_factory())
            prefill = engine.surface.prefill(128)
            decode = engine.surface.decode(192)
            out[f"{plan_name}@{bw:g}gbps"] = {
                "prefill128_latency_s": prefill.latency_s,
                "prefill128_energy_uj": prefill.energy_uj,
                "decode192_latency_s": decode.latency_s,
                "decode192_energy_uj": decode.energy_uj,
            }
    return out


def _load_goldens():
    assert GOLDEN_PATH.exists(), f"missing {GOLDEN_PATH.name}; {RECORD_HINT}"
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    return golden.pop("fidelity_version", None), golden


def test_goldens_record_the_fidelity_version():
    # The store fingerprint carries FIDELITY_VERSION; goldens recorded
    # under another version mean one of the two was not updated.
    version, _ = _load_goldens()
    assert version == FIDELITY_VERSION, RECORD_HINT


def test_modeled_numbers_match_goldens():
    _, golden = _load_goldens()
    current = compute_goldens()
    assert sorted(golden) == sorted(current), RECORD_HINT
    drifts = []
    for key, block in golden.items():
        for metric, want in block.items():
            got = current[key].get(metric)
            if got != pytest.approx(want, rel=1e-9):
                drifts.append(
                    f"  {key}.{metric}: golden {want!r} -> current {got!r}"
                )
    assert not drifts, "\n".join(["modeled numbers drifted:"] + drifts + [RECORD_HINT])


def test_goldens_are_deterministic():
    # The guard is only as strong as the numbers are reproducible.
    assert compute_goldens() == compute_goldens()


_PROBE = (
    "from repro import MeadowEngine, OPT_125M, zcu102_config\n"
    "engine = MeadowEngine(OPT_125M, zcu102_config(12.0))\n"
    "print(engine.packing_summary(), repr(engine.surface.prefill(128)))\n"
)


def test_numbers_independent_of_hash_seed_and_tmpdir(tmp_path):
    """Two fresh interpreters with different hash seeds and private temp
    directories model the same packing and latency: the numbers are a
    pure function of their inputs, never of set order or of a file some
    earlier process left behind."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    procs = []
    for hash_seed in ("0", "1"):
        tmp = tmp_path / f"tmp-{hash_seed}"
        tmp.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, TMPDIR=str(tmp))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        procs.append(subprocess.Popen(
            [sys.executable, "-c", _PROBE], env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ))
    outputs = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        outputs.append(out)
    assert "PackingSummary" in outputs[0]
    assert outputs[0] == outputs[1]


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="golden guard recorder")
    parser.add_argument(
        "--record", action="store_true",
        help=f"rewrite {GOLDEN_PATH.name} from the current model",
    )
    args = parser.parse_args()
    if not args.record:
        parser.error("run under pytest to check; pass --record to re-pin")
    record = {"fidelity_version": FIDELITY_VERSION, **compute_goldens()}
    GOLDEN_PATH.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"recorded {GOLDEN_PATH}")
