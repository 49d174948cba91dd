"""One workload in one fresh process; prints its result as one JSON line.

Started by ``perfbench/run.py`` with the environment it prepares
(``PYTHONPATH=src``, one BLAS thread, a private packing-cache path).
``--mode setup`` stops once the engines are ready, so the parent can
take several cold set-up samples; ``--mode run`` measures the workload
untraced (end-to-end metrics) or, with ``--trace 1``, traced (per-layer
metrics).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter


def tail(samples):
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it; the maximum when there are ten or fewer."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(run) -> dict:
    """Medians over units (rates) and over op groups (median and tail op)."""
    tails = [tail(ops) for ops in run.op_groups]
    _, percentile, n = tails[0]
    run.note(f"op_tail_ms is the median over {len(tails)} op groups of each "
             f"group's p{percentile:.2f} ({n} ops per group)")
    if run.once_ops:
        run.note("once-phase ops (ms, not in op_*): "
                 + ", ".join(f"{ms:.1f}" for ms in run.once_ops))
    return {
        "sim_req_per_s": (statistics.median(run.unit_rates), "1/s"),
        "op_p50_ms": (statistics.median(statistics.median(o) for o in run.op_groups), "ms"),
        "op_tail_ms": (statistics.median(t[0] for t in tails), "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"
        ),
    }


def per_layer(tracer, run, overhead: float, exponent) -> dict:
    t = tracer
    gen = t.calls["quant.generate_int8_weights"]
    matrices = t.calls["packing.stats_for"]
    points = t.calls["sim.simulate"]
    lookups = t.layer_calls(
        "surface",
        ("prefill", "decode", "decode_run", "decode_run_many", "queued_prefill_s"),
    )
    advances = t.layer_calls("serving", ("advance_until", "advance_one"))
    decisions = t.calls["routing.route"]
    packing_s = t.layer_self_s("packing")
    sim_s = t.layer_self_s("sim")
    serving_s = t.layer_self_s("serving")
    routing_s = t.layer_self_s("routing")
    warm_seen = run.warm_loaded + run.warm_simulated

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "quant.gen_calls": (gen, "count"),
        "quant.busy_s": (t.layer_self_s("quant"), "s"),
        "packing.matrices": (matrices, "count"),
        "packing.busy_s": (packing_s, "s"),
        "packing.ms_per_matrix": (ratio(packing_s * 1e3, matrices), "ms"),
        "sim.points": (points, "count"),
        "sim.busy_s": (sim_s, "s"),
        "sim.us_per_point": (ratio(sim_s * 1e6, points), "us"),
        "surface.lookups": (lookups, "count"),
        "surface.hit_ratio": (ratio(lookups - t.surface_misses, lookups), "ratio"),
        "surface.self_s": (t.layer_self_s("surface"), "s"),
        "store.points_loaded": (t.store_loaded, "count"),
        "store.points_saved": (t.store_saved, "count"),
        "store.load_s": (t.total_ns["store.load"] / 1e9, "s"),
        "store.save_s": (t.total_ns["store.save"] / 1e9, "s"),
        "store.warm_ratio": (ratio(run.warm_loaded, warm_seen), "ratio"),
        "serving.advance_calls": (advances, "count"),
        "serving.self_s": (serving_s, "s"),
        "serving.decode_iters": (run.decode_iters, "count"),
        "serving.iters_per_advance": (ratio(run.decode_iters, advances), "ratio"),
        "serving.ns_per_token": (ratio(serving_s * 1e9, run.generated_tokens), "ns"),
        "serving.peak_queue": (t.peak_in_system, "count"),
        "routing.decisions": (decisions, "count"),
        "routing.self_s": (routing_s, "s"),
        "routing.us_per_decision": (ratio(routing_s * 1e6, decisions), "us"),
        "fleet.run_self_s": (t.layer_self_s("fleet"), "s"),
        "fleet.failed_runs": (run.failed_runs, "count"),
        "fleet.scaling_exponent": (exponent if exponent is not None else 0.0, "ratio"),
        "bench.trace_overhead": (overhead, "ratio"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mode", choices=("setup", "run"), default="run")
    p.add_argument("--spawned-at", type=float, required=True,
                   help="parent's time.monotonic() just before the spawn")
    p.add_argument("--tmp", type=Path, required=True)
    p.add_argument("--trace-out", type=Path, default=None)
    args = p.parse_args(argv)

    import numpy

    from tracer import Tracer
    from workloads import Run, make_workload

    tracer = Tracer() if args.trace else None
    workload = make_workload(args.workload, args.seed, args.tmp)
    if tracer is not None:
        tracer.install()
    workload.setup()
    setup_s = time.monotonic() - args.spawned_at
    out = {"setup_s": setup_s, "numpy": numpy.__version__}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    run = Run(tracer)
    started = perf_counter()
    workload.once(run)
    if tracer is None:
        # Start another unit only if one more, as long as the last,
        # still ends within --seconds.
        deadline = started + args.seconds
        while True:
            t0 = perf_counter()
            workload.unit(run)
            now = perf_counter()
            if now + (now - t0) > deadline:
                break
        metrics = end_to_end(run)
    else:
        t0 = perf_counter()
        workload.unit(run)
        traced_s = perf_counter() - t0
        tracer.uninstall()
        plain = Run()
        t0 = perf_counter()
        workload.unit(plain)
        plain_s = perf_counter() - t0
        run.check(plain.unit_digests == run.unit_digests[:1],
                  "untraced unit digest differs from the traced unit")
        run.problems.extend(plain.problems)
        exponent = workload.scaling()
        metrics = per_layer(tracer, run, traced_s / plain_s, exponent)
        if args.trace_out is not None:
            tracer.write(args.trace_out, {"workload": args.workload, "seed": args.seed})
            run.note(f"{len(tracer.span_id)} spans written to {args.trace_out}")
    run.check(len(set(run.unit_digests)) <= 1,
              "repeated units produced different simulated statistics")
    out.update(
        attempted=run.attempted,
        failed=run.failed,
        digest=run.digest,
        units=len(run.unit_digests),
        problems=run.problems,
        notes=run.notes,
        metrics={name: list(v) for name, v in metrics.items()},
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
