"""The benchmark's four workloads, their inputs and their correctness checks.

Each workload is built from the benchmark's ``--seed`` alone and hands
the simulator only the generated queries or request streams. A workload
has three phases:

* ``setup()`` builds the engines cold (imports are already paid) and
  forces their packing statistics, so ``setup_s`` covers all of it;
* ``once(run)`` runs work a user pays once per process (paper-cold's
  fidelity suite);
* ``unit(run)`` runs one repeatable batch of operations on fresh
  engines. The run phase repeats units until its time is up; every unit
  must reproduce the first unit's digest bit for bit.

``scaling()`` times the full stream against a stream a third as long
on warm surfaces, for ``fleet.scaling_exponent``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro import MeadowEngine, zcu102_config
from repro.analysis.fidelity import paper_fidelity_suite
from repro.baselines import cta, flightllm, gemm_baseline
from repro.core.plan import ExecutionPlan
from repro.errors import ReproError
from repro.fleet import FleetSimulator, SweepDriver
from repro.fleet.resilience import Disposition
from repro.fleet.routing import POLICY_NAMES
from repro.fleet.sweep import FleetSweepResult
from repro.models import get_model
from repro.serving import (
    LengthDistribution,
    RequestStream,
    bursty_stream,
    poisson_stream,
)
from repro.sim.surface_store import SurfaceStore

from tracer import Tracer

PROMPTS = LengthDistribution("uniform", 64, 256)
OUTPUTS = LengthDistribution("geometric", 24, 96)
FLEET_BANDWIDTHS = (12.0, 1.0, 12.0, 1.0)


class Run:
    """What one process measured and checked across its phases."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        #: Host ms of every operation, one list per op group (a unit, or
        #: one fleet scenario) whose median and tail are taken together.
        self.op_groups: List[List[float]] = []
        #: Host ms of the once-phase operations.
        self.once_ops: List[float] = []
        #: Simulated requests completed per host second, one per unit.
        self.unit_rates: List[float] = []
        self.unit_digests: List[str] = []
        self.once_digest = ""
        self.problems: List[str] = []
        self.notes: List[str] = []
        self.scenario = 0
        # Simulated outputs the per-layer ratios divide by.
        self.decode_iters = 0
        self.generated_tokens = 0
        self.failed_runs = 0
        self.warm_loaded = 0
        self.warm_simulated = 0

    def call(self, key: str, fn: Callable, *args, **kwargs):
        """Time one operation; returns (result, seconds, error)."""
        self.scenario += 1
        if self.tracer is not None:
            self.tracer.scenario = self.scenario
            fn = self.tracer.wrap(key, fn)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except ReproError as exc:
            return None, perf_counter() - t0, exc
        return result, perf_counter() - t0, None

    def op_group(self) -> List[float]:
        """Start an op group; returns the list its operation times go to."""
        self.op_groups.append([])
        return self.op_groups[-1]

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def note(self, message: str) -> None:
        if message not in self.notes:
            self.notes.append(message)

    @property
    def digest(self) -> str:
        """sha256 over the once-phase and the (shared) unit digest."""
        unit = self.unit_digests[0] if self.unit_digests else ""
        return hashlib.sha256((self.once_digest + unit).encode()).hexdigest()


def _sha(parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _fleet_stats(report) -> tuple:
    """Every simulated statistic of a fleet report, exactly (repr floats)."""
    shards = tuple(
        (
            tuple(
                (r.request.request_id, r.admit_s, r.first_token_s, r.finish_s,
                 len(r.tbt_s))
                for r in shard.records
            ),
            shard.n_prefill_iterations, shard.n_decode_iterations,
            shard.peak_kv_bytes, shard.max_queue_depth, shard.total_energy_uj,
        )
        for shard in report.result.shard_results
    )
    return (repr(report.metrics), shards, repr(report.result.decisions),
            repr(report.resilience))


def check_fleet_report(run: Run, report, stream, label: str) -> None:
    """Every generated request is accounted for exactly once, and each
    completed request generated exactly its drawn output length."""
    drawn = {r.request_id: r.output_tokens for r in stream.requests}
    served = Counter()
    for shard in report.result.shard_results:
        for rec in shard.records:
            rid = rec.request.request_id
            served[rid] += 1
            run.check(
                rec.generated_tokens == drawn.get(rid),
                f"{label}: request {rid} generated {rec.generated_tokens} "
                f"tokens, drew {drawn.get(rid)}",
            )
    run.check(max(served.values(), default=1) == 1,
              f"{label}: a request was served more than once")
    if report.resilience is None:
        run.check(report.result.n_rejected_followups == 0,
                  f"{label}: open-loop run rejected follow-ups")
        run.check(set(served) == set(drawn),
                  f"{label}: {len(set(drawn) - set(served))} requests never served")
        return
    fates = dict(report.resilience.dispositions)
    run.check(len(fates) == len(report.resilience.dispositions)
              and set(fates) == set(drawn),
              f"{label}: dispositions do not cover each request exactly once")
    done = {rid for rid, fate in fates.items()
            if fate in (Disposition.OK, Disposition.RETRIED)}
    run.check(set(served) == done,
              f"{label}: served requests differ from completed dispositions")


def _first_third(stream: RequestStream) -> RequestStream:
    """The stream's first third, for the scaling exponent."""
    return RequestStream(name=stream.name,
                         requests=stream.requests[: stream.n_requests // 3])


def _record_fleet_outputs(run: Run, report) -> int:
    """Add a report's simulated outputs to the run; returns how many
    requests it completed."""
    results = report.result.shard_results
    run.decode_iters += sum(r.n_decode_iterations for r in results)
    run.generated_tokens += sum(r.total_generated_tokens for r in results)
    return sum(len(r.records) for r in results)


# ------------------------------------------------------------ paper-cold
class PaperCold:
    """The paper's own questions, answered from a cold process."""

    name = "paper-cold"
    MODELS = ("opt-125m", "opt-350m")
    PLANS = {
        "meadow": ExecutionPlan.meadow, "gemm": gemm_baseline,
        "cta": cta, "flightllm": flightllm,
    }
    BANDWIDTHS = (1.0, 6.0, 12.0, 25.0)
    QUERIES_PER_UNIT = 192

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.queries = [
            (rng.choice(self.BANDWIDTHS), rng.choice(("prefill", "decode")),
             rng.randint(64, 1024))
            for _ in range(self.QUERIES_PER_UNIT)
        ]
        self.engines: Dict[tuple, MeadowEngine] = {}

    def setup(self) -> None:
        for model_name in self.MODELS:
            model = get_model(model_name)
            for bw in self.BANDWIDTHS:
                for plan_name, plan in self.PLANS.items():
                    engine = MeadowEngine(model, zcu102_config(bw), plan())
                    if engine.plan.packing is not None:
                        engine.packing_summary()
                    self.engines[(model_name, bw, plan_name)] = engine

    def once(self, run: Run) -> None:
        values = []
        for check in paper_fidelity_suite():
            value, seconds, error = run.call("bench.fidelity", check.measure)
            run.attempted += 1
            run.once_ops.append(seconds * 1e3)
            if error is not None:
                run.failed += 1
                run.check(False, f"fidelity {check.name!r} raised {error!r}")
                continue
            values.append(value)
            run.check(check.lo <= value <= check.hi,
                      f"fidelity {check.name!r} = {value:.3f} outside "
                      f"[{check.lo}, {check.hi}]")
        run.once_digest = _sha(values)

    def _query(self, bw: float, stage: str, tokens: int):
        """One point of the paper's figures: every model under every plan.
        (Both models per query keep the op cost unimodal, so its median
        is well conditioned.)"""
        return tuple(
            getattr(self.engines[(model, bw, plan)], stage)(tokens)
            for model in self.MODELS for plan in self.PLANS
        )

    def unit(self, run: Run) -> None:
        stats = []
        completed = 0
        busy = 0.0
        ops = run.op_group()
        for query in self.queries:
            reports, seconds, error = run.call("bench.query", self._query, *query)
            run.attempted += 1
            busy += seconds
            ops.append(seconds * 1e3)
            if error is not None:
                run.failed += 1
                run.check(False, f"query {query} raised {error!r}")
                continue
            completed += 1
            n = len(self.PLANS)
            for i, model in enumerate(self.MODELS):
                row = reports[i * n:(i + 1) * n]
                latency = {plan: r.latency_s for plan, r in zip(self.PLANS, row)}
                run.check(latency["meadow"] < latency["gemm"],
                          f"query {model} {query}: MEADOW {latency['meadow']} s "
                          f"not below GEMM {latency['gemm']} s")
            stats.append(tuple((r.latency_s, r.energy.total_uj) for r in reports))
        run.unit_rates.append(completed / busy)
        run.unit_digests.append(_sha(stats))

    def scaling(self) -> Optional[float]:
        return None


# ----------------------------------------------------------------- fleet
class FleetWorkload:
    """One 12/1/12/1 Gbps opt-125m fleet, one scenario per policy.

    A unit runs every policy ``repeats`` times, so that a unit of a
    workload whose scenarios are long still holds several of them.
    """

    MODEL = "opt-125m"

    def __init__(self, name: str, stream, policies: Tuple[str, ...],
                 repeats: int = 1) -> None:
        self.name = name
        self.stream = stream
        self.policies = policies
        self.repeats = repeats
        self.base: Optional[MeadowEngine] = None

    def setup(self) -> None:
        self.base = MeadowEngine(get_model(self.MODEL), zcu102_config(FLEET_BANDWIDTHS[0]))
        self.base.packing_summary()

    def once(self, run: Run) -> None:
        pass

    def _engines(self) -> List[MeadowEngine]:
        """Fresh engines (empty surfaces), one per distinct bandwidth,
        like one ``repro fleet`` invocation."""
        by_bw = {bw: self.base.clone(config=self.base.config.with_bandwidth(bw))
                 for bw in set(FLEET_BANDWIDTHS)}
        return [by_bw[bw] for bw in FLEET_BANDWIDTHS]

    def _fleet(self, engines, policy: str) -> FleetSimulator:
        return FleetSimulator(engines, policy=policy, max_batch=16,
                              ctx_bucket=16, token_events=False)

    def unit(self, run: Run) -> None:
        stats = []
        completed = 0
        busy = 0.0
        for policy in self.policies * self.repeats:
            fleet = self._fleet(self._engines(), policy)
            # A request's host time runs from the previous routing
            # decision (or the scenario start) to its own, so it covers
            # advancing every shard to its arrival; the final drain is
            # charged to the last request.
            marks = [perf_counter()]
            route = fleet.policy.route

            def timed_route(*args, **kwargs):
                choice = route(*args, **kwargs)
                marks.append(perf_counter())
                return choice

            fleet.policy.route = timed_route
            report, seconds, error = run.call("bench.scenario", fleet.run, self.stream)
            marks.append(perf_counter())
            busy += seconds
            run.attempted += self.stream.n_requests
            if error is not None:
                run.failed += self.stream.n_requests
                run.failed_runs += 1
                run.note(f"{policy} raised {error!r}; its "
                         f"{self.stream.n_requests} requests count as failed")
                stats.append((policy, repr(error)))
                continue
            # Each scenario is its own op group: a unit's deepest tail
            # would otherwise sit among a handful of garbage-collector
            # pauses and surface fills.
            del marks[-2]
            run.op_group().extend((b - a) * 1e3 for a, b in zip(marks, marks[1:]))
            completed += _record_fleet_outputs(run, report)
            check_fleet_report(run, report, self.stream, f"{self.name}/{policy}")
            stats.append((policy, _fleet_stats(report)))
        run.check(stats == stats[:len(self.policies)] * self.repeats,
                  "repeated scenarios produced different simulated statistics")
        run.unit_rates.append(completed / busy)
        run.unit_digests.append(_sha(stats))

    def scaling(self) -> Optional[float]:
        """Warm-surface host time of the full stream vs. its first third,
        over the policies that complete both."""
        third = _first_third(self.stream)
        engines = self._engines()
        times = {len(self.stream.requests): 0.0, third.n_requests: 0.0}
        for policy in self.policies:
            try:
                for stream in (self.stream, third):
                    self._fleet(engines, policy).run(stream)  # fill surfaces
            except ReproError:
                continue
            for stream in (self.stream, third):
                fleet = self._fleet(engines, policy)
                t0 = perf_counter()
                fleet.run(stream)
                times[stream.n_requests] += perf_counter() - t0
        (n_full, t_full), (n_third, t_third) = sorted(times.items(), reverse=True)
        if t_third <= 0.0:
            return None
        return math.log(t_full / t_third) / math.log(n_full / n_third)


# ----------------------------------------------------------- sweep-store
class SweepStore:
    """A serial Pareto sweep, cold into a fresh store, then warm from it."""

    name = "sweep-store"
    MODEL = "opt-125m"
    BANDWIDTHS = (12.0, 1.0)
    N_REQUESTS = 200
    RATE_RPS = 6.0
    #: Streams per unit. A cold pass's grid-point times fall in tiers
    #: whose boundaries move with the stream, so a single stream's tail
    #: op swings from seed to seed; pooling four streams' points steadies it.
    N_STREAMS = 4

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        rng = random.Random(seed)
        self.streams = [
            poisson_stream(self.N_REQUESTS, self.RATE_RPS, PROMPTS, OUTPUTS,
                           seed=rng.randrange(2**32))
            for _ in range(self.N_STREAMS)
        ]
        self.grid = SweepDriver.grid_points(
            (2, 4), POLICY_NAMES, (16,), (1, 16), (False,), ("none", "chaos"),
            fault_seed=seed,
        )
        self.base: Optional[MeadowEngine] = None
        self._stores = 0

    def setup(self) -> None:
        self.base = MeadowEngine(get_model(self.MODEL), zcu102_config(self.BANDWIDTHS[0]))
        self.base.packing_summary()

    def once(self, run: Run) -> None:
        pass

    def _pass(self, run: Run, ops: List[float], sweep: SweepDriver, stream, label: str):
        """Evaluate the grid serially, one timed op per grid point, then
        append the surfaces to the store as the fleet CLI's sweep does.
        Returns the sweep result, the seconds the grid and the save took,
        and the points the store had supplied."""
        reports = []
        run_point = sweep.run_point

        def capture(*args, **kwargs):
            report = run_point(*args, **kwargs)
            reports.append(report)
            return report

        sweep.run_point = capture
        points = []
        busy = 0.0
        for gp in self.grid:
            del reports[:]
            point, seconds, error = run.call(
                "bench.grid_point", sweep.evaluate_point, stream, gp)
            run.attempted += 1
            busy += seconds
            ops.append(seconds * 1e3)
            if error is not None:
                run.failed += 1
                run.failed_runs += 1
                run.note(f"{label} grid point {gp} raised {error!r}")
                continue
            points.append(point)
            for report in reports:
                _record_fleet_outputs(run, report)
                check_fleet_report(run, report, stream, f"{label} {gp}")
        t0 = perf_counter()
        _new, warm_started = sweep.save_surfaces()
        busy += perf_counter() - t0
        result = FleetSweepResult(
            model_name=self.base.model.name, plan_name=self.base.plan.name,
            source_name=stream.name, points=tuple(points),
        )
        return result, busy, warm_started

    def unit(self, run: Run) -> None:
        """One cold-then-warm cycle per stream, each into its own fresh
        store; the grid points of all cycles form one op group. A run
        always finishes its first unit, so on a 2-vCPU Xeon a sweep-store
        run measures for 20-30 s even when ``--seconds`` is shorter."""
        ops = run.op_group()
        busy = 0.0
        completed = 0
        docs = []
        for stream in self.streams:
            self._stores += 1
            root = self.tmp / f"store-{self._stores}"
            store = SurfaceStore(root)
            cold = SweepDriver(self.base.clone(), self.BANDWIDTHS, surface_store=store)
            cold_result, cold_s, _ = self._pass(run, ops, cold, stream, "cold")
            warm = SweepDriver(self.base.clone(), self.BANDWIDTHS, surface_store=store)
            warm_result, warm_s, loaded = self._pass(run, ops, warm, stream, "warm")
            shutil.rmtree(root, ignore_errors=True)
            simulated = sum(
                warm.engine_for(bw).surface.n_simulated for bw in self.BANDWIDTHS)
            run.warm_simulated += simulated
            run.warm_loaded += loaded
            run.check(simulated == 0, f"warm pass simulated {simulated} new points")
            cold_doc = json.dumps(cold_result.to_json(), sort_keys=True)
            run.check(cold_doc == json.dumps(warm_result.to_json(), sort_keys=True),
                      "warm pass Pareto JSON differs from the cold pass")
            docs.append(cold_doc)
            busy += cold_s + warm_s
            completed += sum(
                p.n_requests for p in cold_result.points + warm_result.points)
        run.unit_rates.append(completed / busy)
        run.unit_digests.append(_sha(docs))

    def scaling(self) -> Optional[float]:
        """Warm in-memory grid time of the first stream vs. its first third."""
        full = self.streams[0]
        third = _first_third(full)
        sweep = SweepDriver(self.base.clone(), self.BANDWIDTHS)
        times = []
        for stream in (full, third):
            for gp in self.grid:
                sweep.evaluate_point(stream, gp)  # fill surfaces
            t0 = perf_counter()
            for gp in self.grid:
                sweep.evaluate_point(stream, gp)
            times.append(perf_counter() - t0)
        return math.log(times[0] / times[1]) / math.log(
            full.n_requests / third.n_requests)


def make_workload(name: str, seed: int, tmp: Path):
    """The named workload, built from the seed."""
    if name == "paper-cold":
        return PaperCold(seed)
    if name == "fleet-steady":
        stream = poisson_stream(1500, 6.0, PROMPTS, OUTPUTS, seed=seed)
        return FleetWorkload(name, stream, ("predicted-latency", "jsq"))
    if name == "fleet-overload":
        stream = bursty_stream(5000, 8, 0.25, PROMPTS, OUTPUTS, seed=seed)
        return FleetWorkload(
            name, stream, ("round-robin", "jsq", "predicted-latency"), repeats=2)
    if name == "sweep-store":
        return SweepStore(seed, tmp)
    raise KeyError(name)
