"""Calendar-mode fleet drain is bit-identical to the reference walk.

The event-calendar drain (``calendar=True``, the default) advances the
globally next-acting shard in coalesced runs up to the runner-up's key; the
retained per-iteration reference walk (``calendar=False``) picks the
minimal shard and runs exactly one iteration at a time. These tests pin
the tentpole claim: the two execute the *identical* fleet timeline —
request records, event logs, routing decisions and merged metrics —
across open-loop, closed-loop, heterogeneous and work-stealing runs,
and a one-shard calendar fleet still reproduces single-engine serving
field for field.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    ClosedLoopSource,
    ContinuousBatchingScheduler,
    ServingSimulator,
)
from repro.fleet import FleetSimulator

seeds = st.integers(min_value=0, max_value=10_000)


def _run_both(engines, source_factory, **kwargs):
    reference = FleetSimulator(engines, calendar=False, **kwargs).run(
        source_factory()
    )
    calendar = FleetSimulator(engines, calendar=True, **kwargs).run(
        source_factory()
    )
    return reference, calendar


def _assert_identical(reference, calendar):
    # Bit-identity of everything the run produced, not approximation:
    # per-shard records and event logs, the decision stream, and the
    # merged + per-shard metric summaries.
    assert calendar.result.decisions == reference.result.decisions
    for cal_shard, ref_shard in zip(
        calendar.result.shard_results, reference.result.shard_results
    ):
        assert cal_shard.records == ref_shard.records
        assert cal_shard.events == ref_shard.events
    assert calendar.metrics == reference.metrics
    assert calendar.shard_metrics == reference.shard_metrics


class TestOpenLoopEquivalence:
    @given(seeds, st.sampled_from(["poisson", "bursty"]))
    @settings(max_examples=8, deadline=None)
    def test_homogeneous_fleet(
        self, fast_engine, shard_budget, make_stream, seed, kind
    ):
        reference, calendar = _run_both(
            [fast_engine, fast_engine],
            lambda: make_stream(kind, n=16, seed=seed),
            policy="round-robin",
            kv_budget_bytes=shard_budget,
            max_batch=8,
        )
        _assert_identical(reference, calendar)

    @given(seeds)
    @settings(max_examples=6, deadline=None)
    def test_heterogeneous_fleet_predicted_latency(
        self, fast_engine, slow_engine, shard_budget, make_stream, seed
    ):
        reference, calendar = _run_both(
            [fast_engine, slow_engine, fast_engine],
            lambda: make_stream("bursty", n=18, seed=seed),
            policy="predicted-latency",
            kv_budget_bytes=shard_budget,
            max_batch=8,
        )
        _assert_identical(reference, calendar)


class TestClosedLoopEquivalence:
    @given(seeds)
    @settings(max_examples=6, deadline=None)
    def test_multi_shard_closed_loop(
        self, fast_engine, slow_engine, shard_budget, prompt_dist,
        output_dist, seed
    ):
        # The hard case: completions during the drain inject follow-ups
        # that must re-enter global routing at the same instants in
        # both modes — the calendar's interrupt hook versus the
        # reference walk's one-iteration stepping.
        def src():
            return ClosedLoopSource(
                n_users=4, total_requests=14, think_time_s=0.001,
                prompt_dist=prompt_dist, output_dist=output_dist, seed=seed,
            )

        reference, calendar = _run_both(
            [fast_engine, slow_engine],
            src,
            policy="jsq",
            kv_budget_bytes=shard_budget,
            max_batch=8,
        )
        _assert_identical(reference, calendar)

    @given(seeds)
    @settings(max_examples=6, deadline=None)
    def test_equal_speed_busy_pair(
        self, fast_engine, slow_engine, shard_budget, prompt_dist,
        output_dist, seed
    ):
        # Two users on a fast/slow/fast/slow fleet both land on the fast
        # shards, which then bound each other's horizon: each coalesced
        # advance stops at the other's next step, a regime the
        # fast/slow pairs above never reach.
        def src():
            return ClosedLoopSource(
                n_users=2, total_requests=12, think_time_s=0.001,
                prompt_dist=prompt_dist, output_dist=output_dist, seed=seed,
            )

        reference, calendar = _run_both(
            [fast_engine, slow_engine, fast_engine, slow_engine],
            src,
            policy="predicted-latency",
            kv_budget_bytes=shard_budget,
            max_batch=8,
        )
        _assert_identical(reference, calendar)

    @given(seeds)
    @settings(max_examples=6, deadline=None)
    def test_drain_boundary_interleaving(
        self, fast_engine, slow_engine, shard_budget, prompt_dist,
        output_dist, seed
    ):
        # Zero think time lands every follow-up *exactly* at the busy
        # shard's clock — the completion instant is the arrival instant,
        # so routing happens precisely on a drain boundary. This is the
        # regime where an uninterruptible pre-routing advance simulates
        # shards past follow-ups they should have prefilled first.
        def src():
            return ClosedLoopSource(
                n_users=3, total_requests=12, think_time_s=0.0,
                prompt_dist=prompt_dist, output_dist=output_dist, seed=seed,
            )

        reference, calendar = _run_both(
            [fast_engine, slow_engine],
            src,
            policy="round-robin",
            kv_budget_bytes=shard_budget,
            max_batch=8,
        )
        _assert_identical(reference, calendar)

    @given(seeds)
    @settings(max_examples=4, deadline=None)
    def test_one_shard_calendar_reproduces_single_engine(
        self, fast_engine, shard_budget, prompt_dist, output_dist, seed
    ):
        # The invariant the fleet subsystem was built on, now under the
        # calendar drain: a lone closed-loop shard is indistinguishable
        # from `repro serve` — identical records and metrics.
        def src():
            return ClosedLoopSource(
                n_users=3, total_requests=10, think_time_s=0.0005,
                prompt_dist=prompt_dist, output_dist=output_dist, seed=seed,
            )

        single = ServingSimulator(
            fast_engine, kv_budget_bytes=shard_budget, max_batch=8
        ).run(src())
        calendar = FleetSimulator(
            [fast_engine],
            kv_budget_bytes=shard_budget,
            max_batch=8,
            calendar=True,
        ).run(src())
        assert calendar.metrics == single.metrics
        assert calendar.result.shard_results[0].records == single.result.records


class TestStealingEquivalence:
    @given(seeds)
    @settings(max_examples=6, deadline=None)
    def test_steal_runs_identically_in_both_modes(
        self, fast_engine, slow_engine, shard_budget, make_stream, seed
    ):
        # Work stealing perturbs the timeline (that is its job), but it
        # must perturb both drain modes the same way: steal checks fire
        # at iteration boundaries in each.
        reference, calendar = _run_both(
            [fast_engine, slow_engine, fast_engine, slow_engine],
            lambda: make_stream("bursty", n=20, seed=seed),
            policy="round-robin",
            kv_budget_bytes=shard_budget,
            max_batch=8,
            steal=True,
        )
        _assert_identical(reference, calendar)


class TestReferenceWalkIsPure:
    def test_reference_walk_never_takes_open_loop_shortcut(
        self, fast_engine, shard_budget, make_stream, monkeypatch
    ):
        # The open-loop shortcut drains each shard with one
        # advance_until(inf). The reference walk must step every
        # iteration itself, or the open-loop equivalence tests above
        # would compare the shortcut against itself.
        horizons = []
        advance_until = ContinuousBatchingScheduler.advance_until

        def spy(self, t_s=math.inf, interrupt=None):
            horizons.append(t_s)
            return advance_until(self, t_s, interrupt)

        monkeypatch.setattr(ContinuousBatchingScheduler, "advance_until", spy)
        for calendar in (True, False):
            horizons.clear()
            FleetSimulator(
                [fast_engine, fast_engine],
                kv_budget_bytes=shard_budget,
                max_batch=8,
                calendar=calendar,
            ).run(make_stream("poisson", n=16))
            assert (math.inf in horizons) is calendar
