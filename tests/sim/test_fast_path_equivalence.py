"""Fast path == reference path, bit for bit.

The layer-class deduplicated :meth:`WorkloadSimulator.simulate` must
reproduce the O(n_layers x n_ops) reference walk *exactly* — exact float
equality, not approx — on latency, energy (total and per category) and
every per-stage/per-op breakdown, across all execution plans, stages,
batch sizes and packed/unpacked configurations. Any divergence means the
fast path changed a modeled number, which it is never allowed to do.
"""

from __future__ import annotations

import pytest

from repro.baselines import cta, flightllm, gemm_baseline
from repro.core import ExecutionPlan
from repro.models import decode_workload, prefill_workload
from repro.packing import PackingPlanner
from repro.sim import WorkloadSimulator

PLAN_BUILDERS = {
    "meadow": ExecutionPlan.meadow,
    "gemm": gemm_baseline,
    "cta": cta,
    "flightllm": flightllm,
}


def assert_reports_identical(fast, ref):
    """Exact equality on every number both report flavours expose."""
    assert fast.latency_s == ref.latency_s
    assert fast.total_cycles == ref.total_cycles
    assert fast.energy.picojoules == ref.energy.picojoules
    assert fast.energy.total_uj == ref.energy.total_uj
    assert fast.n_layers == ref.n_layers
    assert fast.breakdown() == ref.breakdown()
    assert fast.by_op_kind() == ref.by_op_kind()
    for layer in range(ref.n_layers):
        assert fast.layer_total_cycles(layer) == ref.layer_total_cycles(layer)
        assert fast.layer_breakdown(layer) == ref.layer_breakdown(layer)
        assert [
            (op.kind, op.dataflow, op.breakdown, op.macs)
            for op in fast.layer_ops[layer]
        ] == [
            (op.kind, op.dataflow, op.breakdown, op.macs)
            for op in ref.layer_ops[layer]
        ]
    assert fast.traffic_bits() == ref.traffic_bits()


@pytest.mark.parametrize("plan_name", sorted(PLAN_BUILDERS))
@pytest.mark.parametrize(
    "stage,tokens,batch",
    [
        ("prefill", 64, 1),
        ("prefill", 192, 1),
        ("decode", 256, 1),
        ("decode", 300, 8),
    ],
)
def test_all_plans_stages_batches(
    small_model, zcu12, shared_planner, plan_name, stage, tokens, batch
):
    plan = PLAN_BUILDERS[plan_name]()
    planner = shared_planner if plan.packing is not None else None
    sim = WorkloadSimulator(small_model, zcu12, plan, planner)
    if stage == "prefill":
        wl = prefill_workload(small_model, tokens, batch)
    else:
        wl = decode_workload(small_model, tokens, batch)
    assert_reports_identical(sim.simulate(wl), sim.simulate_reference(wl))


def test_batched_prefill_gemm_plans(small_model, zcu12):
    """Batched prefill (unsupported under TPHS) on the GEMM-mode plans."""
    for builder in (gemm_baseline, cta, flightllm):
        sim = WorkloadSimulator(small_model, zcu12, builder())
        wl = prefill_workload(small_model, 192, batch=4)
        assert_reports_identical(sim.simulate(wl), sim.simulate_reference(wl))


@pytest.mark.parametrize("packed", [True, False], ids=["packed", "unpacked"])
def test_packed_unpacked_sweep(small_model, zcu1, shared_planner, packed):
    """Both bandwidth-starved operating modes, packed and raw weights."""
    plan = ExecutionPlan.meadow() if packed else gemm_baseline()
    planner = shared_planner if packed else None
    sim = WorkloadSimulator(small_model, zcu1, plan, planner)
    for wl in (
        prefill_workload(small_model, 128),
        decode_workload(small_model, 512, batch=2),
    ):
        assert_reports_identical(sim.simulate(wl), sim.simulate_reference(wl))


class TestLayerClasses:
    def test_unpacked_plans_collapse_to_one_class(self, small_model, zcu12):
        sim = WorkloadSimulator(small_model, zcu12, gemm_baseline())
        assert len(set(sim._layer_signatures())) == 1

    def test_bucketed_packing_bounds_class_count(self, small_model, zcu12):
        planner = PackingPlanner(depth_buckets=2)
        sim = WorkloadSimulator(small_model, zcu12, ExecutionPlan.meadow(), planner)
        sigs = sim._layer_signatures()
        assert len(sigs) == small_model.n_layers
        assert len(set(sigs)) <= 2

    def test_exact_planner_falls_back_to_per_layer_classes(self, small_model, zcu12):
        """Genuinely heterogeneous layers: one class per layer, still exact."""
        planner = PackingPlanner(depth_buckets=None)  # exact per-layer stats
        sim = WorkloadSimulator(small_model, zcu12, ExecutionPlan.meadow(), planner)
        sigs = sim._layer_signatures()
        assert len(set(sigs)) == small_model.n_layers
        wl = prefill_workload(small_model, 96)
        assert_reports_identical(sim.simulate(wl), sim.simulate_reference(wl))


def test_vit_workload_equivalence(zcu12):
    from repro import DEIT_S
    from repro.models import vit_workload

    sim = WorkloadSimulator(DEIT_S, zcu12, gemm_baseline())
    wl = vit_workload(DEIT_S)
    assert_reports_identical(sim.simulate(wl), sim.simulate_reference(wl))
