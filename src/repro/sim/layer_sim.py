"""Workload simulator: turns (model, hardware, plan) into latency reports.

For every block of the model the simulator walks the op sequence of
:func:`repro.models.decoder_layer_ops`, dispatches each op according to
the :class:`~repro.core.plan.ExecutionPlan` (GEMM / TPHS / vector units),
charges DRAM traffic per the plan's packing or sparsity policy, and
collects per-op :class:`~repro.sim.breakdown.OpLatency` records into a
:class:`~repro.sim.breakdown.StageReport`.

Baseline behaviours implemented here (Table 2 semantics):

* **CTA token compression** — the attention ops (QK^T, softmax, SM x V)
  operate on a ``token_keep_ratio`` subset of tokens, shrinking their
  compute and intermediate traffic; everything else is untouched.
* **FlightLLM** — N:M sparsity thins weight transfer and weight-matmul
  compute; during decode the attention intermediates (scores, softmax
  outputs, the current token's Q) stay on chip.

**Fast path (layer-class deduplication).** All decoder blocks of one
model run the *same* op geometry for a given workload; the only
layer-dependent inputs to the latency model are the per-layer packed
weight-transfer bits. :meth:`WorkloadSimulator.simulate` therefore
groups layers into classes by their weight-bit signature, simulates one
template layer per class, and replays the template's latency records and
energy deltas for every member — O(n_classes x n_ops + n_layers) Python
work instead of O(n_layers x n_ops), bit-identical to the reference walk
(:meth:`WorkloadSimulator.simulate_reference`, property-tested in
``tests/sim/test_fast_path_equivalence.py``). Plans whose layers are
genuinely heterogeneous (e.g. exact per-layer packing statistics)
degrade transparently: every distinct signature gets its own template,
so the fast path never changes a modeled number, only skips repeats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace as dc_replace
from typing import Dict, Hashable, List, Optional, Tuple

from ..core.plan import DataflowMode, ExecutionPlan
from ..errors import SimulationError
from ..hardware import EnergyLedger, HardwareConfig
from ..models import (
    LayerOp,
    OpKind,
    Stage,
    TPHS_ELIGIBLE_OPS,
    TransformerConfig,
    Workload,
)
from ..packing import PackingPlanner
from .breakdown import LatencyBreakdown, OpLatency, StageReport
from .gemm_executor import gemm_op_latency, vector_op_latency
from .tiling import plan_tiled_gemm
from .tphs_executor import tphs_block_latency

__all__ = ["WorkloadSimulator", "simulate"]

_VECTOR_OPS = frozenset(
    {OpKind.LAYERNORM_1, OpKind.LAYERNORM_2, OpKind.SOFTMAX, OpKind.ACTIVATION}
)


def _compressed_tokens(count: int, keep_ratio: float) -> int:
    """CTA-style token compression (at least one token survives)."""
    return max(1, math.ceil(count * keep_ratio))


class _TapeLedger(EnergyLedger):
    """Energy ledger that records every deposit it receives.

    The fast path simulates one template layer per layer class on a tape
    ledger, then replays the recorded per-event deltas once per member
    layer. Replaying the identical sequence of ``+=`` operands that the
    reference walk would have issued keeps the accumulated totals
    *bit-identical* (float addition is order-sensitive, so merging
    pre-summed per-layer totals would not be).
    """

    def __init__(self) -> None:
        super().__init__()
        self.tape: List[Tuple[str, float]] = []

    def _deposit(self, category: str, delta_pj: float) -> None:
        self.picojoules[category] += delta_pj
        self.tape.append((category, delta_pj))

    def add_macs(self, n: float) -> None:
        self._deposit("mac", n * self.costs.mac_pj)

    def add_rf_bytes(self, n: float) -> None:
        self._deposit("rf", n * self.costs.rf_pj_per_byte)

    def add_bram_bytes(self, n: float) -> None:
        self._deposit("bram", n * self.costs.bram_pj_per_byte)

    def add_noc_bytes(self, n: float) -> None:
        self._deposit("noc", n * self.costs.noc_pj_per_byte)

    def add_dram_bits(self, n: float) -> None:
        self._deposit("dram", n * self.costs.dram_pj_per_bit)


@dataclass
class WorkloadSimulator:
    """Reusable simulator bound to a model, hardware config and plan.

    :meth:`simulate` takes the layer-class fast path (see module
    docstring), bit-identical to the O(n_layers x n_ops) walk that
    :meth:`simulate_reference` keeps.
    """

    model: TransformerConfig
    config: HardwareConfig
    plan: ExecutionPlan
    planner: Optional[PackingPlanner] = None
    #: Lazily computed per-layer weight-bit signatures (workload-independent).
    _layer_sigs: Optional[Tuple[Hashable, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.plan.packing is not None and self.planner is None:
            self.planner = PackingPlanner(config=self.plan.packing)

    # -------------------------------------------------------------- weights
    def _weight_bits(self, op: LayerOp, layer: int) -> Optional[int]:
        """Transferred weight bits for one op, or None for raw transfer."""
        if not op.has_weights:
            return None
        raw_bits = op.weight_elements * self.config.weight_bits
        if self.plan.sparsity is not None:
            return int(raw_bits * self.plan.sparsity.weight_bits_factor(self.config.weight_bits))
        if self.plan.packing is not None:
            assert self.planner is not None
            return self.planner.stats_for(self.model, op.kind, layer).effective_bits
        return None

    def _compute_scale(self, op: LayerOp) -> float:
        """MAC-thinning factor (N:M sparsity skips weight-matmul MACs)."""
        if self.plan.sparsity is not None and op.has_weights:
            return self.plan.sparsity.density
        return 1.0

    # ------------------------------------------------------------ CTA shim
    def _apply_token_compression(self, op: LayerOp, workload: Workload) -> LayerOp:
        """Shrink attention ops to the kept-token subset (CTA)."""
        keep = self.plan.token_keep_ratio
        if keep >= 1.0 or op.kind not in (OpKind.QKT, OpKind.SOFTMAX, OpKind.SMV):
            return op
        kv_c = _compressed_tokens(workload.kv_len, keep)
        rows_c = (
            _compressed_tokens(op.rows, keep)
            if workload.stage is Stage.PREFILL
            else op.rows
        )
        d = self.model.d_model
        kv_dim = self.model.kv_dim
        b = workload.batch
        bh, t = op.batch, rows_c  # op.batch == batch * n_heads
        if op.kind is OpKind.QKT:
            return dc_replace(
                op,
                rows=t,
                cols=kv_c,
                input_elements=b * t * d + b * kv_c * kv_dim,
                output_elements=bh * t * kv_c,
            )
        if op.kind is OpKind.SOFTMAX:
            return dc_replace(
                op,
                rows=t,
                cols=kv_c,
                input_elements=bh * t * kv_c,
                output_elements=bh * t * kv_c,
            )
        return dc_replace(
            op,
            rows=t,
            reduce=kv_c,
            input_elements=bh * t * kv_c + b * kv_c * kv_dim,
            # SM x V still reconstructs outputs for all original tokens.
            output_elements=op.output_elements,
        )

    # ------------------------------------------------- FlightLLM decode shim
    def _onchip_decode_traffic(self, op: LayerOp, workload: Workload) -> LayerOp:
        """Keep decode attention intermediates on chip (FlightLLM)."""
        if not (
            self.plan.decode_onchip_intermediates
            and workload.stage is Stage.DECODE
            and op.kind in (OpKind.QKT, OpKind.SOFTMAX, OpKind.SMV)
        ):
            return op
        kv_span = workload.batch * workload.kv_len * self.model.kv_dim
        if op.kind is OpKind.QKT:
            # Q stays on chip; only the K spans are fetched, scores stay.
            return dc_replace(op, input_elements=kv_span, output_elements=0)
        if op.kind is OpKind.SOFTMAX:
            return dc_replace(op, input_elements=0, output_elements=0)
        # SM x V: scores on chip, V spans fetched, output stored normally.
        return dc_replace(op, input_elements=kv_span)

    # --------------------------------------------------------------- layers
    def _simulate_layer(
        self, workload: Workload, layer: int, energy: EnergyLedger
    ) -> List[OpLatency]:
        ops = workload.layer_ops()
        records: List[OpLatency] = []
        use_tphs = self.plan.attention_dataflow is DataflowMode.TPHS
        tphs_emitted = False
        for op in ops:
            if use_tphs and op.kind in TPHS_ELIGIBLE_OPS:
                if not tphs_emitted:
                    wq_bits = self._weight_bits(op, layer) if op.kind is OpKind.Q_PROJ else None
                    if wq_bits is None and self.plan.packing is not None:
                        # Q_PROJ is first in TPHS_ELIGIBLE_OPS order; find it.
                        q_op = next(o for o in ops if o.kind is OpKind.Q_PROJ)
                        wq_bits = self._weight_bits(q_op, layer)
                    breakdown, _sched = tphs_block_latency(
                        self.config,
                        self.model,
                        workload.n_tokens,
                        workload.kv_len,
                        wq_bits=wq_bits,
                        batch=workload.batch,
                        energy=energy,
                    )
                    tphs_macs = sum(o.macs for o in ops if o.kind in TPHS_ELIGIBLE_OPS)
                    records.append(
                        OpLatency(OpKind.Q_PROJ, "tphs", breakdown, macs=tphs_macs)
                    )
                    tphs_emitted = True
                else:
                    records.append(
                        OpLatency(op.kind, "fused", LatencyBreakdown(), macs=0)
                    )
                continue

            op = self._apply_token_compression(op, workload)
            op = self._onchip_decode_traffic(op, workload)
            if op.kind in _VECTOR_OPS:
                # Layer norm and activations stream through their dedicated
                # on-NoC units between GEMM stages in every system (Fig. 2a);
                # only the softmax intermediates round-trip DRAM in GEMM
                # mode — they are the "large intermediate tokens" the paper
                # targets.
                roundtrip = op.kind is OpKind.SOFTMAX
                fetch = roundtrip and op.input_elements > 0
                store = roundtrip and op.output_elements > 0
                bd = vector_op_latency(
                    self.config, op, fetch_input=fetch, store_output=store, energy=energy
                )
                records.append(OpLatency(op.kind, "vector", bd, macs=0))
            elif op.is_matmul:
                # Weight-bearing GEMMs honour BRAM residency: when
                # neither operand fits, the tiled schedule re-streams the
                # cheaper side (see sim.tiling).
                w_refetch = i_refetch = 1.0
                if op.has_weights:
                    sched = plan_tiled_gemm(self.config, op.rows, op.reduce, op.cols)
                    w_refetch = float(sched.weight_refetch_factor)
                    i_refetch = float(sched.input_refetch_factor)
                bd = gemm_op_latency(
                    self.config,
                    op,
                    weight_bits_total=self._weight_bits(op, layer),
                    fetch_input=op.input_elements > 0,
                    store_output=op.output_elements > 0,
                    compute_scale=self._compute_scale(op),
                    weight_refetch=w_refetch,
                    input_refetch=i_refetch,
                    energy=energy,
                )
                records.append(OpLatency(op.kind, "gemm", bd, macs=op.macs))
            else:  # pragma: no cover - op kinds are exhaustive
                raise SimulationError(f"unhandled op kind {op.kind}")
        return records

    # -------------------------------------------------- layer-class dedup
    def _layer_signatures(self) -> Tuple[Hashable, ...]:
        """Per-layer signature of everything the latency model reads.

        Op geometry is layer-independent, so the signature reduces to
        the per-layer weight-transfer bits: ``None`` transfers and N:M
        sparsity are depth-independent (one class covers the whole
        stack), while packed plans key each layer by its effective bits
        per weight kind — layers sharing a planner depth bucket collapse
        into one class, exact per-layer planners fall back to one class
        per layer. Signatures depend only on (model, plan, planner), so
        they are computed once per simulator.
        """
        if self._layer_sigs is None:
            n = self.model.n_layers
            if self.plan.packing is None or self.planner is None:
                self._layer_sigs = (None,) * n
            else:
                table = self.planner.effective_bits_table(self.model)
                kinds = sorted(table, key=lambda k: k.value)
                self._layer_sigs = tuple(
                    tuple(table[kind][layer] for kind in kinds) for layer in range(n)
                )
        return self._layer_sigs

    # ----------------------------------------------------------------- API
    def _check_workload(self, workload: Workload) -> None:
        if workload.model is not self.model and workload.model != self.model:
            raise SimulationError(
                f"workload model {workload.model.name} does not match "
                f"simulator model {self.model.name}"
            )

    def simulate(self, workload: Workload) -> StageReport:
        """Simulate the workload across every block of the model.

        Uses the layer-class fast path: one template layer is simulated
        per distinct weight-bit signature and its records/energy deltas
        are replayed for every member layer. The resulting report is bit-identical to
        :meth:`simulate_reference` (member layers share the template's
        ``OpLatency`` list, which is immutable in practice).
        """
        self._check_workload(workload)
        energy = EnergyLedger()
        picojoules = energy.picojoules
        templates: Dict[Hashable, Tuple[List[OpLatency], List[Tuple[str, float]]]] = {}
        layer_ops: List[List[OpLatency]] = []
        for layer, sig in enumerate(self._layer_signatures()):
            entry = templates.get(sig)
            if entry is None:
                tape_ledger = _TapeLedger()
                entry = (self._simulate_layer(workload, layer, tape_ledger), tape_ledger.tape)
                templates[sig] = entry
            records, tape = entry
            layer_ops.append(records)
            for category, delta_pj in tape:
                picojoules[category] += delta_pj
        return StageReport(
            workload=workload,
            config=self.config,
            plan_name=self.plan.name,
            layer_ops=layer_ops,
            energy=energy,
        )

    def simulate_reference(self, workload: Workload) -> StageReport:
        """Reference path: walk every op of every layer individually.

        This is the original O(n_layers x n_ops) implementation the fast
        path is verified against; the equivalence suite asserts exact
        float equality between the two on latency, energy and per-stage
        breakdowns.
        """
        self._check_workload(workload)
        energy = EnergyLedger()
        layer_ops = [
            self._simulate_layer(workload, layer, energy)
            for layer in range(self.model.n_layers)
        ]
        return StageReport(
            workload=workload,
            config=self.config,
            plan_name=self.plan.name,
            layer_ops=layer_ops,
            energy=energy,
        )


def simulate(
    model: TransformerConfig,
    config: HardwareConfig,
    plan: ExecutionPlan,
    workload: Workload,
    planner: Optional[PackingPlanner] = None,
) -> StageReport:
    """One-shot convenience wrapper around :class:`WorkloadSimulator`."""
    return WorkloadSimulator(model, config, plan, planner).simulate(workload)
