"""The full many-core system: cores plus the component-based memory
hierarchy (:mod:`repro.sim.hierarchy`), built per
:class:`repro.config.SystemConfig`.

Memory request flow (demand load):

    core -> L1Node (hit: +l1_lat) -> L1 MSHR port -> L2Node (+l2_lat)
         -> L2 MSHR port -> NocLink request -> LlcSlice (+llc_lat)
         -> LLC MSHR port -> DramPort -> fill LLC -> NocLink data
         -> fill L2 -> fill L1 -> core callback(level)

The request-flow logic lives in the hierarchy components; this module
only owns configuration-driven wiring (cores attached to the hierarchy,
CLIP/criticality predictors attached to cores) and result collection.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.analysis.invariants import check
from repro.analysis.sanitizer import install_sanitizer, sanitize_enabled
from repro.config import BranchPredictorConfig, SystemConfig
from repro.cpu.branch import HashedPerceptronPredictor, mispredict_column
from repro.cpu.core_model import Core, ServiceLevel
from repro.dram.controller import DramSystem
from repro.noc.mesh import MeshNoc
from repro.sim.engine import Engine
from repro.sim.hierarchy import CoreNode, Hierarchy
from repro.sim.tracing import RequestTrace
from repro.sim.stats import (ClipResult, CoreResult, Counters,
                             CriticalityResult, DramResult, LevelStats,
                             NocResult, PrefetchStats, SimulationResult,
                             counter_groups, sum_counters)
from repro.trace.record import TraceRecord
from repro.trace.synthetic import SyntheticWorkload
from repro.trace.workloads import get_workload


class CachedTrace:
    """A generated trace plus its mispredict columns, one per branch
    predictor configuration, each replayed on first request."""

    __slots__ = ("records", "columns")

    def __init__(self, records: List[TraceRecord]) -> None:
        self.records = records
        #: ``repr(BranchPredictorConfig)`` -> mispredict column.
        self.columns: Dict[str, bytes] = {}

    def mispredicts(self, branch: BranchPredictorConfig) -> bytes:
        key = repr(branch)
        column = self.columns.get(key)
        if column is None:
            column = self.columns[key] = mispredict_column(self.records,
                                                           branch)
        return column


#: Generated synthetic traces, shared across runs.  Generation is
#: deterministic in (spec content, core_id, length) and the simulator
#: never mutates records, so a sweep running the same mix under many
#: schemes pays trace generation once instead of once per scheme, and
#: the branch pre-pass once per predictor configuration.  The spec
#: ``repr`` keys by content, not identity: ad-hoc specs reusing a
#: registered name cannot collide.  A small LRU bounds memory; an
#: evicted trace takes its columns with it.
_TRACE_CACHE: "OrderedDict[Tuple, CachedTrace]" = OrderedDict()
_TRACE_CACHE_ENTRIES = 128


#: Cache-level summaries, summed over the counter snapshot: (level,
#: group pattern, ``ServiceLevel`` whose demand-miss latency the level
#: owns), and the counters each level sums.
_LEVELS = (("L1D", "core*.l1d", ServiceLevel.L1),
           ("L2", "core*.l2", ServiceLevel.L2),
           ("LLC", "llc.slice*", ServiceLevel.LLC))
_LEVEL_COUNTERS = ("demand_accesses", "demand_hits", "demand_misses",
                   "prefetch_fills", "useful_prefetches",
                   "useless_evictions")


def _workload_trace(name: str, length: int, core_id: int) -> CachedTrace:
    spec = get_workload(name)
    key = (name, repr(spec), core_id, length)
    cached = _TRACE_CACHE.get(key)
    if cached is None:
        cached = CachedTrace(
            SyntheticWorkload(spec).generate(length, core_id=core_id))
        _TRACE_CACHE[key] = cached
        if len(_TRACE_CACHE) > _TRACE_CACHE_ENTRIES:
            _TRACE_CACHE.popitem(last=False)
    else:
        _TRACE_CACHE.move_to_end(key)
    return cached


class MulticoreSystem:
    """Builds and runs one simulation."""

    def __init__(self, config: SystemConfig, workloads: List[str],
                 label: str = "") -> None:
        config.validate()
        if len(workloads) != config.num_cores:
            raise ValueError(
                f"{len(workloads)} workloads for {config.num_cores} cores")
        self.config = config
        self.workload_names = list(workloads)
        self.label = label or self._default_label()
        self.engine = Engine()
        self.noc = MeshNoc(config.mesh_dim, config.noc)
        self.dram = DramSystem(config.dram, self.engine,
                               config.l1d.line_size)
        self.request_trace: Optional[RequestTrace] = (
            RequestTrace(config.capture_request_trace)
            if config.capture_request_trace else None)
        self.hierarchy = Hierarchy(config, self.engine, self.noc,
                                   self.dram, self.request_trace)
        self.cores: List[Core] = []
        self._build_cores()
        # Opt-in runtime invariant sanitizer: the guard is evaluated once
        # here, at wiring time -- a disabled run installs no wrappers and
        # the hot paths stay untouched (repro.analysis.sanitizer).
        self.sanitizer = (install_sanitizer(self)
                          if sanitize_enabled(config) else None)

    # -- flat views over the hierarchy ---------------------------------

    @property
    def nodes(self) -> List[CoreNode]:
        return self.hierarchy.nodes

    @property
    def num_slices(self) -> int:
        return self.hierarchy.num_slices

    @property
    def llc(self):
        return [s.cache for s in self.hierarchy.slices]

    @property
    def llc_mshr(self):
        return [s.port.mshr for s in self.hierarchy.slices]

    def _default_label(self) -> str:
        parts = [self.config.l1_prefetcher.name]
        if self.config.l2_prefetcher.name != "none":
            parts.append(self.config.l2_prefetcher.name)
        if self.config.clip.enabled:
            parts.append("clip")
        if self.config.criticality.name != "none":
            parts.append(self.config.criticality.name)
        if self.config.throttle.name != "none":
            parts.append(self.config.throttle.name)
        if self.config.related.hermes:
            parts.append("hermes")
        if self.config.related.dspatch:
            parts.append("dspatch")
        if self.config.learned.policy != "none":
            if parts[0] == "none":
                parts[0] = self.config.learned.policy
            else:
                parts.append(self.config.learned.policy)
        return "+".join(parts)

    def _build_cores(self) -> None:
        config = self.config
        length = config.warmup_instructions + config.sim_instructions
        for core_id, name in enumerate(self.workload_names):
            cached = _workload_trace(name, length, core_id)
            core = Core(core_id, config.core_for(core_id), cached.records,
                        memory=self.hierarchy.nodes[core_id].l1,
                        engine=self.engine,
                        branch_predictor=HashedPerceptronPredictor(
                            config.branch),
                        warmup_instructions=config.warmup_instructions,
                        branch_outcomes=cached.mispredicts)
            node = self.hierarchy.nodes[core_id]
            if node.clip is not None:
                node.clip.attach(core)
            if node.crit_gate is not None:
                node.crit_gate.attach(core)
            self.cores.append(core)

    # ------------------------------------------------------------------
    # Running and result collection
    # ------------------------------------------------------------------

    def run(self, max_cycles: int = 200_000_000) -> SimulationResult:
        final_cycle = self.engine.run(self.cores, max_cycles=max_cycles)
        if self.sanitizer is not None:
            self.sanitizer.final_check(self)
        return self._collect(final_cycle)

    def _collect(self, final_cycle: int) -> SimulationResult:
        """Build the result from one counter snapshot.

        Every counted summary field is a sum over the snapshot; only
        what no counter holds (latency sums, candidate and late counts,
        CLIP's prediction census) is read from the components.
        """
        counters = self.hierarchy.counters.snapshot()
        result = SimulationResult(config_label=self.label,
                                  counters=counters)
        result.total_cycles = final_cycle
        for core, name in zip(self.cores, self.workload_names):
            s = core.stats
            result.cores.append(CoreResult(
                core_id=core.core_id, workload=name,
                instructions=s.instructions, cycles=s.finish_cycle,
                loads=s.loads, stores=s.stores, branches=s.branches,
                mispredicts=s.mispredicts,
                head_stall_cycles=s.head_stall_cycles,
                head_stall_cycles_miss=s.head_stall_cycles_miss,
                critical_load_instances=s.critical_load_instances,
                load_instances_beyond_l1=s.load_instances_beyond_l1))
        predictions = sum(c.branch_predictor.predictions for c in self.cores)
        mispredicts = sum(c.branch_predictor.mispredictions
                          for c in self.cores)
        result.branch_accuracy = (1.0 - mispredicts / predictions
                                  if predictions else 1.0)
        result.levels = {
            name: LevelStats(
                name, **sum_counters(counters, pattern, _LEVEL_COUNTERS),
                miss_latency_sum=sum(n.lat_sum[level] for n in self.nodes),
                miss_latency_count=sum(n.lat_count[level]
                                       for n in self.nodes))
            for name, pattern, level in _LEVELS}
        result.prefetch = self.prefetch_summary(counters)
        result.dram = self._dram_summary(counters, final_cycle)
        noc = sum_counters(counters, "noc", ("packets", "flits",
                                             "total_hops", "flit_hops"))
        result.noc = NocResult(
            **noc, average_latency=(self.noc.stats.total_latency
                                    / noc["packets"]
                                    if noc["packets"] else 0.0))
        if self.config.clip.enabled:
            result.clip = self._collect_clip(counters)
        if self.config.criticality.name != "none":
            result.criticality = self._collect_criticality()
        self._attach_energy(result)
        return result

    def _attach_energy(self, result: SimulationResult) -> None:
        """Counter-driven energy and EDP at the configured frequency."""
        # Deferred import: repro.energy.model imports repro.sim.stats,
        # which resolves through repro.sim's package __init__ and lands
        # back in this module while it is still initialising.
        from repro.energy.model import dynamic_energy
        breakdown = dynamic_energy(result)
        result.energy_breakdown_mj = breakdown.components_mj
        result.energy_mj = breakdown.total_mj
        delay_s = result.total_cycles / (self.config.core.frequency_ghz
                                         * 1e9)
        result.edp_mj_s = result.energy_mj * delay_s

    def prefetch_summary(self, counters: Counters) -> PrefetchStats:
        """System-wide prefetch accounting from the per-core counters.

        The MSHR files count late merges; the nodes count candidates.
        """
        summed = sum_counters(counters, "core*.chain", (
            "pf_issued", "pf_dropped_filter", "pf_dropped_duplicate",
            "pf_dropped_mshr", "pf_useful"))
        return PrefetchStats(
            candidates=sum(n.pf_candidates for n in self.nodes),
            issued=summed["pf_issued"],
            dropped_filter=summed["pf_dropped_filter"],
            dropped_duplicate=summed["pf_dropped_duplicate"],
            dropped_mshr=summed["pf_dropped_mshr"],
            useful=summed["pf_useful"],
            late=sum(n.l1_mshr.late_prefetch_merges
                     + n.l2_mshr.late_prefetch_merges for n in self.nodes))

    def _dram_summary(self, counters: Counters,
                      final_cycle: int) -> DramResult:
        channels = counter_groups(counters, "dram.ch*")
        summed = sum_counters(counters, "dram.ch*", (
            "reads", "writes", "prefetch_reads", "row_hits", "activates"))
        elapsed = max(1, final_cycle)
        latency_sum = sum(c.stats.total_read_latency
                          for c in self.dram.channels)
        return DramResult(
            reads=summed["reads"], writes=summed["writes"],
            prefetch_reads=summed["prefetch_reads"],
            row_hits=summed["row_hits"], row_misses=summed["activates"],
            average_read_latency=(latency_sum / summed["reads"]
                                  if summed["reads"] else 0.0),
            utilization=sum(min(1.0, ch["busy_cycles"] / elapsed)
                            for ch in channels) / len(channels))

    def _collect_clip(self, counters: Counters) -> ClipResult:
        accesses = sum_counters(counters, "core*.chain", (
            "clip_filter_accesses", "clip_predictor_accesses",
            "clip_utility_cam_accesses"))
        clip_result = ClipResult(
            filter_accesses=accesses["clip_filter_accesses"],
            predictor_accesses=accesses["clip_predictor_accesses"],
            utility_cam_accesses=accesses["clip_utility_cam_accesses"])
        predicted = correct = actual = covered = 0
        for node in self.nodes:
            clip = node.clip
            check(clip is not None, "CLIP enabled but core %d has no "
                  "Clip instance", node.core_id)
            predicted += clip.stats.predicted_critical
            correct += clip.stats.predicted_critical_correct
            actual += clip.stats.actual_critical
            covered += clip.stats.covered_critical
            clip_result.prefetches_seen += clip.stats.prefetches_seen
            clip_result.prefetches_allowed += clip.stats.prefetches_allowed
            static, dynamic = clip.critical_ip_census()
            clip_result.static_critical_ips += static
            clip_result.dynamic_critical_ips += dynamic
            clip_result.windows += clip.stats.windows
            clip_result.phase_changes += clip.stats.phase_changes
        clip_result.prediction_accuracy = (correct / predicted
                                           if predicted else 0.0)
        clip_result.prediction_coverage = (covered / actual
                                           if actual else 0.0)
        return clip_result

    def _collect_criticality(self) -> CriticalityResult:
        predicted = correct = actual = covered = 0
        name = self.config.criticality.name
        for node in self.nodes:
            gate = node.crit_gate
            check(gate is not None, "criticality predictor %r enabled "
                  "but core %d has no gate", name, node.core_id)
            measurement = gate.measurement
            predicted += measurement.predicted
            correct += measurement.predicted_correct
            actual += measurement.actual
            covered += measurement.covered
        return CriticalityResult(
            name=name,
            accuracy=correct / predicted if predicted else 0.0,
            coverage=covered / actual if actual else 0.0)


def run_system(config: SystemConfig, workloads: List[str],
               label: str = "") -> SimulationResult:
    """Convenience wrapper: build, run, collect."""
    return MulticoreSystem(config, workloads, label=label).run()
