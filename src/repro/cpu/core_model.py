"""Trace-driven out-of-order core model.

The model keeps the microarchitectural state the paper's mechanisms read:

* a reorder buffer with in-order retirement and a retire-width limit, so
  *ROB-head stalls* (the paper's criticality ground truth) are measured
  directly as the time an instruction keeps the head of the ROB waiting for
  its completion;
* register dataflow: an instruction executes only after its producers
  complete, so pointer-chasing loads serialise (low MLP) and dependent
  branches resolve late;
* per-entry *miss-level* flags (paper section 4.1): the level of the memory
  hierarchy that serviced each load;
* branch mispredict bubbles using the hashed perceptron predictor, whose
  outcomes are replayed once per trace (:func:`mispredict_column`) and
  read from that column at dispatch.

Timing is driven by a cooperative engine: ``tick(cycle)`` performs retire
and dispatch for one cycle and publishes ``next_wake`` so the engine can
skip cycles in which the core can make no progress (memory events wake it).
"""

from __future__ import annotations

from collections import deque
from enum import IntEnum
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro.config import BranchPredictorConfig, CoreConfig
from repro.cpu.branch import HashedPerceptronPredictor, mispredict_column
from repro.trace.record import Op, TraceRecord

INFINITY = float("inf")

# Enum member access goes through EnumType.__getattr__; these run once per
# dispatched instruction, so bind them as module constants.
_OP_LOAD = Op.LOAD
_OP_STORE = Op.STORE
_OP_BRANCH = Op.BRANCH


class ServiceLevel(IntEnum):
    """Which level of the hierarchy serviced a load (miss-level flag)."""

    UNKNOWN = 0
    L1 = 1
    L2 = 2
    LLC = 3
    DRAM = 4


_LEVEL_L2 = ServiceLevel.L2


class RobEntry:
    """One in-flight instruction."""

    __slots__ = ("seq", "ip", "op", "address", "deps", "ready_at",
                 "done_at", "dependents", "became_head_at", "service_level",
                 "dispatched_at", "mlp_at_issue", "is_mispredict",
                 "consumer_count", "history_snapshot")

    def __init__(self, seq: int, record: TraceRecord, cycle: int) -> None:
        self.seq = seq
        self.ip = record.ip
        self.op = record.op
        self.address = record.address
        self.deps = 0
        self.ready_at = cycle
        self.done_at: Optional[int] = None
        #: Waiting consumers; ``None`` until the first one registers, so
        #: the (majority) producer-less entries never allocate a list.
        self.dependents: Optional[List["RobEntry"]] = None
        self.became_head_at: Optional[int] = None
        self.service_level = ServiceLevel.UNKNOWN
        self.dispatched_at = cycle
        self.mlp_at_issue = 0
        self.is_mispredict = False
        self.consumer_count = 0
        #: (branch history, criticality history) captured at dispatch by
        #: CLIP so predictor training sees the trigger-time context.
        self.history_snapshot = None


class CoreStats:
    """Retirement-side statistics for one core."""

    def __init__(self) -> None:
        self.instructions = 0
        self.loads = 0
        self.stores = 0
        self.branches = 0
        self.mispredicts = 0
        self.finish_cycle = 0
        self.head_stall_cycles = 0
        #: Head-stall cycles attributed to loads serviced beyond L1.
        self.head_stall_cycles_miss = 0
        self.critical_load_instances = 0
        self.load_instances_beyond_l1 = 0

    @property
    def ipc(self) -> float:
        if not self.finish_cycle:
            return 0.0
        return self.instructions / self.finish_cycle


class Core:
    """A single out-of-order core consuming one trace."""

    def __init__(self, core_id: int, config: CoreConfig,
                 trace: Sequence[TraceRecord], memory, engine,
                 branch_predictor: Optional[HashedPerceptronPredictor] = None,
                 warmup_instructions: int = 0,
                 branch_outcomes: Optional[
                     Callable[[BranchPredictorConfig], bytes]] = None,
                 ) -> None:
        self.core_id = core_id
        self.config = config
        self.trace = trace
        self._trace_len = len(trace)
        #: This core's memory port (its L1 node): ``issue_load(address,
        #: ip, cycle, callback)`` and ``issue_store(address, ip, cycle)``.
        self.memory = memory
        self.engine = engine
        #: Instructions retired before statistics start counting.
        self.warmup_instructions = warmup_instructions
        self._warmup_cycle = 0
        #: Counts this core's branches and mispredicts; the outcomes
        #: themselves come from the per-trace mispredict column.
        self.branch_predictor = branch_predictor or HashedPerceptronPredictor()
        #: ``config -> column`` for this trace; a system passes a memo
        #: shared through its trace cache, a bare core replays its own.
        self._branch_outcomes = (branch_outcomes
                                 or partial(mispredict_column, trace))
        #: The mispredict column, fetched on the first dispatch so that
        #: building a core replays nothing.
        self._mispredicts: Optional[bytes] = None
        self.rob: Deque[RobEntry] = deque()
        self.reg_producer: Dict[int, RobEntry] = {}
        self.pc = 0
        self.seq = 0
        self.retired = 0
        self.fetch_stall_until = 0
        self.outstanding_loads = 0
        self.done = False
        self.next_wake: float = 0
        self.stats = CoreStats()
        # Event hooks (registered by CLIP, criticality predictors, ...).
        self.retire_hooks: List[Callable] = []
        self.dispatch_hooks: List[Callable] = []
        self.branch_hooks: List[Callable] = []
        self.load_response_hooks: List[Callable] = []
        self.load_issue_hooks: List[Callable] = []
        # Bound once: the engine event and the memory callback of every
        # load would otherwise each build a fresh bound method.
        self._issue_load_cb = self._issue_load
        self._load_response_cb = self._on_load_response

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------

    def tick(self, cycle: int) -> None:
        """Retire then dispatch for one cycle; update ``next_wake``."""
        if self.done:
            self.next_wake = INFINITY
            return
        self._retire(cycle)
        if not self.done:
            self._dispatch(cycle)
        self._update_next_wake(cycle)

    # ------------------------------------------------------------------
    # Retirement
    # ------------------------------------------------------------------

    def _retire(self, cycle: int) -> None:
        retired_now = 0
        rob = self.rob
        retire_width = self.config.retire_width
        # ``self._account_retire`` resolves dynamically on purpose: the
        # sanitizer wraps it as an instance attribute.  One lookup per
        # tick (not per retirement) still goes through the shim.
        account_retire = self._account_retire
        while (rob and retired_now < retire_width):
            head = rob[0]
            if head.done_at is None or head.done_at > cycle:
                break
            rob.popleft()
            retired_now += 1
            account_retire(head, cycle)
            if rob and rob[0].became_head_at is None:
                rob[0].became_head_at = cycle
        if self.retired >= self._trace_len and not rob:
            self.done = True
            self.stats.finish_cycle = cycle - self._warmup_cycle

    def _account_retire(self, entry: RobEntry, cycle: int) -> None:
        self.retired += 1
        if self.warmup_instructions:
            if self.retired <= self.warmup_instructions:
                if self.retired == self.warmup_instructions:
                    # Warm-up ends: restart the statistics window.
                    self.stats = CoreStats()
                    self._warmup_cycle = cycle
                return
        stats = self.stats
        stats.instructions += 1
        became_head = entry.became_head_at
        if became_head is None:
            became_head = entry.dispatched_at
        head_wait = 0
        if entry.done_at is not None and entry.done_at > became_head:
            head_wait = entry.done_at - became_head
        stats.head_stall_cycles += head_wait
        op = entry.op
        if op == _OP_LOAD:
            stats.loads += 1
            if entry.service_level >= _LEVEL_L2:
                stats.load_instances_beyond_l1 += 1
                if head_wait > 0:
                    stats.head_stall_cycles_miss += head_wait
                    stats.critical_load_instances += 1
        elif op == _OP_STORE:
            stats.stores += 1
        elif op == _OP_BRANCH:
            stats.branches += 1
        for hook in self.retire_hooks:
            hook(self, entry, cycle, head_wait)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _dispatch(self, cycle: int) -> None:
        if self.fetch_stall_until > cycle:
            return
        mispredicts = self._mispredicts
        if mispredicts is None:
            mispredicts = self._mispredicts = self._branch_outcomes(
                self.branch_predictor.config)
        dispatched = 0
        config = self.config
        issue_width = config.issue_width
        rob_entries = config.rob_entries
        alu_latency = config.alu_latency
        trace = self.trace
        trace_len = len(trace)
        rob = self.rob
        reg_producer = self.reg_producer
        dispatch_hooks = self.dispatch_hooks
        branch_hooks = self.branch_hooks
        predictor = self.branch_predictor
        pc = self.pc
        seq = self.seq
        next_cycle = cycle + 1
        while (dispatched < issue_width
               and len(rob) < rob_entries
               and pc < trace_len):
            record = trace[pc]
            pc += 1
            dispatched += 1
            entry = RobEntry(seq, record, cycle)
            seq += 1
            if not rob:
                entry.became_head_at = cycle
            rob.append(entry)
            if record.srcs:
                self._wire_dependencies(entry, record)
            op = record.op
            if op == _OP_LOAD:
                for hook in dispatch_hooks:
                    hook(self, entry, cycle)
            if record.dst >= 0:
                reg_producer[record.dst] = entry
            mispredicted = False
            if op == _OP_BRANCH:
                predictor.predictions += 1
                if mispredicts[pc - 1]:
                    mispredicted = True
                    predictor.mispredictions += 1
                    self.stats.mispredicts += 1
                    entry.is_mispredict = True
                for hook in branch_hooks:
                    hook(self, record.ip, record.taken, mispredicted, cycle)
            if entry.deps == 0:
                ready_at = entry.ready_at
                start = next_cycle if next_cycle > ready_at else ready_at
                if op == _OP_LOAD or op == _OP_STORE:
                    self._begin_execution(entry, start)
                else:
                    # Straight-line completion: what _set_done does for
                    # an ALU op or branch that, just dispatched, has no
                    # dependents yet.
                    done_at = start + (1 if op == _OP_BRANCH
                                       else alu_latency)
                    entry.done_at = done_at
                    if mispredicted:
                        self.fetch_stall_until = (done_at
                                                  + config.mispredict_penalty)
                        if self.fetch_stall_until < self.next_wake:
                            self.next_wake = self.fetch_stall_until
                    if rob[0] is entry and done_at < self.next_wake:
                        self.next_wake = done_at
            elif mispredicted:
                # Resolves when its producers complete (_set_done).
                self.fetch_stall_until = 1 << 62
            if mispredicted:
                break
        self.pc = pc
        self.seq = seq

    def _wire_dependencies(self, entry: RobEntry,
                           record: TraceRecord) -> None:
        for src in record.srcs:
            producer = self.reg_producer.get(src)
            if producer is None:
                continue
            producer.consumer_count += 1
            if producer.done_at is None:
                waiting = producer.dependents
                if waiting is None:
                    producer.dependents = [entry]
                else:
                    waiting.append(entry)
                entry.deps += 1
            else:
                entry.ready_at = max(entry.ready_at, producer.done_at)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _begin_execution(self, entry: RobEntry, start: int) -> None:
        op = entry.op
        if op == _OP_LOAD:
            if start > self.engine.now:
                self.engine.schedule(start, self._issue_load_cb, entry)
            else:
                self._issue_load(entry)
        elif op == _OP_STORE:
            # Stores commit through the store buffer; the write itself is
            # fire-and-forget into the hierarchy.
            self._set_done(entry, start + 1)
            self.memory.issue_store(entry.address, entry.ip, start)
        elif op == _OP_BRANCH:
            self._set_done(entry, start + 1)
        else:
            self._set_done(entry, start + self.config.alu_latency)

    def _issue_load(self, entry: RobEntry) -> None:
        cycle = self.engine.now
        self.outstanding_loads += 1
        entry.mlp_at_issue = self.outstanding_loads
        for hook in self.load_issue_hooks:
            hook(self, entry, cycle)
        self.memory.issue_load(entry.address, entry.ip, cycle,
                               partial(self._load_response_cb, entry))

    def _on_load_response(self, entry: RobEntry, cycle: int,
                          level: ServiceLevel) -> None:
        self.outstanding_loads -= 1
        entry.service_level = level
        hooks = self.load_response_hooks
        if hooks:
            # Two stall signals: the paper's hardware mechanism checks
            # the *global* ROB-stall flag when a response returns
            # (section 4.1); ground truth for criticality is whether
            # *this* load is the blocked ROB head (it stalled retirement
            # itself).
            rob_stalled = self._rob_stalled(cycle)
            self_stalled = bool(
                self.rob and self.rob[0] is entry
                and entry.became_head_at is not None
                and entry.became_head_at < cycle)
            for hook in hooks:
                hook(self, entry, cycle, rob_stalled, self_stalled)
        self._set_done(entry, cycle)

    def _rob_stalled(self, cycle: int) -> bool:
        """Paper's ROB-stall flag: retirement is currently blocked."""
        if not self.rob:
            return False
        head = self.rob[0]
        if head.done_at is not None and head.done_at <= cycle:
            return False
        became_head = head.became_head_at
        return became_head is not None and became_head < cycle

    def _set_done(self, entry: RobEntry, cycle: int) -> None:
        entry.done_at = cycle
        dependents = entry.dependents
        if dependents is not None:
            entry.dependents = None
            for dependent in dependents:
                dependent.ready_at = max(dependent.ready_at, cycle)
                dependent.deps -= 1
                if dependent.deps == 0:
                    self._begin_execution(dependent, dependent.ready_at)
        if entry.is_mispredict:
            self.fetch_stall_until = cycle + self.config.mispredict_penalty
            self.next_wake = min(self.next_wake, self.fetch_stall_until)
        if self.rob and self.rob[0] is entry:
            self.next_wake = min(self.next_wake, cycle)

    # ------------------------------------------------------------------
    # Wake computation
    # ------------------------------------------------------------------

    def _update_next_wake(self, cycle: int) -> None:
        if self.done:
            self.next_wake = INFINITY
            return
        wake = INFINITY
        if self.rob:
            head = self.rob[0]
            if head.done_at is not None:
                wake = max(head.done_at, cycle + 1)
            # A pending head wakes us through its completion event.
        can_fetch = (self.pc < self._trace_len
                     and len(self.rob) < self.config.rob_entries)
        if can_fetch:
            if self.fetch_stall_until <= cycle:
                wake = min(wake, cycle + 1)
            elif self.fetch_stall_until < (1 << 61):
                wake = min(wake, self.fetch_stall_until)
        self.next_wake = wake

    @property
    def rob_occupancy(self) -> int:
        return len(self.rob)
