"""Tests for the event engine, branch predictor, and the OoO core model."""

from __future__ import annotations

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BranchPredictorConfig, CoreConfig, scaled_config
from repro.cpu import Core, HashedPerceptronPredictor, RobEntry, ServiceLevel
from repro.cpu.branch import mispredict_column
from repro.sim import system as system_module
from repro.sim.engine import Engine
from repro.sim.system import MulticoreSystem
from repro.trace.record import Op, TraceRecord


class TestEngine:
    def test_events_run_in_time_order(self, engine):
        seen = []
        engine.schedule(10, lambda: seen.append(10))
        engine.schedule(5, lambda: seen.append(5))
        engine.schedule(7, lambda: seen.append(7))
        engine.now = 0
        engine._drain_events_at(100)
        assert seen == [5, 7, 10]

    def test_same_cycle_fifo(self, engine):
        seen = []
        engine.schedule(3, lambda: seen.append("a"))
        engine.schedule(3, lambda: seen.append("b"))
        engine._drain_events_at(3)
        assert seen == ["a", "b"]

    def test_cannot_schedule_in_past(self, engine):
        engine.now = 10
        with pytest.raises(ValueError):
            engine.schedule(5, lambda: None)

    def test_event_scheduling_event_same_cycle(self, engine):
        seen = []

        def outer():
            seen.append("outer")
            engine.schedule(engine.now, lambda: seen.append("inner"))

        engine.schedule(2, outer)
        engine.now = 2
        engine._drain_events_at(2)
        assert seen == ["outer", "inner"]

    def test_quiescence_drain_keeps_now_monotonic(self, engine):
        """Draining trailing events must never rewind ``now``; the cycle
        the last core retired is reported separately from the drain."""
        observed = []

        class OneShot:
            next_wake = 3
            done = False

            def tick(self, cycle):
                engine.schedule(40, lambda: observed.append(engine.now))
                engine.schedule(15, lambda: observed.append(engine.now))
                self.done = True
                self.next_wake = float("inf")

        finish = engine.run([OneShot()])
        assert finish == 3
        assert observed == [15, 40]  # drain advances in time order
        assert engine.quiesce_cycle == 40
        assert engine.now == 40  # monotonic: not rewound to finish

    def test_quiesce_cycle_equals_finish_when_nothing_in_flight(self,
                                                                engine):
        class Idle:
            next_wake = 7
            done = False

            def tick(self, cycle):
                self.done = True
                self.next_wake = float("inf")

        finish = engine.run([Idle()])
        assert finish == 7
        assert engine.quiesce_cycle == finish
        assert engine.now == finish

    def test_deadlock_detection(self, engine):
        class Stuck:
            next_wake = float("inf")
            done = False

            def tick(self, cycle):  # pragma: no cover - never called
                raise AssertionError

        with pytest.raises(RuntimeError, match="deadlock"):
            engine.run([Stuck()])


class TestBranchPredictor:
    def test_learns_always_taken(self):
        predictor = HashedPerceptronPredictor()
        for _ in range(100):
            predictor.predict_and_train(0x400, True)
        assert predictor.predict(0x400)
        assert predictor.accuracy > 0.9

    def test_learns_alternating_with_history(self):
        predictor = HashedPerceptronPredictor()
        outcome = False
        correct = 0
        for i in range(600):
            outcome = not outcome
            if predictor.predict_and_train(0x500, outcome):
                correct += 1 if i >= 200 else 0
        assert correct / 400 > 0.8

    def test_random_branch_near_base_rate(self):
        import random
        rng = random.Random(7)
        predictor = HashedPerceptronPredictor()
        correct = sum(
            predictor.predict_and_train(0x600, rng.random() < 0.5)
            for _ in range(500))
        assert correct < 400

    def test_weights_stay_bounded(self):
        config = BranchPredictorConfig(weight_bits=4)
        predictor = HashedPerceptronPredictor(config)
        for _ in range(500):
            predictor.predict_and_train(0x700, True)
        bound = 1 << (config.weight_bits - 1)
        for table in predictor._tables:
            assert all(-bound <= w < bound for w in table)


class _ScriptedMemory:
    """Memory stub with a scripted latency per line address."""

    def __init__(self, engine, latency=20, level=ServiceLevel.L2):
        self.engine = engine
        self.latency = latency
        self.level = level
        self.loads = []
        self.stores = []

    def issue_load(self, address, ip, cycle, callback):
        self.loads.append((address, cycle))
        done = cycle + self.latency
        self.engine.schedule(done, lambda: callback(done, self.level))

    def issue_store(self, address, ip, cycle):
        self.stores.append((address, cycle))


def _run_core(trace, latency=20, level=ServiceLevel.L2,
              config: CoreConfig | None = None):
    engine = Engine()
    memory = _ScriptedMemory(engine, latency, level)
    core = Core(0, config or CoreConfig(), trace, memory, engine)
    engine.run([core])
    return core, memory, engine


class TestCoreModel:
    def test_alu_only_trace_retires_fast(self):
        trace = [TraceRecord(0x400 + 4 * i, Op.ALU, dst=i % 8)
                 for i in range(120)]
        core, _, engine = _run_core(trace)
        assert core.stats.instructions == 120
        # 6-wide issue, 4-wide retire: at least 4 IPC asymptotically.
        assert core.stats.finish_cycle < 120

    def test_load_latency_stalls_head(self):
        trace = [TraceRecord(0x400, Op.LOAD, address=0x1000, dst=1)]
        core, _, engine = _run_core(trace, latency=50)
        assert core.stats.instructions == 1
        assert core.stats.head_stall_cycles >= 49
        assert core.stats.critical_load_instances == 1

    def test_l1_hits_are_not_critical(self):
        trace = [TraceRecord(0x400, Op.LOAD, address=0x1000, dst=1)]
        core, _, _ = _run_core(trace, latency=5, level=ServiceLevel.L1)
        assert core.stats.critical_load_instances == 0
        assert core.stats.load_instances_beyond_l1 == 0

    def test_independent_loads_overlap(self):
        trace = [TraceRecord(0x400 + i, Op.LOAD, address=0x1000 + 64 * i,
                             dst=i % 8) for i in range(8)]
        core, memory, _ = _run_core(trace, latency=100)
        # All eight issue within the first few cycles (MLP).
        issue_cycles = [cycle for _, cycle in memory.loads]
        assert max(issue_cycles) - min(issue_cycles) < 10
        assert core.stats.finish_cycle < 150

    def test_dependent_loads_serialise(self):
        trace = [
            TraceRecord(0x400, Op.LOAD, address=0x1000, dst=1),
            TraceRecord(0x404, Op.LOAD, address=0x2000, dst=1, srcs=(1,)),
        ]
        core, memory, _ = _run_core(trace, latency=100)
        issue_cycles = [cycle for _, cycle in memory.loads]
        assert issue_cycles[1] >= issue_cycles[0] + 100

    def test_mlp_recorded_at_issue(self):
        trace = [TraceRecord(0x400 + i, Op.LOAD, address=0x1000 + 64 * i,
                             dst=i % 8) for i in range(4)]
        mlps = []
        core = None

        def hook(c, entry, cycle):
            mlps.append(entry.mlp_at_issue)

        engine = Engine()
        memory = _ScriptedMemory(engine, 100)
        core = Core(0, CoreConfig(), trace, memory, engine)
        core.load_issue_hooks.append(hook)
        engine.run([core])
        assert mlps == [1, 2, 3, 4]

    def test_store_does_not_block_retirement(self):
        trace = [TraceRecord(0x400, Op.STORE, address=0x1000)]
        core, memory, _ = _run_core(trace, latency=500)
        assert core.stats.finish_cycle < 20
        assert memory.stores

    def test_mispredicted_branch_stalls_fetch(self):
        # A branch whose outcome alternates randomly enough to mispredict,
        # followed by ALUs: compare against an always-taken variant.
        import random
        rng = random.Random(3)
        noisy = []
        steady = []
        for i in range(150):
            noisy.append(TraceRecord(0x800, Op.BRANCH,
                                     taken=rng.random() < 0.5))
            steady.append(TraceRecord(0x800, Op.BRANCH, taken=True))
            for j in range(3):
                record = TraceRecord(0x900 + 4 * j, Op.ALU, dst=j)
                noisy.append(record)
                steady.append(record)
        noisy_core, _, _ = _run_core(noisy)
        steady_core, _, _ = _run_core(steady)
        assert noisy_core.stats.mispredicts > steady_core.stats.mispredicts
        assert noisy_core.stats.finish_cycle > steady_core.stats.finish_cycle

    def test_rob_capacity_limits_window(self):
        config = CoreConfig(rob_entries=8)
        trace = [TraceRecord(0x400 + i, Op.LOAD, address=0x1000 + 64 * i,
                             dst=i % 4) for i in range(32)]
        core, memory, _ = _run_core(trace, latency=200, config=config)
        # With an 8-entry ROB, at most 8 loads can be outstanding.
        issue_cycles = sorted(cycle for _, cycle in memory.loads)
        assert issue_cycles[8] >= issue_cycles[0] + 200

    def test_retire_hook_fires_for_every_instruction(self):
        trace = [TraceRecord(0x400, Op.ALU, dst=1) for _ in range(37)]
        engine = Engine()
        memory = _ScriptedMemory(engine)
        core = Core(0, CoreConfig(), trace, memory, engine)
        count = []
        core.retire_hooks.append(lambda *a: count.append(1))
        engine.run([core])
        assert len(count) == 37

    def test_history_snapshot_hook(self):
        trace = [TraceRecord(0x400, Op.LOAD, address=0x1000, dst=1)]
        engine = Engine()
        memory = _ScriptedMemory(engine)
        core = Core(0, CoreConfig(), trace, memory, engine)
        core.dispatch_hooks.append(
            lambda c, entry, cycle: setattr(entry, "history_snapshot",
                                            (1, 2)))
        engine.run([core])

    def test_two_cores_run_to_completion(self):
        engine = Engine()
        memory = _ScriptedMemory(engine, latency=30)
        traces = [
            [TraceRecord(0x400 + i, Op.LOAD, address=0x1000 + 64 * i,
                         dst=i % 8) for i in range(20)],
            [TraceRecord(0x800 + i, Op.ALU, dst=i % 8) for i in range(50)],
        ]
        cores = [Core(i, CoreConfig(), traces[i], memory, engine)
                 for i in range(2)]
        engine.run(cores)
        assert all(core.done for core in cores)


class _InlineCore(Core):
    """Differential oracle: the dispatch loop as it was before the
    mispredict column, predicting each branch inline at dispatch and
    starting every ready instruction through ``_begin_execution``."""

    def _dispatch(self, cycle: int) -> None:
        if self.fetch_stall_until > cycle:
            return
        dispatched = 0
        config = self.config
        predict_and_train = self.branch_predictor.predict_and_train
        while (dispatched < config.issue_width
               and len(self.rob) < config.rob_entries
               and self.pc < len(self.trace)):
            record = self.trace[self.pc]
            self.pc += 1
            dispatched += 1
            entry = RobEntry(self.seq, record, cycle)
            self.seq += 1
            if not self.rob:
                entry.became_head_at = cycle
            self.rob.append(entry)
            if record.srcs:
                self._wire_dependencies(entry, record)
            if record.op == Op.LOAD:
                for hook in self.dispatch_hooks:
                    hook(self, entry, cycle)
            if record.dst >= 0:
                self.reg_producer[record.dst] = entry
            stop_fetch = False
            if record.op == Op.BRANCH:
                correct = predict_and_train(record.ip, record.taken)
                if not correct:
                    self.stats.mispredicts += 1
                    entry.is_mispredict = True
                    stop_fetch = True
                for hook in self.branch_hooks:
                    hook(self, record.ip, record.taken, not correct, cycle)
            if entry.deps == 0:
                self._begin_execution(entry, max(cycle + 1, entry.ready_at))
            if stop_fetch:
                if entry.done_at is not None:
                    self.fetch_stall_until = (entry.done_at
                                              + config.mispredict_penalty)
                else:
                    self.fetch_stall_until = 1 << 62
                break


_SMALL_PREDICTOR = BranchPredictorConfig(history_bits=6, num_tables=3,
                                         table_entries=16, weight_bits=4,
                                         threshold=3)


def _observed_run(core_class, trace, branch_config, core_config=None,
                  latency=20):
    """Run one core; return it with its branch-hook calls and its
    per-instruction (seq, done_at, retire cycle) record."""
    engine = Engine()
    memory = _ScriptedMemory(engine, latency)
    core = core_class(0, core_config or CoreConfig(), trace, memory, engine,
                      branch_predictor=HashedPerceptronPredictor(
                          branch_config))
    branch_calls = []
    retired = []
    core.branch_hooks.append(
        lambda c, *args: branch_calls.append(args))
    core.retire_hooks.append(
        lambda c, entry, cycle, wait: retired.append(
            (entry.seq, entry.done_at, cycle, wait)))
    engine.run([core])
    return core, branch_calls, retired


_instruction = st.tuples(
    st.sampled_from((Op.BRANCH, Op.BRANCH, Op.ALU, Op.LOAD)),
    st.integers(min_value=0, max_value=5),   # ip slot
    st.booleans(),                           # branch outcome
    st.integers(min_value=-1, max_value=3))  # source register, -1: none


def _trace_from(instructions):
    trace = []
    for index, (op, ip_slot, taken, src) in enumerate(instructions):
        srcs = (src,) if src >= 0 else ()
        ip = 0x400 + 4 * ip_slot
        if op == Op.BRANCH:
            trace.append(TraceRecord(ip, op, taken=taken, srcs=srcs))
        elif op == Op.LOAD:
            trace.append(TraceRecord(ip, op, address=0x1000 + 64 * index,
                                     dst=index % 4, srcs=srcs))
        else:
            trace.append(TraceRecord(ip, op, dst=index % 4, srcs=srcs))
    return trace


class TestMispredictColumn:
    @settings(max_examples=60, deadline=None)
    @given(instructions=st.lists(_instruction, min_size=1, max_size=60),
           branch_config=st.sampled_from((BranchPredictorConfig(),
                                          _SMALL_PREDICTOR)))
    def test_column_matches_inline_replay(self, instructions,
                                          branch_config):
        trace = _trace_from(instructions)
        inline = HashedPerceptronPredictor(branch_config)
        expected = bytes(
            int(record.op == Op.BRANCH
                and not inline.predict_and_train(record.ip, record.taken))
            for record in trace)
        assert mispredict_column(trace, branch_config) == expected

        core, calls, retired = _observed_run(Core, trace, branch_config)
        oracle, oracle_calls, oracle_retired = _observed_run(
            _InlineCore, trace, branch_config)
        for counted in (core.branch_predictor, oracle.branch_predictor):
            assert counted.predictions == inline.predictions
            assert counted.mispredictions == inline.mispredictions
        assert calls == oracle_calls
        assert all(type(args[2]) is bool for args in calls)
        assert retired == oracle_retired
        assert vars(core.stats) == vars(oracle.stats)

    def test_bare_core_replays_its_own_predictor_config(self):
        trace = [TraceRecord(0x800, Op.BRANCH, taken=i % 3 == 0)
                 for i in range(40)]
        core, _, _ = _observed_run(Core, trace, _SMALL_PREDICTOR)
        assert core._mispredicts == mispredict_column(trace,
                                                      _SMALL_PREDICTOR)

    def test_building_a_core_replays_nothing(self):
        engine = Engine()
        calls = []

        def outcomes(config):
            calls.append(config)
            return b"\x01"  # the one branch mispredicts

        trace = [TraceRecord(0x800, Op.BRANCH, taken=False)]
        core = Core(0, CoreConfig(), trace, _ScriptedMemory(engine),
                    engine, branch_outcomes=outcomes)
        assert calls == [] and core._mispredicts is None
        engine.run([core])
        assert calls == [core.branch_predictor.config]
        assert core.stats.mispredicts == 1


def _dispatch_once(core_class, trace, cycle=0, core_config=None):
    """One dispatch call from a fresh core, with every completion
    ``next_wake`` update visible (tick would overwrite them)."""
    engine = Engine()
    core = core_class(0, core_config or CoreConfig(), trace,
                      _ScriptedMemory(engine, latency=30), engine)
    core.next_wake = float("inf")
    engine.now = cycle
    core._dispatch(cycle)
    return core, engine


def _dispatch_state(core):
    return ([(e.seq, e.deps, e.ready_at, e.done_at, e.is_mispredict)
             for e in core.rob],
            core.pc, core.fetch_stall_until, core.next_wake,
            core.branch_predictor.predictions,
            core.branch_predictor.mispredictions)


class TestStraightLineCompletion:
    """The inline completion of ALU ops and branches gives the state
    ``_begin_execution`` -> ``_set_done`` gave."""

    def test_mispredicted_branch_at_rob_head(self):
        # A fresh perceptron sums to 0 and predicts taken.
        trace = [TraceRecord(0x800, Op.BRANCH, taken=False),
                 TraceRecord(0x804, Op.ALU, dst=1)]
        core, _ = _dispatch_once(Core, trace, cycle=5)
        oracle, _ = _dispatch_once(_InlineCore, trace, cycle=5)
        assert _dispatch_state(core) == _dispatch_state(oracle)
        head = core.rob[0]
        assert head.is_mispredict and head.done_at == 7
        assert core.pc == 1  # fetch stopped behind the branch
        assert core.fetch_stall_until == 7 + CoreConfig().mispredict_penalty
        assert core.next_wake == 7

    def test_mispredicted_branch_behind_pending_producer(self):
        trace = [TraceRecord(0x400, Op.LOAD, address=0x1000, dst=1),
                 TraceRecord(0x800, Op.BRANCH, taken=False, srcs=(1,)),
                 TraceRecord(0x804, Op.ALU, dst=2)]
        core, engine = _dispatch_once(Core, trace)
        oracle, oracle_engine = _dispatch_once(_InlineCore, trace)
        assert _dispatch_state(core) == _dispatch_state(oracle)
        assert core.rob[1].deps == 1 and core.rob[1].done_at is None
        assert core.fetch_stall_until == 1 << 62
        # The load returns at 31; the branch resolves through
        # _set_done -> _begin_execution one cycle later.
        engine.run([core])
        oracle_engine.run([oracle])
        assert vars(core.stats) == vars(oracle.stats)
        assert core.fetch_stall_until == oracle.fetch_stall_until \
            == 32 + CoreConfig().mispredict_penalty

    def test_alu_ready_at_raised_by_completed_producer(self):
        config = CoreConfig(alu_latency=3)
        trace = [TraceRecord(0x400, Op.ALU, dst=1),
                 TraceRecord(0x404, Op.ALU, dst=2, srcs=(1,)),
                 TraceRecord(0x408, Op.BRANCH, taken=True, srcs=(2,))]
        core, _ = _dispatch_once(Core, trace, core_config=config)
        oracle, _ = _dispatch_once(_InlineCore, trace, core_config=config)
        assert _dispatch_state(core) == _dispatch_state(oracle)
        producer, consumer, branch = core.rob
        assert producer.done_at == 4
        assert consumer.ready_at == 4 and consumer.done_at == 7
        assert branch.ready_at == 7 and branch.done_at == 8


@pytest.fixture
def empty_trace_cache(monkeypatch):
    """A private, empty trace cache for one test."""
    cache = OrderedDict()
    monkeypatch.setattr(system_module, "_TRACE_CACHE", cache)
    return cache


def _small_system(mix=("605.mcf_s-1536B", "tc-14"), branch=None):
    config = scaled_config(num_cores=2, channels=1, sim_instructions=300)
    if branch is not None:
        config.branch = branch
    return MulticoreSystem(config, list(mix))


def _columns(system):
    for core in system.cores:
        core.tick(0)  # the first dispatch fetches the column
    return [core._mispredicts for core in system.cores]


class TestMispredictMemo:
    def test_building_a_system_computes_no_column(self, empty_trace_cache,
                                                  monkeypatch):
        calls = []

        def counting(trace, config):
            calls.append(config)
            return mispredict_column(trace, config)

        monkeypatch.setattr(system_module, "mispredict_column", counting)
        system = _small_system()
        assert calls == []
        assert all(core._mispredicts is None for core in system.cores)
        assert all(not cached.columns
                   for cached in empty_trace_cache.values())
        system.run()
        assert len(calls) == 2

    def test_second_system_reuses_the_column(self, empty_trace_cache):
        first = _columns(_small_system())
        second = _columns(_small_system())
        assert all(a is b for a, b in zip(first, second))

    def test_other_branch_config_gets_its_own_column(self,
                                                     empty_trace_cache):
        default = _columns(_small_system())
        small = _columns(_small_system(branch=_SMALL_PREDICTOR))
        assert all(a is not b for a, b in zip(default, small))
        assert all(len(cached.columns) == 2
                   for cached in empty_trace_cache.values())

    def test_evicted_trace_takes_its_column(self, empty_trace_cache,
                                            monkeypatch):
        monkeypatch.setattr(system_module, "_TRACE_CACHE_ENTRIES", 2)
        evicted = _columns(_small_system())
        _columns(_small_system(mix=("619.lbm_s-2676B", "bfs-14")))
        assert len(empty_trace_cache) == 2
        kept = [column for cached in empty_trace_cache.values()
                for column in cached.columns.values()]
        assert not any(old is new for old in evicted for new in kept)
        again = _columns(_small_system())
        assert all(a is not b and a == b for a, b in zip(evicted, again))
