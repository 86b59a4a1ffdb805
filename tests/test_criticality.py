"""Tests for the baseline criticality predictors and their harness."""

from __future__ import annotations

import pytest

from repro.config import CoreConfig
from repro.cpu import Core, ServiceLevel
from repro.criticality import (make_criticality_predictor, predictor_names)
from repro.criticality.base import CriticalityMeasurement
from repro.criticality.cbp import CommitBlockPredictor
from repro.criticality.crisp import CrispPredictor
from repro.criticality.fp import FocusedPrefetchingPredictor
from repro.criticality.fvp import FvpPredictor
from repro.criticality.robo import RoboPredictor
from repro.sim.engine import Engine
from repro.trace.record import Op, TraceRecord


class TestFactory:
    def test_names(self):
        assert predictor_names() == ["catch", "cbp", "crisp", "fp", "fvp",
                                     "robo"]

    def test_construct_all(self):
        for name in predictor_names():
            predictor = make_criticality_predictor(name)
            assert predictor.name == name

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_criticality_predictor("oracle")


class TestMeasurement:
    def test_accuracy_and_coverage(self):
        m = CriticalityMeasurement()
        m.note(predicted=True, actual=True)    # hit
        m.note(predicted=True, actual=False)   # false positive
        m.note(predicted=False, actual=True)   # miss
        m.note(predicted=False, actual=False)  # true negative
        assert m.accuracy == 0.5
        assert m.coverage == 0.5

    def test_empty_is_zero(self):
        m = CriticalityMeasurement()
        assert m.accuracy == 0.0
        assert m.coverage == 0.0


class _FakeEntry:
    def __init__(self, ip, op=Op.LOAD, service_level=ServiceLevel.DRAM,
                 mlp=1, consumers=1, done_at=100, dispatched_at=0):
        self.ip = ip
        self.op = op
        self.service_level = service_level
        self.mlp_at_issue = mlp
        self.consumer_count = consumers
        self.done_at = done_at
        self.dispatched_at = dispatched_at


class _FakeCore:
    def __init__(self, rob_entries=512, occupancy=400):
        self.config = CoreConfig(rob_entries=rob_entries)
        self.rob_occupancy = occupancy


class TestCbp:
    def test_flags_on_large_single_stall(self):
        cbp = CommitBlockPredictor()
        entry = _FakeEntry(0x400)
        cbp.on_retire(_FakeCore(), entry,
                      cycle=100, head_wait=CommitBlockPredictor.
                      MAX_STALL_THRESHOLD)
        assert cbp.predicts_critical_ip(0x400)

    def test_flags_on_accumulated_stall(self):
        cbp = CommitBlockPredictor()
        entry = _FakeEntry(0x500)
        small = CommitBlockPredictor.MAX_STALL_THRESHOLD - 1
        needed = CommitBlockPredictor.TOTAL_STALL_THRESHOLD // small + 1
        for _ in range(needed):
            cbp.on_retire(_FakeCore(), entry, cycle=0, head_wait=small)
        assert cbp.predicts_critical_ip(0x500)

    def test_static_once_flagged(self):
        cbp = CommitBlockPredictor()
        entry = _FakeEntry(0x600)
        cbp.on_retire(_FakeCore(), entry, cycle=0, head_wait=100)
        for _ in range(50):
            cbp.on_retire(_FakeCore(), entry, cycle=0, head_wait=0)
        assert cbp.predicts_critical_ip(0x600)  # Table 1: sticky.


class TestRobo:
    def test_requires_high_occupancy(self):
        robo = RoboPredictor()
        entry = _FakeEntry(0x400)
        robo.on_retire(_FakeCore(occupancy=10), entry, cycle=0, head_wait=50)
        assert not robo.predicts_critical_ip(0x400)
        robo.on_retire(_FakeCore(occupancy=400), entry, cycle=0,
                       head_wait=50)
        assert robo.predicts_critical_ip(0x400)

    def test_short_stalls_ignored(self):
        robo = RoboPredictor()
        entry = _FakeEntry(0x400)
        robo.on_retire(_FakeCore(occupancy=500), entry, cycle=0, head_wait=1)
        assert not robo.predicts_critical_ip(0x400)


class TestFvp:
    def test_chain_roots_flagged(self):
        fvp = FvpPredictor()
        entry = _FakeEntry(0x400, consumers=2)
        for _ in range(3):
            fvp.on_retire(_FakeCore(), entry, cycle=0, head_wait=0)
        assert fvp.predicts_critical_ip(0x400)

    def test_consumerless_fast_loads_decay(self):
        fvp = FvpPredictor()
        entry = _FakeEntry(0x400, consumers=0)
        fvp.on_retire(_FakeCore(), _FakeEntry(0x400, consumers=1),
                      cycle=0, head_wait=0)
        for _ in range(5):
            fvp.on_retire(_FakeCore(), entry, cycle=0, head_wait=0)
        assert not fvp.predicts_critical_ip(0x400)


class TestFp:
    def test_limcos_set_covers_stall_mass(self):
        fp = FocusedPrefetchingPredictor()
        heavy = _FakeEntry(0xA)
        light = _FakeEntry(0xB)
        for i in range(FocusedPrefetchingPredictor.EPOCH_RETIRES):
            if i % 10 == 0:
                fp.on_retire(_FakeCore(), heavy, cycle=0, head_wait=100)
            elif i % 97 == 0:
                fp.on_retire(_FakeCore(), light, cycle=0, head_wait=1)
            else:
                fp.on_retire(_FakeCore(), _FakeEntry(0xC, op=Op.ALU),
                             cycle=0, head_wait=0)
        assert fp.predicts_critical_ip(0xA)
        assert not fp.predicts_critical_ip(0xB)


class TestCrisp:
    def test_llc_miss_low_mlp_flagged(self):
        crisp = CrispPredictor()
        entry = _FakeEntry(0x400, service_level=ServiceLevel.DRAM, mlp=1)
        for _ in range(3):
            crisp.train(_FakeCore(), entry, cycle=0, critical=True)
        assert crisp.predicts_critical_ip(0x400)

    def test_high_mlp_not_flagged(self):
        crisp = CrispPredictor()
        entry = _FakeEntry(0x400, service_level=ServiceLevel.DRAM, mlp=30)
        for _ in range(8):
            crisp.train(_FakeCore(), entry, cycle=0, critical=True)
        assert not crisp.predicts_critical_ip(0x400)

    def test_l2_hits_invisible_to_crisp(self):
        """Table 1: CRISP only considers LLC misses."""
        crisp = CrispPredictor()
        entry = _FakeEntry(0x400, service_level=ServiceLevel.L2, mlp=1)
        for _ in range(10):
            crisp.train(_FakeCore(), entry, cycle=0, critical=True)
        assert not crisp.predicts_critical_ip(0x400)


class TestEndToEndHarness:
    def test_catch_over_predicts_near_mispredictions(self):
        """CATCH tags loads retired near branch mispredictions."""
        from repro.criticality.catch import CatchPredictor

        catch = CatchPredictor()
        core = _FakeCore()
        # One mispredicted branch followed by loads with zero stalls.
        catch.on_branch(core, 0x10, True, True, cycle=0)
        entry = _FakeEntry(0x20, done_at=5, dispatched_at=0)
        for _ in range(CatchPredictor.INTERVAL):
            catch.on_retire(core, entry, cycle=0, head_wait=0)
        assert catch.predicts_critical_ip(0x20)

    def test_measurement_wired_through_core(self):
        """Attach a predictor to a real core and observe measurements."""
        engine = Engine()

        class _Memory:
            def issue_load(self, address, ip, cycle, callback):
                done = cycle + 80
                engine.schedule(done,
                                lambda: callback(done, ServiceLevel.DRAM))

            def issue_store(self, *a):
                pass

        trace = []
        for i in range(40):
            trace.append(TraceRecord(0x400, Op.LOAD,
                                     address=0x1000 + i * 64, dst=1))
            trace.append(TraceRecord(0x404, Op.ALU, dst=2, srcs=(1,)))
        predictor = make_criticality_predictor("cbp")
        core = Core(0, CoreConfig(), trace, _Memory(), engine)
        predictor.attach(core)
        engine.run([core])
        assert predictor.measurement.actual > 0
