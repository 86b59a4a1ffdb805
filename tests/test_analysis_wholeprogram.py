"""Tests for the whole-program passes SIM009-SIM012.

Every rule gets (a) a seeded violation that must be reported at the
right file/line/scope and (b) a near-miss clean fixture that a purely
syntactic version of the rule would flag -- pinning the call-graph gate
and the taint precision, not just the pattern match.
"""

from __future__ import annotations

import textwrap

from repro.analysis.framework import lint_source
from repro.analysis.wholeprogram import (EntropyInSimStateRule,
                                         NondeterministicIterationRule,
                                         RngOutsideTraceRule,
                                         UnorderedReductionRule)


def lint(source: str, rule, path: str = "src/repro/x.py"):
    return lint_source(textwrap.dedent(source), [rule], path=path)


# ----------------------------------------------------------------------
# SIM009 nondet-iteration
# ----------------------------------------------------------------------

class TestNondeterministicIteration:
    def test_set_iteration_reaching_schedule_fires(self):
        violations = lint("""
            def drain(engine, requests):
                pending = set(requests)
                for req in pending:
                    engine.schedule(1, req)
            """, NondeterministicIterationRule())
        assert [v.rule_id for v in violations] == ["SIM009"]
        assert violations[0].path == "src/repro/x.py"
        assert violations[0].line == 4  # the for statement
        assert violations[0].scope == "drain"
        assert "set(...)" in violations[0].message

    def test_listdir_iteration_fires(self):
        violations = lint("""
            import os

            def load(engine, root):
                for name in os.listdir(root):
                    engine.schedule(1, name)
            """, NondeterministicIterationRule())
        assert len(violations) == 1
        assert "listdir" in violations[0].message

    def test_comprehension_over_set_fires(self):
        violations = lint("""
            def spawn(engine, cores):
                idle = {c for c in cores if c.idle}
                plans = [c.plan() for c in idle]
                engine.schedule(1, plans)
            """, NondeterministicIterationRule())
        assert len(violations) == 1
        assert "comprehension" in violations[0].message

    def test_sorted_wrapper_clean(self):
        violations = lint("""
            def drain(engine, requests):
                pending = set(requests)
                for req in sorted(pending):
                    engine.schedule(1, req)
            """, NondeterministicIterationRule())
        assert violations == []

    def test_non_sim_function_exempt(self):
        # Identical iteration, but nothing sim-state-ish is reachable:
        # the call-graph gate must keep it clean.
        violations = lint("""
            def tally(requests):
                pending = set(requests)
                total = 0
                for req in pending:
                    total += 1
                return total
            """, NondeterministicIterationRule())
        assert violations == []

    def test_list_conversion_still_tainted(self):
        violations = lint("""
            def drain(engine, requests):
                ordered = list(set(requests))
                for req in ordered:
                    engine.schedule(1, req)
            """, NondeterministicIterationRule())
        assert len(violations) == 1


# ----------------------------------------------------------------------
# SIM010 rng-outside-trace
# ----------------------------------------------------------------------

class TestRngOutsideTrace:
    def test_seeded_rng_on_sim_path_fires(self):
        violations = lint("""
            import random

            def inject(engine, seed):
                rng = random.Random(seed)
                engine.schedule(rng.randrange(8), None)
            """, RngOutsideTraceRule())
        assert [v.rule_id for v in violations] == ["SIM010"]
        assert violations[0].line == 5
        assert "random.Random" in violations[0].message

    def test_global_rng_call_fires(self):
        violations = lint("""
            import random

            def jitter(engine):
                engine.schedule(random.randrange(4), None)
            """, RngOutsideTraceRule())
        assert len(violations) == 1
        assert "module-global" in violations[0].message

    def test_from_import_rng_class_fires(self):
        violations = lint("""
            from random import Random

            def inject(engine, seed):
                rng = Random(seed)
                engine.schedule(1, rng)
            """, RngOutsideTraceRule())
        assert len(violations) == 1

    def test_trace_modules_exempt(self):
        violations = lint("""
            import random

            def generate(engine, seed):
                rng = random.Random(seed)
                engine.schedule(rng.randrange(8), None)
            """, RngOutsideTraceRule(), path="src/repro/trace/synthetic.py")
        assert violations == []

    def test_non_sim_function_exempt(self):
        violations = lint("""
            import random

            def shuffle_report(rows, seed):
                rng = random.Random(seed)
                rng.shuffle(rows)
                return rows
            """, RngOutsideTraceRule())
        assert violations == []


# ----------------------------------------------------------------------
# SIM011 entropy-in-sim-state
# ----------------------------------------------------------------------

class TestEntropyInSimState:
    def test_wall_clock_stored_in_attribute_fires(self):
        violations = lint("""
            import time

            class Sampler:
                def stamp(self, engine):
                    self.started = time.time()
                    engine.schedule(1, None)
            """, EntropyInSimStateRule())
        assert [v.rule_id for v in violations] == ["SIM011"]
        assert violations[0].line == 6  # the attribute store
        assert violations[0].scope == "Sampler.stamp"
        assert "time.time" in violations[0].message

    def test_id_as_container_key_fires(self):
        violations = lint("""
            class Tracker:
                def index(self, engine, req):
                    self.table[id(req)] = req
                    engine.schedule(1, None)
            """, EntropyInSimStateRule())
        assert len(violations) == 1
        assert "key" in violations[0].message

    def test_entropy_into_schedule_fires(self):
        violations = lint("""
            import time

            def kick(engine):
                engine.schedule(int(time.time()), None)
            """, EntropyInSimStateRule())
        assert len(violations) == 1
        assert "schedule" in violations[0].message

    def test_sort_by_id_fires(self):
        violations = lint("""
            def order(engine, items):
                items.sort(key=id)
                engine.schedule(1, items)
            """, EntropyInSimStateRule())
        assert len(violations) == 1
        assert "allocation-dependent" in violations[0].message

    def test_hash_of_literal_clean(self):
        violations = lint("""
            class Sampler:
                def tag(self, engine):
                    self.slot = hash("berti") % 8
                    engine.schedule(1, None)
            """, EntropyInSimStateRule())
        assert violations == []

    def test_engine_now_clean(self):
        violations = lint("""
            class Sampler:
                def stamp(self, engine):
                    self.started = engine.now
                    engine.schedule(1, None)
            """, EntropyInSimStateRule())
        assert violations == []

    def test_non_sim_function_exempt(self):
        violations = lint("""
            import time

            def benchmark(fn):
                started = time.time()
                fn()
                return time.time() - started
            """, EntropyInSimStateRule())
        assert violations == []


# ----------------------------------------------------------------------
# SIM012 unordered-reduction
# ----------------------------------------------------------------------

class TestUnorderedReduction:
    def test_sum_over_set_fires(self):
        violations = lint("""
            def total(values):
                pool = set(values)
                return sum(pool)
            """, UnorderedReductionRule())
        assert [v.rule_id for v in violations] == ["SIM012"]
        assert violations[0].line == 4
        assert violations[0].scope == "total"

    def test_statistics_fmean_over_set_fires(self):
        violations = lint("""
            import statistics

            def average(values):
                pool = frozenset(values)
                return statistics.fmean(pool)
            """, UnorderedReductionRule())
        assert len(violations) == 1
        assert "fmean" in violations[0].message

    def test_sum_over_sorted_clean(self):
        violations = lint("""
            def total(values):
                pool = set(values)
                return sum(sorted(pool))
            """, UnorderedReductionRule())
        assert violations == []

    def test_constant_element_count_clean(self):
        # sum(1 for _ in s) is order-insensitive; the sweep module
        # relies on this staying clean.
        violations = lint("""
            def count(root):
                return sum(1 for _ in root.glob("*.json"))
            """, UnorderedReductionRule())
        assert violations == []

    def test_sum_over_list_clean(self):
        violations = lint("""
            def total(values):
                return sum(list(values))
            """, UnorderedReductionRule())
        assert violations == []
