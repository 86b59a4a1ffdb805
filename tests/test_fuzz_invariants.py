"""Property-based fuzzing of the full simulator.

Random small configurations and workload mixes must always run to
completion with conserved instruction counts, quiescent hardware at the
end, and deterministic replay -- the invariants that catch lost-wakeup
deadlocks and MSHR leaks.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MulticoreSystem, scaled_config
from repro.experiments.sweep import RunSpec, Scheme
from repro.sim.system import run_system
from repro.trace.workloads import (GAP_WORKLOADS, SPEC_HOMOGENEOUS_MIXES,
                                   CLOUDSUITE_WORKLOADS)

_POOL = SPEC_HOMOGENEOUS_MIXES[::9] + GAP_WORKLOADS[::6] \
    + CLOUDSUITE_WORKLOADS[:1]

_config_strategy = st.fixed_dictionaries({
    "cores": st.integers(min_value=1, max_value=4),
    "channels": st.sampled_from([1, 2]),
    "instructions": st.integers(min_value=200, max_value=1_500),
    "l1_pf": st.sampled_from(["none", "berti", "ipcp", "stride",
                              "streamer"]),
    "l2_pf": st.sampled_from(["none", "spp_ppf", "bingo"]),
    "clip": st.booleans(),
    "dynamic": st.booleans(),
    "criticality": st.sampled_from(["none", "fvp", "crisp"]),
    "throttle": st.sampled_from(["none", "fdp", "nst"]),
    "hermes": st.booleans(),
    "workloads": st.lists(st.sampled_from(_POOL), min_size=4, max_size=4),
})


def _build(params) -> MulticoreSystem:
    config = scaled_config(num_cores=params["cores"],
                           channels=params["channels"],
                           sim_instructions=params["instructions"])
    config.l1_prefetcher = dataclasses.replace(config.l1_prefetcher,
                                               name=params["l1_pf"])
    config.l2_prefetcher = dataclasses.replace(config.l2_prefetcher,
                                               name=params["l2_pf"])
    config.clip = dataclasses.replace(config.clip, enabled=params["clip"],
                                      dynamic=params["dynamic"])
    config.criticality.name = params["criticality"]
    config.throttle.name = params["throttle"]
    config.related = dataclasses.replace(config.related,
                                         hermes=params["hermes"])
    mix = params["workloads"][:params["cores"]]
    return MulticoreSystem(config, mix)


@given(_config_strategy)
@settings(max_examples=25, deadline=None)
def test_random_configurations_complete_cleanly(params):
    system = _build(params)
    result = system.run(max_cycles=5_000_000)
    # Instruction conservation.
    assert all(core.instructions == params["instructions"]
               for core in result.cores)
    # Quiescence: no leaked MSHRs, queues, or in-flight DRAM work.
    for node in system.nodes:
        assert not node.l1_mshr.entries and not node.l1_mshr.pending
        assert not node.l2_mshr.entries and not node.l2_mshr.pending
    for mshr_file in system.llc_mshr:
        assert not mshr_file.entries and not mshr_file.pending
    for channel in system.dram.channels:
        assert channel.in_flight == 0
        assert not channel.read_queue
    assert all(core.outstanding_loads == 0 for core in system.cores)
    # Sanity of aggregate statistics.
    assert result.total_cycles > 0
    assert 0.0 <= result.prefetch.accuracy <= 1.0
    assert 0.0 <= result.dram.utilization <= 1.0
    # Every prefetch candidate meets exactly one fate.
    pf = result.prefetch
    assert pf.candidates == (pf.issued + pf.dropped_filter
                             + pf.dropped_duplicate + pf.dropped_mshr)


#: The learned policies carry the most update-order-sensitive state in
#: the simulator (bandit Q tables, perceptron weights and their xorshift
#: streams), and the strategy above never draws them; they replay on a
#: seeded spec each instead.
_LEARNED_SCHEMES = [
    "bandit", "berti+perceptron", "bandit+fdp", "berti+perceptron+clip",
    "streamer+perceptron",
]
_LEARNED_WORKLOADS = [
    "605.mcf_s-1536B", "602.gcc_s-1850B", "619.lbm_s-2676B",
    "620.omnetpp_s-141B", "623.xalancbmk_s-10B", "649.fotonik3d_s-10881B",
    "bfs-14", "pr-14", "cc-14", "tc-14",
]


def _learned_spec(seed):
    rng = random.Random(seed)
    cores = rng.choice([1, 2, 4])
    return RunSpec(
        scheme=Scheme.parse(rng.choice(_LEARNED_SCHEMES)),
        mix=tuple(rng.choice(_LEARNED_WORKLOADS) for _ in range(cores)),
        channels=rng.choice([1, 2]),
        num_cores=cores,
        sim_instructions=rng.choice([800, 1_500, 2_000]),
    )


@pytest.mark.parametrize("seed", range(100, 106))
def test_learned_replay_is_deterministic(seed):
    spec = _learned_spec(seed)
    first = run_system(spec.config(), list(spec.mix)).to_dict()
    second = run_system(spec.config(), list(spec.mix)).to_dict()
    assert first == second
    assert first["total_cycles"] > 0
    # The policy must actually have run: its counters join the chain
    # group on every core.
    for core_id in range(spec.cores):
        assert "policy_epochs" in first["counters"][f"core{core_id}.chain"]


def test_learned_specs_cover_both_policies():
    specs = [_learned_spec(seed) for seed in range(100, 106)]
    assert {spec.scheme.learned for spec in specs} == {"bandit",
                                                       "perceptron"}


@given(_config_strategy)
@settings(max_examples=8, deadline=None)
def test_replay_is_deterministic(params):
    first = _build(params).run(max_cycles=5_000_000)
    second = _build(params).run(max_cycles=5_000_000)
    assert first.to_dict() == second.to_dict()
    assert first.total_cycles == second.total_cycles
    assert first.ipc_per_core == second.ipc_per_core
    assert first.prefetch.issued == second.prefetch.issued
    assert first.dram.reads == second.dram.reads
