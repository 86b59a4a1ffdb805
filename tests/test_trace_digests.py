"""Pinned synthetic-trace digests.

Every golden, cache key and figure rests on the synthetic traces, so the
generator's output -- and with it the order in which it draws from its
RNG -- is part of its contract.  ``tests/data/trace_digests.json`` pins a
sha256 per catalogue workload (cores 0-7 at a fixed length) plus a few
edge-case specs that reach what the catalogue does not (phase rotation
within a short trace, one-line footprints, zero-probability branches, no
ALU filler).  A diff here means the traces changed; regenerate the pin
only for a reviewed, intentional trace change::

    PYTHONPATH=src python tests/test_trace_digests.py \\
        > tests/data/trace_digests.json

The CI matrix runs this on every supported Python, so it also checks
that traces match across interpreter versions.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random
import sys
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterable, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.record import Op, TraceRecord
from repro.trace.synthetic import (StreamSpec, SyntheticWorkload,
                                   WorkloadSpec, _stable_seed)
from repro.trace.workloads import get_workload, workload_names

DIGESTS = Path(__file__).parent / "data" / "trace_digests.json"
#: Records per core for the catalogue pin (8 cores x 67 workloads).
CATALOGUE_LENGTH = 800
CATALOGUE_CORES = tuple(range(8))
EDGE_LENGTH = 3000
EDGE_CORES = (0, 1)

EDGE_SPECS = (
    WorkloadSpec(name="edge-phased", streams=[
        StreamSpec(kind="stride", weight=2.0, footprint_kib=3, stride=192,
                   ips=3, dep_alu=0),
        StreamSpec(kind="pointer", weight=1.0, footprint_kib=1, ips=2,
                   dep_alu=4),
        StreamSpec(kind="spatial", weight=1.0, footprint_kib=2,
                   region_bytes=2048, spatial_density=1.0),
        StreamSpec(kind="hotcold", weight=0.5, footprint_kib=1,
                   hot_footprint_kib=1, hot_probability=1.0,
                   branch_bias=0.0),
        StreamSpec(kind="stream_store", weight=0.5, footprint_kib=1,
                   stride=24, ips=2),
        StreamSpec(kind="random", weight=0.25, footprint_kib=1,
                   branch_bias=1.0),
    ], alu_filler_weight=0.5, phases=3, phase_length=97),
    WorkloadSpec(name="edge-no-filler", streams=[
        StreamSpec(kind="hotcold", hot_probability=0.0, region_bytes=64,
                   spatial_density=0.0),
        StreamSpec(kind="spatial", footprint_kib=1, region_bytes=100,
                   spatial_density=0.0),
        StreamSpec(kind="stride", footprint_kib=1, stride=-64),
        StreamSpec(kind="stride", footprint_kib=1, stride=0),
    ], alu_filler_weight=0.0),
    WorkloadSpec(name="edge-mostly-filler", streams=[
        StreamSpec(kind="pointer", weight=0.01, footprint_kib=1),
        StreamSpec(kind="random", weight=0.02, footprint_kib=17),
    ], alu_filler_weight=50.0, phases=2, phase_length=1),
)


def reference_trace(spec: WorkloadSpec, length: int,
                    core_id: int) -> List[TraceRecord]:
    """The generator written plainly, one stream kind at a time: the
    differential oracle for ``SyntheticWorkload.generate``."""
    rng = random.Random(_stable_seed(spec.name, core_id))
    base_ip = 0x400000 + (_stable_seed(spec.name) & 0xFFFF) * 0x100
    streams = []
    for index, stream in enumerate(spec.streams):
        jitter = rng.randrange(1 << 14) << 12
        lines_per_region = max(1, stream.region_bytes // 64)
        wanted = max(1, int(lines_per_region * stream.spatial_density))
        offsets = sorted(rng.sample(range(lines_per_region),
                                    min(wanted, lines_per_region)))
        base_addr = 0x1000_0000 + index * 0x4000_0000 + jitter
        streams.append({
            "spec": stream, "ip": base_ip + index * 0x10000,
            "chase": 24 + index % 8, "addr": base_addr,
            "hot": base_addr + 0x2000_0000, "offsets": offsets,
            "cursor": 0, "chased": False, "region": 0, "pos": 1 << 30})

    def skewed_line(footprint):
        span = footprint // 64
        if rng.random() < 0.7:
            return rng.randrange(max(1, span // 16))
        return rng.randrange(span)

    weights = [s.weight for s in spec.streams]
    out: List[TraceRecord] = []
    reg = 0
    while len(out) < length:
        phase = (len(out) // spec.phase_length) % spec.phases
        rotation = phase % len(weights)
        rotated = weights[rotation:] + weights[:rotation]
        cum = list(itertools.accumulate(rotated + [spec.alu_filler_weight]))
        choice = bisect.bisect(cum, rng.random() * cum[-1], 0, len(streams))
        if choice == len(streams):
            dst = reg % 24
            reg += 1
            out.append(TraceRecord(base_ip + 0x8, Op.ALU, dst=dst))
            if rng.random() < 0.2:
                out.append(TraceRecord(base_ip + 0x10, Op.BRANCH,
                                       taken=rng.random() < 0.97,
                                       srcs=(dst,)))
            continue
        s = streams[choice]
        stream = s["spec"]
        footprint = stream.footprint_kib * 1024
        load_ip = s["ip"] + (s["cursor"] % stream.ips) * 0x20
        dst = reg % 24
        reg += 1
        linear = s["addr"] + (s["cursor"] * stream.stride) % footprint
        if stream.kind == "stride":
            out.append(TraceRecord(load_ip, Op.LOAD, linear, dst=dst))
        elif stream.kind == "pointer":
            address = s["addr"] + skewed_line(footprint) * 64
            srcs = (s["chase"],) if s["chased"] else ()
            dst = s["chase"]
            s["chased"] = True
            out.append(TraceRecord(load_ip, Op.LOAD, address, dst=dst,
                                   srcs=srcs))
        elif stream.kind == "spatial":
            if s["pos"] >= len(s["offsets"]):
                s["pos"] = 0
                s["region"] = (s["addr"] + rng.randrange(
                    footprint // stream.region_bytes) * stream.region_bytes)
            address = s["region"] + s["offsets"][s["pos"]] * 64
            s["pos"] += 1
            out.append(TraceRecord(load_ip, Op.LOAD, address, dst=dst))
        elif stream.kind == "random":
            address = s["addr"] + skewed_line(footprint) * 64
            out.append(TraceRecord(load_ip, Op.LOAD, address, dst=dst))
        elif stream.kind == "hotcold":
            hot = rng.random() < stream.hot_probability
            out.append(TraceRecord(
                s["ip"] + 0x4, Op.BRANCH, taken=hot,
                srcs=(s["chase"],) if s["chased"] else ()))
            if hot:
                address = s["hot"] + rng.randrange(
                    stream.hot_footprint_kib * 16) * 64
            else:
                address = s["addr"] + rng.randrange(footprint // 64) * 64
            dst = s["chase"]
            s["chased"] = True
            out.append(TraceRecord(load_ip, Op.LOAD, address, dst=dst))
        else:
            out.append(TraceRecord(load_ip, Op.LOAD, linear, dst=dst))
            out.append(TraceRecord(load_ip + 0x4, Op.STORE, linear,
                                   srcs=(dst,)))
        s["cursor"] += 1
        for i in range(stream.dep_alu):
            out.append(TraceRecord(s["ip"] + 0x40 + i * 4, Op.ALU,
                                   dst=reg % 24, srcs=(dst,)))
            reg += 1
        out.append(TraceRecord(s["ip"] + 0x60, Op.BRANCH,
                               taken=rng.random() < stream.branch_bias))
    return out[:length]


def trace_digest(generate: Callable[[int, int], List[TraceRecord]],
                 length: int, cores: Iterable[int]) -> str:
    """sha256 over every record ``generate(length, core)`` returns for
    each of ``cores``.

    ``repr`` keeps the types visible: a branch outcome must stay a
    ``bool``, not merely compare equal to one.
    """
    sha = hashlib.sha256()
    for core in cores:
        for r in generate(length, core):
            sha.update(repr((r.ip, int(r.op), r.address, r.taken, r.dst,
                             r.srcs)).encode())
    return sha.hexdigest()


def compute_digests() -> Dict[str, object]:
    return {
        "catalogue": {
            "length": CATALOGUE_LENGTH,
            "cores": list(CATALOGUE_CORES),
            "digests": {
                name: trace_digest(
                    SyntheticWorkload(get_workload(name)).generate,
                    CATALOGUE_LENGTH, CATALOGUE_CORES)
                for name in workload_names()},
        },
        "edge": {
            "length": EDGE_LENGTH,
            "cores": list(EDGE_CORES),
            "digests": {
                spec.name: trace_digest(SyntheticWorkload(spec).generate,
                                        EDGE_LENGTH, EDGE_CORES)
                for spec in EDGE_SPECS},
        },
    }


def _pinned() -> Dict:
    return json.loads(DIGESTS.read_text())


def _mismatches(section: str, specs: Dict[str, WorkloadSpec],
                generator=lambda spec: SyntheticWorkload(spec).generate):
    pinned = _pinned()[section]
    assert sorted(pinned["digests"]) == sorted(specs)
    return [name for name, spec in sorted(specs.items())
            if trace_digest(generator(spec), pinned["length"],
                            pinned["cores"]) != pinned["digests"][name]]


def test_catalogue_traces_match_pin():
    specs = {name: get_workload(name) for name in workload_names()}
    assert _mismatches("catalogue", specs) == []


def test_edge_spec_traces_match_pin():
    assert _mismatches("edge", {s.name: s for s in EDGE_SPECS}) == []


def test_reference_matches_pin():
    # Anchors the oracle below to the pinned traces.
    assert _mismatches("edge", {s.name: s for s in EDGE_SPECS},
                       lambda spec: partial(reference_trace, spec)) == []


_streams = st.builds(
    StreamSpec,
    kind=st.sampled_from(["stride", "pointer", "spatial", "random",
                          "hotcold", "stream_store"]),
    weight=st.floats(0.05, 4.0),
    footprint_kib=st.integers(4, 4096),
    stride=st.sampled_from([-64, 0, 8, 64, 200]),
    region_bytes=st.sampled_from([64, 1000, 2048, 4096]),
    spatial_density=st.floats(0.0, 1.0),
    hot_footprint_kib=st.integers(1, 64),
    hot_probability=st.floats(0.0, 1.0),
    dep_alu=st.integers(0, 4),
    branch_bias=st.floats(0.0, 1.0),
    ips=st.integers(1, 4),
)


@settings(max_examples=30, deadline=None)
@given(streams=st.lists(_streams, min_size=1, max_size=5),
       filler=st.floats(0.0, 8.0),
       phases=st.integers(1, 3),
       phase_length=st.integers(1, 400),
       core=st.integers(0, 7),
       n=st.integers(1, 1500),
       extra=st.integers(1, 1500))
def test_generate_matches_reference_and_prefixes(
        streams, filler, phases, phase_length, core, n, extra):
    """Any valid spec generates what the plain reference generates, and
    keeps the docstring's "length prefix" promise: generate(n) is the
    first n records of generate(m) for every m > n."""
    spec = WorkloadSpec(name="prefix", streams=streams,
                        alu_filler_weight=filler, phases=phases,
                        phase_length=phase_length)
    workload = SyntheticWorkload(spec)
    longer = workload.generate(n + extra, core)
    assert longer == reference_trace(spec, n + extra, core)
    assert workload.generate(n, core) == longer[:n]


if __name__ == "__main__":
    json.dump(compute_digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
