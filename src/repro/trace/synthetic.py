"""Synthetic workload generation.

Each workload is described by a :class:`WorkloadSpec`: a weighted set of
memory *streams* plus filler compute/branch behaviour.  Streams encode the
access-pattern archetypes that matter for the paper's mechanisms:

``stride``
    Constant-stride loads (prefetch-friendly; Berti/IPCP learn these).
``pointer``
    Pointer chasing: each load's address depends on the previous load's
    destination register, serialising misses (low MLP; mcf-like; critical
    but hard to prefetch accurately).
``spatial``
    Region-footprint accesses with a recurring per-stream offset pattern
    (Bingo/SPP-friendly).
``random``
    Uniformly random lines in a footprint (unprefetchable noise).
``hotcold``
    A branch-correlated load: one IP whose address falls in a small hot
    region or a large cold region depending on the preceding conditional
    branch.  This produces *dynamic-critical* IPs -- the same IP stalls the
    ROB only on the cold path -- which IP-indexed predictors mispredict and
    CLIP's branch-history signature captures (paper section 4.2).
``stream_store``
    Streaming stores (lbm-like) that generate writeback bandwidth pressure.

Generation is fully deterministic given (spec, core id, length).
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.trace.record import NO_REG, Op, TraceRecord

_LINE = 64
#: General-purpose destination registers rotate through 0..23; registers
#: 24..31 are reserved as per-stream pointer-chase registers so that a
#: chased value is never clobbered by unrelated filler instructions.
_REG_POOL = 24
_CHASE_REG_BASE = 24
_CHASE_REGS = 8


def _stable_seed(*parts: object) -> int:
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode())
    return int.from_bytes(digest.digest()[:8], "little")


_KINDS = ("stride", "pointer", "spatial", "random", "hotcold",
          "stream_store")
_STRIDE, _POINTER, _SPATIAL, _RANDOM, _HOTCOLD, _STREAM_STORE = range(6)


def _unit_interval(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


@dataclass
class StreamSpec:
    """One memory access stream inside a workload."""

    kind: str
    weight: float = 1.0
    footprint_kib: int = 8192
    stride: int = _LINE
    region_bytes: int = 2048
    spatial_density: float = 0.5
    hot_footprint_kib: int = 16
    hot_probability: float = 0.5
    #: Dependent ALU instructions following each load.
    dep_alu: int = 2
    #: Loop-branch bias for this stream's loop branch.
    branch_bias: float = 0.99
    #: Number of distinct load IPs this stream rotates through.
    ips: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown stream kind {self.kind!r}")
        if self.footprint_kib < 1:
            raise ValueError("footprint must be at least 1 KiB")
        if self.weight <= 0:
            raise ValueError("stream weight must be positive")
        if self.region_bytes < 1:
            raise ValueError("region_bytes must be at least 1")
        if (self.kind == "spatial"
                and self.region_bytes > self.footprint_kib * 1024):
            raise ValueError(
                f"spatial region_bytes {self.region_bytes} exceeds the "
                f"{self.footprint_kib} KiB footprint")
        if self.hot_footprint_kib < 1:
            raise ValueError("hot footprint must be at least 1 KiB")
        if self.ips < 1:
            raise ValueError("ips must be >= 1")
        if self.dep_alu < 0:
            raise ValueError("dep_alu must be >= 0")
        _unit_interval("hot_probability", self.hot_probability)
        _unit_interval("branch_bias", self.branch_bias)
        _unit_interval("spatial_density", self.spatial_density)


@dataclass
class WorkloadSpec:
    """A named workload: streams plus filler-instruction behaviour."""

    name: str
    streams: List[StreamSpec] = field(default_factory=list)
    #: Probability that a bundle slot is a standalone ALU filler bundle.
    alu_filler_weight: float = 1.0
    #: Number of phases; weights rotate between phases.
    phases: int = 1
    #: Instructions per phase before weights rotate.
    phase_length: int = 6000

    def __post_init__(self) -> None:
        if not self.streams:
            raise ValueError(f"workload {self.name!r} has no streams")
        if self.alu_filler_weight < 0:
            raise ValueError("alu_filler_weight must be >= 0")
        if self.phases < 1:
            raise ValueError("phases must be >= 1")
        if self.phase_length < 1:
            raise ValueError("phase_length must be >= 1")


class _StreamState:
    """One stream's per-trace constants plus its mutable cursor state."""

    __slots__ = ("kind", "base_addr", "footprint", "lines", "skew_lines",
                 "hot_lines", "hot_base", "hot_probability", "stride",
                 "region_bytes", "regions", "region_offsets", "region_base",
                 "region_pos", "load_ips", "ips", "alu_ips", "hotcold_ip",
                 "loop_ip", "bias", "chase_reg", "chase_srcs", "chased",
                 "cursor")

    def __init__(self, spec: StreamSpec, index: int, base_ip: int,
                 rng: random.Random) -> None:
        self.kind = _KINDS.index(spec.kind)
        base_ip += index * 0x10000
        self.chase_reg = _CHASE_REG_BASE + index % _CHASE_REGS
        self.chase_srcs = (self.chase_reg,)
        self.chased = False
        # Streams get disjoint address regions inside the workload space,
        # with a per-stream page-aligned jitter so bases do not all align
        # on the same power-of-two boundary (real heaps never do).
        jitter = (rng.randrange(1 << 14)) << 12
        self.base_addr = 0x1000_0000 + index * 0x4000_0000 + jitter
        self.footprint = spec.footprint_kib * 1024
        self.lines = self.footprint // _LINE
        self.skew_lines = max(1, self.lines // 16)
        self.hot_lines = spec.hot_footprint_kib * 1024 // _LINE
        self.hot_base = self.base_addr + 0x2000_0000
        self.hot_probability = spec.hot_probability
        self.stride = spec.stride
        self.region_bytes = spec.region_bytes
        self.regions = self.footprint // spec.region_bytes
        # A fixed per-stream spatial footprint (recurs across regions).
        lines_per_region = max(1, spec.region_bytes // _LINE)
        wanted = max(1, int(lines_per_region * spec.spatial_density))
        self.region_offsets = tuple(offset * _LINE for offset in sorted(
            rng.sample(range(lines_per_region), wanted)))
        self.region_base = 0
        # Force a region pick on the first spatial emission.
        self.region_pos = len(self.region_offsets)
        self.load_ips = tuple(base_ip + slot * 0x20
                              for slot in range(spec.ips))
        self.ips = spec.ips
        self.alu_ips = tuple(base_ip + 0x40 + i * 4
                             for i in range(spec.dep_alu))
        self.hotcold_ip = base_ip + 0x4
        self.loop_ip = base_ip + 0x60
        self.bias = spec.branch_bias
        self.cursor = 0


class SyntheticWorkload:
    """Deterministic instruction-stream generator for one workload."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec

    def generate(self, length: int, core_id: int = 0) -> List[TraceRecord]:
        """Generate ``length`` instructions for one core.

        The same (spec, core_id, length prefix) always produces the same
        stream; different cores get different interleavings (SPEC-rate runs
        start all copies at the same SimPoint, but queueing noise decorrelates
        them -- a different RNG stream per core models that).

        The order of the RNG draws is part of that contract; the pinned
        digests in ``tests/data/trace_digests.json`` hold it fixed.  Each
        bundle draws, in order: the stream pick; the stream's own draws
        (a pointer or random stream: the 70% hot-fraction test, then the
        line; a spatial stream on a region change: the region; a hotcold
        stream: the branch, then the line); and the loop branch.  An ALU
        filler bundle draws the stream pick, the 20% branch test and, on
        a branch, its outcome.
        """
        if length < 1:
            raise ValueError("length must be positive")
        spec = self.spec
        rng = random.Random(_stable_seed(spec.name, core_id))
        draw = rng.random
        randrange = rng.randrange
        base_ip = 0x400000 + (_stable_seed(spec.name) & 0xFFFF) * 0x100
        states = [_StreamState(stream, i, base_ip, rng)
                  for i, stream in enumerate(spec.streams)]
        num_streams = len(states)
        # Per-phase cumulative weight tables: the stream pick replicates
        # ``rng.choices(range(n + 1), weights=w)[0]`` bit-for-bit (one
        # draw, bisect over the cumulative weights).
        tables = [self._phase_cum_weights(p) for p in range(spec.phases)]
        cum_weights, total = tables[0]
        phases = spec.phases
        phase_length = spec.phase_length
        filler_ip = base_ip + 0x8
        filler_branch_ip = base_ip + 0x10
        load, store, branch, alu = Op.LOAD, Op.STORE, Op.BRANCH, Op.ALU
        record = TraceRecord
        pick = bisect.bisect
        out: List[TraceRecord] = []
        append = out.append
        next_reg = 0
        while len(out) < length:
            if phases > 1:
                cum_weights, total = tables[
                    (len(out) // phase_length) % phases]
            choice = pick(cum_weights, draw() * total, 0, num_streams)
            if choice == num_streams:
                dst = next_reg % _REG_POOL
                next_reg += 1
                append(record(filler_ip, alu, 0, False, dst, ()))
                if draw() < 0.2:
                    append(record(filler_branch_ip, branch, 0,
                                  draw() < 0.97, NO_REG, (dst,)))
                continue
            state = states[choice]
            kind = state.kind
            cursor = state.cursor
            state.cursor = cursor + 1
            load_ip = state.load_ips[cursor % state.ips]
            dst = next_reg % _REG_POOL
            next_reg += 1
            if kind == _RANDOM or kind == _POINTER:
                # Skewed line pick: most irregular accesses (pointer
                # chases, graph lookups) revisit a hot fraction of the
                # structure rather than sweeping it uniformly.
                if draw() < 0.7:
                    line = randrange(state.skew_lines)
                else:
                    line = randrange(state.lines)
                address = state.base_addr + line * _LINE
                if kind == _POINTER:
                    srcs = state.chase_srcs if state.chased else ()
                    state.chased = True
                    dst = state.chase_reg
                    append(record(load_ip, load, address, False, dst, srcs))
                else:
                    append(record(load_ip, load, address, False, dst, ()))
            elif kind == _STRIDE:
                address = (state.base_addr
                           + (cursor * state.stride) % state.footprint)
                append(record(load_ip, load, address, False, dst, ()))
            elif kind == _SPATIAL:
                offsets = state.region_offsets
                pos = state.region_pos
                if pos >= len(offsets):
                    pos = 0
                    state.region_base = (
                        state.base_addr
                        + randrange(state.regions) * state.region_bytes)
                state.region_pos = pos + 1
                append(record(load_ip, load,
                              state.region_base + offsets[pos], False, dst,
                              ()))
            elif kind == _HOTCOLD:
                # Branch first; its outcome selects the hot or cold region
                # for the *same* load IP.  The branch is data-dependent
                # (sourced from the previous iteration's load) so it
                # resolves late and its outcome genuinely precedes the
                # load in global branch history.
                take_hot = draw() < state.hot_probability
                append(record(state.hotcold_ip, branch, 0, take_hot,
                              NO_REG,
                              state.chase_srcs if state.chased else ()))
                if take_hot:
                    address = (state.hot_base
                               + randrange(state.hot_lines) * _LINE)
                else:
                    address = (state.base_addr
                               + randrange(state.lines) * _LINE)
                state.chased = True
                dst = state.chase_reg
                append(record(load_ip, load, address, False, dst, ()))
            else:  # _STREAM_STORE
                address = (state.base_addr
                           + (cursor * state.stride) % state.footprint)
                append(record(load_ip, load, address, False, dst, ()))
                append(record(load_ip + 0x4, store, address, False, NO_REG,
                              (dst,)))
            srcs = (dst,)
            for alu_ip in state.alu_ips:
                append(record(alu_ip, alu, 0, False, next_reg % _REG_POOL,
                              srcs))
                next_reg += 1
            # Loop branch closing the bundle (predictable, biased taken).
            append(record(state.loop_ip, branch, 0, draw() < state.bias,
                          NO_REG, ()))
        del out[length:]
        return out

    def _phase_cum_weights(self, phase: int) -> Tuple[List[float], float]:
        """(cumulative weights, float total) for one phase's stream pick;
        phases rotate stream emphasis."""
        weights = [s.weight for s in self.spec.streams]
        if phase:
            rotation = phase % len(weights)
            weights = weights[rotation:] + weights[:rotation]
        cum_weights = list(itertools.accumulate(
            weights + [self.spec.alu_filler_weight]))
        return cum_weights, cum_weights[-1] + 0.0
