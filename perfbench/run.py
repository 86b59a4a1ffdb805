#!/usr/bin/env python3
"""The repository benchmark: two warm simulated points and a cold campaign.

Run from the repository root::

    python3 perfbench/run.py --workload constrained_clip --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs it untraced and then traced and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--size tiny`` shrinks every workload for the smoke test
(``perfbench/smoke.py``); ``--pin`` rewrites ``perfbench/pinned.json``,
the result digests of seed 0, after a reviewed behaviour change.

Workloads, metrics and the layer map are described in
``perfbench/README.md``.  The benchmark drives the simulator through
``repro.api`` and the public classes of its layers only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: temporary result stores, traced
#: workers' span files and the cross-run digest record.
WORK = ROOT / ".perfbench_run"
PINNED = HERE / "pinned.json"

CORES = 8
SCHEMES = ("none", "berti", "berti+clip")
#: The paper's constrained mix: memory-bound, irregular, graph and
#: streaming workloads, two copies each.
CONSTRAINED_MIX = ("605.mcf_s-1536B", "623.xalancbmk_s-10B", "tc-14",
                   "619.lbm_s-2676B") * 2
#: Compute-leaning SPEC workloads that leave DRAM far from saturated.
UNCONSTRAINED_MIX = ("600.perlbench_s-570B", "602.gcc_s-734B",
                     "657.xz_s-1306B", "623.xalancbmk_s-165B") * 2
CAMPAIGN_MIXES = (CONSTRAINED_MIX, ("619.lbm_s-2676B",) * 8,
                  UNCONSTRAINED_MIX, ("bfs-14",) * 8)
CAMPAIGN_CHANNELS = 1
CAMPAIGN_JOBS = 2

#: Warm points: (scheme, DRAM channels, mix).
POINTS = {
    "constrained_clip": ("berti+clip", 1, CONSTRAINED_MIX),
    "unconstrained_nopf": ("none", 8, UNCONSTRAINED_MIX),
}
WORKLOADS = tuple(POINTS) + ("cold_campaign",)


@dataclass(frozen=True)
class Size:
    point_instructions: int
    campaign_instructions: int
    #: Fresh processes timed for ``setup_s``; the median is reported.
    setup_repeats: int
    #: Fewest timed repeats per run, whatever ``--seconds`` says.
    min_point_repeats: int
    min_campaigns: int


SIZES = {
    "full": Size(10_000, 5_000, 9, 5, 2),
    "tiny": Size(1_000, 500, 1, 1, 1),
}


class BenchError(Exception):
    """The benchmark cannot run here (no program, a child crashed)."""


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def placed(mix: Sequence[str], seed: int) -> List[str]:
    """The mix with its core placement permuted by ``seed``.

    Seed 0 keeps the listed order.  Trace generation and NoC distance
    both depend on the core id, so another seed gives other inputs.
    """
    cores = list(mix)
    if seed:
        random.Random(seed).shuffle(cores)
    return cores


def import_repro() -> None:
    """Import the simulator from this checkout's ``src``, never from an
    installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no simulator sources at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import repro.api  # noqa: F401
    except ImportError as error:
        raise BenchError(f"cannot import the simulator from {SRC}: "
                         f"{error}") from error


def digest(result) -> str:
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def source_hash() -> str:
    """Content hash of the simulator sources, which keys the cross-run
    digest record so a record never outlives the code it came from."""
    sha = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        sha.update(str(path.relative_to(SRC)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Output check
# ---------------------------------------------------------------------------

class Ledger:
    """Counts attempted and failed points and checks every output.

    A point fails when it raises, when it retires the wrong number of
    instructions, or when its result digest differs from an earlier
    repeat in this run, from the digest pinned for seed 0, or from the
    digest an earlier run of the same code and seed recorded.
    """

    def __init__(self, size: str, seed: int, instructions: int) -> None:
        self.expected_instructions = CORES * instructions
        self.attempted = 0
        self.failed = 0
        self.digests: Dict[str, str] = {}
        pinned = (json.loads(PINNED.read_text()) if PINNED.exists()
                  else {})
        self.pinned: Dict[str, str] = (pinned.get(size, {}) if seed == 0
                                       else {})
        self._record_path = WORK / "digests.json"
        self._record_key = f"{source_hash()}/{size}/{seed}"
        self._recorded = self._load_record().get(self._record_key, {})

    def _load_record(self) -> Dict:
        try:
            return json.loads(self._record_path.read_text())
        except (OSError, ValueError):
            return {}

    def fail(self, key: str, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"FAILED {key}: {why}", file=sys.stderr)

    def check(self, key: str, instructions: int, point_digest: str) -> None:
        """Check one point's output and count it."""
        problems = []
        if instructions != self.expected_instructions:
            problems.append(f"retired {instructions} instructions, "
                            f"expected {self.expected_instructions}")
        for source, seen in (("an earlier repeat", self.digests),
                             ("the pinned seed-0 digest", self.pinned),
                             ("an earlier run", self._recorded)):
            if key in seen and seen[key] != point_digest:
                problems.append(f"digest differs from {source}")
        self.digests.setdefault(key, point_digest)
        if problems:
            self.fail(key, "; ".join(problems))
        else:
            self.attempted += 1

    def point(self, key: str, simulate: Callable):
        """Run ``simulate()`` as one checked point; its result, or
        ``None`` when it raised.  Both failure kinds are counted."""
        try:
            result = simulate()
        except Exception:  # a failing point is counted, not fatal
            self.fail(key, traceback.format_exc())
            return None
        self.check(key, result.total_instructions, digest(result))
        return result

    def save_record(self) -> None:
        if self.failed:
            return
        WORK.mkdir(exist_ok=True)
        record = self._load_record()
        record.setdefault(self._record_key, {}).update(self.digests)
        fd, tmp = tempfile.mkstemp(dir=WORK, suffix=".tmp")
        with os.fdopen(fd, "w") as stream:
            json.dump(record, stream, sort_keys=True)
        os.replace(tmp, self._record_path)

    @property
    def ok_frac(self) -> float:
        return 1.0 - self.failed / max(1, self.attempted)


# ---------------------------------------------------------------------------
# Exact counts (read from untraced results)
# ---------------------------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def exact_counts(results) -> Dict[str, float]:
    """Per-layer counts over one or more results; ratios are taken over
    the sums, so a campaign reports its points as one population."""
    levels = [r.levels for r in results]
    l1 = [lv["L1D"] for lv in levels]
    llc = [lv["LLC"] for lv in levels]
    clips = [r.clip for r in results if r.clip is not None]
    drams = [r.dram for r in results]
    nocs = [r.noc for r in results]
    cores = [core for r in results for core in r.cores]
    return {
        "cpu.head_stall_frac": _ratio(
            sum(c.head_stall_cycles for c in cores),
            sum(c.cycles for c in cores)),
        "cpu.branch_accuracy": statistics.fmean(
            r.branch_accuracy for r in results),
        "cache.l1d.miss_ratio": _ratio(sum(x.demand_misses for x in l1),
                                       sum(x.demand_accesses for x in l1)),
        "cache.llc.miss_ratio": _ratio(sum(x.demand_misses for x in llc),
                                       sum(x.demand_accesses for x in llc)),
        "cache.l1d.miss_latency": _ratio(
            sum(x.miss_latency_sum for x in l1),
            sum(x.miss_latency_count for x in l1)),
        "prefetch.issued": sum(r.prefetch.issued for r in results),
        "prefetch.useful_ratio": _ratio(
            sum(r.prefetch.useful for r in results),
            sum(r.prefetch.issued for r in results)),
        "clip.allowed_ratio": _ratio(
            sum(c.prefetches_allowed for c in clips),
            sum(c.prefetches_seen for c in clips)),
        "clip.prediction_accuracy": (statistics.fmean(
            c.prediction_accuracy for c in clips) if clips else 0.0),
        "noc.flits": sum(n.flits for n in nocs),
        "noc.avg_latency": _ratio(
            sum(n.average_latency * n.packets for n in nocs),
            sum(n.packets for n in nocs)),
        "dram.reads": sum(d.reads for d in drams),
        "dram.utilization": statistics.fmean(d.utilization for d in drams),
        "dram.read_latency": _ratio(
            sum(d.average_read_latency * d.reads for d in drams),
            sum(d.reads for d in drams)),
        "dram.row_hit_ratio": _ratio(
            sum(d.row_hits for d in drams),
            sum(d.row_hits + d.row_misses for d in drams)),
    }


def point_key(workload: str, scheme: str, mix_index: int = 0) -> str:
    """The output check's name for one point."""
    from repro import api
    return f"{workload}/{api.Scheme.parse(scheme).label}/{mix_index}"


def sim_ipc(result) -> float:
    """Aggregate simulated instructions per cycle of one point."""
    return result.total_instructions / result.total_cycles


# ---------------------------------------------------------------------------
# Set-up time: fresh processes
# ---------------------------------------------------------------------------

def _first_system(workload: str, seed: int, size: Size):
    """Scheme, channels, mix and instructions of the first system the
    workload builds."""
    if workload == "cold_campaign":
        return (SCHEMES[0], CAMPAIGN_CHANNELS,
                placed(CAMPAIGN_MIXES[0], seed), size.campaign_instructions)
    scheme, channels, mix = POINTS[workload]
    return scheme, channels, placed(mix, seed), size.point_instructions


def setup_child(workload: str, seed: int, size: Size) -> Dict:
    """Import the simulator and build the workload's first system,
    traces included, in this fresh process; simulate nothing."""
    start = time.perf_counter()
    import_repro()
    from repro import api
    from repro.sim.system import MulticoreSystem
    scheme, channels, mix, instructions = _first_system(workload, seed,
                                                        size)
    config = api.Scheme.parse(scheme).build_config(channels, CORES,
                                                   instructions)
    MulticoreSystem(config, mix)
    return {"setup_s": time.perf_counter() - start,
            "peak_rss_mib": own_peak_rss_mib()}


def run_child(mode: str, args: argparse.Namespace) -> Dict:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--child", mode, "--workload", args.workload,
               "--seed", str(args.seed), "--size", args.size,
               "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, check=False)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{mode} child timed out") from error
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{mode} child exited with {done.returncode}:\n"
                         f"{done.stderr.strip()}")
    summary = json.loads(lines[-1])
    args.child_peaks.append(summary["peak_rss_mib"])
    return summary


class SetupTimer:
    """Times ``setup_s`` in fresh processes.  Samples are taken between
    timed repeats, so that they span the run rather than one moment of
    the host's speed."""

    def __init__(self, args: argparse.Namespace, repeats: int) -> None:
        self.args = args
        self.repeats = repeats
        self.samples: List[float] = []

    def sample(self) -> float:
        """Take one more sample if fewer than ``repeats`` were taken;
        returns the host seconds this call spent."""
        if len(self.samples) >= self.repeats:
            return 0.0
        start = time.perf_counter()
        self.samples.append(run_child("setup", self.args)["setup_s"])
        return time.perf_counter() - start

    def median(self) -> float:
        while len(self.samples) < self.repeats:
            self.sample()
        return statistics.median(self.samples)


def own_peak_rss_mib() -> float:
    """This process's own peak resident memory (``VmHWM``).

    ``ru_maxrss`` is not used for a process started with ``exec``: it
    keeps the high-water mark of the parent it was forked from.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM in /proc/self/status")


def workers_peak_rss_mib() -> float:
    """Peak resident memory of the largest reaped child of this process
    (``ru_maxrss``, KiB on Linux); right for pool workers, which are
    forked without ``exec``."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Warm points
# ---------------------------------------------------------------------------

def _timed_repeats(ledger: Ledger, key: str, build: Callable,
                   seconds: float, minimum: int,
                   between: Callable[[], float] = lambda: 0.0
                   ) -> Tuple[List[float], Optional[Tuple]]:
    """Build and run the point until ``seconds`` have passed and at
    least ``minimum`` repeats ran; only ``run()`` is timed.  ``between``
    runs after each repeat and returns the seconds it took, which do not
    count against ``seconds``.  Returns the run times and the last
    (system, result) pair."""
    times: List[float] = []
    last = None
    deadline = time.perf_counter() + seconds
    while len(times) < minimum or time.perf_counter() < deadline:
        system = build()
        start = time.perf_counter()
        result = ledger.point(key, system.run)
        elapsed = time.perf_counter() - start
        if result is not None:
            times.append(elapsed)
            last = (system, result)
        elif len(times) < minimum and ledger.failed > 2 * minimum:
            break
        deadline += between()
    return times, last


def run_point(args: argparse.Namespace, size: Size) -> Dict:
    from repro import api
    from repro.sim.system import MulticoreSystem
    scheme, channels, mix = POINTS[args.workload]
    mix = placed(mix, args.seed)
    instructions = size.point_instructions
    ledger = Ledger(args.size, args.seed, instructions)

    def config_for(name: str):
        return api.Scheme.parse(name).build_config(channels, CORES,
                                                   instructions)

    config = config_for(scheme)
    key = point_key(args.workload, scheme)

    def build():
        return MulticoreSystem(config, mix)

    metrics: Dict[str, Tuple[float, str]] = {}
    if not args.trace:
        setup = SetupTimer(args, size.setup_repeats)
        # Warm-up: generates and caches the traces the repeats reuse.
        ledger.point(key, lambda: build().run())
        times, last = _timed_repeats(ledger, key, build, args.seconds,
                                     size.min_point_repeats, setup.sample)
        results = {scheme: last[1]} if last else {}
        for other in SCHEMES:
            if other != scheme:
                other_config = config_for(other)
                result = ledger.point(
                    point_key(args.workload, other),
                    lambda: MulticoreSystem(other_config, mix).run())
                if result is not None:
                    results[other] = result
        if not times or len(results) < len(SCHEMES):
            raise BenchError("every point of the workload raised")
        kips = [results[scheme].total_instructions / t / 1e3 for t in times]
        print(f"sim_kips over {len(kips)} repeats: median "
              f"{statistics.median(kips):.2f}, range {min(kips):.2f}-"
              f"{max(kips):.2f}")
        metrics = {
            "sim_kips": (statistics.median(kips), "kinstr/s"),
            "setup_s": (setup.median(), "s"),
            "sim_ipc": (sim_ipc(results[scheme]), "instr/cycle"),
            "ws_berti": (api.weighted_speedup(results["berti"],
                                              results["none"]), "ratio"),
            "ws_clip": (api.weighted_speedup(results["berti+clip"],
                                             results["none"]), "ratio"),
        }
    else:
        from layers import LayerTracer
        ledger.point(key, lambda: build().run())
        tracer = LayerTracer()
        # Untraced and traced repeats alternate, so that both see the
        # same host speed and their ratio is the tracing overhead.
        plain: List[float] = []
        traced: List[float] = []
        last = None
        deadline = time.perf_counter() + args.seconds
        while len(traced) < size.min_point_repeats or \
                time.perf_counter() < deadline:
            times, untraced_last = _timed_repeats(ledger, key, build, 0, 1)
            plain += times
            last = untraced_last or last
            tracer.install()
            try:
                times, _ = _timed_repeats(ledger, key, build, 0, 1)
            finally:
                tracer.uninstall()
            traced += times
            if not times and ledger.failed > 2 * size.min_point_repeats:
                break
        if not plain or not traced:
            raise BenchError("every point of the workload raised")
        system, result = last
        metrics = layer_metrics(
            tracer.snapshot(), len(traced),
            statistics.median(traced) / statistics.median(plain) - 1.0,
            exact_counts([result]), system.engine.events_processed,
            simulated=0, cache_hits=0)
    ledger.save_record()
    return finish(ledger, metrics)


# ---------------------------------------------------------------------------
# Cold campaign
# ---------------------------------------------------------------------------

def campaign_child(seed: int, size: Size, traced: bool) -> Dict:
    """One cold campaign in this fresh process: import, a cold sweep into
    an empty store, then the same sweep again, all cache hits."""
    start = time.perf_counter()
    import_repro()
    from repro import api
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=WORK, prefix="campaign-"))
    tracer = None
    if traced:
        from layers import LayerTracer, trace_campaign_workers
        tracer = LayerTracer()
        tracer.install()
        trace_campaign_workers(tracer, str(scratch))
    mixes = [placed(mix, seed) for mix in CAMPAIGN_MIXES]
    try:
        passes = [api.sweep(SCHEMES, mixes, channels=CAMPAIGN_CHANNELS,
                            num_cores=CORES,
                            sim_instructions=size.campaign_instructions,
                            jobs=CAMPAIGN_JOBS, cache=str(scratch / "store"))
                  for _ in range(2)]
        wall_s = time.perf_counter() - start
        spans = [tracer.snapshot()] if tracer is not None else []
        for path in scratch.glob("spans-*.json"):
            spans.append(json.loads(path.read_text()))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    cold, hit = passes
    index = {tuple(mix): i for i, mix in enumerate(mixes)}
    points = [{"key": point_key("cold_campaign", spec.scheme.label,
                                index[spec.mix]),
               "instructions": result.total_instructions,
               "digest": digest(result)}
              for sweep in passes for spec, result in sweep.items()]

    def ws(scheme: str) -> float:
        return statistics.geometric_mean(
            api.weighted_speedup(cold.only(scheme, mix),
                                 cold.only("none", mix))
            for mix in mixes)

    cold_results = [cold[spec] for spec in cold.specs]
    return {
        "wall_s": wall_s,
        "instructions": sum(r.total_instructions for r in cold_results),
        "points": points,
        "ws_berti": ws("berti"),
        "ws_clip": ws("berti+clip"),
        "sim_ipc": statistics.fmean(sim_ipc(r) for r in cold_results),
        "exact": exact_counts(cold_results),
        "peak_rss_mib": own_peak_rss_mib() + workers_peak_rss_mib(),
        "simulated": cold.simulated + hit.simulated,
        "cache_hits": cold.cache_hits + hit.cache_hits,
        "spans": spans,
    }


def _campaign(args: argparse.Namespace, ledger: Ledger,
              traced: bool) -> Optional[Dict]:
    """Run one campaign child and check its points; ``None`` when the
    child crashed (every point of it counts as failed)."""
    try:
        summary = run_child("campaign-traced" if traced else "campaign",
                            args)
    except BenchError as error:
        for _ in range(2 * len(SCHEMES) * len(CAMPAIGN_MIXES)):
            ledger.fail("cold_campaign", str(error))
        return None
    for point in summary["points"]:
        ledger.check(point["key"], point["instructions"], point["digest"])
    return summary


def run_campaign(args: argparse.Namespace, size: Size) -> Dict:
    ledger = Ledger(args.size, args.seed, size.campaign_instructions)
    if not args.trace:
        setup = SetupTimer(args, size.setup_repeats)
        runs: List[Dict] = []
        deadline = time.perf_counter() + args.seconds
        attempts = 0
        while attempts < size.min_campaigns or \
                time.perf_counter() < deadline:
            attempts += 1
            summary = _campaign(args, ledger, traced=False)
            if summary is not None:
                runs.append(summary)
            deadline += setup.sample()
        if not runs:
            raise BenchError("no campaign succeeded")
        metrics = {
            "sim_kips": (statistics.median(
                r["instructions"] / r["wall_s"] / 1e3 for r in runs),
                "kinstr/s"),
            "setup_s": (setup.median(), "s"),
            "sim_ipc": (runs[0]["sim_ipc"], "instr/cycle"),
            "ws_berti": (runs[0]["ws_berti"], "ratio"),
            "ws_clip": (runs[0]["ws_clip"], "ratio"),
        }
    else:
        plain: List[Dict] = []
        traced: List[Dict] = []
        deadline = time.perf_counter() + args.seconds
        while len(traced) < size.min_campaigns or \
                time.perf_counter() < deadline:
            for traced_run, into in ((False, plain), (True, traced)):
                summary = _campaign(args, ledger, traced=traced_run)
                if summary is not None:
                    into.append(summary)
            if not plain and not traced and ledger.failed:
                break
        if not plain or not traced:
            raise BenchError("no campaign succeeded")
        from layers import merge
        spans = merge([s for run in traced for s in run["spans"]])
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    / statistics.median(r["wall_s"] for r in plain) - 1.0)
        metrics = layer_metrics(
            spans, len(traced), overhead, plain[0]["exact"],
            spans["events"] / len(traced),
            simulated=plain[0]["simulated"],
            cache_hits=plain[0]["cache_hits"])
    ledger.save_record()
    return finish(ledger, metrics)


# ---------------------------------------------------------------------------
# Per-layer report
# ---------------------------------------------------------------------------

def layer_metrics(spans: Dict, runs: int, overhead_frac: float,
                  exact: Dict[str, float], events: float, *,
                  simulated: int, cache_hits: int) -> Dict:
    """Per-layer metrics, host times averaged per traced point (warm
    workloads) or per traced campaign."""
    from layers import LAYERS
    inclusive = spans["inclusive_s"]
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (spans["self_s"][layer] / runs, "s")
        metrics[f"{layer}.calls"] = (spans["calls"][layer] / runs, "count")
    engine_events = spans["events"]
    metrics["engine.ns_per_event"] = (
        _ratio(spans["self_s"]["engine"], engine_events) * 1e9, "ns")
    metrics["engine.events"] = (events, "count")
    metrics["system.build_s"] = (
        inclusive.get("MulticoreSystem.__init__", 0.0) / runs, "s")
    metrics["system.collect_s"] = (
        (inclusive.get("MulticoreSystem.run", 0.0)
         - inclusive.get("Engine.run", 0.0)) / runs, "s")
    metrics["store.save_s"] = (inclusive.get("ResultStore.save", 0.0)
                               / runs, "s")
    metrics["store.load_s"] = (inclusive.get("ResultStore.load", 0.0)
                               / runs, "s")
    metrics["trace.overhead_frac"] = (overhead_frac, "frac")
    units = {"latency": "cycles", "issued": "count", "flits": "count",
             "reads": "count"}
    for name, value in exact.items():
        unit = next((u for suffix, u in units.items()
                     if name.endswith(suffix)), "frac")
        metrics[name] = (value, unit)
    metrics["sweep.simulated"] = (simulated, "count")
    metrics["sweep.cache_hits"] = (cache_hits, "count")
    return metrics


def finish(ledger: Ledger, metrics: Dict[str, Tuple[float, str]]) -> Dict:
    if "sim_kips" in metrics:
        metrics["ok_frac"] = (ledger.ok_frac, "frac")
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def pin() -> None:
    """Rewrite ``pinned.json`` with every point's seed-0 digest."""
    from repro import api
    from repro.sim.system import MulticoreSystem
    pinned = {}
    for size_name, size in SIZES.items():
        digests = {point["key"]: point["digest"] for point in
                   campaign_child(0, size, traced=False)["points"]}
        for workload, (_, channels, mix) in POINTS.items():
            for scheme in SCHEMES:
                config = api.Scheme.parse(scheme).build_config(
                    channels, CORES, size.point_instructions)
                result = MulticoreSystem(config, placed(mix, 0)).run()
                digests[point_key(workload, scheme)] = digest(result)
        pinned[size_name] = dict(sorted(digests.items()))
    PINNED.write_text(json.dumps(pinned, indent=2) + "\n")


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite pinned.json from seed 0 and exit")
    parser.add_argument("--child", choices=("setup", "campaign",
                                            "campaign-traced"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    # The default simulation backend, with no sanitizer shims.
    for variable in ("REPRO_BACKEND", "REPRO_SANITIZE"):
        os.environ.pop(variable, None)
    args = parse_args(argv)
    args.child_peaks = []
    size = SIZES[args.size]
    try:
        if args.child == "setup":
            print(json.dumps(setup_child(args.workload, args.seed, size)))
            return 0
        if args.child is not None:
            print(json.dumps(campaign_child(
                args.seed, size, traced=args.child == "campaign-traced")))
            return 0
        import_repro()
        if args.pin:
            pin()
            return 0
        if args.workload == "cold_campaign":
            report = run_campaign(args, size)
        else:
            report = run_point(args, size)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    if not args.trace:
        # This process plus its largest child; children run one at a
        # time.
        report["metrics"]["peak_rss_mib"] = {
            "value": own_peak_rss_mib() + max(args.child_peaks, default=0.0),
            "unit": "MiB"}
    for name, metric in report["metrics"].items():
        print(f"{name:>28} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
