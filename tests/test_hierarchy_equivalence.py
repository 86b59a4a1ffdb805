"""Fixed-seed equivalence: the hierarchy refactor is behaviour-preserving.

The goldens under ``tests/data/equivalence/`` were captured by running
``scripts/regenerate_equivalence_goldens.py`` against the pre-refactor
monolithic ``MulticoreSystem`` (the 855-line ``sim/system.py``).  Every
point's ``SimulationResult.to_dict()`` must stay bit-identical: same
cycle counts, same stat counters, same event interleaving.  A diff here
means the port/message decomposition changed simulated behaviour.
"""

from __future__ import annotations

import json
from collections import OrderedDict

import pytest

from equivalence_points import GOLDEN_DIR, POINTS

from repro.sim import system as system_module
from repro.sim.system import MulticoreSystem, run_system


def _diff(expected, actual, path=""):
    """Human-readable leaf-level differences between two to_dict() trees."""
    out = []
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            out.extend(_diff(expected.get(key), actual.get(key),
                             f"{path}.{key}" if path else str(key)))
    elif isinstance(expected, list) and isinstance(actual, list) \
            and len(expected) == len(actual):
        for i, (e, a) in enumerate(zip(expected, actual)):
            out.extend(_diff(e, a, f"{path}[{i}]"))
    elif expected != actual:
        out.append(f"  {path}: golden={expected!r} actual={actual!r}")
    return out


@pytest.mark.parametrize("point", sorted(POINTS))
def test_result_identical_to_pre_refactor_golden(point):
    golden_path = GOLDEN_DIR / f"{point}.json"
    golden = json.loads(golden_path.read_text())
    config, mix = POINTS[point]()
    assert mix == golden["workloads"]
    result = run_system(config, mix).to_dict()
    if result != golden["result"]:
        diffs = "\n".join(_diff(golden["result"], result)[:40])
        pytest.fail(f"SimulationResult.to_dict() diverged from the "
                    f"pre-refactor golden for point {point!r}:\n{diffs}")


#: ``engine.events_processed`` of every golden point, recorded when the
#: pin was added.  Results carry no event count, so only this pin sees
#: an engine event added or dropped by a change that keeps the results.
EVENTS_PROCESSED = json.loads(
    (GOLDEN_DIR.parent / "equivalence_events.json").read_text())


def test_event_pin_covers_every_point():
    assert set(EVENTS_PROCESSED) == set(POINTS)


@pytest.mark.parametrize("point", sorted(POINTS))
def test_events_processed_pinned(point):
    config, mix = POINTS[point]()
    system = MulticoreSystem(config, mix)
    system.run()
    assert system.engine.events_processed == EVENTS_PROCESSED[point]


def test_results_identical_with_cold_and_warm_trace_memo(monkeypatch):
    """Each point run first against an empty trace cache, which replays
    the branch pre-pass, then against the populated one, which reuses
    its traces and mispredict columns: both match the golden."""
    monkeypatch.setattr(system_module, "_TRACE_CACHE", OrderedDict())
    for point in sorted(POINTS):
        golden = json.loads((GOLDEN_DIR / f"{point}.json").read_text())
        system_module._TRACE_CACHE.clear()
        runs = []
        for memo in ("cold", "warm"):
            config, mix = POINTS[point]()
            system = MulticoreSystem(config, mix)
            result = system.run().to_dict()
            assert result == golden["result"], (
                f"{point} diverged from its golden with a {memo} memo:\n"
                + "\n".join(_diff(golden["result"], result)[:40]))
            runs.append([core._mispredicts for core in system.cores])
        cold, warm = runs
        assert all(a is b for a, b in zip(cold, warm))


def test_points_cover_clip_with_prefetchers():
    """The acceptance criteria require >= 2 points, one with CLIP +
    prefetchers enabled; keep the point set honest."""
    assert len(POINTS) >= 2
    clip_points = []
    for name, build in POINTS.items():
        config, _ = build()
        if config.clip.enabled and config.l1_prefetcher.name != "none":
            clip_points.append(name)
    assert clip_points, "no golden point exercises CLIP + prefetchers"


def test_goldens_have_signal():
    """Goldens must pin non-trivial activity, not an idle machine."""
    for name in POINTS:
        data = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        result = data["result"]
        assert result["total_cycles"] > 0
        assert result["dram"]["reads"] > 0
        if name != "none_mcf":
            assert result["prefetch"]["issued"] > 0
