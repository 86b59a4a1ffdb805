"""What a fresh process imports to run a simulation.

Every campaign point in a fresh process pays its imports, so the
simulation path must not load what it never runs: NumPy (only trace
*files* use it), the process pool (only ``run_sweep(jobs > 1)``) or the
figure drivers.  Those checks run in a fresh interpreter, because this
test process has long since imported everything.  The trace-file round
trip, which imports NumPy on use, is checked in
``test_stats_energy_io.py``.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.experiments as experiments

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Modules the simulation path must leave unloaded.
OFF_PATH = ("numpy", "concurrent.futures.process",
            "repro.experiments.figures", "repro.experiments.runner",
            "repro.experiments.learned", "repro.experiments.power_budget")


def _fresh(code: str) -> object:
    """Run ``code`` in a fresh interpreter; return the JSON it prints."""
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120.0, env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_simulation_leaves_heavy_modules_unloaded():
    loaded = _fresh(f"""
import json, sys
import repro
from repro import api
config = api.scaled_config(num_cores=2, channels=1, sim_instructions=300)
result = api.simulate(config, ["605.mcf_s-1536B"] * 2)
assert result.total_instructions == 600
print(json.dumps([m for m in {OFF_PATH!r} if m in sys.modules]))
""")
    assert loaded == []


def test_experiment_names_load_their_home_on_first_access():
    loaded = _fresh("""
import json, sys
import repro.experiments as experiments
homes = ["repro.experiments." + m
         for m in ("figures", "runner", "learned", "power_budget")]
seen = [[m for m in homes if m in sys.modules]]
experiments.BenchScale
seen.append([m for m in homes if m in sys.modules])
experiments.figure9
seen.append([m for m in homes if m in sys.modules])
print(json.dumps(seen))
""")
    assert loaded == [
        [],
        ["repro.experiments.runner"],
        ["repro.experiments.figures", "repro.experiments.runner"],
    ]


@pytest.mark.parametrize("name", experiments.__all__)
def test_experiment_name_is_its_home_object(name):
    home = importlib.import_module(
        f"repro.experiments.{experiments._HOMES[name]}")
    value = getattr(experiments, name)
    assert value is getattr(home, name)
    # The mapped module must be where the object is defined, not merely
    # a module that re-exports it.
    assert getattr(value, "__module__", home.__name__) == home.__name__


def test_star_import_and_dir_cover_all():
    namespace: dict = {}
    exec("from repro.experiments import *", namespace)
    assert set(experiments.__all__) <= set(namespace)
    assert set(experiments.__all__) <= set(dir(experiments))


def test_unknown_experiment_attribute_raises():
    with pytest.raises(AttributeError, match="nonesuch"):
        experiments.nonesuch
    assert not hasattr(experiments, "figure7")


def test_submodules_still_import_through_the_package():
    from repro.experiments import hotpath, sweep
    assert hotpath.__name__ == "repro.experiments.hotpath"
    assert sweep.run_sweep is experiments.run_sweep

