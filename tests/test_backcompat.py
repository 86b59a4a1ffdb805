"""On-disk formats written before the simulator had a single engine.

Result-store entries and serve manifests used to carry a ``"backend"``
field (``"event"``/``"batch"``).  The field is gone from what is
written now, but the files already on disk must keep working: an old
entry must load as a hit and an old manifest must resume (the cache
keys themselves are pinned in ``test_result_roundtrip.py``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.experiments.sweep import (CACHE_SCHEMA_VERSION, ResultStore,
                                     RunSpec, Scheme, run_sweep)
from repro.serve.manifest import MANIFEST_VERSION, load_manifest
from repro.serve.wire import spec_to_dict

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _spec(scheme: str) -> RunSpec:
    return RunSpec(scheme=Scheme.parse(scheme),
                   mix=("605.mcf_s-1536B", "605.mcf_s-1536B"),
                   channels=1, num_cores=2, sim_instructions=800)


def test_store_entry_with_backend_provenance_is_a_hit(tmp_path):
    store = ResultStore(tmp_path)
    spec = _spec("berti")
    cold = run_sweep([spec], store=store)
    path = store.path_for(spec.cache_key())
    payload = json.loads(path.read_text())
    assert "backend" not in payload
    payload["backend"] = "batch"
    path.write_text(json.dumps(payload, sort_keys=True))

    warm = run_sweep([spec], store=store)
    assert warm.simulated == 0 and warm.cache_hits == 1
    assert warm[spec].to_dict() == cold[spec].to_dict()


def test_manifest_with_backend_field_resumes(tmp_path):
    done, pending = _spec("none"), _spec("berti")
    store = ResultStore(tmp_path / "cache")
    run_sweep([done], store=store)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "version": MANIFEST_VERSION,
        "schema": CACHE_SCHEMA_VERSION,
        "backend": "event",
        "jobs": [
            {"spec": spec_to_dict(done), "state": "done", "attempts": 1,
             "error": None, "producer": "local-0"},
            {"spec": spec_to_dict(pending), "state": "pending",
             "attempts": 0, "error": None, "producer": None},
        ],
    }, sort_keys=True))
    assert load_manifest(manifest)["specs"] == [done, pending]

    status = tmp_path / "status.json"
    resumed = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--resume",
         "--manifest", str(manifest), "--workers", "1",
         "--cache-dir", str(tmp_path / "cache"),
         "--status-json", str(status)],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=300.0,
        env=dict(os.environ, PYTHONPATH=SRC))
    assert resumed.returncode == 0, resumed.stdout + resumed.stderr
    final = json.loads(status.read_text())
    assert final["finished"] and final["done"] == final["total"] == 2
    assert final["cache_hits"] == 1 and final["simulated"] == 1
    assert store.load(pending.cache_key()) is not None
