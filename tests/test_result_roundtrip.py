"""Serialisation invariance: results round-trip and cache keys hold.

Two pins that make the hot-path ``__slots__`` / dict-fast-path work
safe to land:

* ``SimulationResult.to_dict()/from_dict()`` stays lossless for every
  committed equivalence golden (the goldens double as a corpus of
  realistic, fully-populated result trees);
* ``RunSpec.cache_key()`` is byte-stable -- the keys below were
  captured before the perf refactor, so any accidental change to config
  materialisation (field order, defaults, repr of nested values) or a
  spurious ``CACHE_SCHEMA_VERSION`` bump fails here instead of silently
  invalidating every on-disk sweep cache.
"""

from __future__ import annotations

import json

import pytest

from equivalence_points import GOLDEN_DIR, POINTS

from repro.experiments.sweep import CACHE_SCHEMA_VERSION, RunSpec, Scheme
from repro.sim.stats import SimulationResult


@pytest.mark.parametrize("point", sorted(POINTS))
def test_result_dict_roundtrip_is_lossless(point):
    golden = json.loads((GOLDEN_DIR / f"{point}.json").read_text())
    tree = golden["result"]
    rebuilt = SimulationResult.from_dict(tree)
    assert rebuilt.to_dict() == tree
    # A second hop catches asymmetries between the two directions.
    assert SimulationResult.from_dict(rebuilt.to_dict()).to_dict() == tree


#: (RunSpec factory kwargs, sha256 hex) captured at schema version 3
#: (the learned-policy release: ``SystemConfig.learned`` joined the
#: hashed config and the schema was bumped deliberately); see the
#: module docstring before editing.
_PINNED_KEYS = [
    (dict(scheme="berti+clip", mix=("605.mcf_s-1536B",) * 4,
          channels=1, num_cores=4, sim_instructions=8000),
     "da0c152bff53a73a6847339a93ee7cbf1699121f964ae2814f5296b8cc70fc97"),
    (dict(scheme="none", mix=("623.xalancbmk_s-10B", "tc-14"),
          channels=1, num_cores=2, sim_instructions=2500),
     "9590b714061c0782cf9815ef753f0ee2f4cc354a4b06f9eb7f30045dff8bea25"),
    (dict(scheme="spp_ppf+clip+fdp",
          mix=("619.lbm_s-2676B", "605.mcf_s-1536B"),
          channels=2, num_cores=2, sim_instructions=2500),
     "4916a21504a1bbcf831a87f91a0bc0082261ac4c55708ea7ad5147ecb3adadcd"),
    (dict(scheme="bandit", mix=("605.mcf_s-1536B", "619.lbm_s-2676B"),
          channels=1, num_cores=2, sim_instructions=4000),
     "70eeb42d5280f8976fe1cb334e8175ad89405ea1a38a047dec263f8ce4415cf7"),
    (dict(scheme="berti+perceptron",
          mix=("605.mcf_s-1536B", "623.xalancbmk_s-10B"),
          channels=1, num_cores=2, sim_instructions=4000),
     "54345243856a0742bcdfe9971dda72584c3e8cec75f796d41c30ae2157ea47c1"),
    # Captured while SystemConfig still had an engine-choice field that
    # the key left out; removing the field must not move any key.
    (dict(scheme="berti+clip+fvp", mix=("619.lbm_s-2676B", "bfs-14"),
          channels=2, num_cores=2, sim_instructions=3000),
     "4613438348861c4a62e7e01067fcbeb032ca462522d9f722646da66e81d903b0"),
]


def test_cache_schema_version_matches_learned_release():
    """Version 3 is the learned-policy release: ``SystemConfig.learned``
    joined the materialised config (so learned and static runs can never
    share a cache entry), and every version-2 entry must be re-simulated
    (stale entries read as misses, never as load errors).  Bump this pin
    only together with a deliberate schema change."""
    assert CACHE_SCHEMA_VERSION == 3


@pytest.mark.parametrize("kwargs,expected",
                         _PINNED_KEYS,
                         ids=[k[0]["scheme"] for k in _PINNED_KEYS])
def test_sweep_cache_keys_unchanged(kwargs, expected):
    spec = RunSpec(scheme=Scheme.parse(kwargs["scheme"]),
                   mix=kwargs["mix"], channels=kwargs["channels"],
                   num_cores=kwargs["num_cores"],
                   sim_instructions=kwargs["sim_instructions"])
    assert spec.cache_key() == expected
