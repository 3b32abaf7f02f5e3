"""Fixed-seed fingerprints: virtual results cannot drift unseen.

The byte-identity gates elsewhere compare two modes of one tree
(snapshot vs reflash, inline vs process, kill+resume vs uninterrupted),
so a change that moves both sides alike passes all of them.  These pins
compare across trees: each is a SHA-256 over what one fixed-seed run
found, stored in ``fingerprints.json`` beside this file.

* Per OS: seed 7 at 300k cycles.  The hash covers
  ``FuzzStats.semantic_dict()`` (including the cycle-stamped series),
  the sorted edge set, the crash signatures and the corpus digests.
* One inline 2-worker freertos campaign (600k cycles in total, sync
  every 100k, seed 7): the merged edges, the shared-corpus digests, the
  crash signatures and each worker's ``semantic_dict()``.

A change that moves a pin on purpose regenerates the file with
``PYTHONPATH=src python tests/test_fingerprints.py`` and names the
moved pins, the regenerated bench tables and the reason in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from conftest import cached_build
from repro.bench.runner import run_campaign
from repro.fuzz.engine import EngineOptions, EofEngine
from repro.fuzz.targets import get_target
from repro.spec.llmgen import generate_validated_specs

PINS_PATH = pathlib.Path(__file__).with_name("fingerprints.json")
OSES = ("freertos", "rt-thread", "zephyr", "nuttx", "pokos")
CAMPAIGN = "campaign-freertos-2w"
SEED = 7
BUDGET = 300_000


def digest(found: dict) -> str:
    """SHA-256 of a canonical JSON rendering (sorted keys, no spaces)."""
    text = json.dumps(found, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def engine_fingerprint(os_name: str) -> str:
    build = cached_build(os_name, get_target(os_name).board)
    engine = EofEngine(build, generate_validated_specs(build),
                       EngineOptions(seed=SEED, budget_cycles=BUDGET))
    result = engine.run()
    return digest({
        "stats": result.stats.semantic_dict(),
        "edges": sorted(result.coverage.edges),
        "crashes": [r.signature() for r in result.crash_db.unique_crashes()],
        "corpus": engine.corpus.digests(),
    })


def campaign_fingerprint() -> str:
    result = run_campaign(get_target("freertos"), 2, 600_000,
                          campaign_seed=SEED, sync_interval=100_000)
    return digest({
        "edges": sorted(result.edges),
        "corpus": result.corpus_digests,
        "crashes": result.crash_signatures(),
        "workers": [w.stats.semantic_dict() for w in result.worker_results],
    })


def fingerprint(name: str) -> str:
    return campaign_fingerprint() if name == CAMPAIGN \
        else engine_fingerprint(name)


@pytest.mark.parametrize("name", OSES + (CAMPAIGN,))
def test_fingerprint_matches_pin(name):
    pins = json.loads(PINS_PATH.read_text())
    assert fingerprint(name) == pins[name], (
        f"{name}: virtual results moved; if on purpose, regenerate "
        f"{PINS_PATH.name} and the bench tables and say why in CHANGES.md")


if __name__ == "__main__":
    PINS_PATH.write_text(json.dumps(
        {name: fingerprint(name) for name in OSES + (CAMPAIGN,)},
        indent=2) + "\n")
    print(f"wrote {PINS_PATH}")
