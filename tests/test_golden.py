"""Golden digests: simnet runs whose transcripts and stats must not move.

Each scenario runs under every scheme; the SHA-256 of its transcript CSV
and of each gateway's ``snapshot_stats().as_dict()`` must match the
digests in ``golden_digests.json`` beside this file.  A change meant to
keep behaviour (a refactor, a faster table) keeps them; a change meant
to alter behaviour rewrites them on purpose with

    PYTHONPATH=src python tests/test_golden.py --write

and says why.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from msectun.gateway import Scheme
from msectun.simnet import NetModel, ScenarioConfig, TrafficSpec, run_scenario

DIGESTS = Path(__file__).with_name("golden_digests.json")

THREE_LANS = {"A": ["a1"], "B": ["b1"], "C": ["c1"]}


SCENARIOS = {
    "loss_dup_reorder": dict(
        lans={"A": ["a1"], "B": ["b1"]},
        net=NetModel(seed=71, latency_us=200, loss_prob=0.05, dup_prob=0.05,
                     reorder_prob=0.2, reorder_max_us=300, jitter_us=40),
        traffic=[
            TrafficSpec(device="a1", dst="b1", count=200, interval_us=50, payload_len=48),
            TrafficSpec(device="b1", dst="a1", count=50, start_us=30, interval_us=200, payload_len=48),
        ],
        duration_us=200_000,
    ),
    "an_rollover_broadcast": dict(
        lans=THREE_LANS,
        net=NetModel(seed=72, latency_us=150),
        traffic=[
            TrafficSpec(device="a1", dst="b1", count=120, interval_us=60, payload_len=40),
            TrafficSpec(device="a1", dst="broadcast", count=60, start_us=25, interval_us=120, payload_len=40),
        ],
        an_ceiling=40,
        duration_us=200_000,
    ),
    "three_lans": dict(
        lans=THREE_LANS,
        net=NetModel(seed=73, latency_us=200, jitter_us=60),
        traffic=[
            TrafficSpec(device="a1", dst="b1", count=100, interval_us=60, payload_len=50),
            TrafficSpec(device="a1", dst="broadcast", count=50, start_us=30, interval_us=120, payload_len=50),
            TrafficSpec(device="b1", dst="a1", count=30, start_us=40, interval_us=200, payload_len=50),
            TrafficSpec(device="c1", dst="broadcast", count=30, start_us=70, interval_us=200, payload_len=50),
        ],
        duration_us=200_000,
    ),
    "unicast_dst_change": dict(
        lans=THREE_LANS,
        net=NetModel(seed=74, latency_us=200),
        traffic=[
            TrafficSpec(device="a1", dst="b1", count=30, interval_us=100, payload_len=50),
            TrafficSpec(device="b1", dst="a1", count=20, start_us=50, interval_us=100, payload_len=50),
            TrafficSpec(device="a1", dst="broadcast", count=20, start_us=80, interval_us=300, payload_len=50),
            TrafficSpec(device="a1", dst="c1", count=30, start_us=4000, interval_us=100, payload_len=50),
        ],
        duration_us=200_000,
    ),
    "expiry": dict(
        lans={"A": ["a1"], "B": ["b1"]},
        net=NetModel(seed=75, latency_us=100),
        traffic=[
            TrafficSpec(device="a1", dst="b1", count=40, interval_us=100, payload_len=40),
            TrafficSpec(device="a1", dst="broadcast", count=10, start_us=50, interval_us=400, payload_len=40),
            TrafficSpec(device="a1", dst="b1", count=40, start_us=60_000, interval_us=100, payload_len=40),
            TrafficSpec(device="b1", dst="a1", count=20, start_us=61_000, interval_us=200, payload_len=40),
        ],
        flow_timeout_us=20_000,
        timer_interval_us=5_000,
        duration_us=120_000,
    ),
    "window4_reorder": dict(
        lans={"A": ["a1"], "B": ["b1"]},
        net=NetModel(seed=76, latency_us=200, reorder_prob=0.3, reorder_max_us=250),
        traffic=[
            TrafficSpec(device="a1", dst="b1", count=200, interval_us=50, payload_len=48),
            TrafficSpec(device="a1", dst="broadcast", count=50, start_us=20, interval_us=200, payload_len=48),
        ],
        window=4,
        duration_us=200_000,
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(name: str, scheme: Scheme) -> dict:
    s = run_scenario(ScenarioConfig(scheme=scheme, **SCENARIOS[name]))
    return {
        "transcript": _sha(s.transcript.csv()),
        "stats": {
            gw: _sha(json.dumps(engine.snapshot_stats().as_dict()))
            for gw, engine in sorted(s.gateways.items())
        },
    }


def _key(name: str, scheme: Scheme) -> str:
    return f"{name}/{scheme.value}"


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_digest(name, scheme):
    expected = json.loads(DIGESTS.read_text())[_key(name, scheme)]
    assert digests(name, scheme) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    table = {_key(n, s): digests(n, s) for n in sorted(SCENARIOS) for s in Scheme}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {DIGESTS}")
