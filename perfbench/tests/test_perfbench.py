"""The benchmark's own tests: toy-sized workloads, the correctness gate,
seed determinism across processes, and tracing that changes nothing.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from msectun.gateway import Scheme  # noqa: E402

import pairs  # noqa: E402
import workloads  # noqa: E402
from gen import check_sealer  # noqa: E402
from report import end_to_end, per_layer  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    Churn,
    Gate,
    Imix4kFlows,
    Small1Flow,
    UdpLoopback,
    run_workload,
    run_slice,
    start_scheme,
    finish_scheme,
)


def _toy(cls, seed=3):
    wl = cls(seed)
    if isinstance(wl, Imix4kFlows):
        wl.SAS_PER_SIDE = 24
    if isinstance(wl, Churn):
        wl.CONVERSATIONS = 12
    wl.setup_repeats = min(wl.setup_repeats, 2)
    return wl


def _run(wl, seconds=0.6, tracer=None):
    gate = Gate()
    return run_workload(wl, seconds, gate, tracer, slices=3), gate


def _run_one(wl, scheme, seconds=0.1):
    gate = Gate()
    live = start_scheme(wl, scheme, gate)
    run_slice(wl, live, seconds, gate, last=True)
    return finish_scheme(wl, live, gate), gate


@pytest.mark.parametrize("cls", [Small1Flow, Imix4kFlows, Churn, UdpLoopback])
def test_each_workload_runs_at_toy_size(cls):
    runs, gate = _run(_toy(cls))
    assert gate.failures == []
    e2e = end_to_end(runs)
    for scheme in ("naive", "idf", "enc", "fullenc"):
        assert e2e[f"{scheme}.fps"][0] > 0
        assert e2e[f"{scheme}.p99_us"][0] >= e2e[f"{scheme}.p50_us"][0] > 0
    assert e2e["setup_s"][0] > 0
    if cls is not Churn:
        assert e2e["deliver_frac"][0] == 1.0


@pytest.mark.parametrize("cls", [Small1Flow, Churn, UdpLoopback])
def test_traced_run_reports_every_layer(cls):
    wl = _toy(cls)
    runs, gate = _run(wl, seconds=1.2, tracer=Tracer())
    assert gate.failures == []
    metrics = per_layer(runs, udp=cls is UdpLoopback)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = {m["name"] for m in json.load(f)["per_layer"]}
    netio = {k for k in metrics if k.startswith("netio.")}
    assert set(metrics) - netio == names
    assert bool(netio) == (cls is UdpLoopback)
    assert metrics["trace.overhead_frac"][0] > 0
    if cls is Small1Flow:
        # the self times of the spans under each frame add up to the
        # harness-timed handler call, within the tracer's own overhead
        assert 0.9 <= metrics["trace.accounted_frac"][0] <= 1.0
        assert metrics["idf.hashes_per_frame"][0] == 2.0
        assert metrics["enc.blocks_per_frame"][0] == 4.0
    if cls is UdpLoopback:
        assert metrics["netio.idf.engine_us"][0] > 0


class _CorruptingPair(pairs.SyncPair):
    """Flips one bit of the tenth frame the far LAN receives."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        sink = self.sink["B"]
        seen = [0]

        def emit(frame: bytes) -> None:
            seen[0] += 1
            if seen[0] == 10:
                frame = bytes([frame[0], frame[1] ^ 0x01]) + frame[2:]
            sink.append(frame)

        self.gw["B"].emit_lan = emit


def test_corrupted_capture_fails_the_gate(monkeypatch):
    monkeypatch.setattr(Small1Flow, "make_pair",
                        lambda self, scheme, tracer: _CorruptingPair(scheme, self.seed, tracer))
    run, gate = _run_one(_toy(Small1Flow), Scheme.IDF)
    assert any("delivered_in_order_exactly_once" in f for f in gate.failures)
    assert run.delivered < run.offered


def test_duplicated_delivery_fails_the_churn_gate(monkeypatch):
    original = pairs.DelayedPair.run_until

    def run_until(self, when):
        original(self, when)
        self.delivered.extend(self.delivered[:1])  # deliver one frame twice

    monkeypatch.setattr(pairs.DelayedPair, "run_until", run_until)
    _, gate = _run_one(_toy(Churn), Scheme.NAIVE)
    assert any("exactly_once_bit_exact" in f for f in gate.failures)


def test_gate_failure_exits_nonzero(monkeypatch, capsys):
    import run as bench_run

    monkeypatch.setattr(Small1Flow, "make_pair",
                        lambda self, scheme, tracer: _CorruptingPair(scheme, self.seed, tracer))
    monkeypatch.setattr(Small1Flow, "setup_repeats", 1)
    code = bench_run.main(["--workload", "small-1flow", "--seed", "1", "--seconds", "0.4"])
    out = capsys.readouterr()
    assert code == 1
    assert json.loads(out.out.strip().splitlines()[-1])["correct"] is False
    assert "CHECK FAILED" in out.err


_DIGEST_SCRIPT = """
import hashlib, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from msectun.gateway import Scheme
from workloads import Churn, Imix4kFlows, Small1Flow
h = hashlib.sha256()
for cls in (Small1Flow, Imix4kFlows, Churn):
    wl = cls(7)
    if cls is Imix4kFlows:
        wl.SAS_PER_SIDE = 16
    prep = wl.prepare(Scheme.IDF)
    for item in prep["setup"] + prep["source"].chunk(300):
        h.update(item[0].encode() + item[1])
print(h.hexdigest())
"""


def test_one_seed_gives_identical_frames_across_processes():
    digests = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        out = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT, BENCH, os.path.join(ROOT, "src")],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1] and len(digests[0]) == 64


def _deliveries(pair_factory, frames, tracer=None):
    if tracer is not None:
        tracer.install()
    try:
        pair = pair_factory()
        out = []
        for side, raw, *_ in frames:
            pair.ingress(side, raw)
        for side in pairs.SIDES:
            out.append(hashlib.sha256(b"".join(pair.sink[side])).hexdigest())
        return out
    finally:
        if tracer is not None:
            tracer.uninstall()


def test_tracing_delivers_the_same_bytes():
    wl = _toy(Imix4kFlows)
    for scheme in (Scheme.IDF, Scheme.ENC):
        prep = wl.prepare(scheme)
        frames = prep["setup"] + prep["source"].chunk(200)
        plain = _deliveries(lambda: pairs.SyncPair(scheme, 3), frames)
        traced = _deliveries(lambda: pairs.SyncPair(scheme, 3), frames, Tracer())
        assert plain == traced


def test_fast_sealer_matches_library_sealing():
    assert check_sealer(11)


def test_benchmark_alone_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-1flow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
