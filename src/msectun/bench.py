"""Benchmark driver: per-scheme throughput, latency and size accounting.

Drives a pair of gateway engines wired by direct in-process calls
(``pair.EnginePair``) and sweeps frame sizes.  Latency is measured from
LAN ingress at the sending gateway to LAN egress at the receiving one;
frame generation happens outside the timed section and is identical
for every scheme.

Absolute numbers are hardware- and runtime-bound; the quantity of
interest is the relative ordering of the schemes and their exact
per-frame overheads and crypto-operation counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .frame import Sci
from .gateway import Scheme
from .pair import EnginePair, seal

MIN_FRAME_SIZE = 50  # smallest sweepable frame: 46 bytes of MACsec framing, payload 4


@dataclass
class BenchResult:
    scheme: str
    frame_size: int
    frames: int
    seconds: float
    frames_per_sec: float
    mbit_per_sec: float
    wire_size: int
    overhead_bytes: int
    hash_per_frame: float
    blocks_per_frame: float
    p50_us: float
    p99_us: float

    CSV_COLUMNS = (
        "scheme,frame_size,frames,seconds,frames_per_sec,mbit_per_sec,"
        "wire_size,overhead_bytes,hash_per_frame,blocks_per_frame,p50_us,p99_us"
    )

    def csv_row(self) -> str:
        return (
            f"{self.scheme},{self.frame_size},{self.frames},{self.seconds:.3f},"
            f"{self.frames_per_sec:.1f},{self.mbit_per_sec:.3f},{self.wire_size},"
            f"{self.overhead_bytes},{self.hash_per_frame:.2f},"
            f"{self.blocks_per_frame:.2f},{self.p50_us:.1f},{self.p99_us:.1f}"
        )


def results_csv(results: list[BenchResult]) -> str:
    lines = [BenchResult.CSV_COLUMNS]
    lines += [r.csv_row() for r in results]
    return "\n".join(lines) + "\n"


def _protect_series(sci: Sci, dst: bytes, key: bytes, frame_size: int, start_pn: int, n: int):
    if frame_size < MIN_FRAME_SIZE:
        raise ValueError(f"frame size {frame_size} too small (min {MIN_FRAME_SIZE})")
    payload = bytes(frame_size - 46)
    return [seal(key, dst, sci.system_id, sci, pn, payload) for pn in range(start_pn, start_pn + n)]


_KEY = bytes(range(16))
_SCI = Sci(b"\x02\x00\x00\x00\x00\x0a", 1)
_DST = b"\x02\x00\x00\x00\x00\x0b"


def _warm_pair(scheme: Scheme, frame_size: int, window: int) -> EnginePair:
    """A fresh gateway pair after 8 frames that establish the flow, learn
    the peer and fill the window.  Raises ValueError for a size the
    scheme cannot carry."""
    pair = EnginePair(scheme, window)
    for raw in _protect_series(_SCI, _DST, _KEY, frame_size, 1, 8):
        pair.lan_a(raw)
    if not pair.emitted["B"]:
        drops = dict(pair.a.stats.drops + pair.b.stats.drops)
        raise ValueError(f"{scheme.value} delivers no {frame_size}-byte frame (drops: {drops})")
    return pair


def run_bench_cell(scheme: Scheme, frame_size: int, seconds: float, window: int = 64) -> BenchResult:
    """One (scheme, size) measurement over a fresh gateway pair.

    Raises ValueError for a size the scheme cannot carry."""
    pair = _warm_pair(scheme, frame_size, window)
    delivered = pair.emitted["B"]
    wire_size = len(pair.captured[-1][2])
    a0 = pair.a.snapshot_stats()
    b0 = pair.b.snapshot_stats()

    pn = 9
    latencies: list[int] = []
    frames = received = 0
    batch = 64
    # the wall clock bounds the run; only the engine work is timed
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        # keep only this batch's deliveries and datagrams
        delivered.clear()
        pair.captured.clear()
        series = _protect_series(_SCI, _DST, _KEY, frame_size, pn, batch)
        pn += batch
        for raw in series:
            t0 = time.perf_counter_ns()
            pair.lan_a(raw, now=t0 // 1000)
            latencies.append(time.perf_counter_ns() - t0)
            frames += 1
            if time.perf_counter() > deadline:
                break
        received += len(delivered)
    elapsed = sum(latencies) / 1e9

    assert received == frames, "frames lost in bench loop"
    a1 = pair.a.snapshot_stats()
    b1 = pair.b.snapshot_stats()
    hash_ops = (
        a1.hash_calls_uplink
        - a0.hash_calls_uplink
        + b1.hash_calls_downlink
        - b0.hash_calls_downlink
    )
    block_ops = (
        a1.block_ops_uplink
        - a0.block_ops_uplink
        + b1.block_ops_downlink
        - b0.block_ops_downlink
    )
    latencies.sort()
    p50 = latencies[len(latencies) // 2] / 1000
    p99 = latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))] / 1000
    fps = frames / elapsed
    return BenchResult(
        scheme=scheme.value,
        frame_size=frame_size,
        frames=frames,
        seconds=elapsed,
        frames_per_sec=fps,
        mbit_per_sec=fps * wire_size * 8 / 1e6,
        wire_size=wire_size,
        overhead_bytes=wire_size - frame_size,
        hash_per_frame=hash_ops / frames if frames else 0.0,
        blocks_per_frame=block_ops / frames if frames else 0.0,
        p50_us=p50,
        p99_us=p99,
    )


def run_bench(
    schemes: list[Scheme],
    sizes: list[int],
    seconds: float,
    window: int = 64,
) -> list[BenchResult]:
    """Sweep schemes x sizes; ``seconds`` is the budget per size row,
    split evenly across the schemes.  Zero duration gives no results."""
    if seconds <= 0:
        return []
    cells = [(scheme, size) for size in sizes for scheme in schemes]
    # a size some scheme cannot carry fails before any cell is timed
    for scheme, size in cells:
        _warm_pair(scheme, size, window)
    per_cell = seconds / len(schemes)
    return [run_bench_cell(scheme, size, per_cell, window) for scheme, size in cells]
