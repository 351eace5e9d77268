"""Benchmark driver: per-scheme throughput, latency and size accounting.

Drives a pair of gateway engines wired by direct in-process calls
(``pair.EnginePair``) and sweeps frame sizes.  Latency is measured from
LAN ingress at the sending gateway to LAN egress at the receiving one;
frame generation happens outside the timed section and is identical
for every scheme.

Absolute numbers are hardware- and runtime-bound; the quantity of
interest is the relative ordering of the schemes and their exact
per-frame overheads and crypto-operation counts.

``run_table_sweep`` measures the identifier table alone against its
flow count: memory per identifier held and set-up time per flow.
``main`` is the ``msec-bench`` command line over both.
"""

from __future__ import annotations

import argparse
import gc
import random
import sys
import time
import tracemalloc
from dataclasses import dataclass
from typing import Optional

from .flow import DEFAULT_WINDOW, HeaderData, new_bidf
from .frame import Sci
from .gateway import Scheme
from .idf import IdfDownlink
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


def run_bench_cell(
    scheme: Scheme, frame_size: int, seconds: float, window: int = DEFAULT_WINDOW
) -> BenchResult:
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
    window: int = DEFAULT_WINDOW,
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


# -- identifier table against flow count -----------------------------------

_TABLE_START_PN = 1000
# bytes per identifier assumed before one is measured, and the share of
# available memory a traced build may take
_TABLE_GUESS_BYTES = 256
_TABLE_MEMORY_SHARE = 0.5


@dataclass
class TableResult:
    flows: int
    identifiers: int = 0
    bytes_per_id: float = 0.0
    register_us: float = 0.0
    # why the size was not built, if it was not
    skipped: str = ""

    CSV_COLUMNS = "flows,identifiers,bytes_per_id,register_us,skipped"

    def csv_row(self) -> str:
        if self.skipped:
            return f"{self.flows},,,,{self.skipped}"
        return (
            f"{self.flows},{self.identifiers},{self.bytes_per_id:.1f},"
            f"{self.register_us:.1f},"
        )


def _build_table(flows: int, window: int) -> tuple[IdfDownlink, float]:
    """An ``IdfDownlink(window)`` of ``flows`` unicast flows announced at
    ``_TABLE_START_PN``, and the seconds spent in ``register``."""
    rng = random.Random(flows)
    table = IdfDownlink(window)
    spent = 0.0
    for i in range(flows):
        src = (0x020000000000 + i).to_bytes(6, "big")
        header = HeaderData(_DST, src, Sci(src, 1), 0)
        bidf = new_bidf(rng)
        t0 = time.perf_counter()
        table.register(bidf, header, _TABLE_START_PN)
        spent += time.perf_counter() - t0
    return table, spent


def _available_bytes() -> Optional[int]:
    """MemAvailable from ``/proc/meminfo``, or None where there is none."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def run_table_sweep(flow_counts: list[int], window: int = DEFAULT_WINDOW) -> list[TableResult]:
    """The identifier table alone at each flow count, in ascending order.

    Each count is built twice: once timed, for the register cost per
    flow, and once under tracemalloc, for the bytes each held identifier
    costs with its flow records (announced header, window, ring).  A
    count is skipped when its traced build, projected from the last
    measured bytes per identifier, would take more than half of the
    memory available.
    """
    results = []
    per_id = _TABLE_GUESS_BYTES
    for flows in sorted(flow_counts):
        available = _available_bytes()
        need = int(2 * flows * window * per_id)
        if available is not None and need > _TABLE_MEMORY_SHARE * available:
            results.append(TableResult(
                flows,
                skipped=f"needs about {need >> 20} MiB of {available >> 20} MiB available",
            ))
            continue
        gc.collect()
        table, spent = _build_table(flows, window)
        del table
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table, _ = _build_table(flows, window)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        per_id = grown / len(table.ids)
        results.append(TableResult(flows, len(table.ids), per_id, spent / flows * 1e6))
        del table
    return results


def table_csv(results: list[TableResult]) -> str:
    return "\n".join([TableResult.CSV_COLUMNS] + [r.csv_row() for r in results]) + "\n"


# -- command line: msec-bench ----------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="msec-bench", description="tunnel scheme benchmark"
    )
    parser.add_argument(
        "--schemes",
        default="naive,idf,enc,fullenc",
        help="comma-separated subset of naive,idf,enc,fullenc",
    )
    parser.add_argument("--sizes", default="64,256,1400", help="frame sizes to sweep")
    parser.add_argument(
        "--secs", type=float, default=10.0, help="time budget per size row"
    )
    parser.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    parser.add_argument("--out", default="-", help="CSV output path ('-' = stdout)")
    parser.add_argument(
        "--table-flows",
        help="comma-separated flow counts: measure the idf identifier table alone "
        "at each count instead of the scheme sweep",
    )
    args = parser.parse_args(argv)

    try:
        schemes = [Scheme(s.strip()) for s in args.schemes.split(",") if s.strip()]
    except ValueError as e:
        parser.error(f"--schemes: {e}")
    if not schemes:
        parser.error("--schemes: no scheme given")
    if args.window < 1:
        parser.error("--window: window size must be >= 1")
    if args.table_flows is not None:
        try:
            counts = [int(s) for s in args.table_flows.split(",") if s.strip()]
        except ValueError as e:
            parser.error(f"--table-flows: {e}")
        if not counts or min(counts) < 1:
            parser.error("--table-flows: flow counts must be integers >= 1")
        results = run_table_sweep(counts, args.window)
        csv = table_csv(results)
    else:
        try:
            sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
            results = run_bench(schemes, sizes, args.secs, args.window)
        except ValueError as e:
            parser.error(f"--sizes: {e}")
        csv = results_csv(results)
    if args.out == "-":
        sys.stdout.write(csv)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv)
        print(f"wrote {len(results)} rows to {args.out}", file=sys.stderr)
    return 0
