"""Median time per call of the SipHash-2-4 primitives.

Times, in one process and interleaved so that host drift lands on every
primitive alike:

- ``idf.derive_ridf``, one identifier;
- ``idf.derive_ridfs`` at window 64, per identifier;
- ``siphash.siphash24`` on a 16-byte message.

It imports whichever ``msectun`` is first on the path, so the same
command times two trees:

    PYTHONPATH=src python3 tools/time_primitives.py
"""

import random
import statistics
import time

from msectun.idf import derive_ridf, derive_ridfs
from msectun.siphash import siphash24

WINDOW = 64
ROUNDS = 11  # interleaved rounds; the median is taken over these
CALLS = 50_000  # calls per primitive per round


def _cases():
    """(name, identifiers per call, zero-argument callable) per primitive."""
    rng = random.Random(22)
    bidf, key, msg = rng.randbytes(16), rng.randbytes(16), rng.randbytes(16)
    pns = list(range(1, WINDOW + 1))

    def one():
        for pn in range(1, CALLS + 1):
            derive_ridf(bidf, pn)

    def window():
        for _ in range(CALLS // WINDOW):
            derive_ridfs(bidf, pns)

    def scalar():
        for _ in range(CALLS):
            siphash24(key, msg)

    return [
        ("idf.derive_ridf", CALLS, one),
        (f"idf.derive_ridfs@{WINDOW} (per identifier)", CALLS // WINDOW * WINDOW, window),
        ("siphash24 16 B", CALLS, scalar),
    ]


def main() -> None:
    cases = _cases()
    samples = {name: [] for name, _, _ in cases}
    for _ in range(ROUNDS):
        for name, count, run in cases:
            t0 = time.perf_counter_ns()
            run()
            samples[name].append((time.perf_counter_ns() - t0) / count / 1000)
    for name, _, _ in cases:
        print(f"{name:40s} {statistics.median(samples[name]):8.3f} us/call")


if __name__ == "__main__":
    main()
