"""msectun benchmark: per-scheme throughput, latency and per-layer costs.

Run from the repository root:

    python3 perfbench/run.py --workload small-1flow --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (plus what the tracing cost).  Each metric is
printed on its own line with its unit and sample count; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any failed correctness
check is named on standard error and makes the exit code 1.

The library is imported from ``src/`` of the checkout this file sits in,
never from an installed copy; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")


def _import_library():
    if not os.path.isfile(os.path.join(SRC, "msectun", "__init__.py")):
        print(f"error: no msectun sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import msectun

    if not os.path.abspath(msectun.__file__).startswith(SRC + os.sep):
        print(f"error: msectun imported from {msectun.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return msectun


def _git_commit() -> str:
    # only the checkout's own repository; never search parent directories
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def provenance(args) -> dict:
    import cryptography

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "commit": _git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    prov = provenance(args)  # load average before any work

    _import_library()
    # imported only once the library path is settled
    from gen import check_sealer
    from report import end_to_end, per_layer
    from tracing import Tracer
    from workloads import WORKLOADS, Gate, UdpLoopback, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)
    gate = Gate()
    gate.check("sealer_matches_endpoint_protect", check_sealer(args.seed))
    tracer = Tracer() if args.trace else None
    runs = run_workload(wl, args.seconds, gate, tracer)

    print("provenance " + json.dumps(prov, sort_keys=True))
    for run in runs:
        print(f"{wl.name} {run.scheme.value}: setup_s={statistics.median(run.setup_s):.4f} "
              f"setup_delivered={run.setup_delivered}/{run.setup_frames} "
              f"offered={run.offered} delivered={run.delivered} "
              f"fail_frac={run.lost / run.offered if run.offered else 0:.6f} "
              f"({run.lost} of {run.offered}) drops={run.stats_end.get('dropped', 0)} "
              + " ".join(f"{k}={v}" for k, v in sorted(run.stats_end.items())
                         if k.startswith("drop_")))
    if args.trace:
        metrics = per_layer(runs, udp=isinstance(wl, UdpLoopback))
        notes = {}
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{wl.name}-{args.seed}.csv")
        written = tracer.write_spans(path)
        print(f"spans: {written} written to {os.path.relpath(path, ROOT)}")
    else:
        e2e = end_to_end(runs)
        metrics = {k: (v, unit) for k, (v, unit, _) in e2e.items()}
        notes = {k: note for k, (_, _, note) in e2e.items()}
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"{name} = {value:.6g} {unit}" + (f"  [{note}]" if note else ""))

    attempted = sum(r.offered for r in runs)
    failed = sum(r.lost for r in runs)
    for failure in gate.failures:
        print(f"CHECK FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not gate.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": unit} for k, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not gate.failures else 1


if __name__ == "__main__":
    sys.exit(main())
