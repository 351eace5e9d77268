"""The library names perfbench uses stay where it looks for them.

``perfbench/tracing.py`` wraps each ``(owner, attr)`` of its
``LAYER_FUNCTIONS`` by reading ``owner.__dict__[attr]``, so a method a
class only inherits, or one renamed or removed, fails only when a
traced run installs the tracer.  Some of those names look unused from
inside the library: the ``register``/``remove`` rebindings on
``IdfDownlink`` and ``EncTunnel`` and ``UplinkTable.entries``.

The judged workloads also run here at toy size, so that a rename of an
engine attribute perfbench reads fails the suite, not only the benchmark;
a traced run of each also fails when a scheme method the tracer wraps is
no longer on a frame's path, which would leave its layer metric at 0.
"""

import importlib
import runpy
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_is_defined_on_its_owner():
    # run_path compiles the source without writing bytecode beside it
    layer_functions = runpy.run_path(str(TRACING))["LAYER_FUNCTIONS"]
    assert layer_functions
    missing = [
        span for owner, attr, span in layer_functions if attr not in vars(owner)
    ]
    assert missing == []


BENCH = TRACING.parent
BENCH_MODULES = ("gen", "pairs", "report", "tracing", "workloads")


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's ``workloads`` and ``report``, imported as its own tests
    import them, without writing bytecode under ``perfbench/``."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    yield importlib.import_module("workloads"), importlib.import_module("report")
    for name in BENCH_MODULES:
        sys.modules.pop(name, None)


def _toy_runs(workloads, name, tracer=None):
    """A judged workload's runs at toy size, as ``perfbench/tests`` shrinks
    it, after its gates pass."""
    wl = getattr(workloads, name)(3)
    if isinstance(wl, workloads.Imix4kFlows):
        wl.SAS_PER_SIDE = 24
    wl.setup_repeats = min(wl.setup_repeats, 2)
    gate = workloads.Gate()
    runs = workloads.run_workload(wl, 0.6, gate, tracer, slices=3)
    assert gate.failures == []
    return runs


@pytest.mark.parametrize("name", ["Small1Flow", "Imix4kFlows"])
def test_judged_workloads_pass_their_gates(perfbench, name):
    """The benchmark's judged workloads at toy size: the engine attributes
    they read are still there."""
    workloads, report = perfbench
    assert report.end_to_end(_toy_runs(workloads, name))["deliver_frac"][0] == 1.0


@pytest.mark.parametrize("name", ["Small1Flow", "Imix4kFlows"])
def test_traced_judged_workloads_time_each_scheme_method(perfbench, name):
    """A traced toy run finds every scheme method the tracer wraps on the
    path each frame takes, and the exact crypto counts per frame."""
    workloads, report = perfbench
    runs = _toy_runs(workloads, name, importlib.import_module("tracing").Tracer())
    metrics = report.per_layer(runs, udp=False)
    timed = (
        "idf.encode_self_us", "idf.decode_self_us", "enc.encode_self_us", "enc.decode_self_us",
        "fullenc.encode_us", "fullenc.decode_us", "aes.decrypt_us",
    )
    assert [m for m in timed if not metrics[m][0] > 0] == []
    assert metrics["enc.blocks_per_frame"][0] == 4
    assert metrics["idf.hashes_per_frame"][0] >= 2
