"""The library names perfbench's span tracer patches stay where it looks.

``perfbench/tracing.py`` wraps each ``(owner, attr)`` of its
``LAYER_FUNCTIONS`` by reading ``owner.__dict__[attr]``, so a method a
class only inherits, or one renamed or removed, fails only when a
traced run installs the tracer.  Some of those names look unused from
inside the library: the ``register``/``remove`` rebindings on
``IdfDownlink`` and ``EncTunnel`` and ``UplinkTable.entries``.
"""

import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_is_defined_on_its_owner():
    # run_path compiles the source without writing bytecode beside it
    layer_functions = runpy.run_path(str(TRACING))["LAYER_FUNCTIONS"]
    assert layer_functions
    missing = [
        span for owner, attr, span in layer_functions if attr not in vars(owner)
    ]
    assert missing == []
