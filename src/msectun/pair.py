"""In-process gateway wiring and MACsec frame sealing.

``EnginePair`` wires gateway engines to each other with synchronous
calls: no sockets, no simulated time, every datagram delivered before
the sending call returns.  ``seal`` produces the wire bytes a MACsec
endpoint transmits.  The test suite and ``msec-bench`` drive engines
through the first; they and ``simnet``'s devices seal through the
second.
"""

from __future__ import annotations

import random

from .flow import DEFAULT_WINDOW
from .frame import PlainFrame, Sci, build_macsec, endpoint_protect
from .gateway import GatewayConfig, GatewayEngine, Scheme


def seal(
    key: bytes,
    dst: bytes,
    src: bytes,
    sci: Sci,
    pn: int,
    payload: bytes = b"\x00" * 40,
    an: int = 0,
    ethertype: int = 0x0800,
) -> bytes:
    """Wire bytes of one frame as the endpoint ``sci`` protects it."""
    plain = PlainFrame(dst=dst, src=src, ethertype=ethertype, payload=payload)
    return build_macsec(endpoint_protect(plain, key, sci, an, pn))


class EnginePair:
    """Engines wired synchronously in a full mesh; LAN emissions collected.

    ``names`` are the gateway ids, ``"A"`` and ``"B"`` by default; ``a``
    and ``b`` are the first two engines.  ``transit`` may be set to a
    callable (datagram) -> datagram | None to mutate or drop tunnel
    traffic in flight; ``captured`` records every datagram as sent,
    before any mutation.
    """

    def __init__(
        self, scheme: Scheme, window: int = DEFAULT_WINDOW, seed: int = 1, names=("A", "B"), **cfg_kw
    ):
        self.emitted = {own: [] for own in names}
        self.captured: list[tuple[str, str, bytes]] = []
        self.transit = None
        self.gws: dict[str, GatewayEngine] = {}
        rng = random.Random(seed)
        for own in names:
            peers = [p for p in names if p != own]

            def send_tunnel(p, dg, own=own):
                self.captured.append((own, p, dg))
                if self.transit is not None:
                    dg = self.transit(dg)
                    if dg is None:
                        return
                self.gws[p].on_tunnel_datagram(dg, own, now=self.now)

            def send_mgmt(p, data, own=own):
                self.gws[p].on_mgmt_bytes(data, own, now=self.now)
                return True

            def emit(frame, own=own):
                self.emitted[own].append(frame)

            self.gws[own] = GatewayEngine(
                GatewayConfig(own_id=own, peers=peers, scheme=scheme, window=window, **cfg_kw),
                send_tunnel,
                send_mgmt,
                emit,
                rng=rng,
            )
        self.now = 0
        self.a = self.gws[names[0]]
        self.b = self.gws[names[1]]

    def lan_a(self, raw: bytes, now: int | None = None):
        if now is not None:
            self.now = now
        self.a.on_lan_frame(raw, self.now)

    def lan_b(self, raw: bytes, now: int | None = None):
        if now is not None:
            self.now = now
        self.b.on_lan_frame(raw, self.now)
