"""Two gateways wired back to back: in process, on a virtual clock, or
over loopback sockets through ``msectun.netio``.

Every pair is built only from the library's public constructors.  Side
"A" and side "B" each have one gateway.
"""

from __future__ import annotations

import heapq
import random
import socket
import threading
import time
from collections import Counter

from msectun.gateway import GatewayConfig, GatewayEngine, Scheme
from msectun.mgmt import MgmtKind
from msectun.netio import GatewayRunner, PeerEndpoints

from tracing import ANNOUNCE_TAG

SIDES = ("A", "B")
PEER = {"A": "B", "B": "A"}
# byte 3 of every management message is its kind (magic, version, kind, length)
_KIND_OFFSET = 3
_ANNOUNCE = int(MgmtKind.FLOW_ANNOUNCE)


class _Observed:
    """Bookkeeping shared by the in-process pairs' transport callbacks."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.mgmt_kinds: Counter = Counter()
        self.offered = {s: 0 for s in SIDES}
        self.pending_max = 0
        self.gw: dict[str, GatewayEngine] = {}

    def note_mgmt(self, own: str, data: bytes) -> None:
        kind = data[_KIND_OFFSET]
        self.mgmt_kinds[MgmtKind(kind).name] += 1
        if kind == _ANNOUNCE:
            if self.tracer is not None:
                self.tracer.tag_root(ANNOUNCE_TAG)
            # frames handed to this gateway but neither tunneled nor
            # dropped yet are waiting in its discovery queue
            st = self.gw[own].stats
            backlog = self.offered[own] - st.frames_tunneled - st.dropped()
            self.pending_max = max(self.pending_max, backlog)


def _config(own: str, scheme: Scheme, **kw) -> GatewayConfig:
    return GatewayConfig(own_id=own, peers=[PEER[own]], scheme=scheme, **kw)


class SyncPair(_Observed):
    """Synchronous delivery: the peer's downlink runs inside the sender's
    transport callback, so one ``on_lan_frame`` call carries a frame from
    LAN ingress at one gateway to LAN egress at the other."""

    def __init__(self, scheme: Scheme, seed: int, tracer=None, **config):
        super().__init__(tracer)
        self.now = 0
        self.sink: dict[str, list[bytes]] = {s: [] for s in SIDES}
        for own in SIDES:
            self.gw[own] = self._engine(own, scheme, seed, config)

    def _engine(self, own: str, scheme: Scheme, seed: int, config: dict) -> GatewayEngine:
        gws = self.gw

        def send_tunnel(peer: str, datagram: bytes) -> None:
            gws[peer].on_tunnel_datagram(datagram, own, self.now)

        def send_mgmt(peer: str, data: bytes) -> bool:
            self.note_mgmt(own, data)
            gws[peer].on_mgmt_bytes(data, own, self.now)
            return True

        return GatewayEngine(
            _config(own, scheme, **config),
            send_tunnel,
            send_mgmt,
            self.sink[own].append,
            rng=random.Random(f"{seed}|{own}"),
        )

    def ingress(self, side: str, raw: bytes) -> None:
        self.offered[side] += 1
        self.now += 1
        self.gw[side].on_lan_frame(raw, self.now)


class DelayedPair(_Observed):
    """Virtual-clock delivery: tunnel datagrams arrive ``delay_us`` after
    they were sent, management messages at once (after the current
    handler returns, as in ``msectun.simnet``), and each gateway's timer
    fires every ``timer_us``.

    ``delivered`` lists each frame put onto a LAN with the duration of
    the downlink call that delivered it; ``handler_ns`` sums the
    duration of every handler call the pair made.
    """

    def __init__(self, scheme: Scheme, seed: int, delay_us: int, timer_us: int,
                 tracer=None, **config):
        super().__init__(tracer)
        self.now = 0
        self.delay_us = delay_us
        self.timer_us = timer_us
        self._events: list = []
        self._seq = 0
        self.delivered: list[tuple[bytes, int]] = []
        self.handler_ns = 0
        self._emitted: list[bytes] = []
        for own in SIDES:
            self.gw[own] = self._engine(own, scheme, seed, config)
            self._push(timer_us, "timer", own, b"")

    def _push(self, when: int, kind: str, target: str, data: bytes) -> None:
        heapq.heappush(self._events, (when, self._seq, kind, target, data))
        self._seq += 1

    def _engine(self, own: str, scheme: Scheme, seed: int, config: dict) -> GatewayEngine:
        def send_tunnel(peer: str, datagram: bytes) -> None:
            self._push(self.now + self.delay_us, "tun", peer, datagram)

        def send_mgmt(peer: str, data: bytes) -> bool:
            self.note_mgmt(own, data)
            self._push(self.now, "mgmt", peer, data)
            return True

        return GatewayEngine(
            _config(own, scheme, **config),
            send_tunnel,
            send_mgmt,
            self._emitted.append,
            rng=random.Random(f"{seed}|{own}"),
        )

    def run_until(self, when: int) -> None:
        """Process every event due at or before ``when``."""
        events = self._events
        gws = self.gw
        emitted = self._emitted
        clock = time.perf_counter_ns
        while events and events[0][0] <= when:
            at, _, kind, target, data = heapq.heappop(events)
            self.now = at
            gw = gws[target]
            t0 = clock()
            if kind == "tun":
                gw.on_tunnel_datagram(data, PEER[target], at)
            elif kind == "mgmt":
                gw.on_mgmt_bytes(data, PEER[target], at)
            else:
                gw.on_timer(at)
                self._push(at + self.timer_us, "timer", target, b"")
            dur = clock() - t0
            self.handler_ns += dur
            if emitted:
                self.delivered.extend((frame, dur) for frame in emitted)
                emitted.clear()
        self.now = max(self.now, when)

    def ingress(self, side: str, raw: bytes, when: int) -> int:
        """Send one frame at virtual time ``when``; returns the call's ns."""
        self.run_until(when)
        self.offered[side] += 1
        t0 = time.perf_counter_ns()
        self.gw[side].on_lan_frame(raw, when)
        dur = time.perf_counter_ns() - t0
        self.handler_ns += dur
        return dur

    def drain(self) -> None:
        """Deliver everything still in flight (timers keep their schedule)."""
        while any(kind != "timer" for _, _, kind, _, _ in self._events):
            self.run_until(self._events[0][0])


def _free_ports(kinds: list[int]) -> list[int]:
    """Distinct free ports on 127.0.0.1, one per socket type given.

    The probe sockets stay open until every port is chosen, so no port
    is handed out twice.
    """
    probes = [socket.socket(socket.AF_INET, kind) for kind in kinds]
    try:
        for s in probes:
            s.bind(("127.0.0.1", 0))
        return [s.getsockname()[1] for s in probes]
    finally:
        for s in probes:
            s.close()


class UdpPair:
    """Two ``GatewayRunner``s over 127.0.0.1, with a device socket on
    each LAN.  Frames enter at A's LAN socket and leave at B's."""

    def __init__(self, scheme: Scheme):
        keys = [(side, key) for side in SIDES for key in ("tun", "mgmt", "lan")]
        found = _free_ports(
            [socket.SOCK_STREAM if key == "mgmt" else socket.SOCK_DGRAM for _, key in keys]
        )
        ports = {side: {} for side in SIDES}
        for (side, key), port in zip(keys, found):
            ports[side][key] = port
        self.device = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.device.bind(("127.0.0.1", 0))
        self.sink = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sink.bind(("127.0.0.1", 0))
        self.sink.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
        self._threads_before = set(threading.enumerate())
        self._threads: set[threading.Thread] = set()
        self.runners: dict[str, GatewayRunner] = {}
        self.addr = {
            side: {k: ("127.0.0.1", p) for k, p in ports[side].items()} for side in SIDES
        }
        for own in SIDES:
            peer = PEER[own]
            self.runners[own] = GatewayRunner(
                _config(own, scheme),
                tun_listen=self.addr[own]["tun"],
                mgmt_listen=self.addr[own]["mgmt"],
                lan_listen=self.addr[own]["lan"],
                lan_peer=self.sink.getsockname() if own == "B" else None,
                peer_endpoints={
                    peer: PeerEndpoints(
                        tunnel=self.addr[peer]["tun"], mgmt=self.addr[peer]["mgmt"]
                    )
                },
            )
        for runner in self.runners.values():
            runner.start()
        self.lan_in = self.addr["A"]["lan"]

    @property
    def engines(self) -> dict[str, GatewayEngine]:
        return {side: r.engine for side, r in self.runners.items()}

    def claim_threads(self) -> None:
        """Record the threads this pair started so far as its own.

        Call once traffic has flowed (the management connections, and
        their threads, open on first use) and before another pair starts.
        """
        self._threads = set(threading.enumerate()) - self._threads_before

    def stop(self) -> None:
        """Stop both runners and close the device sockets.

        A receive thread blocked in ``recvfrom`` or ``accept`` does not
        wake when its socket is closed, so each listening address gets
        one wake-up datagram or connection after the stop.
        """
        for runner in self.runners.values():
            runner.stop()
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
            for side in SIDES:
                for key in ("tun", "lan"):
                    s.sendto(b"", self.addr[side][key])
        for side in SIDES:
            try:
                socket.create_connection(self.addr[side]["mgmt"], timeout=0.05).close()
            except OSError:
                pass
        self.device.close()
        self.sink.close()

    def join(self, deadline: float) -> bool:
        """Wait until ``time.monotonic()`` reaches ``deadline`` for the
        pair's threads; True when all of them ended.  A management
        receive thread can take up to the runner's 1 s connect timeout,
        which its socket keeps, to notice the stop."""
        for t in self._threads:
            t.join(max(0.0, deadline - time.monotonic()))
        return not any(t.is_alive() for t in self._threads)
