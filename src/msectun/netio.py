"""Real-socket gateway runner.

Binds a UDP socket for the tunnel, a TCP listener for the management
channel, and a UDP socket pair as the tap-style LAN attachment (frames
in and out as raw datagram payloads).  Receive threads funnel every
event into one queue consumed by a single engine thread, preserving
the engine's single-writer contract.

The management channel is carried over plain TCP here; deploy it over
a VPN, it is modeled as a pre-authenticated link.
"""

from __future__ import annotations

import logging
import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass

from .gateway import GatewayConfig, GatewayEngine
from .mgmt import MgmtError, StreamDecoder

log = logging.getLogger(__name__)

_BUF = 65600


def _now_us() -> int:
    return time.monotonic_ns() // 1000


def parse_hostport(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    return host or "127.0.0.1", int(port)


def _recv_exact(conn: socket.socket, n: int) -> bytes:
    data = b""
    while len(data) < n:
        chunk = conn.recv(n - len(data))
        if not chunk:
            raise ConnectionError("closed during the handshake")
        data += chunk
    return data


@dataclass
class PeerEndpoints:
    tunnel: tuple[str, int]
    mgmt: tuple[str, int]


class GatewayRunner:
    """Owns the sockets and the engine thread for one gateway."""

    def __init__(
        self,
        config: GatewayConfig,
        tun_listen: tuple[str, int],
        mgmt_listen: tuple[str, int],
        lan_listen: tuple[str, int],
        lan_peer: tuple[str, int] | None,
        peer_endpoints: dict[str, PeerEndpoints],
        stats_interval_s: float = 0.0,
        stats_sink=print,
    ):
        self.config = config
        self.peer_endpoints = peer_endpoints
        self._events: queue.Queue = queue.Queue()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self.stats_interval_s = stats_interval_s
        self.stats_sink = stats_sink

        self._tun_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._tun_sock.bind(tun_listen)
        self._lan_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._lan_sock.bind(lan_listen)
        self._lan_peer = lan_peer
        self._mgmt_listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._mgmt_listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._mgmt_listener.bind(mgmt_listen)
        self._mgmt_listener.listen(8)

        self._addr_to_peer = {
            ep.tunnel: peer for peer, ep in peer_endpoints.items()
        }
        self._mgmt_conns: dict[str, socket.socket] = {}
        self._mgmt_lock = threading.Lock()

        self.engine = GatewayEngine(
            config,
            send_tunnel=self._send_tunnel,
            send_mgmt=self._send_mgmt,
            emit_lan=self._emit_lan,
        )

    # -- transport callbacks (engine thread) --------------------------------

    def _send_tunnel(self, peer: str, datagram: bytes) -> None:
        ep = self.peer_endpoints.get(peer)
        if ep is not None:
            self._tun_sock.sendto(datagram, ep.tunnel)

    def _send_mgmt(self, peer: str, data: bytes) -> bool:
        conn = self._mgmt_conns.get(peer)
        if conn is None:
            conn = self._connect_mgmt(peer)
            if conn is None:
                return False
        try:
            conn.sendall(data)
            return True
        except OSError:
            with self._mgmt_lock:
                self._mgmt_conns.pop(peer, None)
            return False

    def _emit_lan(self, frame: bytes) -> None:
        if self._lan_peer is not None:
            self._lan_sock.sendto(frame, self._lan_peer)

    def _connect_mgmt(self, peer: str):
        ep = self.peer_endpoints.get(peer)
        if ep is None:
            return None
        try:
            conn = socket.create_connection(ep.mgmt, timeout=1.0)
        except OSError:
            return None
        conn.sendall(struct.pack(">H", len(self.config.own_id)) + self.config.own_id.encode())
        with self._mgmt_lock:
            self._mgmt_conns[peer] = conn
        t = threading.Thread(target=self._mgmt_rx, args=(conn, peer), daemon=True)
        t.start()
        self._threads.append(t)
        return conn

    # -- receive threads -----------------------------------------------------

    def _tun_rx(self) -> None:
        while not self._stop.is_set():
            try:
                data, addr = self._tun_sock.recvfrom(_BUF)
            except OSError:
                return
            peer = self._addr_to_peer.get(addr, f"{addr[0]}:{addr[1]}")
            self._events.put(("tun", data, peer))

    def _lan_rx(self) -> None:
        while not self._stop.is_set():
            try:
                data, _ = self._lan_sock.recvfrom(_BUF)
            except OSError:
                return
            self._events.put(("lan", data, ""))

    def _mgmt_accept(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._mgmt_listener.accept()
            except OSError:
                return
            try:
                conn.settimeout(1.0)  # a silent peer must not block the next one
                (length,) = struct.unpack(">H", _recv_exact(conn, 2))
                name = _recv_exact(conn, length).decode()
                conn.settimeout(None)
            except (OSError, UnicodeDecodeError):
                conn.close()
                continue
            with self._mgmt_lock:
                self._mgmt_conns.setdefault(name, conn)
            t = threading.Thread(target=self._mgmt_rx, args=(conn, name), daemon=True)
            t.start()
            self._threads.append(t)

    def _mgmt_rx(self, conn: socket.socket, peer: str) -> None:
        decoder = StreamDecoder()
        while not self._stop.is_set():
            try:
                data = conn.recv(_BUF)
            except OSError:
                return
            if not data:
                return
            try:
                msgs = decoder.feed(data)
            except MgmtError:
                return  # the stream cannot be re-framed after a bad header
            for msg in msgs:
                self._events.put(("mgmt", msg, peer))

    # -- engine thread ---------------------------------------------------------

    def _engine_loop(self) -> None:
        next_timer = _now_us() + 1_000_000
        next_stats = (
            time.monotonic() + self.stats_interval_s if self.stats_interval_s else None
        )
        first_stats = True
        while not self._stop.is_set():
            try:
                kind, data, peer = self._events.get(timeout=0.1)
            except queue.Empty:
                kind = None
            now = _now_us()
            if kind == "lan":
                self.engine.on_lan_frame(data, now)
            elif kind == "tun":
                self.engine.on_tunnel_datagram(data, peer, now)
            elif kind == "mgmt":
                self.engine.on_mgmt_bytes(data, peer, now)
            if now >= next_timer:
                self.engine.on_timer(now)
                next_timer = now + 1_000_000
            if next_stats is not None and time.monotonic() >= next_stats:
                stats = self.engine.snapshot_stats().as_dict()
                if first_stats:
                    self.stats_sink(",".join(stats))
                    first_stats = False
                self.stats_sink(",".join(str(v) for v in stats.values()))
                next_stats = time.monotonic() + self.stats_interval_s

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        for target in (self._tun_rx, self._lan_rx, self._mgmt_accept, self._engine_loop):
            t = threading.Thread(target=target, daemon=True)
            t.start()
            self._threads.append(t)

    def stop(self) -> None:
        self._stop.set()
        for sock in (self._tun_sock, self._lan_sock, self._mgmt_listener):
            try:
                sock.close()
            except OSError:
                pass
        with self._mgmt_lock:
            for conn in self._mgmt_conns.values():
                try:
                    conn.close()
                except OSError:
                    pass

    @property
    def addresses(self) -> dict:
        return {
            "tunnel": self._tun_sock.getsockname(),
            "mgmt": self._mgmt_listener.getsockname(),
            "lan": self._lan_sock.getsockname(),
        }
