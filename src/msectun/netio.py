"""Real-socket gateway runner.

Binds a UDP socket for the tunnel, a TCP listener for the management
channel, and a UDP socket pair as the tap-style LAN attachment (frames
in and out as raw datagram payloads).  Receive threads funnel every
event into one queue consumed by a single engine thread, preserving
the engine's single-writer contract.

The management channel is carried over plain TCP here; deploy it over
a VPN, it is modeled as a pre-authenticated link.  Messages leave only
on connections dialed to each peer's configured ``mgmt`` address.  A
dialed connection only sends, so one that has become readable was
closed by the peer: it is closed and the peer redialed before the next
message, which would otherwise be reported sent and lost.  An accepted
connection names its peer in a handshake that its own receive thread
reads, with a 1 s timeout, so a silent connection delays no other.
"""

from __future__ import annotations

import contextlib
import logging
import queue
import select
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


def _readable(conn: socket.socket) -> bool:
    """Whether ``conn`` has bytes, an end of stream or an error to read now.

    ``poll``, unlike ``select``, takes descriptors at or above FD_SETSIZE.
    """
    fd = conn.fileno()
    if fd < 0:  # closed by ``stop``: nothing can be written to it
        return True
    poller = select.poll()
    poller.register(fd, select.POLLIN)
    return bool(poller.poll(0))


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
        self._accepted: set[socket.socket] = set()
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
        if conn is not None and _readable(conn):
            # a dialed connection only sends, so a readable one was closed
            # by the peer: a write to it would be reported sent, then lost
            self._drop_mgmt(peer, conn)
            conn = None
        if conn is None:
            conn = self._connect_mgmt(peer)
            if conn is None:
                return False
            name = self.config.own_id.encode()
            data = struct.pack(">H", len(name)) + name + data
        try:
            conn.sendall(data)
            return True
        except OSError:
            self._drop_mgmt(peer, conn)
            return False

    def _drop_mgmt(self, peer: str, conn: socket.socket) -> None:
        with self._mgmt_lock:
            self._mgmt_conns.pop(peer, None)
        conn.close()

    def _emit_lan(self, frame: bytes) -> None:
        if self._lan_peer is not None:
            self._lan_sock.sendto(frame, self._lan_peer)

    def _connect_mgmt(self, peer: str):
        ep = self.peer_endpoints.get(peer)
        if ep is None or self._stop.is_set():
            return None
        try:
            conn = socket.create_connection(ep.mgmt, timeout=1.0)
        except OSError:
            return None
        with self._mgmt_lock:
            self._mgmt_conns[peer] = conn
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
            with self._mgmt_lock:
                self._accepted.add(conn)
            threading.Thread(target=self._mgmt_rx, args=(conn,), daemon=True).start()

    def _mgmt_rx(self, conn: socket.socket) -> None:
        decoder = StreamDecoder()
        try:
            # the name handshake is read here, not in ``_mgmt_accept``, so
            # a silent connection holds only its own thread, for at most 1 s
            conn.settimeout(1.0)
            (length,) = struct.unpack(">H", _recv_exact(conn, 2))
            peer = _recv_exact(conn, length).decode()
            conn.settimeout(None)
            while not self._stop.is_set():
                data = conn.recv(_BUF)
                if not data:
                    return
                for msg in decoder.feed(data):
                    self._events.put(("mgmt", msg, peer))
        except (OSError, UnicodeDecodeError, MgmtError):
            pass  # closed, a bad name, or a bad header the stream cannot be re-framed after
        finally:
            with self._mgmt_lock:
                self._accepted.discard(conn)
            conn.close()

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
            threading.Thread(target=target, daemon=True).start()

    def stop(self) -> None:
        self._stop.set()
        for sock in (self._tun_sock, self._lan_sock, self._mgmt_listener):
            try:
                sock.close()
            except OSError:
                pass
        with self._mgmt_lock:
            for conn in [*self._mgmt_conns.values(), *self._accepted]:
                # a shutdown, unlike a close, wakes a thread blocked in recv
                with contextlib.suppress(OSError):
                    conn.shutdown(socket.SHUT_RDWR)
                conn.close()

    @property
    def addresses(self) -> dict:
        return {
            "tunnel": self._tun_sock.getsockname(),
            "mgmt": self._mgmt_listener.getsockname(),
            "lan": self._lan_sock.getsockname(),
        }
