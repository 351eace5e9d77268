"""Real-socket gateway runner.

Binds a UDP socket for the tunnel, a TCP listener for the management
channel, and a UDP socket pair as the tap-style LAN attachment (frames
in and out as raw datagram payloads).  One thread waits on every socket
with a selector and calls the engine for each input in turn, so the
engine has a single writer and no queue or lock stands between them.

The management channel is carried over plain TCP here; deploy it over
a VPN, it is modeled as a pre-authenticated link.  Messages leave only
on connections dialed to each peer's configured ``mgmt`` address.  A
dialed connection only sends, so one that has become readable was
closed by the peer: it is closed and the peer redialed before the next
message, which would otherwise be reported sent and lost.  An accepted
connection names its peer in a handshake that is buffered as it
arrives; one that has not named itself within 1 s is closed, and a
silent connection delays no other.
"""

from __future__ import annotations

import select
import selectors
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

from .gateway import GatewayConfig, GatewayEngine
from .mgmt import MgmtError, StreamDecoder

_BUF = 65600


def _now_us() -> int:
    return time.monotonic_ns() // 1000


def parse_hostport(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    return host or "127.0.0.1", int(port)


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


@dataclass(eq=False)
class _Accepted:
    """What the loop knows of one accepted management connection."""

    deadline: float  # monotonic time by which it must have named its peer
    head: bytes = b""  # the name handshake so far, until it is complete
    peer: str | None = None
    decoder: StreamDecoder = field(default_factory=StreamDecoder)


class GatewayRunner:
    """Owns the sockets and the one thread that serves them for a gateway."""

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
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.stats_interval_s = stats_interval_s
        self.stats_sink = stats_sink

        # UDP reads take MSG_DONTWAIT; a send waits for buffer space rather than raise
        self._tun_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._tun_sock.bind(tun_listen)
        self._lan_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._lan_sock.bind(lan_listen)
        self._lan_peer = lan_peer
        self._mgmt_listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._mgmt_listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._mgmt_listener.bind(mgmt_listen)
        self._mgmt_listener.listen(8)
        self._mgmt_listener.setblocking(False)

        self._addr_to_peer = {
            ep.tunnel: peer for peer, ep in peer_endpoints.items()
        }
        self._mgmt_conns: dict[str, socket.socket] = {}
        self._accepted: dict[socket.socket, _Accepted] = {}
        # each key's data is (rank, handler): in one wake-up the listener and
        # the connections go first, then LAN, then tunnel, so an announcement
        # sent before its flow's first datagram is taken before it
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._mgmt_listener, selectors.EVENT_READ, (0, self._accept))
        self._selector.register(self._lan_sock, selectors.EVENT_READ, (2, self._read_lan))
        self._selector.register(self._tun_sock, selectors.EVENT_READ, (3, self._read_tun))

        self.engine = GatewayEngine(
            config,
            send_tunnel=self._send_tunnel,
            send_mgmt=self._send_mgmt,
            emit_lan=self._emit_lan,
        )

    # -- transport callbacks -------------------------------------------------

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
        self._mgmt_conns[peer] = conn
        return conn

    # -- the loop and its inputs: a read error ends only that input -----------

    def _read_tun(self, sock: socket.socket) -> None:
        try:
            data, addr = sock.recvfrom(_BUF, socket.MSG_DONTWAIT)
        except OSError:
            return
        peer = self._addr_to_peer.get(addr, f"{addr[0]}:{addr[1]}")
        self.engine.on_tunnel_datagram(data, peer, _now_us())

    def _read_lan(self, sock: socket.socket) -> None:
        try:
            data = sock.recv(_BUF, socket.MSG_DONTWAIT)
        except OSError:
            return
        self.engine.on_lan_frame(data, _now_us())

    def _accept(self, listener: socket.socket) -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            conn.setblocking(False)
            self._accepted[conn] = _Accepted(time.monotonic() + 1.0)
            self._selector.register(conn, selectors.EVENT_READ, (1, self._read_mgmt))
            # bytes the peer sent before it is accepted precede any later input
            self._read_mgmt(conn)

    def _read_mgmt(self, conn: socket.socket) -> None:
        rec = self._accepted[conn]
        try:
            data = conn.recv(_BUF)
            if not data:
                raise ConnectionError("closed by the peer")
            if rec.peer is None:
                rec.head += data
                # a 2-byte length, then the name; one byte in puts ``end`` past it
                end = 2 + int.from_bytes(rec.head[:2], "big")
                if len(rec.head) < end:
                    return
                rec.peer = rec.head[2:end].decode()
                data, rec.head = rec.head[end:], b""
            msgs = rec.decoder.feed(data)
        except BlockingIOError:
            pass  # nothing sent yet
        except (OSError, UnicodeDecodeError, MgmtError):
            # closed, a bad name, or a bad header the stream cannot be re-framed after
            self._close_accepted(conn)
        else:
            for msg in msgs:
                self.engine.on_mgmt_bytes(msg, rec.peer, _now_us())

    def _close_accepted(self, conn: socket.socket) -> None:
        self._selector.unregister(conn)
        del self._accepted[conn]
        conn.close()

    def _loop(self) -> None:
        next_timer = _now_us() + 1_000_000
        next_stats = (
            time.monotonic() + self.stats_interval_s if self.stats_interval_s else None
        )
        first_stats = True
        while not self._stop.is_set():
            ready = self._selector.select(0.1)
            for key, _ in sorted(ready, key=lambda item: item[0].data[0]):
                key.data[1](key.fileobj)
            clock = time.monotonic()
            for conn, rec in list(self._accepted.items()):
                if rec.peer is None and clock >= rec.deadline:
                    self._close_accepted(conn)
            now = _now_us()
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
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
        self._selector.close()
        for sock in (self._tun_sock, self._lan_sock, self._mgmt_listener,
                     *self._mgmt_conns.values(), *self._accepted):
            sock.close()

    @property
    def addresses(self) -> dict:
        return {
            "tunnel": self._tun_sock.getsockname(),
            "mgmt": self._mgmt_listener.getsockname(),
            "lan": self._lan_sock.getsockname(),
        }
