"""Tunnel gateway engine.

Classifies LAN ingress into flows, runs discovery over the management
channel, encodes frames with the configured scheme, and reconstructs
tunnel traffic back onto the LAN.  The engine is transport-agnostic:
callers wire in callbacks for the tunnel socket, the management
channel, and the LAN attachment, and drive every handler from a single
pipeline (single-writer; no internal locking).  The data plane never
raises: every rejected input lands in a named drop counter.
"""

from __future__ import annotations

import enum
import hashlib
import logging
import random
import secrets as _secrets
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional

from . import encap, enc as enc_mod, frame as fr, fullenc as fullenc_mod, idf as idf_mod, mgmt
from .enc import MIN_FRAME as ENC_MIN_FRAME, EncTunnel, PairKeys
from .flow import (
    DEFAULT_FLOW_TIMEOUT_US,
    DEFAULT_WINDOW,
    DecodeResult,
    DownlinkFlows,
    HeaderData,
    UplinkCast,
    UplinkFlowEntry,
    UplinkTable,
    new_bidf,
)
from .frame import BROADCAST_MAC, is_broadcast
from .fullenc import PREFIX_LEN, FullEncTunnel
from .idf import IdfDownlink

log = logging.getLogger(__name__)

# Every reason a drop or warning counter can carry, declared once so that
# ``GatewayStats.as_dict`` keeps one schema from the first snapshot on:
# the gateway's own drop names plus the codecs' ``REASON_*`` constants.
DROP_REASONS = tuple(
    sorted(
        {
            "decap_error", "mgmt_malformed", "mka_buffer_overflow", "not_macsec",
            "parse_error", "scheme_mismatch", "too_large", "too_short_for_scheme",
            "unknown_peer", "unregistered_queue_overflow", "unsupported_shape", "zero_pn",
        }
        | {
            value
            for module in (idf_mod, enc_mod, fullenc_mod)
            for name, value in vars(module).items()
            if name.startswith("REASON_")
        }
    )
)
WARNING_REASONS = ("learned_conflict", "unicast_dst_change")

# frames of one flow that wait for its announcement; the oldest is shed
QUEUE_LIMIT = 128
# key-agreement frames held per peer while its management channel refuses
MKA_SLOTS = 16
HELLO_INTERVAL_US = 5_000_000


class Scheme(enum.Enum):
    NAIVE = "naive"
    IDF = "idf"
    ENC = "enc"
    FULLENC = "fullenc"


@dataclass
class GatewayConfig:
    own_id: str
    peers: list[str]
    scheme: Scheme = Scheme.IDF
    window: int = DEFAULT_WINDOW
    flow_timeout_us: int = DEFAULT_FLOW_TIMEOUT_US
    mtu: int = encap.DEFAULT_MTU
    # shared secret per peer for the encrypting schemes; directional
    # keys are derived from it
    pair_secrets: dict[str, bytes] = field(default_factory=dict)

    def __post_init__(self):
        if isinstance(self.scheme, str):
            self.scheme = Scheme(self.scheme)
        if not self.peers:
            raise ValueError("a gateway needs at least one peer")
        if self.own_id in self.peers:
            raise ValueError("own id listed as peer")
        if self.window < 1:
            raise ValueError("window size must be >= 1")


@dataclass
class GatewayStats:
    frames_tunneled: int = 0
    frames_reconstructed: int = 0
    datagrams_sent: int = 0
    datagrams_received: int = 0
    bytes_lan_in: int = 0
    bytes_lan_out: int = 0
    bytes_tun_in: int = 0
    bytes_tun_out: int = 0
    mka_forwarded: int = 0
    hash_calls_uplink: int = 0
    hash_calls_downlink: int = 0
    block_ops_uplink: int = 0
    block_ops_downlink: int = 0
    ridf_collisions: int = 0
    drops: Counter = field(default_factory=Counter)
    warnings: Counter = field(default_factory=Counter)

    def dropped(self) -> int:
        return sum(self.drops.values())

    def as_dict(self) -> dict:
        out = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("drops", "warnings")
        }
        out.update(_counts("drop", self.drops, DROP_REASONS))
        out.update(_counts("warn", self.warnings, WARNING_REASONS))
        return out


def _counts(prefix: str, counter: Counter, declared: tuple[str, ...]) -> dict:
    """Every declared reason, 0 until it fires."""
    return {f"{prefix}_{reason}": counter[reason] for reason in declared}


def _count(counter: Counter, declared: tuple[str, ...], reason: str, n: int) -> None:
    """Count ``reason``, which must be declared so the stats schema holds."""
    if reason not in declared:
        raise ValueError(f"undeclared reason {reason!r}")
    counter[reason] += n


def _directional_key(secret: bytes, sender: str) -> bytes:
    return hashlib.sha256(secret + b"|dir|" + sender.encode()).digest()[:16]


def _default_pair_secret(a: str, b: str) -> bytes:
    # lab fallback when no secret is configured; not for production use
    lo, hi = sorted((a, b))
    return hashlib.sha256(f"msectun-lab|{lo}|{hi}".encode()).digest()


@dataclass(eq=False)
class Peer:
    """One configured peer: the scheme's state for each direction, the
    management messages it has not taken yet and when its last HELLO came."""

    name: str
    send: object
    recv: object
    outbox: dict[tuple, mgmt.MgmtMessage] = field(default_factory=dict)
    last_hello: Optional[int] = None


class SchemeCodec:
    """One scheme's wire codec; this base class is the naive passthrough.

    The gateway builds one codec for its configured scheme and never
    asks which scheme it runs.  Each ``peer`` below is a ``Peer`` record,
    which holds the codec's state for that peer.  It provides:

    - ``tag``: the carrier scheme byte of its datagrams
    - ``downlink``: its downlink flow table, a ``flow.DownlinkFlows``;
      announcements register into it and expiries remove from it
    - ``peer_state(own, name, secret)``: the (send, recv) state of one
      peer, from the secret the two gateways share
    - ``encode(raw, pn, cast, targets)``: the (body, peers) pairs to
      send for one LAN frame, its wire bytes and PN, of the flow
      ``cast`` (a ``flow.UplinkCast``), or None if the frame is too
      short for the scheme
    - ``decode(body, peer, now)``: a ``DecodeResult``, the frame or a
      drop reason
    - ``needs_announce``: whether ``decode`` needs the flow's
      announcement, so a peer still owed it is sent none of its datagrams
    - ``on_new_sa(peers, now)``: the (peer, management message) pairs a
      new uplink SA calls for
    - ``on_rekey(msg, peer, now)``: take a peer's key rotation
    - ``counters(peers)``: its crypto-operation counters by
      ``GatewayStats`` field name
    """

    tag = encap.EncapScheme.NAIVE
    table = DownlinkFlows
    needs_announce = False

    def __init__(self, config: GatewayConfig, rand_bytes: Callable[[int], bytes]):
        self.downlink = self.table(config.window)
        self._rand_bytes = rand_bytes

    def peer_state(self, own: str, name: str, secret: bytes) -> tuple:
        return None, None

    def encode(self, raw: bytes, pn: int, cast: UplinkCast, targets):
        return ((raw, targets),)

    def decode(self, body: bytes, peer: Peer, now: int) -> DecodeResult:
        if len(body) < fr.MIN_FRAME_LEN:
            return DecodeResult(reason="malformed")
        return DecodeResult(frame=body)

    def on_new_sa(self, peers, now: int):
        return ()

    def on_rekey(self, msg: mgmt.MgmtMessage, peer: Peer, now: int) -> None:
        pass

    def counters(self, peers) -> dict:
        return {}


class IdfCodec(SchemeCodec):
    tag = encap.EncapScheme.IDF
    table = IdfDownlink
    needs_announce = True

    def __init__(self, config: GatewayConfig, rand_bytes: Callable[[int], bytes]):
        super().__init__(config, rand_bytes)
        self.hash_calls_uplink = 0

    def encode(self, raw, pn, cast, targets):
        body = idf_mod.uplink_encode(raw, pn, cast.bidf)
        self.hash_calls_uplink += 1
        return ((body, targets),)

    def decode(self, body, peer, now):
        return self.downlink.decode(body)

    def counters(self, peers):
        return {
            "hash_calls_uplink": self.hash_calls_uplink,
            "hash_calls_downlink": self.downlink.hash_calls,
            "ridf_collisions": self.downlink.ridf_collisions,
        }


class EncCodec(SchemeCodec):
    tag = encap.EncapScheme.ENC
    table = EncTunnel
    needs_announce = True

    def peer_state(self, own, name, secret):
        return PairKeys(_directional_key(secret, own)), PairKeys(_directional_key(secret, name))

    def encode(self, raw, pn, cast, targets):
        if len(raw) < ENC_MIN_FRAME:
            return None
        tunnel = self.downlink
        return [(tunnel.encode(raw, p.send.current), [p]) for p in targets]

    def decode(self, body, peer, now):
        return self.downlink.decode(body, peer.recv, now)

    def on_new_sa(self, peers, now):
        """A tunneled SA changed: rotate send-direction keys everywhere."""
        notices = []
        for peer in peers:
            keys = peer.send
            new_key = self._rand_bytes(16)
            epoch = keys.current.epoch + 1
            notices.append((peer, mgmt.MgmtMessage.rekey(epoch, new_key)))
            keys.rotate(new_key, epoch, now)
        return notices

    def on_rekey(self, msg, peer, now):
        peer.recv.rotate(msg.key, msg.epoch, now)

    def counters(self, peers):
        return {
            "block_ops_uplink": self.downlink.block_ops_uplink,
            "block_ops_downlink": self.downlink.block_ops_downlink,
        }


class FullEncCodec(SchemeCodec):
    tag = encap.EncapScheme.FULLENC

    def peer_state(self, own, name, secret):
        send = FullEncTunnel(_directional_key(secret, own), self._rand_bytes(PREFIX_LEN))
        return send, FullEncTunnel(_directional_key(secret, name))

    def encode(self, raw, pn, cast, targets):
        return [(p.send.encode(raw), [p]) for p in targets]

    def decode(self, body, peer, now):
        return peer.recv.decode(body)

    def counters(self, peers):
        return {
            "block_ops_uplink": sum(p.send.block_ops_uplink for p in peers),
            "block_ops_downlink": sum(p.recv.block_ops_downlink for p in peers),
        }


_CODECS = {
    Scheme.NAIVE: SchemeCodec,
    Scheme.IDF: IdfCodec,
    Scheme.ENC: EncCodec,
    Scheme.FULLENC: FullEncCodec,
}


class GatewayEngine:
    """One tunnel gateway.

    ``send_tunnel(peer_id, datagram)`` and ``send_mgmt(peer_id, data)``
    transmit toward a peer; ``send_mgmt`` returns False when the peer
    refuses, and the message waits in that peer's outbox, which holds
    one message per (kind, subject) and never holds back another peer.
    ``emit_lan`` puts a reconstructed frame onto the local network.

    ``peers`` has one ``Peer`` record per configured peer, in config
    order; a datagram or management message from any other sender is
    dropped as ``unknown_peer`` before it is decoded.
    """

    def __init__(
        self,
        config: GatewayConfig,
        send_tunnel: Callable[[str, bytes], None],
        send_mgmt: Callable[[str, bytes], bool],
        emit_lan: Callable[[bytes], None],
        rng: Optional[random.Random] = None,
    ):
        self.config = config
        self.send_tunnel = send_tunnel
        self.send_mgmt = send_mgmt
        self.emit_lan = emit_lan
        self.rng = rng
        self.stats = GatewayStats()

        self.uplink = UplinkTable()
        # casts whose frames wait for an announcement no peer has taken,
        # by base identifier; each tick releases those a flush handed over
        self._queued: dict[bytes, UplinkCast] = {}
        self._last_hello = 0

        self.codec = _CODECS[config.scheme](config, self._rand_bytes)
        self.peers: dict[str, Peer] = {}
        for name in config.peers:
            secret = config.pair_secrets.get(name) or _default_pair_secret(config.own_id, name)
            self.peers[name] = Peer(name, *self.codec.peer_state(config.own_id, name, secret))
        # peers are fixed: the per-frame path reads these, not the dict
        self._all_peers = tuple(self.peers.values())
        self._boxes = tuple(p.outbox for p in self._all_peers)
        # the identifier tables, for callers that inspect them
        self.idf_downlink: Optional[IdfDownlink] = (
            self.codec.downlink if config.scheme is Scheme.IDF else None
        )

    # -- helpers ---------------------------------------------------------

    def _rand_bytes(self, n: int) -> bytes:
        if self.rng is None:
            return _secrets.token_bytes(n)
        return self.rng.getrandbits(8 * n).to_bytes(n, "big")

    def _drop(self, reason: str, n: int = 1) -> None:
        _count(self.stats.drops, DROP_REASONS, reason, n)

    def _warn(self, reason: str) -> None:
        _count(self.stats.warnings, WARNING_REASONS, reason, 1)

    def _mgmt_out(self, peer: Peer, msg: mgmt.MgmtMessage, subject=None) -> None:
        """Queue ``msg`` in ``peer``'s outbox, then send what it takes."""
        box = peer.outbox
        if msg.kind is mgmt.MgmtKind.FLOW_EXPIRE:
            if box.pop((mgmt.MgmtKind.FLOW_ANNOUNCE, msg.bidf), None) is not None:
                return  # the peer never learned the flow
        if subject is None:
            subject = msg.epoch if msg.kind is mgmt.MgmtKind.REKEY else msg.bidf
        key = (msg.kind, subject)
        if msg.kind is mgmt.MgmtKind.MKA_FORWARD and box.pop(key, None) is not None:
            self._drop("mka_buffer_overflow")
        box[key] = msg
        self._flush(peer)

    def _flush(self, peer: Peer) -> None:
        box = peer.outbox
        while box:
            key = next(iter(box))
            if not self.send_mgmt(peer.name, mgmt.encode_message(box[key])):
                return
            del box[key]

    # -- uplink ------------------------------------------------------------

    def on_lan_frame(self, data: bytes, now: int) -> None:
        self.stats.bytes_lan_in += len(data)
        ethertype = fr.ethertype_of(data)
        if ethertype == fr.ETHERTYPE_EAPOL:
            self._forward_mka(data)
            return
        if ethertype != fr.ETHERTYPE_MACSEC:
            self._drop("not_macsec")
            return
        try:
            frame = fr.parse_macsec(data)
        except fr.FrameError:
            self._drop("parse_error")
            return
        # only this handler reads the record; past it the frame is (raw, pn)
        tci = frame.sectag.tci
        if not tci.e or tci.c:
            self._drop("unsupported_shape")
            return
        pn = frame.sectag.pn
        if pn == 0:
            self._drop("zero_pn")
            return

        sci, an = frame.sectag.sci, tci.an
        entry = self.uplink.get(sci, an)
        if entry is None:
            entry = UplinkFlowEntry(
                sci=sci,
                an=an,
                unicast=UplinkCast(new_bidf(self.rng)),
                broadcast=UplinkCast(new_bidf(self.rng), BROADCAST_MAC),
                timeout=now + self.config.flow_timeout_us,
            )
            self.uplink.put(entry)
            for peer, msg in self.codec.on_new_sa(self._all_peers, now):
                self._mgmt_out(peer, msg)
        entry.timeout = now + self.config.flow_timeout_us

        # a broadcast cast is made with BROADCAST_MAC, so only unicast changes
        cast = entry.broadcast if is_broadcast(frame.dst) else entry.unicast
        if cast.dst != frame.dst:
            if cast.dst is not None:
                # the per-SA entry tracks one unicast destination; a
                # second one ends the flow and starts a new one, whose
                # far gateway is not learned yet
                self._warn("unicast_dst_change")
                self._end_cast(cast)
                cast = UplinkCast(new_bidf(self.rng))
            self.uplink.set_unicast(entry, frame.dst, cast)

        if cast.announced:
            self._tunnel_frame(data, pn, cast)
            return
        # the frame joins the discovery queue
        pending = cast.pending
        pending.append((pn, data))
        if len(pending) > QUEUE_LIMIT:
            del pending[0]
            self._drop("unregistered_queue_overflow")
        key = (mgmt.MgmtKind.FLOW_ANNOUNCE, cast.bidf)
        msg = cast.announce
        if msg is None:
            header = HeaderData(dst=frame.dst, src=frame.src, sci=sci, an=an)
            msg = cast.announce = mgmt.MgmtMessage.announce(cast.bidf, header, pn)
            owed = self._all_peers
        else:
            # the announcement carries the PN of the oldest queued frame so
            # the remote window covers the whole queue once it drains
            msg.pn = pending[0][0]
            # a peer whose outbox no longer holds the announcement has it
            owed = [p for p in self._all_peers if key in p.outbox]
        for peer in owed:
            self._mgmt_out(peer, msg)
        if all(key in box for box in self._boxes):
            self._queued[cast.bidf] = cast
            return
        self._release(cast)

    def _release(self, cast: UplinkCast) -> None:
        """A peer has the cast's announcement: tunnel the queued frames."""
        pending = cast.pending
        cast.announced = True
        cast.pending = []
        self._queued.pop(cast.bidf, None)
        for pn, raw in pending:
            self._tunnel_frame(raw, pn, cast)
        self._learn_from_uplink(pending[-1][1])

    def _end_cast(self, cast: UplinkCast) -> None:
        """End a flow: peers that may know it get an expire, and its queued
        frames are dropped."""
        if cast.announce is not None:
            for peer in self._all_peers:
                self._mgmt_out(peer, mgmt.MgmtMessage.expire(cast.bidf))
        self._queued.pop(cast.bidf, None)
        if cast.pending:
            self._drop("unregistered_queue_overflow", len(cast.pending))

    def _tunnel_frame(self, raw: bytes, pn: int, cast: UplinkCast) -> None:
        # a peer that takes the announcement late starts at this PN
        cast.announce.pn = pn
        gateway = cast.remote_gateway
        targets = self._all_peers if gateway is None else (self.peers[gateway],)
        if self.codec.needs_announce and any(self._boxes):
            # a scheme that decodes by flow skips a peer still owed the
            # announcement, which could not decode the flow's datagrams
            key = (mgmt.MgmtKind.FLOW_ANNOUNCE, cast.bidf)
            targets = [p for p in targets if key not in p.outbox]

        bodies = self.codec.encode(raw, pn, cast, targets)
        if bodies is None:
            self._drop("too_short_for_scheme")
            return
        sent_any = False
        for body, peers in bodies:
            sent_any |= self._send_body(body, peers)
        if sent_any:
            self.stats.frames_tunneled += 1

    def _send_body(self, body: bytes, targets) -> bool:
        try:
            datagram = encap.encap(body, self.codec.tag, self.config.mtu)
        except encap.TooLarge:
            self._drop("too_large")
            return False
        for peer in targets:
            self.send_tunnel(peer.name, datagram)
            self.stats.datagrams_sent += 1
            self.stats.bytes_tun_out += len(datagram)
        return bool(targets)

    def _forward_mka(self, data: bytes) -> None:
        # one outbox slot per sequence number modulo MKA_SLOTS: stale
        # key-agreement frames are better shed than replayed en masse
        slot = self.stats.mka_forwarded % MKA_SLOTS
        for peer in self._all_peers:
            self._mgmt_out(peer, mgmt.MgmtMessage.mka(data), slot)
        self.stats.mka_forwarded += 1

    def _learn_from_uplink(self, raw: bytes) -> None:
        """Reverse traffic for an announced flow: tell the announcer."""
        for flow in self.codec.downlink.addressed(raw[6:12], raw[:6]):
            if not flow.learned:
                flow.learned = True
                self._mgmt_out(self.peers[flow.origin], mgmt.MgmtMessage.learned(flow.bidf))

    # -- downlink ------------------------------------------------------------

    def on_tunnel_datagram(self, data: bytes, from_peer: str, now: int) -> None:
        self.stats.datagrams_received += 1
        self.stats.bytes_tun_in += len(data)
        peer = self.peers.get(from_peer)
        if peer is None:
            self._drop("unknown_peer")
            return
        try:
            scheme_tag, body = encap.decap(data)
        except encap.EncapError:
            self._drop("decap_error")
            return
        if scheme_tag is not self.codec.tag:
            self._drop("scheme_mismatch")
            return
        res = self.codec.decode(body, peer, now)
        if not res.ok:
            self._drop(res.reason)
            return
        self.stats.frames_reconstructed += 1
        self.stats.bytes_lan_out += len(res.frame)
        self.emit_lan(res.frame)

    # -- management ------------------------------------------------------------

    def on_mgmt_bytes(self, data: bytes, from_peer: str, now: int) -> None:
        try:
            msg = mgmt.decode_message(data)
        except mgmt.MgmtError:
            self._drop("mgmt_malformed")
            return
        self.on_mgmt_message(msg, from_peer, now)

    def on_mgmt_message(self, msg: mgmt.MgmtMessage, from_peer: str, now: int) -> None:
        peer = self.peers.get(from_peer)
        if peer is None:
            self._drop("unknown_peer")
            return
        kind = msg.kind
        if kind is mgmt.MgmtKind.FLOW_ANNOUNCE:
            self._handle_announce(msg, peer)
        elif kind is mgmt.MgmtKind.FLOW_LEARNED:
            self._handle_learned(msg.bidf, peer.name)
        elif kind is mgmt.MgmtKind.FLOW_EXPIRE:
            # only the gateway that announced a flow may end it
            flow = self.codec.downlink.flows.get(msg.bidf)
            if flow is not None and flow.origin == peer.name:
                self.codec.downlink.remove(msg.bidf)
        elif kind is mgmt.MgmtKind.REKEY:
            self.codec.on_rekey(msg, peer, now)
        elif kind is mgmt.MgmtKind.MKA_FORWARD:
            self.stats.bytes_lan_out += len(msg.frame)
            self.emit_lan(msg.frame)
        elif kind is mgmt.MgmtKind.HELLO:
            peer.last_hello = now

    def _handle_announce(self, msg: mgmt.MgmtMessage, peer: Peer) -> None:
        flow = self.codec.downlink.register(msg.bidf, msg.header, msg.pn, peer.name)
        # announce may arrive after we already carry the reverse flow
        if not flow.learned and self.uplink.has_unicast(msg.header.dst, msg.header.src):
            flow.learned = True
            self._mgmt_out(peer, mgmt.MgmtMessage.learned(msg.bidf))

    def _handle_learned(self, bidf: bytes, name: str) -> None:
        entry = self.uplink.by_unicast_bidf(bidf)
        if entry is None:
            return
        cast = entry.unicast
        if cast.remote_gateway not in (None, name):
            self._warn("learned_conflict")
            log.warning("flow claimed by %s and %s; keeping the newer claim", cast.remote_gateway, name)
        cast.remote_gateway = name

    # -- timers ------------------------------------------------------------

    def on_timer(self, now: int) -> None:
        for entry in self.uplink.expire(now):
            self._end_cast(entry.unicast)
            self._end_cast(entry.broadcast)
        if now - self._last_hello >= HELLO_INTERVAL_US:
            self._last_hello = now
            for peer in self._all_peers:
                self._mgmt_out(peer, mgmt.MgmtMessage.hello())
        for peer in self._all_peers:
            self._flush(peer)
        for cast in list(self._queued.values()):
            key = (mgmt.MgmtKind.FLOW_ANNOUNCE, cast.bidf)
            if not all(key in box for box in self._boxes):
                self._release(cast)

    # -- stats ------------------------------------------------------------

    def snapshot_stats(self) -> GatewayStats:
        s = self.stats
        return replace(
            s,
            drops=Counter(s.drops),
            warnings=Counter(s.warnings),
            **self.codec.counters(self._all_peers),
        )
