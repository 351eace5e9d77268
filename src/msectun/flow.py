"""Flow state: the three lookup tables and replay windows.

A flow is unidirectional traffic from one MACsec device to another,
keyed by (SCI, AN, destination MAC).  The uplink table is keyed by
(SCI, AN) and holds one unicast and one broadcast ``UplinkCast`` per
security association: everything the gateway knows of that flow.  The
downlink side mirrors it: one ``DownlinkSa`` per (SCI, AN) holds the
SA's one replay window and its unicast and broadcast flows, which the
downlink flow table also keys by base identifier; the identifier table
is keyed by rotating identifier.  ``DownlinkFlows`` is also the naive
scheme; each other scheme is a subclass of it.

Past the parse, flow state is wire bytes.  The uplink keys an SA by
its frames' 8 SCI bytes and its AN.  A flow's announced header is the
21 bytes a FLOW_ANNOUNCE carries::

    dst(6) src(6) sci(8) an(1)

whose last 9 bytes key its downlink SA and whose first 12 its entry in
the address index.

Flow learning looks entries up by three more keys, each kept as an
index by the table that owns the data, so that control-plane work does
not grow with the number of flows:

- downlink flows by (header dst, header src), for reverse traffic
- uplink entries by unicast base identifier, for learned notices
- a count of uplink entries by (SCI system id, unicast destination),
  for announcements of a flow the gateway already carries in reverse
"""

from __future__ import annotations

import enum
import secrets
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .encap import EncapScheme
from .frame import MIN_FRAME_LEN, is_broadcast

if TYPE_CHECKING:
    from .mgmt import MgmtMessage

PN_MAX = 0xFFFFFFFF
DEFAULT_WINDOW = 64
DEFAULT_FLOW_TIMEOUT_US = 60_000_000


def new_bidf(rng=None) -> bytes:
    """Fresh 128-bit base identifier; never reused across flows."""
    if rng is None:
        return secrets.token_bytes(16)
    return rng.getrandbits(128).to_bytes(16, "big")


class WindowStatus(enum.Enum):
    ACCEPT = "accept"
    REPLAY = "replay"
    OUT_OF_WINDOW = "out_of_window"


class ReplayWindow:
    """Sliding acceptance window over packet numbers.

    Tracks the pending (not yet seen) PNs a receiver will still accept;
    there are always ``size`` of them except near the PN ceiling.  The
    covered range [floor, top] additionally remembers already-consumed
    PNs so replays inside the range can be told apart from stale or
    far-future traffic.  Accepting a PN slides the floor to
    ``pn - size + 1`` and tops the range up, so an in-order loss burst
    shorter than the window size never causes a rejection.  ``accept``
    recomputes ``top`` from the floor and the seen bitmap; a caller that
    compares ``floor`` and ``top`` before and after it learns which PNs
    left and entered the covered range.
    """

    __slots__ = ("size", "floor", "top", "_seen")

    def __init__(self, start_pn: int, size: int):
        if size < 1:
            raise ValueError("window size must be >= 1")
        if not 1 <= start_pn <= PN_MAX:
            raise ValueError("start PN out of range")
        self.size = size
        self.floor = start_pn
        self.top = min(start_pn + size - 1, PN_MAX)
        self._seen = 0

    def accept(self, pn: int) -> WindowStatus:
        floor = self.floor
        if pn < floor or pn > self.top:
            return WindowStatus.OUT_OF_WINDOW
        bit = 1 << (pn - floor)
        seen = self._seen
        if seen & bit:
            return WindowStatus.REPLAY
        seen |= bit
        new_floor = pn - self.size + 1
        if new_floor > floor:
            seen >>= new_floor - floor
            self.floor = floor = new_floor
        self._seen = seen
        # ``size`` PNs stay pending: the covered range is that many plus
        # the seen ones, up to the PN ceiling
        self.top = min(floor + self.size - 1 + seen.bit_count(), PN_MAX)
        return WindowStatus.ACCEPT

    def is_seen(self, pn: int) -> bool:
        if pn < self.floor or pn > self.top:
            return False
        return bool(self._seen & (1 << (pn - self.floor)))

    def lowest_unseen(self) -> int:
        """The next expected PN: lowest covered PN not yet consumed."""
        seen = self._seen
        p = self.floor
        while seen & 1:
            seen >>= 1
            p += 1
        return p

    def pending_pns(self) -> list[int]:
        return [p for p in range(self.floor, self.top + 1) if not self.is_seen(p)]


@dataclass(slots=True)
class UplinkCast:
    """One cast of an uplink SA: its unicast or its broadcast flow.

    ``dst`` is the flow's destination MAC, unset until a unicast cast
    carries its first frame; a new destination is a new cast.
    ``remote_gateway`` is the peer learned from reverse traffic; a
    broadcast cast never learns one.  ``announce`` is the flow's one
    announcement, made with its first frame; every outbox that still
    owes it holds this object; its PN is the oldest queued frame's while
    the cast queues and the newest tunneled frame's after.  ``pending``
    holds the (PN, wire bytes) pairs of the frames that wait for it; it
    is emptied when the announcement is out and ends with the record.
    """

    bidf: bytes
    dst: Optional[bytes] = None
    remote_gateway: Optional[str] = None
    announce: Optional[MgmtMessage] = None
    announced: bool = False
    pending: list[tuple[int, bytes]] = field(default_factory=list)


@dataclass(slots=True)
class UplinkFlowEntry:
    """Per-SA uplink state, keyed by (SCI, AN) in the uplink table;
    ``sci`` is the SA's 8 wire bytes."""

    sci: bytes
    an: int
    unicast: UplinkCast
    broadcast: UplinkCast
    timeout: int


@dataclass(slots=True, eq=False)
class DownlinkFlowEntry:
    """One announced flow: a cast of a downlink SA, named by its bidf.

    ``header`` is the announced dst|src|sci|an, everything needed to
    rebuild the sensitive fields of the flow's frames.
    """

    bidf: bytes
    header: bytes
    sa: DownlinkSa
    origin: str = ""
    # a learned notice for this flow went back to its origin
    learned: bool = False
    # identifier-scheme ring of the identifiers this flow holds: slot
    # ``pn % (2 * window)`` keeps the 8-byte identifier in ``ring`` and
    # the PN in ``ring_pns``, where 0 marks an empty slot
    ring: Optional[bytearray] = None
    ring_pns: Optional[array] = None


@dataclass(slots=True, eq=False)
class DownlinkSa:
    """One downlink SA, keyed by (SCI, AN): the replay window its casts share.

    A sender's unicast and broadcast frames draw on one PN counter, so
    the SA's ``unicast`` and ``broadcast`` flows accept against its one
    ``window`` (the paper's flow binding).
    """

    window: ReplayWindow
    unicast: Optional[DownlinkFlowEntry] = None
    broadcast: Optional[DownlinkFlowEntry] = None


class DownlinkFlows:
    """Downlink flow table: the flows peers announced, one record per SA.

    One core for every scheme, and the naive scheme's codec itself; each
    other scheme is a subclass that overrides what it changes.  The
    gateway builds one instance for its configured scheme and never asks
    which scheme it runs.  Each ``peer`` below is a ``gateway.Peer``,
    whose ``send`` and ``recv`` hold the scheme's state for that peer:

    - ``tag``: the carrier scheme byte of its datagrams
    - ``peer_state(send_key, recv_key)``: the (send, recv) state of one
      peer, from the two directional keys the gateways share
    - ``encode(raw, pn, cast, targets)``: the (body, peers) pairs to
      send for one LAN frame, its wire bytes and PN, of the flow
      ``cast`` (a ``UplinkCast``), or None if the frame is too short
      for the scheme
    - ``decode(body, recv, now)``: the rebuilt frame's bytes, or the
      drop reason as a ``str``, for a body from the peer whose ``recv``
      is given
    - ``needs_announce``: whether ``decode`` needs the flow's
      announcement, so a peer still owed it is sent none of its datagrams
    - ``on_new_sa(peers, now)``: the (peer, management message) pairs a
      new uplink SA calls for
    - ``on_rekey(msg, peer, now)``: take a peer's key rotation
    - the crypto-operation counters, named as their ``GatewayStats``
      fields: ``hash_calls_uplink``, ``hash_calls_downlink``,
      ``block_ops_uplink``, ``block_ops_downlink``, ``ridf_collisions``

    ``flows`` keys each flow by base identifier; the flow sits in the
    unicast or broadcast slot of its SA's ``DownlinkSa``, whose window
    both slots share.  ``register`` applies an announcement to its slot:

    - new SA: a fresh window at the announced PN;
    - join, the SA holds only the other cast: if the SA's window and a
      fresh one at the PN overlap, the lower floor is kept (it covers
      the later announcement's PN without orphaning in-flight frames
      below it), otherwise the higher; both casts are refilled;
    - re-announce, the slot holds this bidf: a PN above the window's
      lowest unseen one resets the window (the sender restarted) and
      refills both casts;
    - replace, the slot holds another bidf: the older flow leaves, and a
      late expire for it finds nothing; the newer takes the slot, and
      the window follows the re-announce rule.

    A bidf that names a flow in another slot is taken by the newer
    announcement.  ``remove`` undoes all of it, so no index outlives its
    flow: the partner keeps the window, and the SA record leaves with
    its last flow.  ``addressed`` finds flows by header addresses, for
    flow learning.  A scheme that keeps state per window position
    overrides ``_refill`` and ``_forget``.  Single-writer: one gateway
    pipeline owns the instance.
    """

    tag = EncapScheme.NAIVE
    needs_announce = False
    hash_calls_uplink = hash_calls_downlink = 0
    block_ops_uplink = block_ops_downlink = 0
    ridf_collisions = 0

    def __init__(self, window_size: int = DEFAULT_WINDOW, rand_bytes=secrets.token_bytes):
        self.window_size = window_size
        # ``rand_bytes(n)``: n random bytes, for a scheme's keys and nonces
        self._rand_bytes = rand_bytes
        self.flows: dict[bytes, DownlinkFlowEntry] = {}
        self._sas: dict[bytes, DownlinkSa] = {}
        # header dst|src -> flows, in ``flows`` order
        self._by_addr: dict[bytes, list[DownlinkFlowEntry]] = {}

    # -- codec -------------------------------------------------------------

    def peer_state(self, send_key: bytes, recv_key: bytes) -> tuple:
        return None, None

    def encode(self, raw: bytes, pn: int, cast: UplinkCast, targets):
        return ((raw, targets),)

    def decode(self, body: bytes, recv=None, now: int = 0) -> bytes | str:
        if len(body) < MIN_FRAME_LEN:
            return "malformed"
        return body

    def on_new_sa(self, peers, now: int):
        return ()

    def on_rekey(self, msg: MgmtMessage, peer, now: int) -> None:
        pass

    # -- scheme hooks ------------------------------------------------------

    def _forget(self, entry: DownlinkFlowEntry) -> None:
        """A flow left the table."""

    def _refill(self, entry: DownlinkFlowEntry) -> None:
        """The flow's window was created, reset or joined."""

    # -- announcements -----------------------------------------------------

    def _sa_key(self, header: bytes):
        """The key of the SA record that the flow of ``header`` belongs to."""
        return header[12:]

    def register(self, bidf: bytes, header: bytes, pn: int, origin: str = "") -> DownlinkFlowEntry:
        """Apply an announcement to its SA; returns the flow it names."""
        slot, other = ("broadcast", "unicast") if is_broadcast(header[:6]) else ("unicast", "broadcast")
        key = self._sa_key(header)
        sa = self._sas.get(key)
        held = None if sa is None else getattr(sa, slot)
        clash = self.flows.get(bidf)
        if clash is not None and clash is not held:
            # one base identifier names one flow: the newer announcement wins
            self.remove(bidf)
            sa = self._sas.get(key)
        if held is not None and held.bidf == bidf:
            entry = held
            entry.origin = origin
        else:
            if sa is None:
                sa = self._sas[key] = DownlinkSa(ReplayWindow(pn, self.window_size))
            entry = DownlinkFlowEntry(bidf, header, sa, origin)
            self.flows[bidf] = entry
            self._by_addr.setdefault(header[:12], []).append(entry)
            setattr(sa, slot, entry)
            if held is not None:
                self._unlink(held)
            elif getattr(sa, other) is not None:
                # of the SA's window and a fresh one at ``pn``, keep the
                # lower if the two overlap, else the higher
                window = sa.window
                if pn <= window.floor:
                    keep_fresh = min(pn + self.window_size - 1, PN_MAX) >= window.floor
                else:
                    keep_fresh = window.top < pn
                if keep_fresh:
                    window.__init__(pn, self.window_size)
                self._refill(getattr(sa, other))
                self._refill(entry)
                return entry
        window = sa.window
        if pn > window.lowest_unseen():
            window.__init__(pn, self.window_size)
            self._refill(entry)
            partner = getattr(sa, other)
            if partner is not None:
                self._refill(partner)
        elif entry is not held:
            self._refill(entry)
        return entry

    def remove(self, bidf: bytes) -> None:
        entry = self.flows.get(bidf)
        if entry is None:
            return
        self._unlink(entry)
        sa = entry.sa
        if sa.unicast is entry:
            sa.unicast = None
        else:
            sa.broadcast = None
        if sa.unicast is None and sa.broadcast is None:
            del self._sas[self._sa_key(entry.header)]

    def _unlink(self, entry: DownlinkFlowEntry) -> None:
        """Take a flow out of ``flows`` and the address index."""
        del self.flows[entry.bidf]
        self._forget(entry)
        addr = entry.header[:12]
        same_addr = self._by_addr[addr]
        same_addr.remove(entry)
        if not same_addr:
            del self._by_addr[addr]

    def addressed(self, dst: bytes, src: bytes) -> list[DownlinkFlowEntry]:
        """The flows whose header carries ``dst`` and ``src``, in ``flows`` order."""
        return list(self._by_addr.get(dst + src, ()))


class UplinkTable:
    """Uplink flow entries keyed by (SCI, AN), with two learning indexes.

    Entries are also found by unicast base identifier (``by_unicast_bidf``)
    and counted by (SCI system id, unicast destination) (``has_unicast``).
    Once an entry is in the table, the table is the only writer of its
    ``unicast`` record and that record's ``dst``: change them with
    ``set_unicast`` so that both indexes follow.  Two entries that share
    a unicast base identifier (random 128-bit values never do) are found
    by the later one until it leaves.  An entry's two ``UplinkCast``
    records, queued frames included, leave the table with it.
    """

    def __init__(self):
        self._entries: dict[tuple[bytes, int], UplinkFlowEntry] = {}
        self._by_bidf: dict[bytes, UplinkFlowEntry] = {}
        self._dst_count: dict[tuple[bytes, bytes], int] = {}

    def get(self, sci: bytes, an: int) -> Optional[UplinkFlowEntry]:
        return self._entries.get((sci, an))

    def by_unicast_bidf(self, bidf: bytes) -> Optional[UplinkFlowEntry]:
        return self._by_bidf.get(bidf)

    def has_unicast(self, src: bytes, dst: bytes) -> bool:
        """Whether an entry of station ``src`` sends unicast to ``dst``."""
        return (src, dst) in self._dst_count

    def put(self, entry: UplinkFlowEntry) -> None:
        """Add an entry whose (SCI, AN) is not in the table."""
        self._entries[(entry.sci, entry.an)] = entry
        self._index(entry)

    def set_unicast(self, entry: UplinkFlowEntry, dst: bytes, cast: UplinkCast) -> None:
        """Point the entry's unicast flow at ``dst``, carried by ``cast``."""
        # unindex under the old destination before it changes
        self._unindex(entry)
        cast.dst = dst
        entry.unicast = cast
        self._index(entry)

    def expire(self, now: int) -> list[UplinkFlowEntry]:
        """Drop entries whose timeout passed; caller cascades notices."""
        dead = [e for e in self._entries.values() if e.timeout < now]
        for e in dead:
            del self._entries[(e.sci, e.an)]
            self._unindex(e)
        return dead

    def _index(self, entry: UplinkFlowEntry) -> None:
        self._by_bidf[entry.unicast.bidf] = entry
        if entry.unicast.dst is not None:
            key = (entry.sci[:6], entry.unicast.dst)
            self._dst_count[key] = self._dst_count.get(key, 0) + 1

    def _unindex(self, entry: UplinkFlowEntry) -> None:
        bidf = entry.unicast.bidf
        if self._by_bidf.get(bidf) is entry:
            del self._by_bidf[bidf]
        if entry.unicast.dst is not None:
            key = (entry.sci[:6], entry.unicast.dst)
            n = self._dst_count[key] - 1
            if n:
                self._dst_count[key] = n
            else:
                del self._dst_count[key]

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[UplinkFlowEntry]:
        return list(self._entries.values())
