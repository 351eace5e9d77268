"""Flow state: keys, the three lookup tables, and replay windows.

A flow is unidirectional traffic from one MACsec device to another,
keyed by (SCI, AN, destination MAC).  The uplink table is keyed by
(SCI, AN) and holds one unicast and one broadcast ``UplinkCast`` per
security association: the flow's base identifier, whether it was
announced, and the frames that wait for that announcement.  The
downlink flow table is keyed by base identifier; the identifier table
is keyed by rotating identifier.

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
from dataclasses import dataclass, field
from typing import Optional

from .frame import MacsecFrame, Sci, is_broadcast

PN_MAX = 0xFFFFFFFF
DEFAULT_WINDOW = 64
DEFAULT_FLOW_TIMEOUT_US = 60_000_000


class BindMismatch(ValueError):
    """Attempt to bind flows that do not share an SA."""


@dataclass(frozen=True)
class FlowKey:
    sci: Sci
    an: int
    dst: bytes


def classify(frame: MacsecFrame) -> FlowKey:
    """Project a parsed frame onto its flow key."""
    tag = frame.sectag
    return FlowKey(sci=tag.sci, an=tag.tci.an, dst=frame.dst)


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

    ``pending`` holds the frames that wait for the flow's announcement;
    it is emptied when the announcement is out and ends with the record.
    """

    bidf: bytes
    announced: bool = False
    pending: list[tuple[MacsecFrame, bytes]] = field(default_factory=list)


@dataclass
class UplinkFlowEntry:
    """Per-SA uplink state, keyed by (SCI, AN) in the uplink table."""

    sci: Sci
    an: int
    unicast: UplinkCast
    broadcast: UplinkCast
    timeout: int
    remote_gateway: Optional[str] = None
    # operational extras, not part of the table contract
    unicast_dst: Optional[bytes] = None

    def cast(self, dst: bytes) -> UplinkCast:
        return self.broadcast if is_broadcast(dst) else self.unicast


@dataclass
class HeaderData:
    """Everything needed to rebuild the sensitive fields of a flow."""

    dst: bytes
    src: bytes
    sci: Sci
    an: int

    def pack(self) -> bytes:
        return self.dst + self.src + self.sci.pack() + bytes([self.an])

    @classmethod
    def unpack(cls, data: bytes) -> "HeaderData":
        return cls(
            dst=bytes(data[0:6]),
            src=bytes(data[6:12]),
            sci=Sci.unpack(data[12:20]),
            an=data[20],
        )


@dataclass
class DownlinkFlowEntry:
    # compare entries with ``is``: ``==`` can recurse through ``bound``
    bidf: bytes
    header: HeaderData
    window: Optional[ReplayWindow] = None
    bound: Optional["DownlinkFlowEntry"] = None
    origin: str = ""
    # a learned notice for this flow went back to its origin
    learned: bool = False
    # identifier-scheme bookkeeping: pn -> ridf for the entries this
    # flow currently owns in the identifier table
    ids: dict[int, int] = field(default_factory=dict)


@dataclass
class DecodeResult:
    """Outcome of a downlink scheme decode: a frame or a drop reason."""

    frame: Optional[bytes] = None
    reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.frame is not None


def bind(a: DownlinkFlowEntry, b: DownlinkFlowEntry) -> ReplayWindow:
    """Couple a unicast/broadcast flow pair so PN state stays shared.

    When the two windows overlap, the one with the lower floor becomes
    the shared window (it covers the other's start without orphaning
    in-flight frames below the later announcement's PN); disjoint
    windows mean the older flow is stale and the newer one wins.  The
    caller rebuilds identifier entries from the survivor's state.
    """
    if a.header.sci != b.header.sci or a.header.an != b.header.an:
        raise BindMismatch("flows do not share SCI and AN")
    casts = {is_broadcast(a.header.dst), is_broadcast(b.header.dst)}
    if casts != {True, False}:
        raise BindMismatch("need one unicast and one broadcast flow")
    if a.window is None or b.window is None:
        raise BindMismatch("both flows must have initialized windows")
    lo, hi = (a.window, b.window) if a.window.floor <= b.window.floor else (b.window, a.window)
    shared = lo if lo.top >= hi.floor else hi
    a.window = shared
    b.window = shared
    a.bound = b
    b.bound = a
    return shared


def unbind(entry: DownlinkFlowEntry) -> None:
    partner = entry.bound
    if partner is not None:
        partner.bound = None
    entry.bound = None


class DownlinkFlows:
    """Downlink flow table: the flows peers announced, by base identifier.

    One core for every scheme.  ``register`` creates a flow and its
    replay window from an announcement, resets the window when a
    re-announcement carries a newer PN (the sender restarted), and binds
    the flow to the opposite-cast flow of the same SA.  ``remove`` undoes
    all of it, so no index outlives its flow.  ``addressed`` finds flows
    by header addresses, for flow learning.  The indexes ``_by_sa`` and
    ``_by_addr`` list the entries of ``flows``; a scheme reads them
    rather than keeping a copy.  A scheme that finds a re-announced
    flow by another key overrides ``_find``; one that keeps state per
    window position overrides ``_refill`` and ``_forget``.  Single-writer:
    one gateway pipeline owns the instance.
    """

    # a subclass may clear it to show what unbound windows do
    bind_flows = True

    def __init__(self, window_size: int = DEFAULT_WINDOW):
        self.window_size = window_size
        self.flows: dict[bytes, DownlinkFlowEntry] = {}
        self._by_sa: dict[tuple[Sci, int], list[DownlinkFlowEntry]] = {}
        # (header dst, header src) -> flows, in ``flows`` order
        self._by_addr: dict[tuple[bytes, bytes], list[DownlinkFlowEntry]] = {}

    # -- scheme hooks ------------------------------------------------------

    def _find(self, bidf: bytes, header: HeaderData) -> Optional[DownlinkFlowEntry]:
        """The flow an announcement refers to, if it is known already."""
        return self.flows.get(bidf)

    def _forget(self, entry: DownlinkFlowEntry) -> None:
        """A flow left the table."""

    def _refill(self, entry: DownlinkFlowEntry) -> None:
        """The flow's window was created, reset or replaced by binding."""

    # -- announcements -----------------------------------------------------

    def register(
        self, bidf: bytes, header: HeaderData, pn: int, origin: str = ""
    ) -> DownlinkFlowEntry:
        """Create (or refresh) a downlink flow from an announcement."""
        entry = self._find(bidf, header)
        clash = self.flows.get(bidf)
        if clash is not None and clash is not entry:
            # one base identifier names one flow: the newer announcement wins
            self.remove(bidf)
        if entry is not None:
            entry.origin = origin
            if entry.bidf != bidf:
                # re-announced under a new base identifier: a late
                # expire for the old one must not remove the flow
                del self.flows[entry.bidf]
                self.flows[bidf] = entry
                same_addr = self._by_addr[entry.header.dst, entry.header.src]
                same_addr.remove(entry)
                same_addr.append(entry)
                entry.bidf = bidf
                entry.learned = False
            if pn > entry.window.lowest_unseen():
                # re-announce with a newer PN: sender restarted, reset
                entry.window.__init__(pn, self.window_size)
                self._refill(entry)
                if entry.bound is not None:
                    self._refill(entry.bound)
            return entry

        entry = DownlinkFlowEntry(
            bidf=bidf,
            header=header,
            window=ReplayWindow(pn, self.window_size),
            origin=origin,
        )
        self.flows[bidf] = entry
        self._by_addr.setdefault((header.dst, header.src), []).append(entry)
        same_sa = self._by_sa.setdefault((header.sci, header.an), [])
        if self.bind_flows:
            for other in same_sa:
                if is_broadcast(other.header.dst) != is_broadcast(header.dst):
                    bind(entry, other)
                    self._refill(other)
                    break
        self._refill(entry)
        same_sa.append(entry)
        return entry

    def remove(self, bidf: bytes) -> None:
        entry = self.flows.pop(bidf, None)
        if entry is None:
            return
        self._forget(entry)
        unbind(entry)
        sa = (entry.header.sci, entry.header.an)
        same_sa = self._by_sa[sa]
        same_sa.remove(entry)
        if not same_sa:
            del self._by_sa[sa]
        addr = (entry.header.dst, entry.header.src)
        same_addr = self._by_addr[addr]
        same_addr.remove(entry)
        if not same_addr:
            del self._by_addr[addr]

    def addressed(self, dst: bytes, src: bytes) -> list[DownlinkFlowEntry]:
        """The flows whose header carries ``dst`` and ``src``, in ``flows`` order."""
        return list(self._by_addr.get((dst, src), ()))


class UplinkTable:
    """Uplink flow entries keyed by (SCI, AN), with two learning indexes.

    Entries are also found by unicast base identifier (``by_unicast_bidf``)
    and counted by (SCI system id, unicast destination) (``has_unicast``).
    Once an entry is in the table, the table is the only writer of its
    ``unicast`` record and ``unicast_dst``: change them with
    ``set_unicast`` so that both indexes follow.  Two entries that share
    a unicast base identifier (random 128-bit values never do) are found
    by the later one until it leaves.  An entry's two ``UplinkCast``
    records, queued frames included, leave the table with it.
    """

    def __init__(self):
        self._entries: dict[tuple[Sci, int], UplinkFlowEntry] = {}
        self._by_bidf: dict[bytes, UplinkFlowEntry] = {}
        self._dst_count: dict[tuple[bytes, bytes], int] = {}

    def get(self, sci: Sci, an: int) -> Optional[UplinkFlowEntry]:
        return self._entries.get((sci, an))

    def by_unicast_bidf(self, bidf: bytes) -> Optional[UplinkFlowEntry]:
        return self._by_bidf.get(bidf)

    def has_unicast(self, src: bytes, dst: bytes) -> bool:
        """Whether an entry of station ``src`` sends unicast to ``dst``."""
        return (src, dst) in self._dst_count

    def put(self, entry: UplinkFlowEntry) -> None:
        old = self._entries.get((entry.sci, entry.an))
        if old is not None:
            self._unindex(old)
        self._entries[(entry.sci, entry.an)] = entry
        self._index(entry)

    def set_unicast(self, entry: UplinkFlowEntry, dst: bytes, cast: UplinkCast) -> None:
        """Point the entry's unicast flow at ``dst``, carried by ``cast``."""
        self._unindex(entry)
        entry.unicast_dst = dst
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
        if entry.unicast_dst is not None:
            key = (entry.sci.system_id, entry.unicast_dst)
            self._dst_count[key] = self._dst_count.get(key, 0) + 1

    def _unindex(self, entry: UplinkFlowEntry) -> None:
        bidf = entry.unicast.bidf
        if self._by_bidf.get(bidf) is entry:
            del self._by_bidf[bidf]
        if entry.unicast_dst is not None:
            key = (entry.sci.system_id, entry.unicast_dst)
            n = self._dst_count[key] - 1
            if n:
                self._dst_count[key] = n
            else:
                del self._dst_count[key]

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[UplinkFlowEntry]:
        return list(self._entries.values())
