"""Identifier-based tunnel scheme.

Uplink replaces the sensitive header fields of a MACsec frame with a
64-bit rotating identifier; downlink restores them from table state.
Wire body layout (inside the carrier payload), big-endian:

    ridf(8) tci_flags(1) sl(1) secure_data(var) icv(16)

which is 18 bytes shorter than the original frame.  The tci byte
carries the non-sensitive flags with the AN bits cleared; destination,
source, EtherType, PN, SCI and AN never appear on the wire.
"""

from __future__ import annotations

import struct
from array import array

from .frame import ETHERTYPE_MACSEC, ICV_LEN
from .flow import (
    DEFAULT_WINDOW,
    DecodeResult,
    DownlinkFlowEntry,
    DownlinkFlows,
    WindowStatus,
)
from .siphash import siphash24_many, siphash24_words

MIN_BODY = 8 + 2 + 2 + ICV_LEN

REASON_UNKNOWN_IDENTIFIER = "unknown_identifier"
REASON_REPLAY = WindowStatus.REPLAY.value
REASON_OUT_OF_WINDOW = WindowStatus.OUT_OF_WINDOW.value
REASON_MALFORMED = "malformed"


_BIDF_WORDS = struct.Struct("<QQ")
# an identifier as it travels and as a flow's ring holds it
_RIDF = struct.Struct(">Q")


def derive_ridf(bidf: bytes, pn: int) -> int:
    """Rotating identifier for one packet number of a flow.

    SipHash-2-4 over the 16-byte base identifier.  The hash key is the
    32-bit PN repeated four times big-endian, which keeps the stated
    roles (bidf hashed, PN keying) while meeting the 128-bit key size
    of the primitive.  Interoperating implementations must match this
    construction exactly.

    SipHash reads that key as two equal little-endian 64-bit words, each
    the byte-swapped PN in both halves, so they are computed from the PN
    directly and passed with the bidf's two words and the final block of
    a 16-byte message to the core ``siphash24_words``.
    """
    k = int.from_bytes(pn.to_bytes(4, "big"), "little") * 0x1_0000_0001
    m0, m1 = _BIDF_WORDS.unpack(bidf)
    return siphash24_words(k, k, (m0, m1, 16 << 56))


def derive_ridfs(bidf: bytes, pns: list[int]) -> list[int]:
    """``[derive_ridf(bidf, pn) for pn in pns]`` in one batched SipHash pass.

    Same keys and message as ``derive_ridf``; the batch shares each
    SipRound across all PNs, which makes filling a flow's whole window
    several times cheaper than one scalar hash per PN.
    """
    return siphash24_many([struct.pack(">IIII", pn, pn, pn, pn) for pn in pns], bidf)


def uplink_encode(raw: bytes, pn: int, bidf: bytes) -> bytes:
    """Swap sensitive headers for the rotating identifier.

    ``raw`` is a parsed frame's wire bytes and ``pn`` its PN; ``bidf`` is
    the base identifier of its flow, the unicast or broadcast cast of its
    SA that the caller picked.  The TCI byte keeps every flag but the AN
    bits; SL, secure data and ICV are copied untouched.
    """
    return struct.pack(">QBB", derive_ridf(bidf, pn), raw[14] & 0xFC, raw[15]) + raw[28:]


class IdfDownlink(DownlinkFlows):
    """Downlink flow and identifier tables plus the decode path.

    Flows are keyed by base identifier, as in the core table.  The
    identifier table ``ids`` maps each rotating identifier to the flow
    that holds it, and always holds every PN covered by each flow's
    window; the window tells consumed PNs apart, so replays stay
    classifiable until they slide out of the covered range.

    Each flow holds its identifiers in a ring of ``2 * window`` slots:
    PN ``p`` sits in slot ``p % (2 * window)``, its identifier as 8
    big-endian bytes in ``flow.ring`` and its PN in ``flow.ring_pns``
    (0 marks an empty slot; PN 0 is never valid).  The window's covered
    range spans at most ``2 * window - 1`` PNs, so no two held PNs share
    a slot.  Decode finds an identifier's PN by searching the ring for
    the wire's 8 identifier bytes, so no object is kept per identifier
    beyond its key in ``ids``.

    Identifiers are derived where they enter the table: ``_refill``
    (register: a new SA, a join or a window reset) derives a flow's
    missing PNs in one batch with ``derive_ridfs``; the per-frame slide
    in ``decode`` derives each new PN with the scalar ``derive_ridf``.
    Either way ``hash_calls`` counts one per identifier derived.
    """

    def __init__(self, window_size: int = DEFAULT_WINDOW):
        super().__init__(window_size)
        self.ids: dict[int, DownlinkFlowEntry] = {}
        self.hash_calls = 0
        self.ridf_collisions = 0

    # -- table maintenance -------------------------------------------------

    def _insert_id(self, flow: DownlinkFlowEntry, pn: int, ridf: int) -> None:
        # every derived identifier comes here once: count its hash
        self.hash_calls += 1
        slot = pn % len(flow.ring_pns)
        owner = self.ids.get(ridf)
        if owner is not None:
            if owner is not flow or flow.ring_pns[slot] != pn:
                # collision: keep the older entry, count the event
                self.ridf_collisions += 1
            return
        self.ids[ridf] = flow
        _RIDF.pack_into(flow.ring, slot << 3, ridf)
        flow.ring_pns[slot] = pn

    def _drop_slot(self, flow: DownlinkFlowEntry, slot: int) -> None:
        ridf = _RIDF.unpack_from(flow.ring, slot << 3)[0]
        flow.ring_pns[slot] = 0
        if self.ids.get(ridf) is flow:
            del self.ids[ridf]

    def _forget(self, flow: DownlinkFlowEntry) -> None:
        for slot, pn in enumerate(flow.ring_pns):
            if pn:
                self._drop_slot(flow, slot)

    def _refill(self, flow: DownlinkFlowEntry) -> None:
        """Drop the identifiers the window left; hash only the PNs it lacks.

        The missing PNs are derived in one batch and inserted in
        ascending PN order, so a cross-flow collision keeps the same
        entry as one scalar hash per PN would; ``hash_calls`` still
        grows by one per identifier derived.
        """
        if flow.ring_pns is None:
            slots = 2 * self.window_size
            flow.ring = bytearray(8 * slots)
            flow.ring_pns = array("I", [0]) * slots
        window = flow.sa.window
        floor, top = window.floor, window.top
        pns = flow.ring_pns
        for slot, pn in enumerate(pns):
            if pn and (pn < floor or pn > top):
                self._drop_slot(flow, slot)
        slots = len(pns)
        missing = [pn for pn in range(floor, top + 1) if pns[pn % slots] != pn]
        for pn, ridf in zip(missing, derive_ridfs(flow.bidf, missing)):
            self._insert_id(flow, pn, ridf)

    # bound on this class, not only inherited, so that each scheme's
    # table upkeep can be timed apart (perfbench/tracing.py)
    register = DownlinkFlows.register
    remove = DownlinkFlows.remove

    # -- decode ------------------------------------------------------------

    def decode(self, body: bytes) -> DecodeResult:
        """Identifier lookup, window acceptance, frame reconstruction.

        A frame below its window finds no held identifier, so it counts as
        ``unknown_identifier`` like a forged one (enc: ``out_of_window``).
        """
        if len(body) < MIN_BODY:
            return DecodeResult(reason=REASON_MALFORMED)
        ridf, tci_flags, sl = struct.unpack_from(">QBB", body)
        flow = self.ids.get(ridf)
        if flow is None:
            return DecodeResult(reason=REASON_UNKNOWN_IDENTIFIER)
        # the flow holds the identifier in exactly one slot: the
        # slot-aligned copy of its bytes whose PN tag is set
        ring, pns = flow.ring, flow.ring_pns
        needle = body[:8]
        at = ring.find(needle)
        while at >= 0 and (at & 7 or not pns[at >> 3]):
            at = ring.find(needle, at + 1)
        if at < 0:
            # only a table that fails ``audit`` gets here
            return DecodeResult(reason=REASON_UNKNOWN_IDENTIFIER)
        pn = pns[at >> 3]
        sa = flow.sa
        window = sa.window
        if window.is_seen(pn):
            return DecodeResult(reason=REASON_REPLAY)
        if tci_flags & 0x03:
            # AN bits travel in the flow state, never on the wire
            return DecodeResult(reason=REASON_MALFORMED)
        old_floor, old_top = window.floor, window.top
        status = window.accept(pn)
        if status is not WindowStatus.ACCEPT:
            return DecodeResult(reason=status.value)
        # both casts of the SA hold identifiers for the one window
        for fl in (sa.unicast, sa.broadcast):
            if fl is None:
                continue
            fl_pns = fl.ring_pns
            slots = len(fl_pns)
            for p in range(old_floor, window.floor):
                slot = p % slots
                if fl_pns[slot] == p:
                    self._drop_slot(fl, slot)
            for p in range(old_top + 1, window.top + 1):
                self._insert_id(fl, p, derive_ridf(fl.bidf, p))

        hdr = flow.header
        frame = (
            hdr.dst
            + hdr.src
            + struct.pack(">HBBI", ETHERTYPE_MACSEC, tci_flags | hdr.an, sl, pn)
            + hdr.sci.pack()
            + body[10:]
        )
        return DecodeResult(frame=frame)

    # -- test support --------------------------------------------------------

    def held(self, flow: DownlinkFlowEntry) -> dict[int, int]:
        """The identifiers ``flow`` holds, as ``{pn: ridf}``."""
        return {
            pn: _RIDF.unpack_from(flow.ring, slot << 3)[0]
            for slot, pn in enumerate(flow.ring_pns)
            if pn
        }

    def audit(self) -> None:
        """Assert identifier-table coherence against every flow window."""
        owned = 0
        for flow in self.flows.values():
            slots = len(flow.ring_pns)
            assert slots == 2 * self.window_size and len(flow.ring) == 8 * slots
            held = self.held(flow)
            window = flow.sa.window
            covered = set(range(window.floor, window.top + 1))
            assert set(held) <= covered, "entry outside window range"
            missing = covered - set(held)
            # entries may be missing only through cross-flow collisions
            assert len(missing) <= self.ridf_collisions
            for pn, ridf in held.items():
                assert flow.ring_pns[pn % slots] == pn, "PN in the wrong slot"
                assert self.ids[ridf] is flow
                assert ridf == derive_ridf(flow.bidf, pn)
                owned += 1
        assert owned == len(self.ids), "orphan identifier entries"
