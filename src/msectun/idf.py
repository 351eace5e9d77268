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
from typing import Optional

from .frame import ETHERTYPE_MACSEC, ICV_LEN, MacsecFrame
from .flow import (
    DEFAULT_WINDOW,
    DecodeResult,
    DownlinkFlowEntry,
    DownlinkFlows,
    HeaderData,
    UplinkFlowEntry,
    WindowStatus,
)
from .siphash import siphash24, siphash24_many

WIRE_SHRINK = 18  # header bytes removed minus the 8-byte identifier
MIN_BODY = 8 + 2 + 2 + ICV_LEN

REASON_UNKNOWN_IDENTIFIER = "unknown_identifier"
REASON_REPLAY = WindowStatus.REPLAY.value
REASON_OUT_OF_WINDOW = WindowStatus.OUT_OF_WINDOW.value
REASON_MALFORMED = "malformed"


def derive_ridf(bidf: bytes, pn: int) -> int:
    """Rotating identifier for one packet number of a flow.

    SipHash-2-4 over the 16-byte base identifier.  The hash key is the
    32-bit PN repeated four times big-endian, which keeps the stated
    roles (bidf hashed, PN keying) while meeting the 128-bit key size
    of the primitive.  Interoperating implementations must match this
    construction exactly.
    """
    return siphash24(struct.pack(">IIII", pn, pn, pn, pn), bidf)


def derive_ridfs(bidf: bytes, pns: list[int]) -> list[int]:
    """``[derive_ridf(bidf, pn) for pn in pns]`` in one batched SipHash pass.

    Same keys and message as ``derive_ridf``; the batch shares each
    SipRound across all PNs, which makes filling a flow's whole window
    several times cheaper than one scalar hash per PN.
    """
    return siphash24_many([struct.pack(">IIII", pn, pn, pn, pn) for pn in pns], bidf)


def uplink_encode(frame: MacsecFrame, entry: UplinkFlowEntry) -> bytes:
    """Swap sensitive headers for the rotating identifier.

    Payload and ICV are copied untouched; the caller picks up the
    per-destination-class base identifier from the uplink entry.
    """
    tag = frame.sectag
    ridf = derive_ridf(entry.cast(frame.dst).bidf, tag.pn)
    return (
        struct.pack(">QBB", ridf, tag.tci.flags_byte(), tag.sl)
        + frame.secure_data
        + frame.icv
    )


class IdfDownlink(DownlinkFlows):
    """Downlink flow and identifier tables plus the decode path.

    Flows are keyed by base identifier, as in the core table.  The
    identifier table ``ids`` maps each rotating identifier to its
    ``(flow, pn)``, and always holds every PN covered by each flow's
    window; the window tells consumed PNs apart, so replays stay
    classifiable until they slide out of the covered range.

    Identifiers are derived where they enter the table: ``_refill``
    (register, window reset, bind) derives a flow's missing PNs in one
    batch with ``derive_ridfs``; the per-frame slide in ``decode``
    derives each new PN with the scalar ``derive_ridf``.  Either way
    ``hash_calls`` counts one per identifier derived.
    """

    def __init__(self, window_size: int = DEFAULT_WINDOW):
        super().__init__(window_size)
        self.ids: dict[int, tuple[DownlinkFlowEntry, int]] = {}
        self.hash_calls = 0
        self.ridf_collisions = 0

    # -- table maintenance -------------------------------------------------

    def _insert_id(self, flow: DownlinkFlowEntry, pn: int, ridf: int) -> None:
        # every derived identifier comes here once: count its hash
        self.hash_calls += 1
        existing = self.ids.get(ridf)
        if existing is not None and (existing[0] is not flow or existing[1] != pn):
            # cross-flow collision: keep the older entry, count the event
            self.ridf_collisions += 1
            return
        self.ids[ridf] = (flow, pn)
        flow.ids[pn] = ridf

    def _drop_id(self, flow: DownlinkFlowEntry, pn: int) -> None:
        ridf = flow.ids.pop(pn, None)
        if ridf is not None:
            ent = self.ids.get(ridf)
            if ent is not None and ent[0] is flow:
                del self.ids[ridf]

    def _find(self, bidf: bytes, header: HeaderData) -> Optional[DownlinkFlowEntry]:
        entry = self.flows.get(bidf)
        # a flow's identifiers derive from its bidf and ``_refill`` keeps
        # them, so a flow must be found by that bidf and never renamed;
        # finding it by another key would require rebuilding its ids
        assert entry is None or entry.bidf == bidf
        return entry

    def _forget(self, flow: DownlinkFlowEntry) -> None:
        for pn in list(flow.ids):
            self._drop_id(flow, pn)

    def _refill(self, flow: DownlinkFlowEntry) -> None:
        """Drop the identifiers the window left; hash only the PNs it lacks.

        The missing PNs are derived in one batch and inserted in
        ascending PN order, so a cross-flow collision keeps the same
        entry as one scalar hash per PN would; ``hash_calls`` still
        grows by one per identifier derived.
        """
        floor, top = flow.window.floor, flow.window.top
        ids = flow.ids
        for pn in [p for p in ids if p < floor or p > top]:
            self._drop_id(flow, pn)
        missing = [pn for pn in range(floor, top + 1) if pn not in ids]
        for pn, ridf in zip(missing, derive_ridfs(flow.bidf, missing)):
            self._insert_id(flow, pn, ridf)

    # bound on this class, not only inherited, so that each scheme's
    # table upkeep can be timed apart (perfbench/tracing.py)
    register = DownlinkFlows.register
    remove = DownlinkFlows.remove

    # -- decode ------------------------------------------------------------

    def decode(self, body: bytes) -> DecodeResult:
        """Identifier lookup, window acceptance, frame reconstruction."""
        if len(body) < MIN_BODY:
            return DecodeResult(reason=REASON_MALFORMED)
        ridf, tci_flags, sl = struct.unpack_from(">QBB", body)
        ident = self.ids.get(ridf)
        if ident is None:
            return DecodeResult(reason=REASON_UNKNOWN_IDENTIFIER)
        flow, pn = ident
        window = flow.window
        if window.is_seen(pn):
            return DecodeResult(reason=REASON_REPLAY)
        if tci_flags & 0x03:
            # AN bits travel in the flow state, never on the wire
            return DecodeResult(reason=REASON_MALFORMED)
        old_floor, old_top = window.floor, window.top
        status = window.accept(pn)
        if status is not WindowStatus.ACCEPT:
            return DecodeResult(reason=status.value)
        flows = (flow,) if flow.bound is None else (flow, flow.bound)
        for fl in flows:
            for p in range(old_floor, window.floor):
                self._drop_id(fl, p)
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

    def audit(self) -> None:
        """Assert identifier-table coherence against every flow window."""
        owned = 0
        for flow in self.flows.values():
            covered = set(range(flow.window.floor, flow.window.top + 1))
            assert set(flow.ids) <= covered, "entry outside window range"
            missing = covered - set(flow.ids)
            # entries may be missing only through cross-flow collisions
            assert len(missing) <= self.ridf_collisions
            for pn, ridf in flow.ids.items():
                owner, owned_pn = self.ids[ridf]
                assert owner is flow and owned_pn == pn
                assert ridf == derive_ridf(flow.bidf, pn)
                owned += 1
        assert owned == len(self.ids), "orphan identifier entries"
