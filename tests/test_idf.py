"""Identifier scheme: derivation, wire layout, decode paths, table audits."""

import random
import struct
from dataclasses import replace

import pytest

from test_frame import random_frame
from msectun.bench import run_table_sweep
from msectun.flow import PN_MAX, UplinkCast, UplinkFlowEntry, new_bidf
from msectun.frame import (
    BROADCAST_MAC,
    PlainFrame,
    Sci,
    build_macsec,
    endpoint_protect,
    endpoint_verify,
    is_broadcast,
    parse_macsec,
)
from msectun.idf import (
    IdfDownlink,
    derive_ridf,
    derive_ridfs,
    uplink_encode,
)
from msectun.siphash import siphash24

KEY = bytes(range(16))
SCI = Sci(b"\x02\x00\x00\x00\x00\x01", 1)
DST = b"\x02\x00\x00\x00\x00\x02"


class UnboundIdfDownlink(IdfDownlink):
    """Identifier tables that never bind a unicast and a broadcast flow."""

    def _sa_key(self, header):
        return header[12:], is_broadcast(header[:6])


class CountingIdfDownlink(UnboundIdfDownlink):
    """Unbound tables that rebuild each frame with a counted PN.

    The rebuilt frame carries the flow's lowest unseen PN instead of the
    one its identifier was derived from: the failure that rotating
    identifiers and flow binding exist to prevent.
    """

    def decode(self, body: bytes, *rest) -> bytes | str:
        flow = self.ids.get(int.from_bytes(body[:8], "big"))
        counted = None if flow is None else flow.sa.window.lowest_unseen()
        frame = super().decode(body, *rest)
        if isinstance(frame, str):
            return frame
        # the PN sits at bytes 16..19: dst(6) src(6) ethertype(2) tci(1) sl(1)
        return frame[:16] + struct.pack(">I", counted) + frame[20:]


def _header(dst=DST, sci=SCI, an=0):
    """The announced dst|src|sci|an of station ``sci`` sending to ``dst``."""
    return dst + sci.system_id + sci.pack() + bytes((an,))


def _uplink_entry(rng=None, an=0):
    rng = rng or random.Random(1)
    return UplinkFlowEntry(
        sci=SCI.pack(),
        an=an,
        unicast=UplinkCast(new_bidf(rng), DST),
        broadcast=UplinkCast(new_bidf(rng)),
        timeout=1 << 60,
    )


def _encode(frame, entry):
    """The identifier-scheme body of ``frame``, under the cast of ``entry``
    that its destination picks, as the gateway picks it."""
    cast = entry.broadcast if frame.dst == BROADCAST_MAC else entry.unicast
    return uplink_encode(build_macsec(frame), frame.sectag.pn, cast.bidf)


def _protected(pn, dst=DST, payload=b"\x00" * 40, an=0):
    f = endpoint_protect(
        PlainFrame(dst=dst, src=SCI.system_id, ethertype=0x0800, payload=payload),
        KEY,
        SCI,
        an,
        pn,
    )
    return f, build_macsec(f)


def _downlink(entry, window=8, pn=1, broadcast=False):
    dn = IdfDownlink(window_size=window)
    dn.register(entry.unicast.bidf, _header(an=entry.an), pn)
    if broadcast:
        dn.register(entry.broadcast.bidf, _header(BROADCAST_MAC, an=entry.an), pn)
    return dn


# -- derivation ---------------------------------------------------------------


def test_derive_deterministic():
    bidf = bytes(range(16))
    assert derive_ridf(bidf, 7) == derive_ridf(bidf, 7)


def test_derive_matches_documented_construction():
    bidf = bytes(range(16))
    pn = 0xDEADBEEF
    key = struct.pack(">IIII", pn, pn, pn, pn)
    assert derive_ridf(bidf, pn) == siphash24(key, bidf)


@pytest.mark.parametrize("pn", [1, 2**16, 2**31, 2**32 - 1])
def test_derive_matches_siphash24_at_edge_pns(pn):
    rng = random.Random(pn)
    for _ in range(20):
        bidf = rng.randbytes(16)
        assert derive_ridf(bidf, pn) == siphash24(struct.pack(">IIII", pn, pn, pn, pn), bidf)


def test_derive_matches_siphash24_at_random_pns():
    rng = random.Random(3)
    for _ in range(500):
        bidf, pn = rng.randbytes(16), rng.randrange(1, 2**32)
        assert derive_ridf(bidf, pn) == siphash24(struct.pack(">IIII", pn, pn, pn, pn), bidf)


def test_derive_distinct_across_pn_sweep():
    bidf = b"\x5a" * 16
    seen = {derive_ridf(bidf, pn) for pn in range(1, 100_001)}
    assert len(seen) == 100_000


def test_derive_distinct_across_bidf():
    assert derive_ridf(b"\x00" * 16, 1) != derive_ridf(b"\x01" + b"\x00" * 15, 1)


def test_ridf_bit_balance():
    """Regression tripwire: mean popcount of derived identifiers ~ 32."""
    bidf = bytes(range(16))
    n = 10_000
    counts = [bin(derive_ridf(bidf, pn)).count("1") for pn in range(1, n + 1)]
    mean = sum(counts) / n
    assert 31.5 < mean < 32.5
    var = sum((c - mean) ** 2 for c in counts) / n
    assert 10 < var < 22  # binomial(64, .5) variance is 16


def _pn_sets(window):
    """Contiguous and gapped PN sets of 1 to 2 * window PNs, some ending at PN_MAX."""
    rng = random.Random(window)
    for n in (1, 2, window - 1, window, window + 1, 2 * window):
        for start in (1, 1000, PN_MAX - n + 1):
            yield list(range(start, start + n))
        gapped = sorted(rng.sample(range(1, 4 * n + 1), n))
        yield gapped
        yield [PN_MAX - 4 * n + p for p in gapped]


@pytest.mark.parametrize("window", [8, 64])
def test_derive_ridfs_matches_scalar(window):
    bidf = new_bidf(random.Random(window))
    for pns in _pn_sets(window):
        assert derive_ridfs(bidf, pns) == [derive_ridf(bidf, pn) for pn in pns]


def test_derive_ridfs_random_bidfs():
    rng = random.Random(7)
    for _ in range(50):
        bidf = new_bidf(rng)
        pns = sorted(rng.sample(range(1, PN_MAX + 1), rng.randint(1, 128)))
        assert derive_ridfs(bidf, pns) == [derive_ridf(bidf, pn) for pn in pns]
    assert derive_ridfs(bidf, []) == []


# -- uplink encoding -----------------------------------------------------------


def test_encode_layout_and_shrink():
    entry = _uplink_entry()
    f, raw = _protected(pn=7)
    body = _encode(f, entry)
    assert len(body) == len(raw) - 18
    ridf, tci_flags, sl = struct.unpack_from(">QBB", body)
    assert ridf == derive_ridf(entry.unicast.bidf, 7)
    assert tci_flags & 0x03 == 0  # AN bits never on the wire
    assert sl == f.sectag.sl
    assert body[10:] == f.secure_data + f.icv


def test_encode_broadcast_uses_broadcast_bidf():
    entry = _uplink_entry()
    f, _ = _protected(pn=3, dst=BROADCAST_MAC)
    body = _encode(f, entry)
    ridf = struct.unpack_from(">Q", body)[0]
    assert ridf == derive_ridf(entry.broadcast.bidf, 3)
    assert ridf != derive_ridf(entry.unicast.bidf, 3)


def test_wire_opacity_no_sensitive_substrings():
    """Sentinel-valued sensitive fields never appear in the wire bytes."""
    sci = Sci(b"\xa1\xa2\xa3\xa4\xa5\xa6", 0xB1B2)
    dst = b"\xc1\xc2\xc3\xc4\xc5\xc6"
    entry = UplinkFlowEntry(
        sci=sci.pack(), an=0, unicast=UplinkCast(b"\x11" * 16, dst), broadcast=UplinkCast(b"\x22" * 16),
        timeout=1 << 60,
    )
    for pn in (0xD1D2D3D4, 0xD5D6D7D8):
        f = endpoint_protect(
            PlainFrame(dst=dst, src=sci.system_id, ethertype=0x0800, payload=bytes(60)),
            KEY, sci, 0, pn,
        )
        body = _encode(f, entry)
        for needle in (dst, sci.system_id, sci.pack(), struct.pack(">I", pn)):
            assert needle not in body


# -- downlink decode --------------------------------------------------------------


def test_roundtrip_bit_exact():
    entry = _uplink_entry()
    dn = _downlink(entry)
    for pn in range(1, 20):
        f, raw = _protected(pn=pn)
        frame = dn.decode(_encode(f, entry))
        assert frame == raw
        endpoint_verify(parse_macsec(frame), KEY)
    dn.audit()


def test_roundtrip_keeps_any_tci_flags_bit_exact():
    """E set and C clear, as the gateway tunnels them; ES, SCB, AN and SL
    take any value, and each comes back bit-exact."""
    rng = random.Random(18)
    seen = set()
    for _ in range(300):
        f = random_frame(rng)
        tag = f.sectag
        f.sectag = replace(tag, tci=replace(tag.tci, e=True, c=False))
        raw = build_macsec(f)
        seen.add(raw[14])
        bidf = new_bidf(rng)
        dn = IdfDownlink(window_size=8)
        dn.register(bidf, f.dst + f.src + tag.sci.pack() + bytes((tag.tci.an,)), tag.pn)
        assert dn.decode(uplink_encode(raw, tag.pn, bidf)) == raw
    # every ES, SCB and AN combination came through
    assert len(seen) == 16


def test_replay_same_wire_frame():
    entry = _uplink_entry()
    dn = _downlink(entry)
    f, _ = _protected(pn=1)
    body = _encode(f, entry)
    assert isinstance(dn.decode(body), bytes)
    assert dn.decode(body) == "replay"
    dn.audit()


def test_unknown_identifier_random_injections():
    entry = _uplink_entry()
    dn = _downlink(entry, window=64)
    rng = random.Random(17)
    accepted = 0
    for _ in range(100_000):
        accepted += isinstance(dn.decode(rng.randbytes(60)), bytes)
    assert accepted == 0
    assert dn.flows  # state untouched
    dn.audit()


def test_out_of_window_after_overgap():
    entry = _uplink_entry()
    dn = _downlink(entry, window=4)
    assert isinstance(dn.decode(_encode(_protected(1)[0], entry)), bytes)
    # identifiers beyond the precalculated set cannot even be looked up
    assert dn.decode(_encode(_protected(100)[0], entry)) == "unknown_identifier"


def test_loss_tolerance_matches_oracle():
    """Delivery patterns accepted by the window oracle decode fully."""
    rng = random.Random(4)
    for trial in range(50):
        size = rng.randint(2, 16)
        entry = _uplink_entry(rng=random.Random(trial + 10))
        dn = _downlink(entry, window=size)
        flow = dn.flows[entry.unicast.bidf]
        pn = 1
        delivered = []
        while pn < 200:
            if rng.random() < 0.7:
                delivered.append(pn)
            pn += 1
        expected_ok = []
        for pn in delivered:
            f, raw = _protected(pn=pn)
            if isinstance(dn.decode(_encode(f, entry)), bytes):
                expected_ok.append(pn)
        # every accepted pn reconstructs bit-exactly and never repeats
        assert len(set(expected_ok)) == len(expected_ok)
        dn.audit()
        # in-window gaps never caused losses: consecutive accepted pns
        # with gap < window must cover all delivered pns in between
        ok = set(expected_ok)
        for prev, nxt in zip(expected_ok, expected_ok[1:]):
            for mid in range(prev + 1, nxt):
                if mid in delivered and nxt - prev <= 1:
                    assert mid in ok


def test_bound_flows_share_pn_and_reconstruct():
    entry = _uplink_entry()
    dn = _downlink(entry, window=8, broadcast=True)
    assert dn.flows[entry.unicast.bidf].sa is dn.flows[entry.broadcast.bidf].sa
    for pn in range(1, 30):
        dst = BROADCAST_MAC if pn % 3 == 0 else DST
        f, raw = _protected(pn=pn, dst=dst)
        frame = dn.decode(_encode(f, entry))
        assert frame == raw, (pn, frame)
    dn.audit()


def test_unbound_broadcast_window_stalls():
    entry = _uplink_entry()
    dn = UnboundIdfDownlink(window_size=4)
    dn.register(entry.unicast.bidf, _header(), 1)
    dn.register(entry.broadcast.bidf, _header(BROADCAST_MAC), 1)
    # unicast consumes pns 1..20; broadcast window never advances
    for pn in range(1, 21):
        f, _ = _protected(pn=pn)
        assert isinstance(dn.decode(_encode(f, entry)), bytes)
    f, _ = _protected(pn=21, dst=BROADCAST_MAC)
    assert dn.decode(_encode(f, entry)) == "unknown_identifier"


def test_naive_pn_reconstruction_hook_reproduces_wrong_pn():
    """Counting-based reconstruction delivers frames with stale PNs."""
    entry = _uplink_entry()
    dn = CountingIdfDownlink(window_size=8)
    dn.register(entry.unicast.bidf, _header(), 1)
    dn.register(entry.broadcast.bidf, _header(BROADCAST_MAC), 1)
    # pn 1 goes out as unicast, pn 2 as broadcast: the broadcast flow's
    # counter still says 1, so the rebuilt frame carries the wrong PN
    f, _ = _protected(pn=1)
    assert isinstance(dn.decode(_encode(f, entry)), bytes)
    f, raw = _protected(pn=2, dst=BROADCAST_MAC)
    frame = dn.decode(_encode(f, entry))
    assert isinstance(frame, bytes)
    assert frame != raw
    assert parse_macsec(frame).sectag.pn == 1
    with pytest.raises(Exception):
        endpoint_verify(parse_macsec(frame), KEY)


def test_reannounce_with_higher_pn_resets_window():
    entry = _uplink_entry()
    dn = _downlink(entry, window=8)
    f, _ = _protected(pn=500)
    assert dn.decode(_encode(f, entry)) == "unknown_identifier"
    dn.register(entry.unicast.bidf, _header(), 500)
    assert isinstance(dn.decode(_encode(f, entry)), bytes)
    dn.audit()


def test_duplicate_announce_idempotent():
    entry = _uplink_entry()
    dn = _downlink(entry, window=8)
    before = dn.held(dn.flows[entry.unicast.bidf])
    dn.register(entry.unicast.bidf, _header(), 1)
    assert dn.held(dn.flows[entry.unicast.bidf]) == before
    dn.audit()


def test_remove_flow_clears_identifiers():
    entry = _uplink_entry()
    dn = _downlink(entry, window=8, broadcast=True)
    dn.remove(entry.unicast.bidf)
    assert entry.unicast.bidf not in dn.flows
    assert dn.flows[entry.broadcast.bidf].sa.unicast is None
    dn.audit()


def test_batched_refill_keeps_older_entry_on_collision(monkeypatch):
    """A cross-flow collision during a batched fill keeps the older entry.

    With an identifier that ignores the bidf, a second flow at PN 5
    collides with the first flow's PNs 5..8 and keeps only 9..12, as
    one scalar derivation per PN in ascending order would.
    """
    import msectun.idf as idf

    monkeypatch.setattr(idf, "derive_ridf", lambda bidf, pn: pn)
    monkeypatch.setattr(idf, "derive_ridfs", lambda bidf, pns: list(pns))
    dn = IdfDownlink(window_size=8)
    first = dn.register(b"\x01" * 16, _header(), 1)
    other = Sci(b"\x02\x00\x00\x00\x00\x09", 1)
    second = dn.register(b"\x02" * 16, _header(sci=other), 5)
    assert dn.ridf_collisions == 4 and dn.hash_calls_downlink == 16
    assert sorted(dn.held(first)) == list(range(1, 9))
    assert sorted(dn.held(second)) == list(range(9, 13))
    assert all(dn.ids[pn] is first for pn in range(5, 9))
    dn.audit()


def test_steady_state_hash_counts():
    """One derivation per in-order downlink accept (slide of one)."""
    entry = _uplink_entry()
    dn = _downlink(entry, window=16)
    for pn in range(1, 6):
        dn.decode(_encode(_protected(pn)[0], entry))
    before = dn.hash_calls_downlink
    for pn in range(6, 106):
        assert isinstance(dn.decode(_encode(_protected(pn)[0], entry)), bytes)
    assert dn.hash_calls_downlink - before == 100


def test_refill_hashes_only_new_identifiers():
    """Binding and re-announce hash only the PNs a flow does not hold."""
    window = 16
    entry = _uplink_entry()
    dn = IdfDownlink(window_size=window)
    uni = dn.register(entry.unicast.bidf, _header(), 1)
    assert dn.hash_calls_downlink == window
    dn.audit()
    # the broadcast partner joins the SA's unicast window [1, 16]: the
    # unicast flow keeps its identifiers, only the partner is hashed
    bc = dn.register(entry.broadcast.bidf, _header(BROADCAST_MAC), 2)
    assert bc.sa is uni.sa and (uni.sa.window.floor, uni.sa.window.top) == (1, window)
    assert dn.hash_calls_downlink == 2 * window
    dn.audit()
    # a re-announce at PN 5 resets the shared window to [5, 20]: PNs
    # 17..20 are new to the range, for each of the two flows
    before = dn.hash_calls_downlink
    dn.register(entry.unicast.bidf, _header(), 5)
    assert (uni.sa.window.floor, uni.sa.window.top) == (5, window + 4)
    assert dn.hash_calls_downlink - before == 2 * 4
    assert sorted(dn.held(uni)) == sorted(dn.held(bc)) == list(range(5, window + 5))
    dn.audit()
    # a reset past the whole range renews every identifier
    before = dn.hash_calls_downlink
    dn.register(entry.unicast.bidf, _header(), 1000)
    assert dn.hash_calls_downlink - before == 2 * window
    assert len(dn.ids) == 2 * window
    dn.audit()


def test_identifier_table_memory_per_identifier():
    """A held identifier costs at most 140 B, flow records included.

    1000 flows of window 64 registered at PN 1000, measured as the
    tracemalloc delta over building the announcements and the table
    (``msec-bench --table-flows 1000``).
    """
    [row] = run_table_sweep([1000], window=64)
    assert row.identifiers == 64_000
    assert row.bytes_per_id <= 140
