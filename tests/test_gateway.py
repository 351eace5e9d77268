"""Gateway engine: uplink/downlink paths, discovery, learning, counters."""

import random
from collections import Counter

import pytest

from conftest import MAC_A, MAC_B, SCI_A, SCI_B, protect
from msectun.encap import EncapScheme, decap, encap
from msectun.flow import DEFAULT_WINDOW
from msectun.frame import BROADCAST_MAC, Sci
from msectun.fullenc import NONCE_LEN
from msectun.gateway import (
    DROP_REASONS,
    HELLO_INTERVAL_US,
    MKA_SLOTS,
    QUEUE_LIMIT,
    GatewayConfig,
    GatewayEngine,
    Scheme,
)
from msectun.mgmt import MgmtKind, MgmtMessage, decode_message, encode_message
from msectun.pair import EnginePair


@pytest.mark.parametrize("scheme", list(Scheme))
def test_transparency_roundtrip(scheme):
    pair = EnginePair(scheme)
    sent = []
    for pn in range(1, 51):
        dst = BROADCAST_MAC if pn % 7 == 0 else MAC_B
        raw = protect(dst, MAC_A, SCI_A, pn)
        sent.append(raw)
        pair.lan_a(raw, now=pn)
    assert pair.emitted["B"] == sent
    assert pair.a.snapshot_stats().frames_tunneled == 50
    assert pair.b.snapshot_stats().frames_reconstructed == 50
    assert pair.b.snapshot_stats().dropped() == 0


@pytest.mark.parametrize("scheme", [Scheme.IDF, Scheme.ENC])
def test_learning_narrows_targets(scheme):
    pair = EnginePair(scheme)
    raw = protect(MAC_B, MAC_A, SCI_A, 1)
    pair.lan_a(raw)
    entry = pair.a.uplink.get(SCI_A.pack(), 0)
    assert entry.unicast.remote_gateway is None  # not learned yet
    reply = protect(MAC_A, MAC_B, SCI_B, 1)
    pair.lan_b(reply)
    assert entry.unicast.remote_gateway == "B"


def test_non_macsec_dropped():
    pair = EnginePair(Scheme.IDF)
    pair.lan_a(bytes(12) + b"\x08\x00" + bytes(50))
    assert pair.a.snapshot_stats().drops["not_macsec"] == 1
    assert pair.a.snapshot_stats().frames_tunneled == 0


def test_short_garbage_dropped():
    pair = EnginePair(Scheme.IDF)
    pair.lan_a(bytes(12) + b"\x88\xe5" + bytes(10))
    assert pair.a.snapshot_stats().drops["parse_error"] == 1


def test_unsupported_shape_dropped():
    pair = EnginePair(Scheme.IDF)
    raw = protect(MAC_B, MAC_A, SCI_A, 1)
    mutated = bytearray(raw)
    mutated[14] &= ~0x08  # clear E flag, keep everything else parseable
    # ICV no longer matters on the uplink; the gateway rejects the shape
    # before any cryptographic check (SL stays consistent so it parses)
    pair.lan_a(bytes(mutated))
    assert pair.a.snapshot_stats().drops["unsupported_shape"] == 1


def test_zero_pn_dropped():
    pair = EnginePair(Scheme.IDF)
    raw = protect(MAC_B, MAC_A, SCI_A, 1)
    mutated = bytearray(raw)
    mutated[16:20] = (0).to_bytes(4, "big")
    pair.lan_a(bytes(mutated))
    assert pair.a.snapshot_stats().drops["zero_pn"] == 1


def test_mka_diverted_to_mgmt_channel():
    pair = EnginePair(Scheme.IDF)
    eapol = MAC_B + MAC_A + b"\x88\x8e" + b"key agreement payload"
    pair.lan_a(eapol)
    assert pair.emitted["B"] == [eapol]  # re-emitted verbatim on the far LAN
    assert pair.a.snapshot_stats().mka_forwarded == 1
    assert pair.a.snapshot_stats().frames_tunneled == 0
    assert pair.a.snapshot_stats().datagrams_sent == 0  # never in the tunnel


@pytest.mark.parametrize(
    "body",
    [b"", b"\x88\x8e\x03", MAC_B + MAC_A + b"\x08\x00" + bytes(50)],
    ids=["empty", "3-byte", "ipv4"],
)
def test_mka_forward_emits_only_key_agreement_frames(body):
    """A forwarded frame reaches the LAN only as the uplink diverts it:
    14 bytes or more with EtherType 0x888E."""
    pair = EnginePair(Scheme.IDF)
    pair.b.on_mgmt_bytes(encode_message(MgmtMessage.mka(body)), "A", now=0)
    pair.b.on_mgmt_message(MgmtMessage.mka(body), "A", now=0)
    assert pair.emitted["B"] == []
    stats = pair.b.snapshot_stats()
    assert stats.drops == Counter(mgmt_malformed=2)
    assert stats.bytes_lan_out == 0


def test_mixed_scheme_datagram_rejected():
    pair = EnginePair(Scheme.IDF)
    datagram = encap(b"\x00" * 60, EncapScheme.ENC)
    pair.b.on_tunnel_datagram(datagram, "A", now=0)
    assert pair.b.snapshot_stats().drops["scheme_mismatch"] == 1


def test_decap_garbage_rejected():
    pair = EnginePair(Scheme.IDF)
    pair.b.on_tunnel_datagram(b"junk", "A", now=0)
    pair.b.on_tunnel_datagram(b"", "A", now=0)
    assert pair.b.snapshot_stats().drops["decap_error"] == 2


def test_nonzero_reserved_bytes_are_a_decap_error():
    pair = EnginePair(Scheme.IDF)
    pair.transit = lambda dg: dg[:7] + b"\x01" + dg[8:]
    pair.lan_a(protect(MAC_B, MAC_A, SCI_A, 1))
    assert pair.b.snapshot_stats().drops["decap_error"] == 1
    assert pair.b.snapshot_stats().dropped() == 1
    assert pair.emitted["B"] == []


def test_too_large_frame_dropped():
    pair = EnginePair(Scheme.NAIVE)
    raw = protect(MAC_B, MAC_A, SCI_A, 1, payload=bytes(1480))
    pair.lan_a(raw)
    assert pair.a.snapshot_stats().drops["too_large"] == 1


def test_unicast_dst_change_rotates_flow():
    pair = EnginePair(Scheme.IDF)
    raw = protect(MAC_B, MAC_A, SCI_A, 1)
    pair.lan_a(raw)
    old_bidf = pair.a.uplink.get(SCI_A.pack(), 0).unicast.bidf
    other_dst = b"\x02\xcc\x00\x00\x00\x01"
    raw2 = protect(other_dst, MAC_A, SCI_A, 2)
    pair.lan_a(raw2)
    entry = pair.a.uplink.get(SCI_A.pack(), 0)
    assert entry.unicast.bidf != old_bidf
    assert entry.unicast.dst == other_dst
    assert pair.a.snapshot_stats().warnings["unicast_dst_change"] == 1
    assert pair.emitted["B"][-1] == raw2  # still delivered, fresh flow


def test_flow_expiry_propagates():
    pair = EnginePair(Scheme.IDF, flow_timeout_us=1000)
    raw = protect(MAC_B, MAC_A, SCI_A, 1)
    pair.lan_a(raw, now=0)
    bidf = pair.a.uplink.get(SCI_A.pack(), 0).unicast.bidf
    assert bidf in pair.b.codec.flows
    pair.a.on_timer(now=2000)
    assert pair.a.uplink.get(SCI_A.pack(), 0) is None
    assert bidf not in pair.b.codec.flows


@pytest.mark.parametrize("scheme", list(Scheme))
def test_roaming_device_keeps_its_sa_across_gateways(scheme):
    """A device moves from A's LAN to C's under one SA; A's SA then expires.

    B learns the SA from C while A's flows are still registered, so C's
    announcements take over the SA's two casts; A's late expiry must
    leave C's flows and their shared window intact."""
    pair = EnginePair(scheme, window=8, names=("A", "B", "C"), flow_timeout_us=1000)
    gw_c = pair.gws["C"]
    pns = iter(range(1, 42))

    def sealed(dsts):
        # one SA: the PNs continue across both LANs
        return [protect(dst, MAC_A, SCI_A, next(pns)) for dst in dsts]

    before = sealed([MAC_B, BROADCAST_MAC] * 4)
    for raw in before:
        pair.lan_a(raw, now=0)
    moved = sealed([MAC_B, BROADCAST_MAC] * 4)
    for raw in moved:
        gw_c.on_lan_frame(raw, 500)
    pair.a.on_timer(1600)
    assert pair.a.uplink.get(SCI_A.pack(), 0) is None
    after = sealed([BROADCAST_MAC] * 20 + [MAC_B] * 5)
    for raw in after:
        gw_c.on_lan_frame(raw, 1600)
    assert pair.emitted["B"] == before + moved + after
    assert pair.b.snapshot_stats().drops == Counter()
    if scheme is Scheme.IDF:
        pair.b.codec.audit()


@pytest.mark.parametrize("scheme", list(Scheme))
def test_expire_counts_only_from_the_flows_origin(scheme):
    """C sends B an expire for the flow A announced: B keeps the flow,
    and A's frames keep arriving."""
    pair = EnginePair(scheme, names=("A", "B", "C"))
    pns = iter(range(1, 9))
    first = [protect(MAC_B, MAC_A, SCI_A, next(pns)) for _ in range(3)]
    for raw in first:
        pair.lan_a(raw)
    [bidf] = pair.b.codec.flows
    pair.b.on_mgmt_bytes(encode_message(MgmtMessage.expire(bidf)), "C", now=0)
    assert bidf in pair.b.codec.flows
    later = [protect(MAC_B, MAC_A, SCI_A, next(pns)) for _ in range(5)]
    for raw in later:
        pair.lan_a(raw)
    assert pair.emitted["B"] == first + later
    assert pair.b.snapshot_stats().drops == Counter()


@pytest.mark.parametrize("scheme", list(Scheme))
def test_flow_state_ends_with_its_flow(scheme):
    """Announce, learn and expire many flows: no per-flow state remains."""
    pair = EnginePair(scheme, flow_timeout_us=1000)
    n = 16
    for i in range(n):
        mac_a, mac_b = MAC_A[:5] + bytes([i]), MAC_B[:5] + bytes([i])
        sci_a, sci_b = Sci(mac_a, 1), Sci(mac_b, 1)
        pair.lan_a(protect(mac_b, mac_a, sci_a, 1), now=0)
        pair.lan_a(protect(BROADCAST_MAC, mac_a, sci_a, 2))
        pair.lan_b(protect(mac_a, mac_b, sci_b, 1))  # the reply is learned
    for gw in (pair.a, pair.b):
        assert sum(f.learned for f in gw.codec.flows.values()) == n
    pair.a.on_timer(now=2000)
    pair.b.on_timer(now=2000)
    for gw in (pair.a, pair.b):
        for table in (gw.codec, gw.uplink):
            sizes = {k: len(v) for k, v in vars(table).items() if isinstance(v, dict)}
            assert not any(sizes.values()), sizes
        assert len(gw.uplink) == 0


def _check_indexes(gw):
    """Every lookup index agrees with a full scan of its table."""
    up = gw.uplink.entries()
    assert {b: id(e) for b, e in gw.uplink._by_bidf.items()} == {
        e.unicast.bidf: id(e) for e in up
    }
    dsts = Counter((e.sci[:6], e.unicast.dst) for e in up if e.unicast.dst is not None)
    assert gw.uplink._dst_count == dict(dsts)
    for e in up:
        assert gw.uplink.by_unicast_bidf(e.unicast.bidf) is e
        if e.unicast.dst is not None:
            assert gw.uplink.has_unicast(e.sci[:6], e.unicast.dst)

    down = gw.codec
    scan = {}
    for bidf, flow in down.flows.items():
        assert flow.bidf == bidf
        scan.setdefault(flow.header[:12], []).append(id(flow))
    assert {k: [id(f) for f in v] for k, v in down._by_addr.items()} == scan
    # each flow sits in its cast's slot of its SA record, and each SA
    # record holds only flows of the table
    for flow in down.flows.values():
        sa = flow.sa
        assert (sa.broadcast if flow.header[:6] == BROADCAST_MAC else sa.unicast) is flow
        assert down._sas[flow.header[12:]] is sa
    slots = [f for sa in down._sas.values() for f in (sa.unicast, sa.broadcast) if f is not None]
    assert sorted(map(id, slots)) == sorted(map(id, down.flows.values()))
    for addr, flows in scan.items():
        assert [id(f) for f in down.addressed(addr[:6], addr[6:])] == flows


@pytest.mark.parametrize("scheme", list(Scheme))
def test_indexes_match_full_scans(scheme):
    """New SAs, replies, AN rollover, destination changes and expiry."""
    rnd = random.Random(20)
    pair = EnginePair(scheme, flow_timeout_us=1000)
    macs = {"A": [MAC_A[:5] + bytes([i]) for i in range(4)]}
    macs["B"] = [MAC_B[:5] + bytes([i]) for i in range(4)]
    an = {mac: 0 for side in macs.values() for mac in side}
    pn = Counter()
    send = {"A": pair.lan_a, "B": pair.lan_b}
    seen = Counter()
    for _ in range(300):
        roll = rnd.random()
        if roll < 0.05:
            seen["expired"] += len(pair.a.uplink) + len(pair.b.uplink)
            pair.now += 2000  # every entry times out
            pair.a.on_timer(pair.now)
            pair.b.on_timer(pair.now)
        elif roll < 0.12:
            mac = rnd.choice(macs[rnd.choice("AB")])
            an[mac] = (an[mac] + 1) % 4  # the device moves to a new SA
        else:
            side = rnd.choice("AB")
            src = rnd.choice(macs[side])
            far = macs["B" if side == "A" else "A"]
            dst = BROADCAST_MAC if rnd.random() < 0.15 else rnd.choice(far)
            pn[src, an[src]] += 1
            pair.now += rnd.randrange(300)
            send[side](protect(dst, src, Sci(src, 1), pn[src, an[src]], an=an[src]))
        for gw in (pair.a, pair.b):
            _check_indexes(gw)
            seen["learned"] += sum(e.unicast.remote_gateway is not None for e in gw.uplink.entries())
    # the sequence reached learning, destination changes and expiry
    seen.update(pair.a.snapshot_stats().warnings)
    assert seen["learned"] and seen["unicast_dst_change"] and seen["expired"], seen
    assert pair.b.snapshot_stats().warnings["unicast_dst_change"]


def test_stats_monotone_and_snapshots_independent():
    pair = EnginePair(Scheme.ENC)
    snaps = []
    for pn in range(1, 20):
        raw = protect(MAC_B, MAC_A, SCI_A, pn)
        pair.lan_a(raw)
        snaps.append(pair.a.snapshot_stats())
    for earlier, later in zip(snaps, snaps[1:]):
        assert later.frames_tunneled >= earlier.frames_tunneled
        assert later.block_ops_uplink >= earlier.block_ops_uplink
    fresh = EnginePair(Scheme.ENC).a.snapshot_stats()
    assert fresh.frames_tunneled == 0 and fresh.dropped() == 0


def test_enc_rekey_on_new_sa():
    pair = EnginePair(Scheme.ENC)
    raw = protect(MAC_B, MAC_A, SCI_A, 1)
    pair.lan_a(raw)
    assert pair.a.peers["B"].send.current.epoch == 1
    assert pair.b.peers["A"].recv.current.epoch == 1
    # second SA (AN rollover) bumps the epoch again
    raw2 = protect(MAC_B, MAC_A, SCI_A, 1, an=1)
    pair.lan_a(raw2)
    assert pair.a.peers["B"].send.current.epoch == 2
    assert pair.emitted["B"] == [raw, raw2]


def test_duplicate_announce_is_idempotent():
    pair = EnginePair(Scheme.IDF)
    raw = protect(MAC_B, MAC_A, SCI_A, 1)
    pair.lan_a(raw)
    entry = pair.a.uplink.get(SCI_A.pack(), 0)
    msg = encode_message(
        MgmtMessage.announce(
            entry.unicast.bidf,
            pair.b.codec.flows[entry.unicast.bidf].header,
            1,
        )
    )
    downlink = pair.b.codec
    before = downlink.held(downlink.flows[entry.unicast.bidf])
    pair.b.on_mgmt_bytes(msg, "A", now=0)
    assert downlink.held(downlink.flows[entry.unicast.bidf]) == before


def test_learned_conflict_warns_last_writer_wins():
    pair = EnginePair(Scheme.IDF, names=("A", "B", "C"))
    raw = protect(MAC_B, MAC_A, SCI_A, 1)
    pair.lan_a(raw)
    entry = pair.a.uplink.get(SCI_A.pack(), 0)
    pair.a.on_mgmt_message(MgmtMessage.learned(entry.unicast.bidf), "B", now=0)
    assert entry.unicast.remote_gateway == "B"
    pair.a.on_mgmt_message(MgmtMessage.learned(entry.unicast.bidf), "C", now=0)
    assert entry.unicast.remote_gateway == "C"
    assert pair.a.snapshot_stats().warnings["learned_conflict"] == 1


def test_mgmt_garbage_counted():
    pair = EnginePair(Scheme.IDF)
    pair.a.on_mgmt_bytes(b"\x00\x01garbage", "B", now=0)
    assert pair.a.snapshot_stats().drops["mgmt_malformed"] == 1


@pytest.mark.parametrize("scheme", list(Scheme))
def test_stats_schema_is_fixed(scheme):
    """``as_dict`` has every drop column before the first drop fires."""
    pair = EnginePair(scheme)
    columns = list(pair.b.snapshot_stats().as_dict())
    pair.lan_a(bytes(64))  # not MACsec
    pair.b.on_mgmt_bytes(b"\x00\x01garbage", "A", now=0)
    pair.b.on_tunnel_datagram(b"\x00", "A", now=0)
    pair.b.on_tunnel_datagram(encap(bytes(80), pair.b.codec.tag), "A", now=0)
    pair.b.on_tunnel_datagram(encap(bytes(80), pair.b.codec.tag), "X", now=0)
    for gw in (pair.a, pair.b):
        stats = gw.snapshot_stats()
        assert set(stats.drops) <= set(DROP_REASONS)
        assert list(stats.as_dict()) == columns
    assert pair.a.snapshot_stats().dropped() + pair.b.snapshot_stats().dropped() >= 3
    with pytest.raises(ValueError):
        pair.a._drop("undeclared")  # a new reason must be declared, not appended


def test_config_validation():
    with pytest.raises(ValueError):
        GatewayConfig(own_id="A", peers=[])
    with pytest.raises(ValueError):
        GatewayConfig(own_id="A", peers=["A"])
    with pytest.raises(ValueError, match="window"):
        GatewayConfig(own_id="A", peers=["B"], window=0)
    cfg = GatewayConfig(own_id="A", peers=["B"], scheme="enc")
    assert cfg.scheme is Scheme.ENC


@pytest.mark.parametrize("window", [True, 2.5, "8"])
def test_window_must_be_an_integer(window):
    """A bool or a non-integer window is refused before the data plane
    could meet it."""
    with pytest.raises(ValueError, match="^window: "):
        GatewayConfig(own_id="A", peers=["B"], window=window)
    with pytest.raises(ValueError, match="^window: "):
        EnginePair(Scheme.IDF, window=window)


def test_queue_until_announce_acked():
    """Frames for a flow queue while the mgmt channel is down."""
    down = {"flag": True}

    pair = EnginePair(Scheme.IDF)
    real_send = pair.a.send_mgmt
    pair.a.send_mgmt = lambda p, d: (not down["flag"]) and real_send(p, d)
    for pn in range(1, 4):
        raw = protect(MAC_B, MAC_A, SCI_A, pn)
        pair.lan_a(raw)
    assert pair.emitted["B"] == []  # nothing escaped while unannounced
    down["flag"] = False
    raw4 = protect(MAC_B, MAC_A, SCI_A, 4)
    pair.lan_a(raw4)
    assert len(pair.emitted["B"]) == 4  # queue flushed in order, then new


@pytest.mark.parametrize("scheme", list(Scheme))
def test_queued_frames_end_with_their_sa(scheme):
    """An SA that expires before its announcement takes its queue along."""
    pair = EnginePair(scheme, flow_timeout_us=1000)
    real_send = pair.a.send_mgmt
    up = {"flag": False}
    pair.a.send_mgmt = lambda p, d: up["flag"] and real_send(p, d)
    pair.lan_a(protect(MAC_B, MAC_A, SCI_A, 1), now=0)
    pair.lan_a(protect(BROADCAST_MAC, MAC_A, SCI_A, 2))
    pair.now = 2000
    pair.a.on_timer(pair.now)
    assert pair.a.uplink.get(SCI_A.pack(), 0) is None
    assert pair.a.snapshot_stats().drops["unregistered_queue_overflow"] == 2

    up["flag"] = True
    fresh = [protect(MAC_B, MAC_A, SCI_A, pn) for pn in range(1000, 1020)]
    for raw in fresh:
        pair.lan_a(raw)
    assert pair.emitted["B"] == fresh  # nothing queued before expiry
    entry = pair.a.uplink.get(SCI_A.pack(), 0)
    assert entry.unicast.pending == [] and entry.broadcast.pending == []


def test_queue_overflow_drops_oldest():
    pair = EnginePair(Scheme.IDF)
    pair.a.send_mgmt = lambda p, d: False
    for pn in range(1, QUEUE_LIMIT + 7):
        raw = protect(MAC_B, MAC_A, SCI_A, pn)
        pair.lan_a(raw)
    assert pair.a.snapshot_stats().drops["unregistered_queue_overflow"] == 6
    pending = pair.a.uplink.get(SCI_A.pack(), 0).unicast.pending
    assert [pn for pn, _ in pending] == list(range(7, QUEUE_LIMIT + 7))


@pytest.mark.parametrize("scheme", list(Scheme))
def test_announcement_keeps_the_newest_tunneled_pn(scheme):
    """After release, each cast's one announcement holds the PN of its
    newest tunneled frame, where a peer that takes it later starts."""
    pair = EnginePair(scheme)
    frames = [protect(MAC_B, MAC_A, SCI_A, pn) for pn in range(1, 21)]
    frames += _broadcasts(range(21, 26))
    for raw in frames:
        pair.lan_a(raw)
    assert pair.emitted["B"] == frames
    entry = pair.a.uplink.get(SCI_A.pack(), 0)
    assert entry.unicast.announce.pn == 20
    assert entry.broadcast.announce.pn == 25


def _refuse(gw, refusing):
    """Make ``gw``'s management channel refuse the peers in ``refusing``."""
    real_send = gw.send_mgmt
    gw.send_mgmt = lambda p, d: p not in refusing and real_send(p, d)


def _broadcasts(pns):
    return [protect(BROADCAST_MAC, MAC_A, SCI_A, pn) for pn in pns]


@pytest.mark.parametrize("scheme", list(Scheme))
def test_refusing_peer_holds_back_no_other(scheme):
    """[B refusing, C up]: C gets every frame; B, once back, joins at the current PN.

    While B refuses, a scheme that decodes by flow (idf, enc) sends B no
    datagram of the flow, so B counts no drop for traffic it could not
    decode; naive and fullenc need no announcement and B delivers all.
    """
    pair = EnginePair(scheme, names=("A", "B", "C"))
    refusing = {"B"}
    _refuse(pair.a, refusing)
    first = _broadcasts(range(1, 101))
    for raw in first:
        pair.lan_a(raw)
    decodes_alone = scheme in (Scheme.NAIVE, Scheme.FULLENC)
    assert pair.emitted["C"] == first
    assert pair.emitted["B"] == (first if decodes_alone else [])
    to_b = [dg for _, to, dg in pair.captured if to == "B"]
    assert len(to_b) == (len(first) if decodes_alone else 0)
    assert pair.b.stats.dropped() == 0
    refusing.clear()
    pair.a.on_timer(pair.now)
    fresh = _broadcasts(range(101, 121))
    for raw in fresh:
        pair.lan_a(raw)
    assert pair.emitted["C"] == first + fresh
    assert pair.emitted["B"] == (first + fresh if decodes_alone else fresh)
    assert pair.b.stats.dropped() == 0


@pytest.mark.parametrize("scheme", list(Scheme))
def test_refusing_peer_holds_back_no_retry(scheme):
    """B still refuses while C is back: C learns the flow on the first tick."""
    pair = EnginePair(scheme, names=("A", "B", "C"))
    refusing = {"B", "C"}
    _refuse(pair.a, refusing)
    frames = _broadcasts((1, 2))
    pair.lan_a(frames[0])
    refusing.discard("C")
    pair.a.on_timer(pair.now)
    assert len(pair.gws["C"].codec.flows) == 1
    pair.lan_a(frames[1])
    assert pair.emitted["C"] == frames


@pytest.mark.parametrize("dst", [MAC_B, BROADCAST_MAC], ids=["unicast", "broadcast"])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_tick_that_hands_over_the_announcement_drains_the_queue(scheme, dst):
    """[B refusing] 3 frames queue; the tick that delivers the announcement
    delivers them too, and the SA's expiry later sheds nothing."""
    pair = EnginePair(scheme, flow_timeout_us=10_000)
    refusing = {"B"}
    _refuse(pair.a, refusing)
    frames = [protect(dst, MAC_A, SCI_A, pn) for pn in (1, 2, 3)]
    for raw in frames:
        pair.lan_a(raw, now=0)
    assert pair.emitted["B"] == []
    refusing.clear()
    pair.a.on_timer(100)
    assert len(pair.b.codec.flows) == 1
    assert pair.emitted["B"] == frames
    entry = pair.a.uplink.get(SCI_A.pack(), 0)
    assert entry.unicast.pending == entry.broadcast.pending == []
    pair.a.on_timer(20_000)  # the SA expires
    assert pair.a.uplink.get(SCI_A.pack(), 0) is None
    assert pair.a.snapshot_stats().dropped() == 0
    assert pair.b.snapshot_stats().dropped() == 0


@pytest.mark.parametrize("scheme", list(Scheme))
def test_sa_expired_before_its_announcement_leaves_no_far_flow(scheme):
    pair = EnginePair(scheme, flow_timeout_us=1000)
    refusing = {"B"}
    _refuse(pair.a, refusing)
    pair.lan_a(protect(MAC_B, MAC_A, SCI_A, 1), now=0)
    pair.lan_a(protect(BROADCAST_MAC, MAC_A, SCI_A, 2))
    pair.a.on_timer(2000)
    assert pair.a.uplink.get(SCI_A.pack(), 0) is None
    refusing.clear()
    pair.a.on_timer(3000)
    assert pair.b.codec.flows == {}


@pytest.mark.parametrize("scheme", list(Scheme))
def test_dst_change_before_its_announcement_leaves_only_the_new_flow(scheme):
    """The other way a flow ends: a new unicast destination while B refuses."""
    pair = EnginePair(scheme)
    refusing = {"B"}
    _refuse(pair.a, refusing)
    pair.lan_a(protect(MAC_B, MAC_A, SCI_A, 1))
    pair.lan_a(protect(MAC_B, MAC_A, SCI_A, 2))
    other_dst = b"\x02\xcc\x00\x00\x00\x01"
    fresh = protect(other_dst, MAC_A, SCI_A, 3)
    pair.lan_a(fresh)
    assert pair.a.snapshot_stats().drops == Counter(unregistered_queue_overflow=2)
    refusing.clear()
    pair.a.on_timer(pair.now)
    flows = pair.b.codec.flows
    assert list(flows) == [pair.a.uplink.get(SCI_A.pack(), 0).unicast.bidf]
    assert [f.header[:6] for f in flows.values()] == [other_dst]
    assert pair.emitted["B"] == [fresh]
    assert pair.b.snapshot_stats().dropped() == 0


@pytest.mark.parametrize("scheme", list(Scheme))
def test_refusing_peer_is_owed_one_message_per_key(scheme):
    """50 frames and 5 HELLOs refused: one announcement and one HELLO wait."""
    pair = EnginePair(scheme)
    refusing = {"B"}
    delivered = []
    real_send = pair.a.send_mgmt

    def send(p, d):
        if p in refusing:
            return False
        delivered.append(decode_message(d).kind)
        return real_send(p, d)

    pair.a.send_mgmt = send
    frames = [protect(MAC_B, MAC_A, SCI_A, pn) for pn in range(1, 52)]
    for pn, raw in enumerate(frames[:50], 1):
        pair.lan_a(raw, now=pn * HELLO_INTERVAL_US // 10)
        if pn % 10 == 0:
            pair.a.on_timer(pair.now)  # a HELLO is due each time
    refusing.clear()
    pair.a.on_timer(pair.now)
    expected = Counter({MgmtKind.FLOW_ANNOUNCE: 1, MgmtKind.HELLO: 1})
    if scheme is Scheme.ENC:
        expected[MgmtKind.REKEY] = 1  # one new SA, one key rotation
    assert Counter(delivered) == expected
    pair.lan_a(frames[50])
    assert pair.emitted["B"] == frames  # the queue drains, announced once
    assert Counter(delivered) == expected


def test_broadcast_always_to_all_peers():
    pair = EnginePair(Scheme.IDF)
    raw = protect(MAC_B, MAC_A, SCI_A, 1)
    pair.lan_a(raw)
    reply = protect(MAC_A, MAC_B, SCI_B, 1)
    pair.lan_b(reply)  # A's flow now learned to B only
    before = pair.a.snapshot_stats().datagrams_sent
    bc = protect(BROADCAST_MAC, MAC_A, SCI_A, 2)
    pair.lan_a(bc)
    assert pair.a.snapshot_stats().datagrams_sent == before + 1  # one peer here
    assert pair.emitted["B"][-1] == bc


def test_mka_buffered_during_outage_and_flushed():
    pair = EnginePair(Scheme.IDF)
    real_send = pair.a.send_mgmt
    down = {"flag": True}
    pair.a.send_mgmt = lambda p, d: (not down["flag"]) and real_send(p, d)
    frames = [MAC_B + MAC_A + b"\x88\x8e" + bytes([i]) for i in range(MKA_SLOTS + 4)]
    for f in frames:
        pair.lan_a(f)
    assert pair.emitted["B"] == []
    assert pair.a.snapshot_stats().drops["mka_buffer_overflow"] == 4
    down["flag"] = False
    pair.a.on_timer(now=1)
    assert pair.emitted["B"] == frames[4:]  # oldest four were shed


@pytest.mark.parametrize("scheme", list(Scheme))
def test_non_peer_datagram_dropped_before_decode(scheme):
    """Only a configured peer's datagrams reach the scheme decode."""
    pair = EnginePair(scheme)
    raw = protect(MAC_B, MAC_A, SCI_A, 1)
    pair.lan_a(raw)
    datagram = pair.captured[-1][2]
    pair.b.on_tunnel_datagram(datagram, "X", now=0)
    pair.b.on_tunnel_datagram(b"junk", "X", now=0)
    stats = pair.b.snapshot_stats()
    assert stats.drops == Counter(unknown_peer=2)
    assert stats.datagrams_received == 3
    assert pair.emitted["B"] == [raw]
    # a datagram that claims a peer's source is the scheme's to judge
    pair.b.on_tunnel_datagram(datagram, "A", now=0)
    delivered_again = scheme in (Scheme.NAIVE, Scheme.FULLENC)
    assert pair.emitted["B"] == ([raw, raw] if delivered_again else [raw])
    assert pair.b.snapshot_stats().drops["replay"] == (0 if delivered_again else 1)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_learned_from_non_peer_keeps_the_flow(scheme):
    pair = EnginePair(scheme)
    pair.lan_a(protect(MAC_B, MAC_A, SCI_A, 1))
    bidf = pair.a.uplink.get(SCI_A.pack(), 0).unicast.bidf
    pair.a.on_mgmt_bytes(encode_message(MgmtMessage.learned(bidf)), "X", now=0)
    frames = [protect(MAC_B, MAC_A, SCI_A, pn) for pn in range(2, 22)]
    for raw in frames:
        pair.lan_a(raw)
    assert pair.emitted["B"][1:] == frames
    assert pair.a.snapshot_stats().drops == Counter(unknown_peer=1)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_announce_from_non_peer_registers_nothing(scheme):
    pair = EnginePair(scheme)
    header = MAC_A + MAC_B + SCI_B.pack() + b"\x00"  # dst|src|sci|an
    pair.a.on_mgmt_bytes(encode_message(MgmtMessage.announce(bytes(16), header, 1)), "X", 0)
    assert pair.a.codec.flows == {}
    raw = protect(MAC_B, MAC_A, SCI_A, 1)
    pair.lan_a(raw)  # the announced flow's reverse traffic
    assert pair.emitted["B"] == [raw]
    assert list(pair.a.peers) == ["B"]
    assert not any(p.outbox for p in pair.a.peers.values())
    assert pair.a.snapshot_stats().drops == Counter(unknown_peer=1)


def test_hello_liveness():
    pair = EnginePair(Scheme.IDF)
    assert pair.b.peers["A"].last_hello is None
    pair.a.on_timer(now=HELLO_INTERVAL_US)
    assert pair.b.peers["A"].last_hello == 0  # delivered synchronously at now=0
    pair.now = 2 * HELLO_INTERVAL_US
    pair.a.on_timer(now=pair.now)
    assert pair.b.peers["A"].last_hello == 2 * HELLO_INTERVAL_US


def _first_fullenc_body(rng):
    """The first tunnel body of a fresh fullenc gateway A that sends one frame."""
    sent = []
    gw = GatewayEngine(
        GatewayConfig(own_id="A", peers=["B"], scheme=Scheme.FULLENC),
        lambda peer, dg: sent.append(decap(dg)[1]),
        lambda peer, data: True,
        lambda frame: None,
        rng=rng,
    )
    gw.on_lan_frame(protect(MAC_B, MAC_A, SCI_A, 1), now=0)
    return sent[0]


def test_fullenc_restart_does_not_reuse_a_nonce():
    """Same config and key, two boots: the first nonces differ, and a
    seeded random source still makes runs repeatable."""
    first, restarted = _first_fullenc_body(None), _first_fullenc_body(None)
    assert first[:NONCE_LEN] != restarted[:NONCE_LEN]
    assert len(first) == len(restarted)
    assert _first_fullenc_body(random.Random(7)) == _first_fullenc_body(random.Random(7))


@pytest.mark.parametrize(
    "scheme,field,per_frame,peer_field,per_peer_frame",
    [
        # one hash per frame, whatever the number of peers; each receiver
        # hashes its window once on the announcement, then one per frame
        (Scheme.IDF, "hash_calls_uplink", 1, "hash_calls_downlink", 1),
        # two blocks per frame for each of the N - 1 = 2 peers
        (Scheme.ENC, "block_ops_uplink", 4, "block_ops_downlink", 2),
        # an 86-byte frame is 14 CCM blocks, sealed once per peer
        (Scheme.FULLENC, "block_ops_uplink", 28, "block_ops_downlink", 14),
    ],
)
def test_broadcast_crypto_counts_with_two_peers(scheme, field, per_frame, peer_field,
                                                per_peer_frame):
    """A broadcast flow to two peers costs each scheme exactly its count."""
    n = 10
    pair = EnginePair(scheme, names=("A", "B", "C"))
    frames = [
        protect(BROADCAST_MAC, MAC_A, SCI_A, pn, payload=bytes(40)) for pn in range(1, n + 1)
    ]
    assert {len(raw) for raw in frames} == {86}
    for raw in frames:
        pair.lan_a(raw)
    assert getattr(pair.a.snapshot_stats(), field) == per_frame * n
    filled = DEFAULT_WINDOW if scheme is Scheme.IDF else 0
    for name in "BC":
        assert getattr(pair.gws[name].snapshot_stats(), peer_field) == filled + per_peer_frame * n
        assert pair.emitted[name] == frames
    assert pair.a.snapshot_stats().frames_tunneled == n


@pytest.mark.parametrize(
    "secrets,error",
    [
        ({"B": b""}, "pair_secrets.B: shorter than 16 bytes"),
        ({"B": bytes(15)}, "pair_secrets.B: shorter than 16 bytes"),
        ({"b": bytes(32)}, "pair_secrets.b: not a peer"),
    ],
    ids=["empty", "short", "not-a-peer"],
)
def test_pair_secret_must_reach_a_peer_and_be_a_key_long(secrets, error):
    """A secret that would leave its peer on the public lab key is refused."""
    with pytest.raises(ValueError) as exc:
        GatewayConfig(own_id="A", peers=["B", "C"], scheme=Scheme.ENC, pair_secrets=secrets)
    assert str(exc.value) == error
    GatewayConfig(own_id="A", peers=["B", "C"], scheme=Scheme.ENC, pair_secrets={"B": bytes(16)})
