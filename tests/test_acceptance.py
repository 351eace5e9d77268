"""Acceptance suite: one test per release criterion.

Every test prints a single PASS line when its criterion holds at the
stated tolerance; volumes and bounds are fixed here, not calibrated.
"""

import itertools
import random
import time

import pytest

from conftest import KEY, MAC_A, MAC_B, SCI_A, protect
from test_flow import NaiveWindow
from test_siphash import VECTORS as SIPHASH_VECTORS

from msectun.aes import Aes128
from msectun.bench import run_bench
from msectun.encap import EncapScheme, encap
from msectun.flow import PN_MAX, ReplayWindow
from msectun.frame import (
    FrameError,
    IcvMismatch,
    build_macsec,
    endpoint_verify,
    parse_macsec,
)
from msectun.gateway import Scheme
from msectun.mgmt import MgmtError, MgmtMessage, decode_message, encode_message
from msectun.pair import EnginePair
from msectun.siphash import siphash24_digest
from msectun.simnet import (
    Attacker,
    NetModel,
    Scenario,
    ScenarioConfig,
    TrafficSpec,
    run_scenario,
)
from test_frame import random_frame


def _report(num: int, name: str) -> None:
    print(f"[ACCEPTANCE] C{num} {name}: PASS")


# ---------------------------------------------------------------------------
# C1: transparency round-trip, 10,000 mixed frames per scheme, lossless
# ---------------------------------------------------------------------------


def test_c01_transparency_roundtrip():
    t_start = time.perf_counter()
    for scheme in (Scheme.NAIVE, Scheme.IDF, Scheme.ENC, Scheme.FULLENC):
        cfg = ScenarioConfig(
            lans={"A": ["a1"], "B": ["b1"]},
            scheme=scheme,
            net=NetModel(seed=101, latency_us=100),
            traffic=[
                TrafficSpec(device="a1", dst="b1", count=8000, interval_us=20, payload_len=46),
                TrafficSpec(device="a1", dst="broadcast", count=2000, start_us=10, interval_us=80, payload_len=46),
            ],
            duration_us=5_000_000,
        )
        s = run_scenario(cfg)
        b1 = s.devices["b1"]
        assert len(b1.accepted) == 10_000, scheme
        assert b1.icv_failures == 0 and b1.parse_failures == 0
        sent_hashes = sorted(
            d for _, site, e, d in s.transcript.records if e == "dev_tx" and site == "a1"
        )
        got_hashes = sorted(
            d for _, site, e, d in s.transcript.records if e == "dev_rx_ok" and site == "b1"
        )
        assert sent_hashes == got_hashes, f"{scheme}: delivery not bit-exact"
        for gw in s.gateways.values():
            assert gw.snapshot_stats().dropped() == 0, scheme
    elapsed = time.perf_counter() - t_start
    assert elapsed < 30, f"criterion runtime {elapsed:.1f}s exceeds 30s"
    _report(1, f"transparency round-trip ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# C2: codec and crypto oracles
# ---------------------------------------------------------------------------


def test_c02_codec_and_crypto_oracles():
    # SecTAG round-trip property over 10^4 random frames
    rng = random.Random(202)
    for _ in range(10_000):
        f = random_frame(rng)
        wire = build_macsec(f)
        assert parse_macsec(wire) == f
        assert build_macsec(parse_macsec(wire)) == wire

    # AES-128 known answers (FIPS-197)
    c = Aes128(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
    assert (
        c.encrypt_block(bytes.fromhex("00112233445566778899aabbccddeeff")).hex()
        == "69c4e0d86a7b0430d8cdb78070b4c55a"
    )

    # AES-GCM known answers for the endpoint protection implementation
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    sealed = AESGCM(bytes(16)).encrypt(bytes(12), bytes(16), b"")
    assert sealed[:16].hex() == "0388dace60b6a392f328c2b971b2fe78"
    assert sealed[16:].hex() == "ab6e47d42cec13bdf53a67b21257bddf"

    # SipHash-2-4 reference vectors, all 64
    key = bytes(range(16))
    for i, want in enumerate(SIPHASH_VECTORS):
        assert siphash24_digest(key, bytes(range(i))).hex() == want
    _report(2, "codec and crypto oracles")


# ---------------------------------------------------------------------------
# C3: window state machine equivalent to the naive set-based oracle
# ---------------------------------------------------------------------------


def test_c03_window_oracle_equivalence():
    """Exhaustive over bounded PN alphabets (full exhaustion over all
    32-bit PNs is combinatorially impossible) plus 10^5 random fuzz
    sequences of length 12; zero divergences tolerated."""
    divergences = 0

    def check(size, start, seq):
        nonlocal divergences
        w = ReplayWindow(start, size)
        o = NaiveWindow(start, size)
        for pn in seq:
            if w.accept(pn).value != o.accept(pn):
                divergences += 1
                return
        if (w.floor, w.top, set(w.pending_pns())) != (o.floor, o.top, o.pending):
            divergences += 1

    for size in range(1, 9):
        for length in range(1, 6):
            for seq in itertools.product(range(1, 5), repeat=length):
                check(size, 1, seq)
        for length in range(1, 4):
            for seq in itertools.product(range(1, size + 3), repeat=length):
                check(size, 1, seq)

    rng = random.Random(303)
    for _ in range(100_000):
        size = rng.randint(1, 8)
        start = rng.choice([1, rng.randint(1, 30), PN_MAX - rng.randint(0, 14)])
        seq = []
        for _ in range(12):
            pn = start + rng.randint(-4, size + 9)
            if 1 <= pn <= PN_MAX:
                seq.append(pn)
        check(size, start, seq)

    assert divergences == 0
    _report(3, "window/replay oracle equivalence")


# ---------------------------------------------------------------------------
# C4: flow binding keeps PN state right; disabling it reproduces the bug
# ---------------------------------------------------------------------------


def _binding_scenario(bind_flows: bool, naive_recon: bool, window: int = 64,
                      broadcast_interval: int = 80, broadcast_count: int = 300) -> Scenario:
    cfg = ScenarioConfig(
        lans={"A": ["a1"], "B": ["b1"], "C": ["c1"]},
        scheme=Scheme.IDF,
        net=NetModel(seed=404, latency_us=100),
        traffic=[
            TrafficSpec(device="a1", dst="b1", count=600, interval_us=40, payload_len=46),
            TrafficSpec(device="a1", dst="broadcast", count=broadcast_count,
                        start_us=20, interval_us=broadcast_interval, payload_len=46),
        ],
        duration_us=2_000_000,
        window=window,
        bind_flows=bind_flows,
        naive_pn_reconstruction=naive_recon,
    )
    return run_scenario(cfg)


def test_c04_flow_binding():
    # bound flows: every delivered frame carries the right PN (device
    # ICV verifies), nothing is dropped
    s = _binding_scenario(bind_flows=True, naive_recon=False)
    total_icv_fail = sum(d.icv_failures for d in s.devices.values())
    assert total_icv_fail == 0
    assert len(s.devices["b1"].accepted) == 900
    assert len(s.devices["c1"].accepted) == 300
    for gw in s.gateways.values():
        assert gw.snapshot_stats().dropped() == 0

    # the failure the binding prevents: with binding off and the
    # counting-based reconstruction the design replaces, delivered
    # frames carry stale PNs and fail the device integrity check
    s_bad = _binding_scenario(bind_flows=False, naive_recon=True)
    bad_icv = sum(d.icv_failures for d in s_bad.devices.values())
    assert bad_icv >= 1, "disabling binding must reproduce the wrong-PN failure"

    # with the shipped identifier-carried PNs, unbound flows desynchronize
    # into drops instead of corrupt deliveries once the interleave gap
    # outgrows the window
    s_drop = _binding_scenario(
        bind_flows=False, naive_recon=False,
        window=16, broadcast_interval=4000, broadcast_count=6,
    )
    assert sum(d.icv_failures for d in s_drop.devices.values()) == 0
    drops = sum(gw.snapshot_stats().dropped() for gw in s_drop.gateways.values())
    assert drops >= 1
    # and the identical pattern with binding on loses nothing
    s_ok = _binding_scenario(
        bind_flows=True, naive_recon=False,
        window=16, broadcast_interval=4000, broadcast_count=6,
    )
    assert sum(gw.snapshot_stats().dropped() for gw in s_ok.gateways.values()) == 0
    _report(4, f"flow binding (naive-mode ICV failures: {bad_icv})")


# ---------------------------------------------------------------------------
# C5: attack suite
# ---------------------------------------------------------------------------


def _fresh_pair(scheme: Scheme, frames: int = 80) -> EnginePair:
    pair = EnginePair(scheme, seed=505)
    for pn in range(1, frames + 1):
        raw = protect(MAC_B, MAC_A, SCI_A, pn, payload=bytes(48))
        pair.lan_a(raw)
    return pair


def _device_check(frame_bytes: bytes) -> bool:
    """What a receiving MACsec device would do: parse, then verify."""
    try:
        endpoint_verify(parse_macsec(frame_bytes), KEY)
        return True
    except (FrameError, IcvMismatch):
        return False


def test_c05_attack_replay():
    """Each captured datagram is re-delivered while still in window."""
    for scheme in (Scheme.IDF, Scheme.ENC):
        pair = _fresh_pair(scheme, frames=20)
        before = pair.b.snapshot_stats()
        emitted_before = len(pair.emitted["B"])
        for pn in range(21, 121):
            raw = protect(MAC_B, MAC_A, SCI_A, pn, payload=bytes(48))
            pair.lan_a(raw)
            pair.b.on_tunnel_datagram(pair.captured[-1][2], "A", now=pair.now)
        after = pair.b.snapshot_stats()
        assert after.drops["replay"] - before.drops.get("replay", 0) == 100, scheme
        assert len(pair.emitted["B"]) - emitted_before == 100, scheme  # genuine only
    _report(5, "attack suite: replay (100 datagrams, both schemes)")


def test_c05_attack_random_injection_idf():
    pair = _fresh_pair(Scheme.IDF)
    rng = random.Random(506)
    emitted_before = len(pair.emitted["B"])
    before = pair.b.snapshot_stats()
    n = 1_000_000
    for _ in range(n):
        body = rng.randbytes(60)
        pair.b.on_tunnel_datagram(encap(body, EncapScheme.IDF), "A", now=0)
    after = pair.b.snapshot_stats()
    assert len(pair.emitted["B"]) == emitted_before, "injected frame accepted"
    assert after.drops["unknown_identifier"] - before.drops.get("unknown_identifier", 0) == n
    _report(5, "attack suite: 10^6 random injections (identifier scheme)")


def test_c05_attack_random_injection_enc():
    pair = _fresh_pair(Scheme.ENC)
    epoch = pair.a.codec.send_keys["B"].current.epoch & 0xFF
    rng = random.Random(507)
    emitted_before = len(pair.emitted["B"])
    before = pair.b.snapshot_stats()
    n = 1_000_000
    for _ in range(n):
        # attacker knows the protocol: valid carrier, valid epoch byte,
        # random ciphertext blocks and trailer
        body = bytes([epoch]) + rng.randbytes(48)
        pair.b.on_tunnel_datagram(encap(body, EncapScheme.ENC), "A", now=0)
    after = pair.b.snapshot_stats()
    assert len(pair.emitted["B"]) == emitted_before, "injected frame accepted"
    rejected = sum(
        after.drops.get(r, 0) - before.drops.get(r, 0)
        for r in ("header_mismatch", "unknown_flow", "replay", "out_of_window")
    )
    assert rejected == n
    # essentially everything dies on the header lookup; hitting the
    # MACsec EtherType by chance is a 2^-16 event
    assert after.drops.get("unknown_flow", 0) - before.drops.get("unknown_flow", 0) <= 64
    _report(5, "attack suite: 10^6 random injections (encryption scheme)")


IDF_OFFSET_CLASSES = [
    # (name, region selector, expected landing site); a scheme-nibble
    # flip can hit another valid scheme tag, so the encap class lands
    # in either carrier rejection bucket
    ("encap", lambda n: range(0, 8), "gw:encap"),
    ("ridf", lambda n: range(8, 16), "gw:unknown_identifier"),
    ("tci_sl", lambda n: range(16, 18), "tci_sl"),
    ("secure_data", lambda n: range(18, n - 16), "device"),
    ("icv", lambda n: range(n - 16, n), "device"),
]

ENC_OFFSET_CLASSES = [
    ("encap", lambda n: range(0, 8), "gw:encap"),
    ("epoch", lambda n: range(8, 9), "gw:bad_epoch"),
    ("c1", lambda n: range(9, 25), "gw:header"),
    ("c2", lambda n: range(25, 41), "gw:header"),
    ("rest", lambda n: range(41, n - 16), "device"),
    ("icv", lambda n: range(n - 16, n), "device"),
]


@pytest.mark.parametrize(
    "scheme,classes",
    [(Scheme.IDF, IDF_OFFSET_CLASSES), (Scheme.ENC, ENC_OFFSET_CLASSES)],
)
def test_c05_attack_bit_mutation_offset_map(scheme, classes):
    rng = random.Random(508)
    per_class = 160
    for name, region, site in classes:
        pair = EnginePair(scheme, seed=509)
        state = {"mutate": False}

        def transit(dg):
            if not state["mutate"]:
                return dg
            offs = list(region(len(dg)))
            b = bytearray(dg)
            off = rng.choice(offs)
            b[off] ^= 1 << rng.randrange(8)
            return bytes(b)

        pair.transit = transit
        raw = protect(MAC_B, MAC_A, SCI_A, 1, payload=bytes(48))
        pair.lan_a(raw)  # discovery happens unmutated
        pair.now = 3_000_000  # past the rekey grace: one epoch valid
        state["mutate"] = True
        before = pair.b.snapshot_stats()
        emitted_before = len(pair.emitted["B"])
        for pn in range(2, per_class + 2):
            raw = protect(MAC_B, MAC_A, SCI_A, pn, payload=bytes(48))
            pair.lan_a(raw)
        after = pair.b.snapshot_stats()
        survivors = pair.emitted["B"][emitted_before:]
        valid = sum(_device_check(f) for f in survivors)
        assert valid == 0, f"{scheme} {name}: mutated frame passed device ICV"

        gw_drops = after.dropped() - before.dropped()
        if site == "device":
            assert gw_drops == 0 and len(survivors) == per_class, (scheme, name)
        elif site == "tci_sl":
            # AN-bit flips die at the gateway, flag/SL flips at the device
            malformed = after.drops.get("malformed", 0) - before.drops.get("malformed", 0)
            assert malformed + len(survivors) == per_class, (scheme, name)
            assert gw_drops == malformed
        elif site == "gw:header":
            landed = sum(
                after.drops.get(r, 0) - before.drops.get(r, 0)
                for r in ("header_mismatch", "unknown_flow")
            )
            assert landed == per_class and not survivors, (scheme, name)
        elif site == "gw:encap":
            landed = sum(
                after.drops.get(r, 0) - before.drops.get(r, 0)
                for r in ("decap_error", "scheme_mismatch")
            )
            assert landed == per_class and not survivors, (scheme, name)
        else:
            reason = site.split(":", 1)[1]
            landed = after.drops.get(reason, 0) - before.drops.get(reason, 0)
            assert landed == per_class and not survivors, (scheme, name)
    _report(5, f"attack suite: 1-bit mutations per offset class ({scheme.value})")


# ---------------------------------------------------------------------------
# C6: crypto-operation accounting, exact counts
# ---------------------------------------------------------------------------


def test_c06_crypto_op_accounting():
    n = 1000

    # identifier scheme: 1 hash per uplink frame; downlink hash count
    # equals the window slide amount, which is 1 per in-order frame
    # under the default policy (an unbound unicast flow)
    pair = EnginePair(Scheme.IDF)
    for pn in range(1, 11):
        pair.lan_a(protect(MAC_B, MAC_A, SCI_A, pn))
    a0, b0 = pair.a.snapshot_stats(), pair.b.snapshot_stats()
    for pn in range(11, 11 + n):
        pair.lan_a(protect(MAC_B, MAC_A, SCI_A, pn))
    a1, b1 = pair.a.snapshot_stats(), pair.b.snapshot_stats()
    assert a1.hash_calls_uplink - a0.hash_calls_uplink == n
    assert b1.hash_calls_downlink - b0.hash_calls_downlink == n

    # encryption scheme: exactly 2 block-cipher operations per frame
    # per direction
    pair = EnginePair(Scheme.ENC)
    for pn in range(1, 11):
        pair.lan_a(protect(MAC_B, MAC_A, SCI_A, pn))
    a0, b0 = pair.a.snapshot_stats(), pair.b.snapshot_stats()
    for pn in range(11, 11 + n):
        pair.lan_a(protect(MAC_B, MAC_A, SCI_A, pn))
    a1, b1 = pair.a.snapshot_stats(), pair.b.snapshot_stats()
    assert a1.block_ops_uplink - a0.block_ops_uplink == 2 * n
    assert b1.block_ops_downlink - b0.block_ops_downlink == 2 * n

    # full-frame baseline: at least frame_len/16 block operations
    frame_len = 46 + 400
    pair = EnginePair(Scheme.FULLENC)
    pair.lan_a(protect(MAC_B, MAC_A, SCI_A, 1, payload=bytes(400)))
    a0 = pair.a.snapshot_stats()
    for pn in range(2, 102):
        pair.lan_a(protect(MAC_B, MAC_A, SCI_A, pn, payload=bytes(400)))
    a1 = pair.a.snapshot_stats()
    per_frame = (a1.block_ops_uplink - a0.block_ops_uplink) / 100
    assert per_frame >= frame_len / 16
    _report(6, "crypto-op accounting (exact counts)")


# ---------------------------------------------------------------------------
# C7: wire size accounting, exact per swept size
# ---------------------------------------------------------------------------


def test_c07_size_accounting():
    sizes = [64, 100, 128, 256, 512, 777, 1000, 1200, 1400]
    for size in sizes:
        payload = bytes(size - 46)
        for scheme, formula in (
            (Scheme.IDF, lambda L: L - 18 + 8),
            (Scheme.ENC, lambda L: L + 1 + 8),
            (Scheme.NAIVE, lambda L: L + 8),
        ):
            pair = EnginePair(scheme)
            raw = protect(MAC_B, MAC_A, SCI_A, 1, payload=payload)
            assert len(raw) == size
            pair.lan_a(raw)
            wire = len(pair.captured[-1][2])
            assert wire == formula(size), (scheme, size, wire)
            assert pair.emitted["B"] == [raw]
    _report(7, "size accounting (exact for every swept size)")


# ---------------------------------------------------------------------------
# C8: relative performance ordering at desk scale
# ---------------------------------------------------------------------------


def test_c08_relative_performance_ordering():
    t0 = time.perf_counter()
    sizes = [64, 256, 1400]
    schemes = [Scheme.NAIVE, Scheme.IDF, Scheme.ENC, Scheme.FULLENC]
    results = run_bench(schemes, sizes, seconds=10.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"bench runtime {elapsed:.0f}s exceeds 2 minutes"

    by = {(r.scheme, r.frame_size): r for r in results}
    idf_wins = 0
    for size in sizes:
        full = by[("fullenc", size)].frames_per_sec
        enc = by[("enc", size)].frames_per_sec
        idf = by[("idf", size)].frames_per_sec
        assert full < enc, f"size {size}: fullenc not slower than enc"
        assert full < idf, f"size {size}: fullenc not slower than idf"
        if idf >= enc:
            idf_wins += 1
        # per-frame crypto work ordering is structural, assert it too
        assert by[("fullenc", size)].blocks_per_frame > by[("enc", size)].blocks_per_frame
    assert idf_wins >= 2, f"idf outpaced enc in only {idf_wins}/3 sizes"
    _report(8, f"relative performance ordering ({elapsed:.0f}s, idf wins {idf_wins}/3)")


# ---------------------------------------------------------------------------
# C9: rekey on SA change with AN rollover at 2^16
# ---------------------------------------------------------------------------


def test_c09_rekey_on_sa_change():
    interval = 25
    total = 65_600  # crosses the 2^16 PN ceiling once
    attacker = Attacker()
    cfg = ScenarioConfig(
        lans={"A": ["a1"], "B": ["b1"]},
        scheme=Scheme.ENC,
        net=NetModel(seed=909, latency_us=100),
        traffic=[TrafficSpec(device="a1", dst="b1", count=total, interval_us=interval, payload_len=46)],
        duration_us=8_000_000,
        an_ceiling=1 << 16,
    )
    s = Scenario(cfg, attacker)

    # steal two genuine datagrams from just before the rollover
    steal_at = {65_500, 65_510}
    stolen: list[tuple[bytes, str, str]] = []
    orig_transit = attacker.transit

    def stealing_transit(src, dst, dg, now):
        idx = len(attacker.observed)
        if idx in steal_at:
            attacker.observed.append((now, src, dst, dg))
            stolen.append((dg, src, dst))
            return None
        return orig_transit(src, dst, dg, now)

    attacker.transit = stealing_transit

    rollover_t = 65_536 * interval
    # re-inject one inside the grace window and one after it
    def reinject():
        (dg1, src1, dst1) = stolen[0]
        (dg2, src2, dst2) = stolen[1]
        s.wan.deliver_raw(dst1, dg1, rollover_t + 1_500_000, src1)
        s.wan.deliver_raw(dst2, dg2, rollover_t + 2_600_000, src2)

    s.loop.at(rollover_t + 1_000_000, reinject)
    s.run()

    a1, b1 = s.devices["a1"], s.devices["b1"]
    assert a1.rollovers == 1
    gwa, gwb = s.gateways["gw-A"], s.gateways["gw-B"]
    # epoch: 1 after the first SA appeared, 2 after the rollover SA
    assert gwa.codec.send_keys["gw-B"].current.epoch == 2
    assert gwb.codec.recv_keys["gw-A"].current.epoch == 2
    stats_b = gwb.snapshot_stats()
    # within grace the stolen old-epoch datagram is accepted...
    assert len(b1.accepted) == total - 1  # only the post-grace one is lost
    assert b1.icv_failures == 0
    # ...after grace it is rejected by epoch
    assert stats_b.drops["bad_epoch"] == 1
    assert stats_b.dropped() == 1
    _report(9, "rekey on SA change (grace boundary honored)")


# ---------------------------------------------------------------------------
# C10: fuzz totality of every external parser
# ---------------------------------------------------------------------------


N_FUZZ = 1_000_000


def _fuzz_outcomes(rng, inputs, parse, errors) -> None:
    ok = rejected = 0
    for data in inputs:
        try:
            parse(data)
            ok += 1
        except errors:
            rejected += 1
    assert ok + rejected == N_FUZZ


def test_c10_fuzz_macsec_codec():
    rng = random.Random(111)
    base = protect(MAC_B, MAC_A, SCI_A, 5, payload=bytes(60))

    def inputs():
        for i in range(N_FUZZ):
            if i % 10 == 0:
                b = bytearray(base)
                b[rng.randrange(len(b))] ^= rng.randrange(1, 256)
                yield bytes(b)
            else:
                yield rng.randbytes(rng.randrange(0, 90))

    _fuzz_outcomes(rng, inputs(), parse_macsec, FrameError)
    _report(10, "fuzz totality: MACsec codec")


def test_c10_fuzz_encap():
    from msectun.encap import EncapError, decap

    rng = random.Random(112)
    base = encap(b"\x01" * 40, EncapScheme.IDF)

    def inputs():
        for i in range(N_FUZZ):
            if i % 10 == 0:
                b = bytearray(base)
                b[rng.randrange(len(b))] ^= rng.randrange(1, 256)
                yield bytes(b)
            else:
                yield rng.randbytes(rng.randrange(0, 40))

    _fuzz_outcomes(rng, inputs(), decap, EncapError)
    _report(10, "fuzz totality: carrier header")


def test_c10_fuzz_mgmt():
    from msectun.flow import HeaderData

    rng = random.Random(113)
    base = encode_message(
        MgmtMessage.announce(b"\x77" * 16, HeaderData(MAC_B, MAC_A, SCI_A, 0), pn=9)
    )

    def inputs():
        for i in range(N_FUZZ):
            if i % 10 == 0:
                b = bytearray(base)
                b[rng.randrange(len(b))] ^= rng.randrange(1, 256)
                yield bytes(b)
            else:
                yield rng.randbytes(rng.randrange(0, 60))

    _fuzz_outcomes(rng, inputs(), decode_message, MgmtError)
    _report(10, "fuzz totality: management codec")


def test_c10_fuzz_idf_decoder():
    pair = _fresh_pair(Scheme.IDF, frames=40)
    dn = pair.b.idf_downlink
    base = pair.captured[-1][2][8:]  # scheme body of a genuine datagram
    rng = random.Random(114)
    decoded = dropped = 0
    for i in range(N_FUZZ):
        if i % 10 == 0:
            b = bytearray(base)
            b[rng.randrange(len(b))] ^= rng.randrange(1, 256)
            data = bytes(b)
        else:
            data = rng.randbytes(rng.randrange(0, 80))
        res = dn.decode(data)
        if res.ok:
            decoded += 1
        else:
            assert res.reason
            dropped += 1
    assert decoded + dropped == N_FUZZ
    _report(10, "fuzz totality: identifier wire decoder")


def test_c10_fuzz_enc_decoder():
    pair = _fresh_pair(Scheme.ENC, frames=40)
    tun = pair.b.codec.downlink
    keys = pair.b.codec.recv_keys["A"]
    base = pair.captured[-1][2][8:]
    rng = random.Random(115)
    decoded = dropped = 0
    for i in range(N_FUZZ):
        if i % 20 == 0:
            b = bytearray(base)
            b[rng.randrange(1, len(b))] ^= rng.randrange(1, 256)
            data = bytes(b)  # genuine epoch byte: exercises the AES path
        else:
            data = rng.randbytes(rng.randrange(0, 70))
        res = tun.decode(data, keys, now=0)
        if res.ok:
            decoded += 1
        else:
            assert res.reason
            dropped += 1
    assert decoded + dropped == N_FUZZ
    _report(10, "fuzz totality: header-encryption wire decoder")
