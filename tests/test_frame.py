"""Frame codec: round-trips, the SL law, GCM protection, EtherType lookup."""

import random

import pytest

from msectun import frame as fr
from msectun.frame import (
    BROADCAST_MAC,
    MacsecFrame,
    PlainFrame,
    SecTag,
    Sci,
    Tci,
    build_macsec,
    endpoint_protect,
    endpoint_verify,
    ethertype_of,
    parse_macsec,
    short_length_for,
)

KEY = bytes(range(16))
SCI = Sci(b"\x02\x00\x00\x00\x00\x01", 5)


def random_frame(rng: random.Random) -> MacsecFrame:
    secure_len = rng.randint(2, 1200)
    tci = Tci(
        es=rng.random() < 0.5,
        sc=True,
        scb=rng.random() < 0.1,
        e=rng.random() < 0.9,
        c=rng.random() < 0.1,
        an=rng.randrange(4),
    )
    return MacsecFrame(
        dst=rng.randbytes(6),
        src=rng.randbytes(6),
        sectag=SecTag(
            tci=tci,
            sl=short_length_for(secure_len),
            pn=rng.randint(1, 0xFFFFFFFF),
            sci=Sci(rng.randbytes(6), rng.randrange(1 << 16)),
        ),
        secure_data=rng.randbytes(secure_len),
        icv=rng.randbytes(16),
    )


def test_roundtrip_identity_random():
    rng = random.Random(11)
    for _ in range(10_000):
        f = random_frame(rng)
        wire = build_macsec(f)
        back = parse_macsec(wire)
        assert back == f
        assert build_macsec(back) == wire


def test_known_field_roundtrip():
    f = MacsecFrame(
        dst=b"\x02\x00\x00\x00\x00\x02",
        src=b"\x02\x00\x00\x00\x00\x01",
        sectag=SecTag(tci=Tci(an=0), sl=0, pn=1, sci=SCI),
        secure_data=bytes(64),
        icv=bytes(16),
    )
    back = parse_macsec(build_macsec(f))
    assert back.sectag.pn == 1
    assert back.sectag.tci.an == 0
    assert back.sectag.sl == 0
    assert back.secure_data == bytes(64)


def test_too_short():
    with pytest.raises(fr.TooShort):
        parse_macsec(b"\x00" * 13)
    with pytest.raises(fr.TooShort):
        parse_macsec(b"\x00" * (fr.MIN_FRAME_LEN - 1))


def test_wrong_ethertype():
    f = random_frame(random.Random(1))
    wire = bytearray(build_macsec(f))
    wire[12:14] = b"\x08\x00"
    with pytest.raises(fr.WrongEtherType):
        parse_macsec(bytes(wire))


def test_reserved_bits_rejected():
    wire = bytearray(build_macsec(random_frame(random.Random(2))))
    wire[14] |= 0x80  # version bit
    with pytest.raises(fr.ReservedBitsSet):
        parse_macsec(bytes(wire))
    wire = bytearray(build_macsec(random_frame(random.Random(3))))
    wire[15] |= 0xC0  # reserved SL bits
    with pytest.raises(fr.ReservedBitsSet):
        parse_macsec(bytes(wire))


def test_sc_absent_rejected():
    wire = bytearray(build_macsec(random_frame(random.Random(4))))
    wire[14] &= ~0x20
    with pytest.raises(fr.ScAbsent):
        parse_macsec(bytes(wire))


def test_sl_inconsistency_rejected():
    wire = bytearray(build_macsec(random_frame(random.Random(5))))
    wire[15] = (wire[15] + 1) % 51
    with pytest.raises(fr.BadShortLength):
        parse_macsec(bytes(wire))


def test_build_rejects_bad_invariants():
    good = random_frame(random.Random(6))
    bad = MacsecFrame(good.dst[:5], good.src, good.sectag, good.secure_data, good.icv)
    with pytest.raises(fr.InvariantViolation):
        build_macsec(bad)
    bad = MacsecFrame(
        good.dst,
        good.src,
        SecTag(Tci(an=0, v=True), 0, 1, SCI),
        good.secure_data,
        good.icv,
    )
    with pytest.raises(fr.InvariantViolation):
        build_macsec(bad)
    with pytest.raises(fr.InvariantViolation):
        build_macsec(
            MacsecFrame(good.dst, good.src, SecTag(Tci(an=4), 0, 1, SCI), good.secure_data, good.icv)
        )


# SL law
def test_sl_law_small_payload():
    f, _ = _protect(payload=bytes(40))
    assert f.sectag.sl == 42  # payload plus the moved EtherType


def test_sl_law_large_payload():
    f, _ = _protect(payload=bytes(100))
    assert f.sectag.sl == 0


def test_sl_law_boundary():
    assert short_length_for(48 + 2) == 50
    assert short_length_for(49 + 2) == 0
    f, _ = _protect(payload=bytes(48))
    assert f.sectag.sl == 50
    f, _ = _protect(payload=bytes(49))
    assert f.sectag.sl == 0


def _protect(payload, pn=1, an=0):
    f = endpoint_protect(
        PlainFrame(
            dst=b"\x02\x00\x00\x00\x00\x02",
            src=SCI.system_id,
            ethertype=0x0800,
            payload=payload,
        ),
        KEY,
        SCI,
        an,
        pn,
    )
    return f, build_macsec(f)


# GCM protection
def test_protect_verify_roundtrip():
    plain = PlainFrame(
        dst=b"\x02\x00\x00\x00\x00\x02",
        src=SCI.system_id,
        ethertype=0x86DD,
        payload=b"payload " * 8,
    )
    frame = endpoint_protect(plain, KEY, SCI, an=2, pn=77)
    out = endpoint_verify(frame, KEY)
    assert out.dst == plain.dst and out.src == plain.src
    assert out.ethertype == plain.ethertype
    assert out.payload == plain.payload


def test_protect_requires_positive_pn():
    with pytest.raises(fr.InvariantViolation):
        endpoint_protect(
            PlainFrame(b"\x02" + bytes(5), SCI.system_id, 0x0800, b""), KEY, SCI, 0, 0
        )


def test_verify_is_deterministic_for_replays():
    f, wire = _protect(payload=bytes(30))
    assert endpoint_verify(parse_macsec(wire), KEY).payload == bytes(30)
    assert endpoint_verify(parse_macsec(wire), KEY).payload == bytes(30)


def test_aead_soundness_bit_mutations():
    """Any single-bit mutation of a protected frame must be rejected."""
    rng = random.Random(21)
    accepted = 0
    trials = 0
    frames = []
    for i in range(100):
        f, wire = _protect(payload=rng.randbytes(rng.randint(0, 120)), pn=i + 1)
        frames.append(wire)
    while trials < 10_000:
        wire = bytearray(frames[rng.randrange(len(frames))])
        bit = rng.randrange(len(wire) * 8)
        wire[bit // 8] ^= 1 << (bit % 8)
        trials += 1
        try:
            frame = parse_macsec(bytes(wire))
        except fr.FrameError:
            continue  # structural rejection is rejection
        try:
            endpoint_verify(frame, KEY)
            accepted += 1
        except fr.IcvMismatch:
            pass
    assert accepted == 0


def test_ethertype_of():
    assert ethertype_of(bytes(12) + b"\x88\x8e" + b"xx") == fr.ETHERTYPE_EAPOL
    assert ethertype_of(bytes(12) + b"\x88\xe5") == fr.ETHERTYPE_MACSEC
    assert ethertype_of(bytes(12) + b"\x08\x00" + b"xx") == 0x0800
    # a frame too short to have an EtherType has none
    assert ethertype_of(bytes(13)) is None
    assert ethertype_of(b"") is None


def test_mac_helpers():
    assert fr.is_broadcast(BROADCAST_MAC)
    assert not fr.is_broadcast(b"\x02" + bytes(5))
