"""Management message codec and stream reassembly."""

import pytest

from msectun.frame import BROADCAST_MAC, Sci
from msectun.mgmt import (
    CAST_BROADCAST,
    CAST_UNICAST,
    MgmtError,
    MgmtKind,
    MgmtMessage,
    StreamDecoder,
    decode_message,
    encode_message,
)

SCI = Sci(b"\x02\x00\x00\x00\x00\x01", 1)
# dst|src|sci|an
HDR = b"\x02\x00\x00\x00\x00\x02" + SCI.system_id + SCI.pack() + b"\x02"


def test_announce_roundtrip():
    msg = MgmtMessage.announce(b"\x11" * 16, HDR, pn=42)
    wire = encode_message(msg)
    back = decode_message(wire)
    assert back.kind is MgmtKind.FLOW_ANNOUNCE
    assert back.bidf == b"\x11" * 16
    assert back.header == HDR
    assert back.pn == 42
    assert wire[-1] == CAST_UNICAST


def test_announce_broadcast_cast_marker():
    hdr = BROADCAST_MAC + SCI.system_id + SCI.pack() + b"\x00"
    wire = encode_message(MgmtMessage.announce(b"\x22" * 16, hdr, 1))
    assert wire[-1] == CAST_BROADCAST
    assert decode_message(wire).header[:6] == BROADCAST_MAC


@pytest.mark.parametrize(
    "msg",
    [
        MgmtMessage.learned(b"\x33" * 16),
        MgmtMessage.expire(b"\x44" * 16),
        MgmtMessage.rekey(7, bytes(range(16))),
        MgmtMessage.mka(b"\x00" * 12 + b"\x88\x8eEAPOL"),
        MgmtMessage.hello(),
    ],
)
def test_kinds_roundtrip(msg):
    back = decode_message(encode_message(msg))
    assert back.kind == msg.kind
    assert back.bidf == msg.bidf
    assert back.epoch == msg.epoch
    assert back.key == msg.key
    assert back.frame == msg.frame


def test_announce_pn_zero_rejected():
    msg = MgmtMessage.announce(b"\x55" * 16, HDR, pn=1)
    data = bytearray(encode_message(msg))
    data[-5:-1] = (0).to_bytes(4, "big")
    with pytest.raises(MgmtError):
        decode_message(bytes(data))


def test_cast_contradiction_rejected():
    msg = MgmtMessage.announce(b"\x55" * 16, HDR, pn=1)
    data = bytearray(encode_message(msg))
    data[-1] = 1  # claims broadcast but dst is unicast
    with pytest.raises(MgmtError):
        decode_message(bytes(data))


def test_bad_magic_version_kind_length():
    good = encode_message(MgmtMessage.hello())
    with pytest.raises(MgmtError):
        decode_message(b"\x00" + good[1:])
    bad_ver = bytearray(good)
    bad_ver[2] = 9
    with pytest.raises(MgmtError):
        decode_message(bytes(bad_ver))
    bad_kind = bytearray(good)
    bad_kind[3] = 200
    with pytest.raises(MgmtError):
        decode_message(bytes(bad_kind))
    with pytest.raises(MgmtError):
        decode_message(good + b"trailing")
    with pytest.raises(MgmtError):
        decode_message(good[:3])


def test_stream_decoder_reassembles():
    msgs = [
        MgmtMessage.announce(b"\x66" * 16, HDR, 9),
        MgmtMessage.hello(),
        MgmtMessage.rekey(1, bytes(16)),
    ]
    # a well-framed message with a bad body is split out like any other;
    # its decode fails on its own and the stream goes on
    malformed = encode_message(MgmtMessage.hello())[:-4] + (3).to_bytes(4, "big") + b"xyz"
    encoded = [encode_message(m) for m in msgs]
    stream = encoded[0] + malformed + b"".join(encoded[1:])
    dec = StreamDecoder()
    out = []
    for i in range(0, len(stream), 7):  # drip-feed in odd chunks
        out += dec.feed(stream[i : i + 7])
    assert out == [encoded[0], malformed, *encoded[1:]]
    with pytest.raises(MgmtError):
        decode_message(malformed)
    assert decode_message(out[0]).pn == 9
    # a bad header ends the stream: nothing after it can be framed
    with pytest.raises(MgmtError):
        StreamDecoder().feed(b"\x00" + encoded[1][1:])


# One known-answer vector per kind, as it crosses the management channel:
# (kind, wire hex, the fields other than the header that decode yields).
# The unicast announce carries AN 2 and PN 42, the broadcast one AN 0 and
# a PN that fills all four bytes; both name SCI 02:00:00:00:00:01 port 1.
VECTORS = [
    (
        MgmtKind.FLOW_ANNOUNCE,
        "4d4701010000002a" "11111111111111111111111111111111"
        "020000000002" "020000000001" "0200000000010001" "02" "0000002a" "00",
        {"bidf": b"\x11" * 16, "pn": 42},
    ),
    (
        MgmtKind.FLOW_ANNOUNCE,
        "4d4701010000002a" "22222222222222222222222222222222"
        "ffffffffffff" "020000000001" "0200000000010001" "00" "01020304" "01",
        {"bidf": b"\x22" * 16, "pn": 0x01020304},
    ),
    (
        MgmtKind.FLOW_LEARNED,
        "4d47010200000010" "33333333333333333333333333333333",
        {"bidf": b"\x33" * 16},
    ),
    (
        MgmtKind.FLOW_EXPIRE,
        "4d47010300000010" "44444444444444444444444444444444",
        {"bidf": b"\x44" * 16},
    ),
    (
        MgmtKind.REKEY,
        "4d47010400000014" "00000007" "000102030405060708090a0b0c0d0e0f",
        {"epoch": 7, "key": bytes(range(16))},
    ),
    (
        MgmtKind.MKA_FORWARD,
        "4d47010500000013" "0180c2000003" "020000000001" "888e" "0300000501",
        {"frame": bytes.fromhex("0180c2000003020000000001888e0300000501")},
    ),
    (MgmtKind.HELLO, "4d47010600000000", {}),
]


@pytest.mark.parametrize("kind, wire, fields", VECTORS)
def test_known_answer_vectors(kind, wire, fields):
    data = bytes.fromhex(wire)
    msg = decode_message(data)
    assert msg.kind is kind
    for name, value in fields.items():
        assert getattr(msg, name) == value
    assert encode_message(msg) == data


def test_known_answer_vectors_cover_every_kind():
    assert {kind for kind, _, _ in VECTORS} == set(MgmtKind)


@pytest.mark.parametrize(
    "msg, wire",
    [
        (MgmtMessage.learned(b"\x33" * 16), VECTORS[2][1]),
        (MgmtMessage.expire(b"\x44" * 16), VECTORS[3][1]),
        (MgmtMessage.rekey(7, bytes(range(16))), VECTORS[4][1]),
        (MgmtMessage.mka(VECTORS[5][2]["frame"]), VECTORS[5][1]),
        (MgmtMessage.hello(), VECTORS[6][1]),
    ],
)
def test_constructors_encode_to_the_vectors(msg, wire):
    assert encode_message(msg).hex() == wire


@pytest.mark.parametrize(
    "vector, header",
    [
        (VECTORS[0], "020000000002" "020000000001" "0200000000010001" "02"),
        (VECTORS[1], "ffffffffffff" "020000000001" "0200000000010001" "00"),
    ],
)
def test_announce_vectors_carry_the_header_bytes(vector, header):
    """An announce holds its dst|src|sci|an as the 21 bytes it sends."""
    _, wire, fields = vector
    assert decode_message(bytes.fromhex(wire)).header == bytes.fromhex(header)
    msg = MgmtMessage.announce(fields["bidf"], bytes.fromhex(header), fields["pn"])
    assert encode_message(msg).hex() == wire
