"""Management message codec and stream reassembly."""

import pytest

from msectun.flow import HeaderData
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
HDR = HeaderData(dst=b"\x02\x00\x00\x00\x00\x02", src=SCI.system_id, sci=SCI, an=2)


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
    hdr = HeaderData(dst=BROADCAST_MAC, src=SCI.system_id, sci=SCI, an=0)
    wire = encode_message(MgmtMessage.announce(b"\x22" * 16, hdr, 1))
    assert wire[-1] == CAST_BROADCAST
    assert decode_message(wire).header.dst == BROADCAST_MAC


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
