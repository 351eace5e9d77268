"""Management channel messages.

Flow announcements, flow-learn replies, expiry and rekey notices, and
diverted key-agreement frames travel between gateway pairs over a
pre-secured reliable ordered byte stream (in-process queue in
simulation, TCP in real mode; deploy the real channel over a VPN).

Wire format, big-endian:  magic(2) version(1) kind(1) length(4) body.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from .flow import HeaderData
from .frame import BROADCAST_MAC, is_broadcast

MAGIC = 0x4D47
VERSION = 1
HEADER = struct.Struct(">HBBI")
MAX_BODY = 1 << 16
DEFAULT_MGMT_PORT = 4791

CAST_UNICAST = 0
CAST_BROADCAST = 1


class MgmtKind(enum.IntEnum):
    FLOW_ANNOUNCE = 1
    FLOW_LEARNED = 2
    FLOW_EXPIRE = 3
    REKEY = 4
    MKA_FORWARD = 5
    HELLO = 6


class MgmtError(ValueError):
    pass


@dataclass(slots=True)
class MgmtMessage:
    kind: MgmtKind
    bidf: bytes = b""
    header: HeaderData | None = None
    pn: int = 0
    epoch: int = 0
    key: bytes = b""
    frame: bytes = b""

    @classmethod
    def announce(cls, bidf: bytes, header: HeaderData, pn: int) -> "MgmtMessage":
        return cls(MgmtKind.FLOW_ANNOUNCE, bidf=bidf, header=header, pn=pn)

    @classmethod
    def learned(cls, bidf: bytes) -> "MgmtMessage":
        return cls(MgmtKind.FLOW_LEARNED, bidf=bidf)

    @classmethod
    def expire(cls, bidf: bytes) -> "MgmtMessage":
        return cls(MgmtKind.FLOW_EXPIRE, bidf=bidf)

    @classmethod
    def rekey(cls, epoch: int, key: bytes) -> "MgmtMessage":
        return cls(MgmtKind.REKEY, epoch=epoch, key=key)

    @classmethod
    def mka(cls, frame: bytes) -> "MgmtMessage":
        return cls(MgmtKind.MKA_FORWARD, frame=frame)

    @classmethod
    def hello(cls) -> "MgmtMessage":
        return cls(MgmtKind.HELLO)


def encode_message(msg: MgmtMessage) -> bytes:
    kind = msg.kind
    if kind is MgmtKind.FLOW_ANNOUNCE:
        cast = CAST_BROADCAST if is_broadcast(msg.header.dst) else CAST_UNICAST
        body = msg.bidf + msg.header.pack() + struct.pack(">IB", msg.pn, cast)
    elif kind in (MgmtKind.FLOW_LEARNED, MgmtKind.FLOW_EXPIRE):
        body = msg.bidf
    elif kind is MgmtKind.REKEY:
        body = struct.pack(">I", msg.epoch) + msg.key
    elif kind is MgmtKind.MKA_FORWARD:
        body = msg.frame
    else:
        body = b""
    return HEADER.pack(MAGIC, VERSION, int(kind), len(body)) + body


def _check_header(data) -> tuple[int, int]:
    """The (kind, body length) of a well-formed header at the start of ``data``."""
    magic, version, kind_raw, length = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise MgmtError(f"bad magic 0x{magic:04x}")
    if version != VERSION:
        raise MgmtError(f"unsupported version {version}")
    if length > MAX_BODY:
        raise MgmtError("oversized message")
    return kind_raw, length


def decode_message(data: bytes) -> MgmtMessage:
    """Parse one complete message; raises MgmtError on anything off."""
    if len(data) < HEADER.size:
        raise MgmtError("truncated header")
    kind_raw, length = _check_header(data)
    if HEADER.size + length != len(data):
        raise MgmtError("length mismatch")
    try:
        kind = MgmtKind(kind_raw)
    except ValueError:
        raise MgmtError(f"unknown kind {kind_raw}") from None
    body = data[HEADER.size :]

    if kind is MgmtKind.FLOW_ANNOUNCE:
        if len(body) != 16 + 21 + 5:
            raise MgmtError("bad announce body")
        bidf = bytes(body[:16])
        header = HeaderData.unpack(body[16:37])
        pn, cast = struct.unpack_from(">IB", body, 37)
        if pn < 1:
            raise MgmtError("announce PN must be >= 1")
        if header.an > 3:
            raise MgmtError("announce AN out of range")
        if cast not in (CAST_UNICAST, CAST_BROADCAST):
            raise MgmtError("bad cast marker")
        if (cast == CAST_BROADCAST) != (header.dst == BROADCAST_MAC):
            raise MgmtError("cast marker contradicts destination")
        return MgmtMessage(kind, bidf=bidf, header=header, pn=pn)
    if kind in (MgmtKind.FLOW_LEARNED, MgmtKind.FLOW_EXPIRE):
        if len(body) != 16:
            raise MgmtError("bad bidf body")
        return MgmtMessage(kind, bidf=bytes(body))
    if kind is MgmtKind.REKEY:
        if len(body) != 20:
            raise MgmtError("bad rekey body")
        epoch = struct.unpack_from(">I", body)[0]
        return MgmtMessage(kind, epoch=epoch, key=bytes(body[4:]))
    if kind is MgmtKind.MKA_FORWARD:
        return MgmtMessage(kind, frame=bytes(body))
    if len(body):
        raise MgmtError("unexpected body")
    return MgmtMessage(kind)


class StreamDecoder:
    """Splits a TCP byte stream into messages.

    ``feed`` raises MgmtError on a bad header, after which the stream
    cannot be re-framed; the bodies are left to ``decode_message``.
    """

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        """The complete messages' bytes, each header to the end of its body."""
        self._buf += data
        out = []
        while len(self._buf) >= HEADER.size:
            total = HEADER.size + _check_header(self._buf)[1]
            if len(self._buf) < total:
                break
            out.append(bytes(self._buf[:total]))
            del self._buf[:total]
        return out
