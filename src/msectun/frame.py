"""Ethernet / MACsec (802.1AE) frame codec.

Wire layout handled here, big-endian throughout:

    dst(6) src(6) ethertype=0x88E5(2) tci_an(1) sl(1) pn(4) sci(8)
    secure_data(var, >= 2) icv(16)

The secure data is the GCM ciphertext of the original EtherType plus
payload; the ICV is the 16-byte GCM tag over the whole frame.  Pure
functions over byte buffers, no shared state.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

ETHERTYPE_MACSEC = 0x88E5
ETHERTYPE_EAPOL = 0x888E

BROADCAST_MAC = b"\xff" * 6

SECTAG_LEN = 16  # EtherType + TCI/AN + SL + PN + SCI
ICV_LEN = 16
MIN_SECURE_DATA = 2  # at least the moved original EtherType
MIN_FRAME_LEN = 12 + SECTAG_LEN + MIN_SECURE_DATA + ICV_LEN  # 46
DEFAULT_MTU = 1500

_TCI_V = 0x80
_TCI_ES = 0x40
_TCI_SC = 0x20
_TCI_SCB = 0x10
_TCI_E = 0x08
_TCI_C = 0x04
_AN_MASK = 0x03
_SL_RESERVED = 0xC0


class FrameError(ValueError):
    """Base for frame codec failures."""


class TooShort(FrameError):
    pass


class WrongEtherType(FrameError):
    pass


class ReservedBitsSet(FrameError):
    """Version bit or reserved short-length bits are nonzero."""


class ScAbsent(FrameError):
    """SC flag clear: SCI-omitted frames are an unsupported mode."""


class BadShortLength(FrameError):
    """SL field inconsistent with the secure data length."""


class InvariantViolation(FrameError):
    pass


class IcvMismatch(FrameError):
    """Frame failed GCM authentication: forged or corrupted."""


def is_broadcast(mac: bytes) -> bool:
    return mac == BROADCAST_MAC


@dataclass(frozen=True)
class Sci:
    """64-bit secure channel identifier: device MAC plus port number."""

    system_id: bytes
    port: int

    def __post_init__(self):
        if len(self.system_id) != 6:
            raise InvariantViolation("SCI system_id must be 6 bytes")
        if not 0 <= self.port <= 0xFFFF:
            raise InvariantViolation("SCI port out of range")

    def pack(self) -> bytes:
        return self.system_id + struct.pack(">H", self.port)

    @classmethod
    def unpack(cls, data: bytes) -> "Sci":
        return cls(bytes(data[:6]), struct.unpack(">H", data[6:8])[0])


@dataclass(frozen=True)
class Tci:
    """Tag control flags plus the 2-bit association number."""

    es: bool = False
    sc: bool = True
    scb: bool = False
    e: bool = True
    c: bool = False
    an: int = 0
    v: bool = False  # always zero per the standard

    def pack(self) -> int:
        b = self.an & _AN_MASK
        if self.v:
            b |= _TCI_V
        if self.es:
            b |= _TCI_ES
        if self.sc:
            b |= _TCI_SC
        if self.scb:
            b |= _TCI_SCB
        if self.e:
            b |= _TCI_E
        if self.c:
            b |= _TCI_C
        return b

    @classmethod
    def unpack(cls, b: int) -> "Tci":
        return cls(
            v=bool(b & _TCI_V),
            es=bool(b & _TCI_ES),
            sc=bool(b & _TCI_SC),
            scb=bool(b & _TCI_SCB),
            e=bool(b & _TCI_E),
            c=bool(b & _TCI_C),
            an=b & _AN_MASK,
        )


@dataclass(frozen=True)
class SecTag:
    tci: Tci
    sl: int
    pn: int
    sci: Sci


@dataclass
class MacsecFrame:
    dst: bytes
    src: bytes
    sectag: SecTag
    secure_data: bytes
    icv: bytes


@dataclass
class PlainFrame:
    dst: bytes
    src: bytes
    ethertype: int
    payload: bytes = field(default=b"")


def short_length_for(secure_data_len: int) -> int:
    """SL value mandated for a given secure-data length.

    Zero once the enclosed plaintext payload (secure data minus the
    2-byte moved EtherType) exceeds 48 bytes, the length otherwise.
    """
    if secure_data_len - MIN_SECURE_DATA > 48:
        return 0
    return secure_data_len


def ethertype_of(data: bytes) -> int | None:
    if len(data) < 14:
        return None
    return struct.unpack_from(">H", data, 12)[0]


def _pack_header(frame: MacsecFrame, sl: int) -> bytes:
    tag = frame.sectag
    return (
        frame.dst
        + frame.src
        + struct.pack(">HBBI", ETHERTYPE_MACSEC, tag.tci.pack(), sl, tag.pn)
        + tag.sci.pack()
    )


def build_macsec(frame: MacsecFrame) -> bytes:
    """Serialize a frame; recomputes SL rather than trusting the caller."""
    if len(frame.dst) != 6 or len(frame.src) != 6:
        raise InvariantViolation("MAC addresses must be 6 bytes")
    tag = frame.sectag
    if not 0 <= tag.tci.an <= 3:
        raise InvariantViolation("AN out of range")
    if tag.tci.v:
        raise InvariantViolation("version bit must be zero")
    if not tag.tci.sc:
        raise InvariantViolation("SCI-omitted frames unsupported")
    if not 0 <= tag.pn <= 0xFFFFFFFF:
        raise InvariantViolation("PN out of range")
    if len(frame.secure_data) < MIN_SECURE_DATA:
        raise InvariantViolation("secure data must hold the moved EtherType")
    if len(frame.icv) != ICV_LEN:
        raise InvariantViolation("ICV must be 16 bytes")
    sl = short_length_for(len(frame.secure_data))
    return _pack_header(frame, sl) + frame.secure_data + frame.icv


def parse_macsec(data: bytes) -> MacsecFrame:
    """Parse wire bytes into a frame; every field round-trips bit-exactly."""
    if len(data) < MIN_FRAME_LEN:
        raise TooShort(f"{len(data)} bytes, need {MIN_FRAME_LEN}")
    ethertype, tci_an, sl, pn = struct.unpack_from(">HBBI", data, 12)
    if ethertype != ETHERTYPE_MACSEC:
        raise WrongEtherType(f"0x{ethertype:04x}")
    tci = Tci.unpack(tci_an)
    if tci.v or sl & _SL_RESERVED:
        raise ReservedBitsSet("version or reserved SL bits set")
    if not tci.sc:
        raise ScAbsent("SC flag clear")
    sci = Sci.unpack(data[20:28])
    secure_data = bytes(data[28 : len(data) - ICV_LEN])
    if sl != short_length_for(len(secure_data)):
        raise BadShortLength(f"sl={sl} for {len(secure_data)} secure bytes")
    icv = bytes(data[len(data) - ICV_LEN :])
    return MacsecFrame(
        dst=bytes(data[0:6]),
        src=bytes(data[6:12]),
        sectag=SecTag(tci=tci, sl=sl, pn=pn, sci=sci),
        secure_data=secure_data,
        icv=icv,
    )


def endpoint_protect(
    plain: PlainFrame,
    key: bytes,
    sci: Sci,
    an: int,
    pn: int,
    mtu: int = DEFAULT_MTU,
) -> MacsecFrame:
    """GCM-AES-128 protection as a simulated MACsec device applies it.

    Nonce is SCI || PN; the 28 header bytes are authenticated as
    associated data, so the ICV covers the whole frame.
    """
    if pn < 1:
        raise InvariantViolation("PN must be >= 1")
    if not 0 <= an <= 3:
        raise InvariantViolation("AN out of range")
    if len(key) != 16:
        raise InvariantViolation("key must be 16 bytes")
    if len(plain.payload) > mtu - 14:
        raise InvariantViolation("payload exceeds MTU")
    tci = Tci(es=plain.src == sci.system_id, sc=True, e=True, c=False, an=an)
    plaintext = struct.pack(">H", plain.ethertype) + plain.payload
    sl = short_length_for(len(plaintext))
    frame = MacsecFrame(
        dst=plain.dst,
        src=plain.src,
        sectag=SecTag(tci=tci, sl=sl, pn=pn, sci=sci),
        secure_data=b"",
        icv=b"\x00" * ICV_LEN,
    )
    aad = _pack_header(frame, sl)
    nonce = sci.pack() + struct.pack(">I", pn)
    sealed = AESGCM(key).encrypt(nonce, plaintext, aad)
    frame.secure_data = sealed[:-ICV_LEN]
    frame.icv = sealed[-ICV_LEN:]
    return frame


def endpoint_verify(frame: MacsecFrame, key: bytes) -> PlainFrame:
    """Check the ICV and recover the original frame; raises IcvMismatch."""
    tag = frame.sectag
    aad = _pack_header(frame, tag.sl)
    nonce = tag.sci.pack() + struct.pack(">I", tag.pn)
    try:
        plaintext = AESGCM(key).decrypt(nonce, frame.secure_data + frame.icv, aad)
    except InvalidTag:
        raise IcvMismatch("ICV verification failed") from None
    ethertype = struct.unpack_from(">H", plaintext)[0]
    return PlainFrame(
        dst=frame.dst, src=frame.src, ethertype=ethertype, payload=plaintext[2:]
    )
