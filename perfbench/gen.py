"""Seeded traffic generation: MACsec devices and the frames they send.

Everything here is a pure function of the seed.  Frames are sealed with
AES-GCM exactly as ``msectun.frame.endpoint_protect`` + ``build_macsec``
would seal them (``check_sealer`` proves it for each run), but with the
header packed directly and one ``AESGCM`` object cached per SA, which
makes pre-generation about five times cheaper.  Sealing always happens
outside the timed phase.
"""

from __future__ import annotations

import hashlib
import random
import struct

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from msectun.frame import (
    BROADCAST_MAC,
    ETHERTYPE_MACSEC,
    PlainFrame,
    Sci,
    build_macsec,
    endpoint_protect,
    short_length_for,
)

MACSEC_OVERHEAD = 46  # header(28) + moved EtherType(2) + ICV(16)
IMIX = ((64, 7), (576, 4), (1400, 1))
_TCI_ES_SC_E = 0x68  # es (src == SCI system id), sc, e; AN in the low bits


def device_mac(seed: int, side: str, index: int, generation: int) -> bytes:
    """Locally administered unicast MAC, distinct per (side, index, generation)."""
    h = hashlib.sha256(f"{seed}|{side}|{index}|{generation}".encode()).digest()
    return bytes([0x02]) + h[:5]


class Device:
    """One MACsec transmitter: its SCI, current AN, PN counter and SAK."""

    __slots__ = ("seed", "mac", "sci", "sci_bytes", "an", "pn", "_aead")

    def __init__(self, seed: int, mac: bytes, an: int = 0):
        self.seed = seed
        self.mac = mac
        self.sci = Sci(mac, 1)
        self.sci_bytes = self.sci.pack()
        self.an = an
        self.pn = 0
        self._aead = AESGCM(self.key())

    def key(self) -> bytes:
        return hashlib.sha256(
            struct.pack(">Q", self.seed) + self.sci_bytes + bytes([self.an])
        ).digest()[:16]

    def rollover(self) -> None:
        """Start the next SA: AN + 1, PN from 1, a new key."""
        self.an = (self.an + 1) & 3
        self.pn = 0
        self._aead = AESGCM(self.key())

    def seal(self, dst: bytes, payload: bytes, ethertype: int = 0x0800) -> bytes:
        self.pn += 1
        plaintext = struct.pack(">H", ethertype) + payload
        header = (
            dst
            + self.mac
            + struct.pack(
                ">HBBI",
                ETHERTYPE_MACSEC,
                _TCI_ES_SC_E | self.an,
                short_length_for(len(plaintext)),
                self.pn,
            )
            + self.sci_bytes
        )
        nonce = self.sci_bytes + struct.pack(">I", self.pn)
        return header + self._aead.encrypt(nonce, plaintext, header)


def payload_for(rng: random.Random, frame_size: int) -> bytes:
    return rng.randbytes(frame_size - MACSEC_OVERHEAD)


def check_sealer(seed: int) -> bool:
    """The fast sealer matches the library's endpoint path bit for bit."""
    rng = random.Random(seed)
    dev = Device(seed, device_mac(seed, "check", 0, 0), an=2)
    for size, dst in ((64, device_mac(seed, "check", 1, 0)), (1400, BROADCAST_MAC)):
        payload = payload_for(rng, size)
        fast = dev.seal(dst, payload)
        ref = build_macsec(
            endpoint_protect(
                PlainFrame(dst=dst, src=dev.mac, ethertype=0x0800, payload=payload),
                dev.key(),
                dev.sci,
                dev.an,
                dev.pn,
            )
        )
        if fast != ref or len(fast) != size:
            return False
    return True


def imix_size(rng: random.Random) -> int:
    return rng.choices([s for s, _ in IMIX], weights=[w for _, w in IMIX])[0]
