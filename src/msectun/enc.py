"""Header-encryption tunnel scheme.

The first 32 bytes of the MACsec frame (all headers plus the first 32
bits of the already-encrypted payload) are encrypted as two chained
AES-128 blocks, second block first:

    c2 = E(p2)            c1 = E(p1 XOR p2 XOR c2)

a reversed two-block propagating chaining that needs neither an IV nor
an appended tag; the 32 unpredictable payload bits make both ciphertext
blocks fresh per frame.  Authenticity comes from the downlink flow
lookup: a decrypt that does not hit a registered flow with an in-window
packet number is discarded.  Wire body layout:

    epoch(1) c1(16) c2(16) rest_of_secure_data(var) icv(16)

one byte longer than the original frame.  The epoch byte selects the
key generation during rekey rollover.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

from .aes import Aes128
from .frame import ETHERTYPE_MACSEC, ICV_LEN, is_broadcast
from .flow import DEFAULT_WINDOW, DecodeResult, DownlinkFlows, Sci, WindowStatus

HEADER_BYTES = 32  # two cipher blocks
MIN_FRAME = HEADER_BYTES + ICV_LEN  # needs 4+ bytes of secure data
MIN_BODY = 1 + HEADER_BYTES + ICV_LEN
DEFAULT_GRACE_US = 2_000_000

REASON_BAD_EPOCH = "bad_epoch"
REASON_UNKNOWN_FLOW = "unknown_flow"
REASON_HEADER_MISMATCH = "header_mismatch"
REASON_REPLAY = WindowStatus.REPLAY.value
REASON_OUT_OF_WINDOW = WindowStatus.OUT_OF_WINDOW.value
REASON_MALFORMED = "malformed"


@dataclass
class TunnelKey:
    key: bytes
    epoch: int
    cipher: Aes128 = field(init=False, repr=False)

    def __post_init__(self):
        self.cipher = Aes128(self.key)


class PairKeys:
    """Key generations for one direction of a gateway pair.

    The newest epoch is always valid; the one before stays acceptable
    for a short grace window after a rotation so in-flight traffic
    survives the switch.
    """

    def __init__(self, key: bytes):
        self.current = TunnelKey(key, 0)
        self.previous: Optional[TunnelKey] = None
        self.grace_until = 0

    def rotate(self, key: bytes, epoch: int, now: int) -> bool:
        if epoch <= self.current.epoch:
            return False  # duplicate or stale rekey notice
        self.previous = self.current
        self.current = TunnelKey(key, epoch)
        self.grace_until = now + DEFAULT_GRACE_US
        return True

    def for_epoch(self, epoch_byte: int, now: int) -> Optional[TunnelKey]:
        if epoch_byte == self.current.epoch & 0xFF:
            return self.current
        prev = self.previous
        if (
            prev is not None
            and epoch_byte == prev.epoch & 0xFF
            and now <= self.grace_until
        ):
            return prev
        return None


_from_bytes = int.from_bytes  # bound once; a lookup per call costs more than the XOR


def _xor16(a: bytes, b: bytes, c: bytes) -> bytes:
    return (_from_bytes(a, "big") ^ _from_bytes(b, "big") ^ _from_bytes(c, "big")).to_bytes(16, "big")


def header_encrypt(block1: bytes, block2: bytes, cipher: Aes128) -> tuple[bytes, bytes]:
    """Chain-encrypt the two header blocks, second block first."""
    c2 = cipher.encrypt_block(block2)
    c1 = cipher.encrypt_block(_xor16(block1, block2, c2))
    return c1, c2


def header_decrypt(c1: bytes, c2: bytes, cipher: Aes128) -> tuple[bytes, bytes]:
    """Inverse of header_encrypt; garbage in, garbage out by design."""
    p2 = cipher.decrypt_block(c2)
    p1 = _xor16(cipher.decrypt_block(c1), p2, c2)
    return p1, p2


class EncTunnel(DownlinkFlows):
    """Uplink encoder and downlink decoder plus flow state.

    The core table keys flows by base identifier; decode finds a flow by
    the decrypted SCI and AN in the core's SA records and by the
    destination in the SA's cast slot, since the header fields must hit
    a registered entry and pass its replay window before a frame is
    released.
    """

    def __init__(self, window_size: int = DEFAULT_WINDOW):
        super().__init__(window_size)
        self.block_ops_uplink = 0
        self.block_ops_downlink = 0

    # -- uplink --------------------------------------------------------------

    def encode(self, raw_frame: bytes, key: TunnelKey) -> Optional[bytes]:
        """Encrypt the leading 256 bits; None if the frame is too short."""
        if len(raw_frame) < MIN_FRAME:
            return None
        c1, c2 = header_encrypt(raw_frame[:16], raw_frame[16:32], key.cipher)
        self.block_ops_uplink += 2
        return bytes([key.epoch & 0xFF]) + c1 + c2 + raw_frame[32:]

    # -- announcements -------------------------------------------------------

    # bound on this class, not only inherited, so that each scheme's
    # table upkeep can be timed apart (perfbench/tracing.py)
    register = DownlinkFlows.register
    remove = DownlinkFlows.remove

    # -- downlink ------------------------------------------------------------

    def decode(self, body: bytes, keys: PairKeys, now: int) -> DecodeResult:
        if len(body) < MIN_BODY:
            return DecodeResult(reason=REASON_MALFORMED)
        key = keys.for_epoch(body[0], now)
        if key is None:
            return DecodeResult(reason=REASON_BAD_EPOCH)
        p1, p2 = header_decrypt(body[1:17], body[17:33], key.cipher)
        self.block_ops_downlink += 2

        ethertype = struct.unpack_from(">H", p1, 12)[0]
        if ethertype != ETHERTYPE_MACSEC:
            return DecodeResult(reason=REASON_HEADER_MISMATCH)
        an = p1[14] & 0x03
        pn = struct.unpack_from(">I", p2)[0]
        dst = p1[0:6]
        sa = self._sas.get(self._sa_key(Sci.unpack(p2[4:12]), an, dst))
        entry = None if sa is None else sa.broadcast if is_broadcast(dst) else sa.unicast
        if entry is None or entry.header.dst != dst:
            return DecodeResult(reason=REASON_UNKNOWN_FLOW)
        if entry.header.src != p1[6:12]:
            return DecodeResult(reason=REASON_HEADER_MISMATCH)
        status = sa.window.accept(pn)
        if status is not WindowStatus.ACCEPT:
            return DecodeResult(reason=status.value)
        return DecodeResult(frame=p1 + p2 + body[33:])
