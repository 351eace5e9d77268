"""Full-frame re-encryption baseline scheme.

Benchmark stand-in for tunneling MACsec frames through a conventional
VPN: the entire frame is sealed with AES-CCM (RFC 3610, L=2, 16-byte
tag) built on the same block cipher core as the header-encryption
scheme, so per-frame block counts are directly comparable.  Wire body:

    nonce(13) ciphertext(frame length) tag(16)
"""

from __future__ import annotations

import struct
from typing import Optional

from .aes import Aes128
from .flow import DecodeResult

NONCE_LEN = 13  # 15 - L with L = 2
PREFIX_LEN = 5  # the nonce's per-sender part; an 8-byte counter follows
TAG_LEN = 16

REASON_AUTH_FAIL = "auth_fail"
REASON_MALFORMED = "malformed"

_from_bytes = int.from_bytes  # bound once; a lookup per call costs more than the XOR


def _mac_blocks(cipher: Aes128, nonce: bytes, data: bytes, aad: bytes, tag_len: int):
    """CBC-MAC pass over the CCM B-blocks; returns (mac_state, block_ops)."""
    flags = (64 if aad else 0) | (((tag_len - 2) // 2) << 3) | 1  # L' = L-1 = 1
    b0 = bytes([flags]) + nonce + struct.pack(">H", len(data))
    encrypt = cipher.encrypt_block
    x = encrypt(b0)
    if aad:
        blocks = struct.pack(">H", len(aad)) + aad
        blocks += b"\x00" * (-len(blocks) % 16)
    else:
        blocks = b""
    blocks += data + b"\x00" * (-len(data) % 16)
    for off in range(0, len(blocks), 16):
        chunk = _from_bytes(blocks[off : off + 16], "big")
        x = encrypt((_from_bytes(x, "big") ^ chunk).to_bytes(16, "big"))
    return x, 1 + len(blocks) // 16


def _keystream(cipher: Aes128, nonce: bytes, nbytes: int) -> bytes:
    """CCM counter blocks S0 (the tag mask) to Sn, n = ceil(nbytes / 16)."""
    prefix = b"\x01" + nonce
    encrypt = cipher.encrypt_block
    return b"".join(
        [encrypt(prefix + i.to_bytes(2, "big")) for i in range(-(-nbytes // 16) + 1)]
    )


def _xor(data: bytes, stream: bytes) -> bytes:
    """``data`` XOR the first ``len(data)`` bytes of ``stream``, as one int."""
    n = len(data)
    return (_from_bytes(data, "big") ^ _from_bytes(stream[:n], "big")).to_bytes(n, "big")


def ccm_encrypt(
    cipher: Aes128, nonce: bytes, plaintext: bytes, aad: bytes = b"", tag_len: int = TAG_LEN
) -> tuple[bytes, int]:
    """Seal; returns (ciphertext || tag, block operations used)."""
    if len(nonce) != NONCE_LEN:
        raise ValueError("CCM nonce must be 13 bytes")
    mac, ops = _mac_blocks(cipher, nonce, plaintext, aad, tag_len)
    stream = _keystream(cipher, nonce, len(plaintext))
    ct = _xor(plaintext, stream[16:])
    tag = _xor(mac[:tag_len], stream)
    return ct + tag, ops + len(stream) // 16


def ccm_decrypt(
    cipher: Aes128, nonce: bytes, sealed: bytes, aad: bytes = b"", tag_len: int = TAG_LEN
) -> tuple[Optional[bytes], int]:
    """Open; returns (plaintext or None on auth failure, block ops)."""
    if len(nonce) != NONCE_LEN or len(sealed) < tag_len:
        return None, 0
    ct, tag = sealed[:-tag_len], sealed[-tag_len:]
    stream = _keystream(cipher, nonce, len(ct))
    plaintext = _xor(ct, stream[16:])
    mac, ops = _mac_blocks(cipher, nonce, plaintext, aad, tag_len)
    ops += len(stream) // 16
    if _xor(mac[:tag_len], stream) != tag:
        return None, ops
    return plaintext, ops


class FullEncTunnel:
    """Whole-frame AEAD encode/decode with per-direction keys.

    A nonce is ``nonce_prefix`` and a counter from 1.  A sender draws its
    prefix at random when it starts, so a restart repeats no nonce under
    the same key; a tunnel that only decodes needs none.
    """

    def __init__(self, key: bytes, nonce_prefix: bytes = b""):
        self.cipher = Aes128(key)
        self._nonce_prefix = nonce_prefix
        self._counter = 0
        self.block_ops_uplink = 0
        self.block_ops_downlink = 0

    def encode(self, raw_frame: bytes) -> bytes:
        self._counter += 1
        nonce = self._nonce_prefix + struct.pack(">Q", self._counter)
        sealed, ops = ccm_encrypt(self.cipher, nonce, raw_frame)
        self.block_ops_uplink += ops
        return nonce + sealed

    def decode(self, body: bytes) -> DecodeResult:
        if len(body) < NONCE_LEN + TAG_LEN:
            return DecodeResult(reason=REASON_MALFORMED)
        plaintext, ops = ccm_decrypt(self.cipher, body[:NONCE_LEN], body[NONCE_LEN:])
        self.block_ops_downlink += ops
        if plaintext is None:
            return DecodeResult(reason=REASON_AUTH_FAIL)
        return DecodeResult(frame=plaintext)
