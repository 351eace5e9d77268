"""SipHash-2-4 keyed hash.

Self-contained implementation used to derive rotating identifiers.
Matches the reference test vectors (key 000102..0f over 64 incremental
messages); see tests/test_siphash.py.  ``siphash24_words`` is the one
scalar core, over key and message words; ``siphash24`` hashes one byte
message under one byte key through it.  ``siphash24_many`` hashes one
message under many keys in one bit-sliced pass and returns what
``siphash24`` would for each.
"""

import struct
from typing import Sequence

_U64 = 0xFFFFFFFFFFFFFFFF
_KEY_WORDS = struct.Struct("<QQ")
_WORD = struct.Struct("<Q")


def _message_words(data: bytes) -> list[int]:
    """``data`` as SipHash's message words: each whole little-endian
    64-bit word, then the final block of the tail bytes and the length
    modulo 256 in its top byte."""
    n = len(data)
    end = n - n % 8
    words = list(struct.unpack_from(f"<{end // 8}Q", data))
    words.append(int.from_bytes(data[end:], "little") | (n & 0xFF) << 56)
    return words


def siphash24_words(k0: int, k1: int, words: Sequence[int]) -> int:
    """SipHash-2-4 under key words ``k0, k1`` of the message ``words``.

    ``k0, k1`` are the key's two little-endian 64-bit words and
    ``words`` the message's, final block last (see ``_message_words``);
    a caller with a fixed message shape passes them without building
    bytes.  Each word gets two SipRounds; finalization is two more
    passes of that body with a zero word, after ``v2`` takes 0xFF.  In
    each round the 32-bit rotations of ``v0`` and ``v2`` share one mask
    with the addition after them, as the bits above 64 that a sum
    carries are dropped either way; the result is masked for ``v2``'s
    last rotation.
    """
    M = _U64
    v0 = k0 ^ 0x736F6D6570736575
    v1 = k1 ^ 0x646F72616E646F6D
    v2 = k0 ^ 0x6C7967656E657261
    v3 = k1 ^ 0x7465646279746573
    for flip, block in ((0xFF, words), (0, (0, 0))):
        for m in block:
            v3 ^= m
            v0 = (v0 + v1) & M
            v1 = ((v1 << 13 | v1 >> 51) & M) ^ v0
            v2 = (v2 + v3) & M
            v3 = ((v3 << 16 | v3 >> 48) & M) ^ v2
            v0 = ((v0 << 32 | v0 >> 32) + v3) & M
            v3 = ((v3 << 21 | v3 >> 43) & M) ^ v0
            v2 = (v2 + v1) & M
            v1 = ((v1 << 17 | v1 >> 47) & M) ^ v2
            v2 = v2 << 32 | v2 >> 32

            v0 = (v0 + v1) & M
            v1 = ((v1 << 13 | v1 >> 51) & M) ^ v0
            v2 = (v2 + v3) & M
            v3 = ((v3 << 16 | v3 >> 48) & M) ^ v2
            v0 = ((v0 << 32 | v0 >> 32) + v3) & M
            v3 = ((v3 << 21 | v3 >> 43) & M) ^ v0
            v2 = (v2 + v1) & M
            v1 = ((v1 << 17 | v1 >> 47) & M) ^ v2
            v2 = v2 << 32 | v2 >> 32
            v0 ^= m
        v2 ^= flip
    return (v0 ^ v1 ^ v2 ^ v3) & M


def siphash24(key: bytes, data: bytes) -> int:
    """Hash ``data`` under a 16-byte ``key``; returns a 64-bit integer."""
    if len(key) != 16:
        raise ValueError("siphash key must be 16 bytes")
    return siphash24_words(*_KEY_WORDS.unpack(key), _message_words(data))


def siphash24_digest(key: bytes, data: bytes) -> bytes:
    """Little-endian 8-byte digest, as in the reference implementation."""
    return _WORD.pack(siphash24(key, data))


# Batched form: one 64-bit lane per key, lanes _STRIDE bits apart in one
# Python int.  The 8 guard bits above each lane take the carry of a
# lane-wise addition, so ``(a + b) & m64`` adds every lane mod 2**64 at
# once; a rotation masks the bits it moves, so no lane leaks into the
# next.  The cost of one SipRound is then a fixed count of big-int
# operations, whatever the number of lanes.
_STRIDE = 72
_LANE_BYTES = _STRIDE // 8


def _lanes(words: list[bytes]) -> int:
    """Pack 8-byte little-endian words into one int, one word per lane."""
    return int.from_bytes(b"\0".join(words) + b"\0", "little")


def _sip_rounds(v0, v1, v2, v3, count, masks):
    """``count`` SipRounds on every lane at once."""
    m64, l13, l16, l17, l21, l32, l43, l47, l48, l51 = masks
    for _ in range(count):
        v0 = (v0 + v1) & m64
        v1 = ((v1 & l51) << 13) | ((v1 >> 51) & l13)
        v1 ^= v0
        v0 = ((v0 & l32) << 32) | ((v0 >> 32) & l32)
        v2 = (v2 + v3) & m64
        v3 = ((v3 & l48) << 16) | ((v3 >> 48) & l16)
        v3 ^= v2
        v0 = (v0 + v3) & m64
        v3 = ((v3 & l43) << 21) | ((v3 >> 43) & l21)
        v3 ^= v0
        v2 = (v2 + v1) & m64
        v1 = ((v1 & l47) << 17) | ((v1 >> 47) & l17)
        v1 ^= v2
        v2 = ((v2 & l32) << 32) | ((v2 >> 32) & l32)
    return v0, v1, v2, v3


def siphash24_many(keys: Sequence[bytes], data: bytes) -> list[int]:
    """Hash ``data`` under each 16-byte key; ``[siphash24(k, data) for k in keys]``.

    All keys share each SipRound: the state words of every key are
    packed side by side into four Python ints (see ``_STRIDE``), so a
    batch of n keys costs one pass of big-int arithmetic instead of n
    scalar hashes.  The lane masks are built per call.
    """
    n = len(keys)
    if not n:
        return []
    if any(len(k) != 16 for k in keys):
        raise ValueError("siphash key must be 16 bytes")
    rep = _lanes([b"\1" + bytes(7)] * n)  # 1 in the low bit of every lane
    masks = tuple(((1 << w) - 1) * rep for w in (64, 13, 16, 17, 21, 32, 43, 47, 48, 51))
    k0 = _lanes([k[:8] for k in keys])
    k1 = _lanes([k[8:] for k in keys])
    v0 = k0 ^ (0x736F6D6570736575 * rep)
    v1 = k1 ^ (0x646F72616E646F6D * rep)
    v2 = k0 ^ (0x6C7967656E657261 * rep)
    v3 = k1 ^ (0x7465646279746573 * rep)

    for w in _message_words(data):
        m = w * rep
        v3 ^= m
        v0, v1, v2, v3 = _sip_rounds(v0, v1, v2, v3, 2, masks)
        v0 ^= m
    v2 ^= 0xFF * rep
    v0, v1, v2, v3 = _sip_rounds(v0, v1, v2, v3, 4, masks)

    out = (v0 ^ v1 ^ v2 ^ v3).to_bytes(_LANE_BYTES * n, "little")
    return list(struct.unpack("<" + "Qx" * n, out))
