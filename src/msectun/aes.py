"""AES-128 block cipher core.

Table-driven implementation (encrypt and decrypt direction) used by the
header-encryption tunnel scheme and the full-frame AEAD baseline, where
the per-block work itself is the quantity under measurement.  Verified
against the FIPS-197 known-answer vectors in tests/test_aes.py.

The state is the block read as one big-endian 128-bit int, its bytes
in FIPS-197 order (byte ``4 * column + row``).  A full round is one
``to_bytes(16)`` and 16 lookups, one table per byte position, whose
entries are already shifted into the output column that ShiftRows sends
that byte to; XORing the 16 entries and the 128-bit round key gives the
next state.  The last round is a byte ``translate`` through the S-box and
a ShiftRows gather.
"""

from operator import itemgetter

BLOCK_SIZE = 16

_M32 = 0xFFFFFFFF
_from_bytes = int.from_bytes  # bound once; a lookup per call costs more than the XOR
_WORD_REP = 0x00000001_00000001_00000001_00000001  # one 32-bit word in each column


def _build_sbox() -> tuple[int, ...]:
    sbox = [0] * 256
    p = q = 1
    while True:
        p = (p ^ (p << 1) ^ (0x1B if p & 0x80 else 0)) & 0xFF
        q = (q ^ (q << 1)) & 0xFF
        q = (q ^ (q << 2)) & 0xFF
        q = (q ^ (q << 4)) & 0xFF
        if q & 0x80:
            q ^= 0x09
        rot = lambda x, n: ((x << n) | (x >> (8 - n))) & 0xFF
        sbox[p] = q ^ rot(q, 1) ^ rot(q, 2) ^ rot(q, 3) ^ rot(q, 4) ^ 0x63
        if p == 1:
            break
    sbox[0] = 0x63
    return tuple(sbox)


_SBOX = _build_sbox()
_INV_SBOX = tuple(_SBOX.index(i) for i in range(256))
_SBOX_BYTES = bytes(_SBOX)
_INV_SBOX_BYTES = bytes(_INV_SBOX)


def _xtime(a: int) -> int:
    a <<= 1
    return (a ^ 0x1B) & 0xFF if a & 0x100 else a


def _gf_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a = _xtime(a)
        b >>= 1
    return out


def _column_words():
    """Per row, each byte's 32-bit contribution to its output column after
    SubBytes and MixColumns (and after their inverses)."""
    te, td = [[], [], [], []], [[], [], [], []]
    for x in range(256):
        s = _SBOX[x]
        s2 = _xtime(s)
        w = (s2 << 24) | (s << 16) | (s << 8) | (s2 ^ s)
        si = _INV_SBOX[x]
        v = (
            (_gf_mul(si, 0x0E) << 24)
            | (_gf_mul(si, 0x09) << 16)
            | (_gf_mul(si, 0x0D) << 8)
            | _gf_mul(si, 0x0B)
        )
        for row in range(4):
            # a byte in row r contributes the row-0 word rotated right by 8r
            te[row].append(((w >> 8 * row) | (w << 32 - 8 * row)) & _M32)
            td[row].append(((v >> 8 * row) | (v << 32 - 8 * row)) & _M32)
    return te, td


# ShiftRows moves the byte in (row, column) to column ``column - row``,
# InvShiftRows to ``column + row``: ``step`` -1 or +1 below


def _round_tables(words, step: int) -> tuple[tuple[int, ...], ...]:
    """One table per byte position: its row's word, shifted into the
    column that (Inv)ShiftRows moves the byte to."""
    tables = []
    for pos in range(16):
        column, row = divmod(pos, 4)
        shift = 32 * (3 - (column + step * row) % 4)
        tables.append(tuple(w << shift for w in words[row]))
    return tuple(tables)


def _gather(step: int) -> itemgetter:
    """(Inv)ShiftRows as a gather: output byte ``o`` reads its row's byte
    from the column that moves to ``o``'s column."""
    return itemgetter(*(4 * ((o // 4 - step * (o % 4)) % 4) + o % 4 for o in range(16)))


_TE, _TD = _column_words()
_ENC_ROUND = _round_tables(_TE, -1)
_DEC_ROUND = _round_tables(_TD, +1)
_SHIFT_ROWS = _gather(-1)
_INV_SHIFT_ROWS = _gather(+1)
del _TE, _TD

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _expand_key(key: bytes) -> tuple[int, ...]:
    """The 11 round keys, each as one 128-bit int."""
    sb = _SBOX
    k = int.from_bytes(key, "big")
    out = [k]
    for rcon in _RCON:
        w = k & _M32
        t = (
            (sb[(w >> 16) & 0xFF] << 24)
            | (sb[(w >> 8) & 0xFF] << 16)
            | (sb[w & 0xFF] << 8)
            | sb[w >> 24]
        ) ^ (rcon << 24)
        # w0' = w0 ^ t, w1' = w1 ^ w0', ...: each column XORs all
        # the words above it, plus t
        k ^= (k >> 32) ^ (k >> 64) ^ (k >> 96) ^ (t * _WORD_REP)
        out.append(k)
    return tuple(out)


def _inv_mix_columns(k: int) -> int:
    # a decryption round undoes ShiftRows and SubBytes, so feeding it
    # ShiftRows(SubBytes(k)) leaves InvMixColumns(k)
    t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15 = _DEC_ROUND
    x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15 = _SHIFT_ROWS(
        k.to_bytes(16, "big").translate(_SBOX_BYTES)
    )
    return (
        t0[x0] ^ t1[x1] ^ t2[x2] ^ t3[x3] ^ t4[x4] ^ t5[x5] ^ t6[x6] ^ t7[x7]
        ^ t8[x8] ^ t9[x9] ^ t10[x10] ^ t11[x11] ^ t12[x12] ^ t13[x13] ^ t14[x14] ^ t15[x15]
    )


def _decrypt_keys(ek: tuple[int, ...]) -> tuple[int, ...]:
    """Equivalent inverse cipher schedule: reversed rounds, inner keys
    passed through InvMixColumns so the decryption tables apply directly."""
    return (ek[10], *(_inv_mix_columns(k) for k in ek[9:0:-1]), ek[0])


class Aes128:
    """One expanded AES-128 key; encrypts/decrypts single 16-byte blocks.

    The decryption schedule is derived on the first ``decrypt_block``:
    a tunnel key that only ever encrypts never pays for it.
    """

    __slots__ = ("_ek", "_dk")

    def __init__(self, key: bytes):
        if len(key) != BLOCK_SIZE:
            raise ValueError("AES-128 key must be 16 bytes")
        self._ek = _expand_key(key)
        self._dk = None

    def encrypt_block(self, block: bytes) -> bytes:
        t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15 = _ENC_ROUND
        rk = self._ek
        s = _from_bytes(block, "big") ^ rk[0]
        for k in rk[1:10]:
            x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15 = s.to_bytes(16, "big")
            s = (
                t0[x0] ^ t1[x1] ^ t2[x2] ^ t3[x3] ^ t4[x4] ^ t5[x5] ^ t6[x6] ^ t7[x7]
                ^ t8[x8] ^ t9[x9] ^ t10[x10] ^ t11[x11] ^ t12[x12] ^ t13[x13] ^ t14[x14]
                ^ t15[x15] ^ k
            )
        last = bytes(_SHIFT_ROWS(s.to_bytes(16, "big").translate(_SBOX_BYTES)))
        return (_from_bytes(last, "big") ^ rk[10]).to_bytes(16, "big")

    def decrypt_block(self, block: bytes) -> bytes:
        rk = self._dk
        if rk is None:
            rk = self._dk = _decrypt_keys(self._ek)
        t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15 = _DEC_ROUND
        s = _from_bytes(block, "big") ^ rk[0]
        for k in rk[1:10]:
            x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15 = s.to_bytes(16, "big")
            s = (
                t0[x0] ^ t1[x1] ^ t2[x2] ^ t3[x3] ^ t4[x4] ^ t5[x5] ^ t6[x6] ^ t7[x7]
                ^ t8[x8] ^ t9[x9] ^ t10[x10] ^ t11[x11] ^ t12[x12] ^ t13[x13] ^ t14[x14]
                ^ t15[x15] ^ k
            )
        last = bytes(_INV_SHIFT_ROWS(s.to_bytes(16, "big").translate(_INV_SBOX_BYTES)))
        return (_from_bytes(last, "big") ^ rk[10]).to_bytes(16, "big")
