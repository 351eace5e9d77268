"""Header-encryption scheme: chaining equations, avalanche, epochs."""

import os
import random
import struct

from msectun.aes import Aes128
from msectun.enc import (
    EncTunnel,
    PairKeys,
    TunnelKey,
    header_decrypt,
    header_encrypt,
)
from msectun.flow import HeaderData
from msectun.frame import BROADCAST_MAC, Sci, endpoint_verify, parse_macsec
from msectun.pair import seal

KEY = bytes(range(16))
SCI = Sci(b"\x02\x00\x00\x00\x00\x01", 1)
DST = b"\x02\x00\x00\x00\x00\x02"


def _protected(pn, dst=DST, payload=b"\x00" * 40, an=0):
    return seal(KEY, dst, SCI.system_id, SCI, pn, payload, an)


def _tunnel(pn=1, window=16, broadcast=False):
    tun = EncTunnel(window_size=window)
    tun.register(b"\x0a" * 16, HeaderData(DST, SCI.system_id, SCI, 0), pn)
    if broadcast:
        tun.register(b"\x0b" * 16, HeaderData(BROADCAST_MAC, SCI.system_id, SCI, 0), pn)
    return tun


def _keys():
    secret = os.urandom(16)
    return PairKeys(secret), PairKeys(secret)


# -- chaining equations ---------------------------------------------------------


def test_chaining_equations_normative():
    cipher = Aes128(KEY)
    p1, p2 = os.urandom(16), os.urandom(16)
    c1, c2 = header_encrypt(p1, p2, cipher)
    assert c2 == cipher.encrypt_block(p2)
    mixed = bytes(a ^ b ^ c for a, b, c in zip(p1, p2, c2))
    assert c1 == cipher.encrypt_block(mixed)


def test_decrypt_equations_normative():
    cipher = Aes128(KEY)
    c1, c2 = os.urandom(16), os.urandom(16)
    p1, p2 = header_decrypt(c1, c2, cipher)
    assert p2 == cipher.decrypt_block(c2)
    assert p1 == bytes(
        a ^ b ^ c for a, b, c in zip(cipher.decrypt_block(c1), p2, c2)
    )


def test_inverse_random_blocks():
    rng = random.Random(12)
    for _ in range(10_000):
        cipher = Aes128(rng.randbytes(16)) if rng.random() < 0.01 else cipher0
        p1, p2 = rng.randbytes(16), rng.randbytes(16)
        assert header_decrypt(*header_encrypt(p1, p2, cipher), cipher) == (p1, p2)


cipher0 = Aes128(KEY)


def test_payload_difference_changes_both_blocks():
    cipher = Aes128(KEY)
    p1 = os.urandom(16)
    p2a, p2b = bytearray(os.urandom(16)), None
    p2b = bytearray(p2a)
    p2b[15] ^= 0x01  # differ only in the trailing payload bits
    c1a, c2a = header_encrypt(p1, bytes(p2a), cipher)
    c1b, c2b = header_encrypt(p1, bytes(p2b), cipher)
    assert c1a != c1b and c2a != c2b


def test_avalanche_c2_flip_scrambles_both():
    cipher = Aes128(KEY)
    rng = random.Random(8)
    d1 = d2 = 0
    trials = 400
    for _ in range(trials):
        p1, p2 = rng.randbytes(16), rng.randbytes(16)
        c1, c2 = header_encrypt(p1, p2, cipher)
        bad_c2 = bytearray(c2)
        bit = rng.randrange(128)
        bad_c2[bit // 8] ^= 1 << (bit % 8)
        q1, q2 = header_decrypt(c1, bytes(bad_c2), cipher)
        d1 += _hamming(p1, q1)
        d2 += _hamming(p2, q2)
    assert d1 / trials >= 50
    assert d2 / trials >= 50


def test_c1_flip_leaves_p2_intact():
    cipher = Aes128(KEY)
    rng = random.Random(9)
    scrambled = 0
    for _ in range(200):
        p1, p2 = rng.randbytes(16), rng.randbytes(16)
        c1, c2 = header_encrypt(p1, p2, cipher)
        bad_c1 = bytearray(c1)
        bit = rng.randrange(128)
        bad_c1[bit // 8] ^= 1 << (bit % 8)
        q1, q2 = header_decrypt(bytes(bad_c1), c2, cipher)
        assert q2 == p2
        scrambled += _hamming(p1, q1)
    assert scrambled / 200 >= 50


def _hamming(a: bytes, b: bytes) -> int:
    return bin(int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).count("1")


# -- wire encode/decode -----------------------------------------------------------


def test_roundtrip_bit_exact_and_length():
    tun = _tunnel()
    send, recv = _keys()
    for pn in range(1, 40):
        raw = _protected(pn, payload=os.urandom(random.randint(4, 90)))
        body = tun.encode(raw, send.current)
        assert len(body) == len(raw) + 1
        res = tun.decode(body, recv, now=0)
        assert res.ok, res.reason
        assert res.frame == raw
        endpoint_verify(parse_macsec(res.frame), KEY)


def test_ciphertext_fresh_across_pn():
    tun = _tunnel()
    send, _ = _keys()
    a = tun.encode(_protected(1), send.current)
    b = tun.encode(_protected(2), send.current)
    assert a[1:17] != b[1:17]
    assert a[17:33] != b[17:33]


def test_short_frames_refused():
    tun = _tunnel()
    send, _ = _keys()
    assert tun.encode(b"\x00" * 47, send.current) is None


def test_no_plaintext_leak():
    sci = Sci(b"\xa1\xa2\xa3\xa4\xa5\xa6", 0xB1B2)
    dst = b"\xc1\xc2\xc3\xc4\xc5\xc6"
    tun = EncTunnel()
    send, _ = _keys()
    pn = 0xD1D2D3D4
    body = tun.encode(seal(KEY, dst, sci.system_id, sci, pn, bytes(60)), send.current)
    for needle in (dst, sci.system_id, sci.pack(), struct.pack(">I", pn)):
        assert needle not in body


def test_bit_flip_header_mismatch():
    tun = _tunnel()
    send, recv = _keys()
    body = bytearray(tun.encode(_protected(1), send.current))
    body[3] ^= 0x10  # inside c1
    assert tun.decode(bytes(body), recv, 0).reason == "header_mismatch"


def test_replay_and_out_of_window():
    tun = _tunnel(window=4)
    send, recv = _keys()
    body = tun.encode(_protected(1), send.current)
    assert tun.decode(body, recv, 0).ok
    assert tun.decode(body, recv, 0).reason == "replay"
    far = tun.encode(_protected(4000), send.current)
    assert tun.decode(far, recv, 0).reason == "out_of_window"


def test_unknown_flow_before_announce():
    tun = EncTunnel()
    send, recv = _keys()
    body = tun.encode(_protected(1), send.current)
    assert tun.decode(body, recv, 0).reason == "unknown_flow"


def test_bound_unicast_broadcast_share_window():
    tun = _tunnel(broadcast=True)
    send, recv = _keys()
    for pn in range(1, 20):
        dst = BROADCAST_MAC if pn % 4 == 0 else DST
        raw = _protected(pn, dst=dst)
        res = tun.decode(tun.encode(raw, send.current), recv, 0)
        assert res.ok, (pn, res.reason)


def test_random_injections_rejected():
    tun = _tunnel(window=64)
    send, recv = _keys()
    rng = random.Random(15)
    accepted = 0
    for _ in range(20_000):
        body = bytes([send.current.epoch]) + rng.randbytes(80)
        accepted += tun.decode(body, recv, 0).ok
    assert accepted == 0


def _index_sizes(tun):
    return {name: len(v) for name, v in vars(tun).items() if isinstance(v, dict)}


def test_churn_leaves_no_index_entries():
    tun = EncTunnel(window_size=4)
    for i in range(1000):
        sci = Sci(i.to_bytes(6, "big"), 1)
        uni, bc = (2 * i).to_bytes(16, "big"), (2 * i + 1).to_bytes(16, "big")
        tun.register(uni, HeaderData(DST, sci.system_id, sci, 0), 1)
        tun.register(bc, HeaderData(BROADCAST_MAC, sci.system_id, sci, 0), 1)
        tun.remove(uni)
        tun.remove(bc)
    assert not any(_index_sizes(tun).values()), _index_sizes(tun)


def test_stale_expire_keeps_reannounced_flow():
    tun = _tunnel()
    send, recv = _keys()
    # the sender re-announces the flow under a new base identifier, then
    # the expire for the old identifier arrives late
    tun.register(b"\x0c" * 16, HeaderData(DST, SCI.system_id, SCI, 0), 1)
    tun.remove(b"\x0a" * 16)
    assert tun.decode(tun.encode(_protected(1), send.current), recv, 0).ok
    tun.remove(b"\x0c" * 16)
    assert not any(_index_sizes(tun).values()), _index_sizes(tun)


def test_reused_bidf_replaces_the_older_flow():
    tun = _tunnel()
    other = Sci(b"\x02\x00\x00\x00\x00\x03", 1)
    # a second flow announced under the first one's base identifier
    tun.register(b"\x0a" * 16, HeaderData(DST, other.system_id, other, 0), 1)
    tun.remove(b"\x0a" * 16)
    assert not any(_index_sizes(tun).values()), _index_sizes(tun)


# -- key epochs -------------------------------------------------------------------


def test_epoch_constant_without_rekey():
    keys = PairKeys(os.urandom(16))
    assert keys.current.epoch == 0
    for _ in range(100):
        assert keys.for_epoch(0, now=10**9) is keys.current


def test_rekey_increments_and_grace():
    send, recv = _keys()
    tun = _tunnel()
    old_body = tun.encode(_protected(1), send.current)
    new_key = os.urandom(16)
    assert recv.rotate(new_key, 1, now=1_000)
    send.rotate(new_key, 1, now=1_000)
    assert recv.current.epoch == 1
    # old epoch accepted inside the grace window
    assert recv.for_epoch(0, now=1_000 + 1_999_999) is not None
    # and rejected after it
    assert recv.for_epoch(0, now=1_000 + 2_000_001) is None
    res = tun.decode(old_body, recv, now=1_000 + 2_000_001)
    assert res.reason == "bad_epoch"


def test_rekey_stale_notice_ignored():
    keys = PairKeys(os.urandom(16))
    keys.rotate(os.urandom(16), 1, now=0)
    assert not keys.rotate(os.urandom(16), 1, now=0)
    assert not keys.rotate(os.urandom(16), 0, now=0)
    assert keys.current.epoch == 1


def test_epoch_byte_wraps_mod_256():
    keys = PairKeys(os.urandom(16))
    for e in range(1, 300):
        keys.rotate(os.urandom(16), e, now=0)
    assert keys.current.epoch == 299
    assert keys.for_epoch(299 & 0xFF, now=0) is keys.current


def test_tunnel_key_builds_cipher():
    tk = TunnelKey(bytes(16), 0)
    assert tk.cipher.encrypt_block(bytes(16))
