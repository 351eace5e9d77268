"""Known-answer tests for the block cipher core and both AEAD layers."""

import os
import random

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESCCM, AESGCM

from msectun.aes import Aes128
from msectun.fullenc import ccm_decrypt, ccm_encrypt


# FIPS-197 appendix vectors
def test_fips197_c1():
    c = Aes128(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
    pt = bytes.fromhex("00112233445566778899aabbccddeeff")
    ct = c.encrypt_block(pt)
    assert ct.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"
    assert c.decrypt_block(ct) == pt


def test_fips197_appendix_b():
    c = Aes128(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
    ct = c.encrypt_block(bytes.fromhex("3243f6a8885a308d313198a2e0370734"))
    assert ct.hex() == "3925841d02dc09fbdc118597196a0b32"


# NIST SP 800-38A ECB-AES128 vectors
@pytest.mark.parametrize(
    "pt,ct",
    [
        ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"),
        ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"),
        ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"),
        ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"),
    ],
)
def test_sp80038a_ecb(pt, ct):
    c = Aes128(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
    assert c.encrypt_block(bytes.fromhex(pt)).hex() == ct
    assert c.decrypt_block(bytes.fromhex(ct)).hex() == pt


def test_encrypt_decrypt_inverse_random():
    rng = random.Random(5)
    for _ in range(200):
        c = Aes128(rng.getrandbits(128).to_bytes(16, "big"))
        block = rng.getrandbits(128).to_bytes(16, "big")
        assert c.decrypt_block(c.encrypt_block(block)) == block


def test_matches_cryptography_ecb():
    """Both directions against the ``cryptography`` AES-ECB, many keys and blocks."""
    rng = random.Random(12)
    for _ in range(100):
        key = rng.randbytes(16)
        blocks = rng.randbytes(16 * 8)
        ours = Aes128(key)
        ecb = Cipher(algorithms.AES(key), modes.ECB())
        want_ct = ecb.encryptor().update(blocks)
        want_pt = ecb.decryptor().update(blocks)
        for off in range(0, len(blocks), 16):
            assert ours.encrypt_block(blocks[off : off + 16]) == want_ct[off : off + 16]
            assert ours.decrypt_block(blocks[off : off + 16]) == want_pt[off : off + 16]


def test_bad_key_length():
    with pytest.raises(ValueError):
        Aes128(b"too-short")


# AES-GCM known answers for the endpoint protection layer
# (NIST GCM spec test cases 1-4, 128-bit key)
def test_gcm_empty_vector():
    key = bytes(16)
    ct = AESGCM(key).encrypt(bytes(12), b"", b"")
    assert ct.hex() == "58e2fccefa7e3061367f1d57a4e7455a"


def test_gcm_single_block_vector():
    key = bytes(16)
    sealed = AESGCM(key).encrypt(bytes(12), bytes(16), b"")
    assert sealed[:16].hex() == "0388dace60b6a392f328c2b971b2fe78"
    assert sealed[16:].hex() == "ab6e47d42cec13bdf53a67b21257bddf"


def test_gcm_case_4_with_aad():
    key = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
    iv = bytes.fromhex("cafebabefacedbaddecaf888")
    pt = bytes.fromhex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39"
    )
    aad = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
    sealed = AESGCM(key).encrypt(iv, pt, aad)
    assert sealed[: len(pt)].hex() == (
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
        "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
    )
    assert sealed[len(pt) :].hex() == "5bc94fbc3221a5db94fae95ae7121a47"


# AES-CCM (the full-frame baseline) against RFC 3610 packet vectors
RFC3610 = [
    # (nonce, aad, plaintext, tag_len, ct_and_tag)
    (
        "00000003020100a0a1a2a3a4a5",
        "0001020304050607",
        "08090a0b0c0d0e0f101112131415161718191a1b1c1d1e",
        8,
        "588c979a61c663d2f066d0c2c0f989806d5f6b61dac38417e8d12cfdf926e0",
    ),
    (
        "00000004030201a0a1a2a3a4a5",
        "0001020304050607",
        "08090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        8,
        "72c91a36e135f8cf291ca894085c87e3cc15c439c9e43a3ba091d56e10400916",
    ),
    (
        "00000006050403a0a1a2a3a4a5",
        "000102030405060708090a0b",
        "0c0d0e0f101112131415161718191a1b1c1d1e",
        8,
        "a28c6865939a9a79faaa5c4c2a9d4a91cdac8c96c861b9c9e61ef1",
    ),
]


@pytest.mark.parametrize("nonce,aad,pt,tag_len,want", RFC3610)
def test_ccm_rfc3610(nonce, aad, pt, tag_len, want):
    cipher = Aes128(bytes.fromhex("c0c1c2c3c4c5c6c7c8c9cacbcccdcecf"))
    sealed, _ = ccm_encrypt(
        cipher, bytes.fromhex(nonce), bytes.fromhex(pt), bytes.fromhex(aad), tag_len
    )
    assert sealed.hex() == want
    back, _ = ccm_decrypt(
        cipher, bytes.fromhex(nonce), sealed, bytes.fromhex(aad), tag_len
    )
    assert back == bytes.fromhex(pt)


@pytest.mark.parametrize("aad_len", [0, 20])
@pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 64, 576, 1400])
def test_ccm_matches_cryptography(size, aad_len):
    """13-byte nonce, 16-byte tag, against ``cryptography``'s AESCCM."""
    rng = random.Random(size * 100 + aad_len)
    for _ in range(3):
        key, nonce = rng.randbytes(16), rng.randbytes(13)
        pt, aad = rng.randbytes(size), rng.randbytes(aad_len)
        want = AESCCM(key, tag_length=16).encrypt(nonce, pt, aad or None)
        cipher = Aes128(key)
        sealed, _ = ccm_encrypt(cipher, nonce, pt, aad)
        assert sealed == want
        assert ccm_decrypt(cipher, nonce, want, aad)[0] == pt


def test_ccm_rejects_tampering():
    cipher = Aes128(os.urandom(16))
    nonce = os.urandom(13)
    sealed, _ = ccm_encrypt(cipher, nonce, b"payload bytes here")
    for i in range(len(sealed)):
        bad = bytearray(sealed)
        bad[i] ^= 0x01
        assert ccm_decrypt(cipher, nonce, bytes(bad))[0] is None


def test_ccm_counts_blocks():
    cipher = Aes128(bytes(16))
    _, ops = ccm_encrypt(cipher, bytes(13), bytes(1600))
    # at least one block op per 16 plaintext bytes, per pass
    assert ops >= 2 * 100
