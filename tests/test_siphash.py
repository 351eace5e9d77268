"""SipHash-2-4 against the reference test vectors."""

import random
import struct

import pytest

from msectun.siphash import siphash24, siphash24_digest, siphash24_many, siphash24_words

# Reference vectors: key 000102...0f, message = bytes(range(i)) for
# i in 0..63; each entry is the little-endian digest of the 64-bit hash.
VECTORS = [
    "310e0edd47db6f72", "fd67dc93c539f874", "5a4fa9d909806c0d", "2d7efbd796666785",
    "b7877127e09427cf", "8da699cd64557618", "cee3fe586e46c9cb", "37d1018bf50002ab",
    "6224939a79f5f593", "b0e4a90bdf82009e", "f3b9dd94c5bb5d7a", "a7ad6b22462fb3f4",
    "fbe50e86bc8f1e75", "903d84c02756ea14", "eef27a8e90ca23f7", "e545be4961ca29a1",
    "db9bc2577fcc2a3f", "9447be2cf5e99a69", "9cd38d96f0b3c14b", "bd6179a71dc96dbb",
    "98eea21af25cd6be", "c7673b2eb0cbf2d0", "883ea3e395675393", "c8ce5ccd8c030ca8",
    "94af49f6c650adb8", "eab8858ade92e1bc", "f315bb5bb835d817", "adcf6b0763612e2f",
    "a5c91da7acaa4dde", "716595876650a2a6", "28ef495c53a387ad", "42c341d8fa92d832",
    "ce7cf2722f512771", "e37859f94623f3a7", "381205bb1ab0e012", "ae97a10fd434e015",
    "b4a31508beff4d31", "81396229f0907902", "4d0cf49ee5d4dcca", "5c73336a76d8bf9a",
    "d0a704536ba93e0e", "925958fcd6420cad", "a915c29bc8067318", "952b79f3bc0aa6d4",
    "f21df2e41d4535f9", "87577519048f53a9", "10a56cf5dfcd9adb", "eb75095ccd986cd0",
    "51a9cb9ecba312e6", "96afadfc2ce666c7", "72fe52975a4364ee", "5a1645b276d592a1",
    "b274cb8ebf87870a", "6f9bb4203de7b381", "eaecb2a30b22a87f", "9924a43cc1315724",
    "bd838d3aafbf8db7", "0b1a2a3265d51aea", "135079a3231ce660", "932b2846e4d70666",
    "e1915f5cb1eca46c", "f325965ca16d629f", "575ff28e60381be5", "724506eb4c328a95",
]

KEY = bytes(range(16))


def test_reference_vectors():
    for i, expect in enumerate(VECTORS):
        assert siphash24_digest(KEY, bytes(range(i))).hex() == expect, f"vector {i}"


def test_known_single_value():
    # the canonical worked value from the original publication
    assert siphash24(KEY, bytes(range(15))) == 0xA129CA6149BE45E5


def test_digest_packs_hash():
    h = siphash24(KEY, b"msectun")
    assert siphash24_digest(KEY, b"msectun") == struct.pack("<Q", h)


def test_key_length_enforced():
    import pytest

    with pytest.raises(ValueError):
        siphash24(b"short", b"x")


def test_key_sensitivity():
    other = bytes([1]) + KEY[1:]
    assert siphash24(KEY, b"data") != siphash24(other, b"data")


# -- batched kernel -------------------------------------------------------


@pytest.mark.parametrize("length", range(41))
def test_many_matches_scalar(length):
    """One message under many random keys equals one scalar hash per key."""
    rng = random.Random(length)
    for n in (1, 2, 7, 64, 129):
        keys = [rng.randbytes(16) for _ in range(n)]
        data = rng.randbytes(length)
        assert siphash24_many(keys, data) == [siphash24(k, data) for k in keys]


def test_many_extreme_lanes():
    """All-zero and all-one keys side by side: no carry crosses a lane."""
    keys = [bytes(16), b"\xff" * 16, bytes(16), b"\xff" * 16, KEY]
    for data in (b"", b"\xff" * 8, b"\xff" * 16, bytes(range(15))):
        assert siphash24_many(keys, data) == [siphash24(k, data) for k in keys]


def test_many_reference_vectors():
    for i, expect in enumerate(VECTORS):
        (h,) = siphash24_many([KEY], bytes(range(i)))
        assert struct.pack("<Q", h).hex() == expect, f"vector {i}"


def test_many_empty_and_key_length():
    assert siphash24_many([], b"x") == []
    with pytest.raises(ValueError):
        siphash24_many([KEY, b"short"], b"x")


def test_words_form_matches_reference_vector_16():
    key = bytes(range(16))
    k0, k1 = struct.unpack("<QQ", key)
    m0, m1 = struct.unpack("<QQ", bytes(range(16)))
    digest = struct.pack("<Q", siphash24_words(k0, k1, (m0, m1, 16 << 56)))
    assert digest.hex() == VECTORS[16]


def test_words_form_matches_batch_random():
    # ``siphash24`` shares the core, so the bit-sliced batch is the
    # independent implementation to check it against
    rng = random.Random(16)
    for _ in range(300):
        key, msg = rng.randbytes(16), rng.randbytes(16)
        words = (*struct.unpack("<QQ", msg), 16 << 56)
        assert siphash24_words(*struct.unpack("<QQ", key), words) == (
            siphash24_many([key], msg)[0]
        )
