"""Carrier header: framing, limits, error taxonomy."""

import pytest

from msectun import encap
from msectun.encap import EncapScheme, decap, encap as wrap, max_body


def test_roundtrip():
    body = b"x" * 100
    payload = wrap(body, EncapScheme.IDF)
    assert len(payload) == 108
    scheme, back = decap(payload)
    assert scheme is EncapScheme.IDF
    assert back == body


@pytest.mark.parametrize("scheme", list(EncapScheme))
def test_all_schemes_roundtrip(scheme):
    assert decap(wrap(b"abc", scheme)) == (scheme, b"abc")


def test_too_large():
    limit = max_body(1500)
    wrap(b"x" * limit, EncapScheme.NAIVE)
    with pytest.raises(encap.TooLarge):
        wrap(b"x" * (limit + 1), EncapScheme.NAIVE)


def test_truncated_is_bad_magic():
    with pytest.raises(encap.BadMagic):
        decap(b"\xa5")


def test_bad_magic():
    with pytest.raises(encap.BadMagic):
        decap(b"\x00\x00\x10\x00\x00\x00\x00\x00body")


def test_bad_version():
    good = bytearray(wrap(b"", EncapScheme.ENC))
    good[2] = (2 << 4) | (good[2] & 0x0F)
    with pytest.raises(encap.BadVersion):
        decap(bytes(good))


def test_unknown_scheme():
    good = bytearray(wrap(b"", EncapScheme.ENC))
    good[2] = (good[2] & 0xF0) | 0x0F
    with pytest.raises(encap.UnknownScheme):
        decap(bytes(good))


@pytest.mark.parametrize("index", range(3, 8))
def test_nonzero_reserved_byte(index):
    bad = bytearray(wrap(b"body", EncapScheme.IDF))
    bad[index] = 0x01
    with pytest.raises(encap.BadReserved):
        decap(bytes(bad))


def test_header_is_constant_8_bytes():
    for n in (0, 1, 50, 1000):
        assert len(wrap(b"z" * n, EncapScheme.FULLENC)) == n + 8
