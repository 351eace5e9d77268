"""Flow state: window semantics against a naive set-based oracle,
binding and expiry."""

import itertools
import random

import pytest

from msectun.flow import (
    PN_MAX,
    BindMismatch,
    DownlinkFlowEntry,
    HeaderData,
    ReplayWindow,
    UplinkCast,
    UplinkFlowEntry,
    UplinkTable,
    WindowStatus,
    bind,
    new_bidf,
    unbind,
)
from msectun.frame import BROADCAST_MAC, Sci

SCI = Sci(b"\x02\x00\x00\x00\x00\x01", 1)
DST = b"\x02\x00\x00\x00\x00\x02"


class NaiveWindow:
    """Reference model: plain sets, no bitmaps, no incremental counts."""

    def __init__(self, start_pn, size):
        self.size = size
        top = min(start_pn + size - 1, PN_MAX)
        self.pending = set(range(start_pn, top + 1))
        self.seen = set()
        self.floor = start_pn
        self.top = top

    def accept(self, pn):
        if pn < self.floor or pn > self.top:
            return "out_of_window"
        if pn in self.seen:
            return "replay"
        self.pending.discard(pn)
        self.seen.add(pn)
        new_floor = max(self.floor, pn - self.size + 1)
        for p in range(self.floor, new_floor):
            self.pending.discard(p)
            self.seen.discard(p)
        self.floor = new_floor
        while len(self.pending) < self.size and self.top < PN_MAX:
            self.top += 1
            self.pending.add(self.top)
        return "accept"


# -- window basics -----------------------------------------------------------


def test_window_init_enumerates():
    assert ReplayWindow(1, 4).pending_pns() == [1, 2, 3, 4]


def test_window_init_w1_strict_in_order():
    w = ReplayWindow(5, 1)
    assert w.pending_pns() == [5]
    assert w.accept(6) is WindowStatus.OUT_OF_WINDOW
    assert w.accept(5) is WindowStatus.ACCEPT


def test_window_init_truncates_at_pn_max():
    pns = ReplayWindow(PN_MAX - 2, 8).pending_pns()
    assert pns == [PN_MAX - 2, PN_MAX - 1, PN_MAX]
    assert all(p >= PN_MAX - 2 for p in pns)  # no wraparound below start


def test_worked_example_fresh_window():
    w = ReplayWindow(1, 4)
    assert w.accept(2) is WindowStatus.ACCEPT
    assert w.pending_pns() == [1, 3, 4, 5]
    assert (w.floor, w.top) == (1, 5)  # PN 5 entered, none left


def test_replay_detected():
    w = ReplayWindow(1, 4)
    assert w.accept(2) is WindowStatus.ACCEPT
    assert w.accept(2) is WindowStatus.REPLAY


def test_far_future_out_of_window():
    w = ReplayWindow(1, 4)
    assert w.accept(1000) is WindowStatus.OUT_OF_WINDOW


def test_below_floor_out_of_window():
    w = ReplayWindow(100, 4)
    assert w.accept(99) is WindowStatus.OUT_OF_WINDOW


def test_bad_parameters():
    with pytest.raises(ValueError):
        ReplayWindow(1, 0)
    with pytest.raises(ValueError):
        ReplayWindow(0, 4)


# -- oracle equivalence --------------------------------------------------------


def _state_matches(w: ReplayWindow, o: NaiveWindow) -> bool:
    return (
        w.floor == o.floor
        and w.top == o.top
        and set(w.pending_pns()) == o.pending
    )


def test_exhaustive_equivalence_small():
    """All PN sequences over a small alphabet, every window size."""
    for size in range(1, 9):
        alphabet = range(1, size + 3)
        for length in range(1, 6):
            for seq in itertools.product(alphabet, repeat=length):
                w = ReplayWindow(1, size)
                o = NaiveWindow(1, size)
                for pn in seq:
                    got = w.accept(pn).value
                    want = o.accept(pn)
                    assert got == want, (size, seq, pn)
                assert _state_matches(w, o), (size, seq)


def test_fuzz_equivalence():
    rng = random.Random(99)
    for _ in range(20_000):
        size = rng.randint(1, 8)
        start = rng.choice([1, rng.randint(1, 40), PN_MAX - rng.randint(0, 12)])
        w = ReplayWindow(start, size)
        o = NaiveWindow(start, size)
        for _ in range(12):
            pn = start + rng.randint(-4, size + 8)
            if not 1 <= pn <= PN_MAX:
                continue
            assert w.accept(pn).value == o.accept(pn)
        assert _state_matches(w, o)


# -- binding -------------------------------------------------------------------


def _header(dst=DST, an=0):
    return HeaderData(dst=dst, src=SCI.system_id, sci=SCI, an=an)


def _entry(dst=DST, an=0, start_pn=1, size=8):
    return DownlinkFlowEntry(
        bidf=new_bidf(random.Random(dst)),
        header=_header(dst, an),
        window=ReplayWindow(start_pn, size),
    )


def test_bind_links_and_shares_window():
    u, b = _entry(), _entry(dst=BROADCAST_MAC)
    bind(u, b)
    assert u.bound is b and b.bound is u
    assert u.window is b.window


def test_bound_pair_shares_pn_state():
    u, b = _entry(), _entry(dst=BROADCAST_MAC)
    bind(u, b)
    assert u.window.accept(5) is WindowStatus.ACCEPT
    assert b.window.accept(5) is WindowStatus.REPLAY


def test_unbound_pair_independent():
    u, b = _entry(), _entry(dst=BROADCAST_MAC)
    assert u.window.accept(5) is WindowStatus.ACCEPT
    assert b.window.accept(5) is WindowStatus.ACCEPT


def test_bind_mismatch_rejected():
    other_sci = Sci(b"\x02\x00\x00\x00\x00\x09", 1)
    u = _entry()
    b = DownlinkFlowEntry(
        bidf=b"\x01" * 16,
        header=HeaderData(BROADCAST_MAC, other_sci.system_id, other_sci, 0),
        window=ReplayWindow(1, 8),
    )
    with pytest.raises(BindMismatch):
        bind(u, b)
    with pytest.raises(BindMismatch):
        bind(_entry(), _entry())  # both unicast


def test_bind_prefers_covering_window():
    u = _entry(start_pn=1)
    b = _entry(dst=BROADCAST_MAC, start_pn=3)
    shared = bind(u, b)
    assert shared.floor == 1  # overlapping: lower floor covers both


def test_bind_disjoint_prefers_newer():
    u = _entry(start_pn=1, size=4)
    b = _entry(dst=BROADCAST_MAC, start_pn=1000, size=4)
    shared = bind(u, b)
    assert shared.floor == 1000


def test_binding_symmetry_commuting_sequences():
    for seq in ([3, 1, 2], [1, 2, 3], [2, 3, 1]):
        u1, b1 = _entry(), _entry(dst=BROADCAST_MAC)
        bind(u1, b1)
        u2, b2 = _entry(), _entry(dst=BROADCAST_MAC)
        bind(u2, b2)
        for pn in seq:
            u1.window.accept(pn)
            b2.window.accept(pn)
        assert u1.window.pending_pns() == b2.window.pending_pns()


def test_unbind_keeps_partner_state():
    u, b = _entry(), _entry(dst=BROADCAST_MAC)
    bind(u, b)
    u.window.accept(2)
    unbind(u)
    assert u.bound is None and b.bound is None
    assert b.window.accept(2) is WindowStatus.REPLAY  # state retained


# -- uplink table / expiry -------------------------------------------------------


def _uplink(an=0, timeout=100):
    return UplinkFlowEntry(
        sci=SCI,
        an=an,
        unicast=UplinkCast(b"\x0a" * 16),
        broadcast=UplinkCast(b"\x0b" * 16),
        timeout=timeout,
    )


def test_expire_evicts_past_deadline():
    t = UplinkTable()
    t.put(_uplink(an=0, timeout=100))
    t.put(_uplink(an=1, timeout=500))
    dead = t.expire(now=101)
    assert [e.an for e in dead] == [0]
    assert t.get(SCI, 0) is None
    assert t.get(SCI, 1) is not None


def test_expire_refreshed_entry_survives():
    t = UplinkTable()
    e = _uplink(timeout=100)
    t.put(e)
    e.timeout = 1000  # traffic refreshed it
    assert t.expire(now=500) == []


def test_expire_empty_table():
    assert UplinkTable().expire(now=10) == []


def test_bidf_for_dst_class():
    e = _uplink()
    assert e.cast(DST) is e.unicast
    assert e.cast(BROADCAST_MAC) is e.broadcast
    assert e.unicast.bidf != e.broadcast.bidf


def test_header_data_pack_roundtrip():
    h = _header(an=3)
    assert HeaderData.unpack(h.pack()) == h
