"""Flow state: window semantics against a naive set-based oracle, the
per-SA downlink records (flow binding) and expiry."""

import itertools
import random

import pytest

from conftest import MAC_A, MAC_B, SCI_A, protect
from msectun.flow import (
    PN_MAX,
    DownlinkFlows,
    ReplayWindow,
    UplinkCast,
    UplinkFlowEntry,
    UplinkTable,
    WindowStatus,
    new_bidf,
)
from msectun.frame import BROADCAST_MAC, Sci, is_broadcast
from msectun.gateway import Scheme
from msectun.pair import EnginePair

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


def _register(table, dst=DST, start_pn=1, sci=SCI, an=0):
    header = dst + sci.system_id + sci.pack() + bytes((an,))
    return table.register(new_bidf(), header, start_pn)


class UnboundFlows(DownlinkFlows):
    """Flow tables in which each cast has an SA record, and a window, of its own."""

    def _sa_key(self, header):
        return header[12:], is_broadcast(header[:6])


def test_bind_links_and_shares_window():
    t = DownlinkFlows(8)
    u, b = _register(t), _register(t, dst=BROADCAST_MAC)
    assert u.sa is b.sa
    assert (u.sa.unicast, u.sa.broadcast) == (u, b)
    assert len(t._sas) == 1


def test_bound_pair_shares_pn_state():
    t = DownlinkFlows(8)
    u, b = _register(t), _register(t, dst=BROADCAST_MAC)
    assert u.sa.window.accept(5) is WindowStatus.ACCEPT
    assert b.sa.window.accept(5) is WindowStatus.REPLAY


def test_unbound_pair_independent():
    t = UnboundFlows(8)
    u, b = _register(t), _register(t, dst=BROADCAST_MAC)
    assert u.sa.window.accept(5) is WindowStatus.ACCEPT
    assert b.sa.window.accept(5) is WindowStatus.ACCEPT


def test_bind_mismatch_rejected():
    t = DownlinkFlows(8)
    other_sci = Sci(b"\x02\x00\x00\x00\x00\x09", 1)
    u = _register(t)
    b = _register(t, dst=BROADCAST_MAC, sci=other_sci)
    assert u.sa is not b.sa and u.sa.window is not b.sa.window
    # two unicasts of one SA never share a window: the newer replaces
    # the older, which leaves the table
    u2 = _register(t)
    assert list(t.flows) == [b.bidf, u2.bidf]
    assert u2.sa.unicast is u2 and u2.sa.broadcast is None


def test_bind_prefers_covering_window():
    t = DownlinkFlows(8)
    _register(t, start_pn=1)
    b = _register(t, dst=BROADCAST_MAC, start_pn=3)
    assert b.sa.window.floor == 1  # overlapping: lower floor covers both


def test_bind_disjoint_prefers_newer():
    t = DownlinkFlows(4)
    _register(t, start_pn=1)
    b = _register(t, dst=BROADCAST_MAC, start_pn=1000)
    assert b.sa.window.floor == 1000


def test_binding_symmetry_commuting_sequences():
    for seq in ([3, 1, 2], [1, 2, 3], [2, 3, 1]):
        t = DownlinkFlows(8)
        u1 = _register(t)
        _register(t, dst=BROADCAST_MAC)
        _register(t, an=1)
        b2 = _register(t, dst=BROADCAST_MAC, an=1)
        for pn in seq:
            u1.sa.window.accept(pn)
            b2.sa.window.accept(pn)
        assert u1.sa.window.pending_pns() == b2.sa.window.pending_pns()


def test_unbind_keeps_partner_state():
    t = DownlinkFlows(8)
    u, b = _register(t), _register(t, dst=BROADCAST_MAC)
    u.sa.window.accept(2)
    t.remove(u.bidf)
    assert b.sa.unicast is None and b.sa.broadcast is b
    assert b.sa.window.accept(2) is WindowStatus.REPLAY  # state retained
    t.remove(b.bidf)
    assert t.flows == {} and t._sas == {}


def test_new_unicast_flow_before_the_old_ones_expire():
    """A second unicast flow of the SA registers before the first's expire."""
    t = DownlinkFlows(8)
    u1 = _register(t)
    b = _register(t, dst=BROADCAST_MAC)
    u2 = _register(t, start_pn=3)
    # the newer flow took the unicast slot and the SA's window
    assert u1.bidf not in t.flows
    assert (b.sa.unicast, b.sa.broadcast) == (u2, b) and u2.sa is b.sa
    t.remove(u1.bidf)  # the late expire finds nothing
    assert (b.sa.unicast, b.sa.broadcast) == (u2, b)
    assert u2.sa.window.accept(4) is WindowStatus.ACCEPT
    assert b.sa.window.accept(4) is WindowStatus.REPLAY


# -- uplink table / expiry -------------------------------------------------------


def _uplink(an=0, timeout=100):
    return UplinkFlowEntry(
        sci=SCI.pack(),
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
    assert t.get(SCI.pack(), 0) is None
    assert t.get(SCI.pack(), 1) is not None


def test_expire_refreshed_entry_survives():
    t = UplinkTable()
    e = _uplink(timeout=100)
    t.put(e)
    e.timeout = 1000  # traffic refreshed it
    assert t.expire(now=500) == []


def test_expire_empty_table():
    assert UplinkTable().expire(now=10) == []


def test_bidf_for_dst_class():
    """The gateway carries an SA's unicast and broadcast frames as two flows."""
    pair = EnginePair(Scheme.IDF)
    sent = [protect(MAC_B, MAC_A, SCI_A, 1), protect(BROADCAST_MAC, MAC_A, SCI_A, 2)]
    for raw in sent:
        pair.lan_a(raw)
    e = pair.a.uplink.get(SCI_A.pack(), 0)
    assert e.unicast.bidf != e.broadcast.bidf
    flows = pair.b.codec.flows
    assert flows[e.unicast.bidf].header[:6] == MAC_B
    assert flows[e.broadcast.bidf].header[:6] == BROADCAST_MAC
    # each frame's identifier came from its own cast's bidf
    assert pair.emitted["B"] == sent


def test_announced_header_is_the_frames_wire_bytes():
    """An announcement carries the frame's dst|src|sci and its AN, and the
    far gateway keys the flow's SA by the last 9 of those bytes."""
    pair = EnginePair(Scheme.IDF)
    raw = protect(MAC_B, MAC_A, SCI_A, 1, an=3)
    pair.lan_a(raw)
    e = pair.a.uplink.get(raw[20:28], 3)
    header = raw[:12] + raw[20:28] + b"\x03"
    assert e.unicast.announce.header == header
    flow = pair.b.codec.flows[e.unicast.bidf]
    assert flow.header == header
    assert pair.b.codec._sas[header[12:]] is flow.sa
