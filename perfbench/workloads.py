"""The benchmark's workloads and the correctness gate they share.

Each workload runs every scheme through a fresh pair of gateways:
set-up (timed as ``setup_s``), then a timed phase of ``seconds /
len(schemes)`` per scheme, cut into slices that alternate between the
schemes.  Frames are sealed in chunks with the clock stopped, so the
timed phase holds gateway work only.  Every delivered frame is checked
against the offered one.

* ``small-1flow``: one SA, unicast, 64-byte frames, synchronous pair.
* ``imix-4kflows``: 2048 SAs per direction plus one broadcast flow per
  eight SAs, 64/576/1400-byte frames 7:4:1, seeded interleaving.
* ``churn``: about 256 SAs per side replaced after 16 frames each,
  virtual clock, 1 ms tunnel delay, short flow timeout.  It is not in
  ``BENCHMARK.json``: ``enc`` loses frames to ``bad_epoch`` under this
  rekey churn, and how many depends on how far a timed run gets, while
  a judged workload must finish with no failed operation.  Run it by
  name to see those losses (``fail_frac`` per scheme, ``deliver_frac``)
  and the expiry and rekey layers.
* ``udp-loopback``: the ``small-1flow`` frames through two
  ``netio.GatewayRunner``s over 127.0.0.1, 16 frames in flight.  It is
  not in ``BENCHMARK.json``: on a shared two-CPU host its tail latency
  changes two- to four-fold from run to run, too much for a bound.  Run
  it by name to measure the ``netio`` layer.
"""

from __future__ import annotations

import gc
import random
from array import array
import socket
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter_ns

from msectun.frame import BROADCAST_MAC
from msectun.gateway import GatewayStats, Scheme

from gen import Device, device_mac, imix_size, payload_for
from pairs import PEER, SIDES, DelayedPair, SyncPair, UdpPair

SCHEMES = (Scheme.NAIVE, Scheme.IDF, Scheme.ENC, Scheme.FULLENC)
# tunnel datagram length minus LAN frame length (README, claim C7)
WIRE_OVERHEAD = {Scheme.NAIVE: 8, Scheme.IDF: -10, Scheme.ENC: 9, Scheme.FULLENC: 37}
CHUNK = 2048  # frames sealed per pause of the clock


class Gate:
    """Named correctness checks; any failure fails the run."""

    def __init__(self):
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


@dataclass
class SchemeRun:
    """Everything one scheme's part of a run measured."""

    scheme: Scheme
    offered: int = 0  # timed-phase frames offered
    delivered: int = 0  # ... delivered exactly once and bit-exact
    seconds: float = 0.0  # wall time of the timed phase
    # an array is invisible to the garbage collector, so a long run's
    # samples do not lengthen the collections the program under test pays
    latencies_ns: array = field(default_factory=lambda: array("q"))
    setup_s: list = field(default_factory=list)
    setup_frames: int = 0
    setup_delivered: int = 0
    gen_ns: int = 0
    gen_frames: int = 0
    gc0: int = 0
    # harness-timed handler calls in the timed phase; on sockets, where
    # the harness cannot time the engine, end-to-end latencies instead
    handler_ns: int = 0
    bound_frames: int = 0  # timed frames on flows bound in pairs
    late: int = 0  # delivered after the loss timeout: counted as lost
    slice_fps: list = field(default_factory=list)  # delivered / wall time, per slice
    slice_ends: list = field(default_factory=list)  # len(latencies_ns) after each slice
    # untraced and traced slices; only a traced run has the latter
    plain_seconds: float = 0.0
    plain_offered: int = 0
    plain_gc0: int = 0
    traced_seconds: float = 0.0
    traced_offered: int = 0
    totals: dict = field(default_factory=dict)  # traced set-up and slices
    segment_totals: dict = field(default_factory=dict)  # traced slices only
    segment_handler_ns: int = 0  # harness-timed handler ns, traced slices
    stats_delta: dict = field(default_factory=dict)
    stats_end: dict = field(default_factory=dict)
    mgmt_kinds: Counter = field(default_factory=Counter)
    pending_max: int = 0
    uplink_entries_max: int = 0
    id_entries_max: int = 0

    @property
    def lost(self) -> int:
        return self.offered - self.delivered


def _merged_stats(stats: list[GatewayStats]) -> dict:
    out: Counter = Counter()
    for s in stats:
        for k, v in s.as_dict().items():
            out[k] += v
        out["dropped"] += s.dropped()
    return out


def _stats_delta(before: dict, after: dict) -> dict:
    return {k: after.get(k, 0) - before.get(k, 0) for k in set(before) | set(after)}


def _gc0() -> int:
    return gc.get_stats()[0]["collections"]


def _next_chunk(prep: dict, run: SchemeRun) -> list:
    """Frames not reached by the last segment, else a freshly sealed chunk."""
    left = prep.pop("leftover", None)
    if left:
        return left
    g0 = perf_counter_ns()
    chunk = prep["source"].chunk(CHUNK)
    run.gen_ns += perf_counter_ns() - g0
    run.gen_frames += len(chunk)
    return chunk


# -- sources -------------------------------------------------------------


@dataclass
class Flow:
    side: str
    device: Device
    dst: bytes
    bound: bool  # its SA also sends on the other destination class


class FlowSource:
    """Frames from a fixed set of flows in seeded random order."""

    def __init__(self, flows: list[Flow], rng: random.Random, sizes=None):
        self.flows = flows
        self.rng = rng
        self.sizes = sizes  # None: the IMIX mix

    def frame(self, flow: Flow, size: int = 0) -> tuple[str, bytes, bool]:
        size = size or self.sizes or imix_size(self.rng)
        return flow.side, flow.device.seal(flow.dst, payload_for(self.rng, size)), flow.bound

    def chunk(self, n: int) -> list[tuple[str, bytes, bool]]:
        flows, pick = self.flows, self.rng.choice
        return [self.frame(pick(flows)) for _ in range(n)]


# -- workloads -----------------------------------------------------------


class Workload:
    name = ""
    schemes = SCHEMES
    setup_repeats = 1
    interleave = True  # alternate the schemes' timed slices (run_workload)

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, scheme: Scheme):
        """Untimed: build devices and seal the set-up frames."""
        raise NotImplementedError

    def establish(self, scheme: Scheme, prep, tracer):
        """Timed as set-up: start the gateways, establish every flow."""
        raise NotImplementedError

    def check_setup(self, pair, prep, run: SchemeRun, gate: Gate) -> None:
        raise NotImplementedError

    def discard(self, pair) -> None:
        """Release a pair that is no longer used."""

    def release(self) -> bool:
        """Wait for everything the discarded pairs started; False if
        something would not stop."""
        return True

    def engines(self, pair):
        return pair.gw

    def segment(self, pair, prep, run: SchemeRun, seconds: float, gate: Gate,
                last: bool, sample: bool) -> None:
        raise NotImplementedError

    def finish(self, pair, prep, run: SchemeRun, gate: Gate) -> None:
        pass

    def steady_checks(self, scheme: Scheme, delta: dict, bound_frames: int,
                      gate: Gate) -> None:
        """The README's exact steady-state crypto counts (claim C6): idf
        hashes once per frame uplink and once per flow refilled downlink
        (twice when the flow is bound), enc uses two blocks each way."""
        name = f"{self.name}.{scheme.value}"
        sent, rebuilt = delta["frames_tunneled"], delta["frames_reconstructed"]
        if scheme is Scheme.IDF:
            gate.check(f"{name}.hash_uplink_per_frame", delta["hash_calls_uplink"] == sent,
                       f"{delta['hash_calls_uplink']} hashes for {sent} frames")
            want = rebuilt + bound_frames
            gate.check(f"{name}.hash_downlink_per_frame", delta["hash_calls_downlink"] == want,
                       f"{delta['hash_calls_downlink']} hashes, expected {want}")
        if scheme is Scheme.ENC:
            up, down = delta["block_ops_uplink"], delta["block_ops_downlink"]
            gate.check(f"{name}.blocks_per_frame", up == 2 * sent and down == 2 * rebuilt,
                       f"{up}+{down} blocks for {sent} frames sent, {rebuilt} rebuilt")

    def wire_checks(self, scheme: Scheme, before: dict, after: dict, gate: Gate) -> None:
        """Every tunnel datagram is its frame plus the scheme's overhead (C7)."""
        ovh = WIRE_OVERHEAD[scheme]
        for side in before:
            d = _stats_delta(before[side], after[side])
            if d["dropped"] or d["frames_tunneled"] != d["datagrams_sent"]:
                continue  # not one datagram per LAN frame: nothing exact to check
            want = d["bytes_lan_in"] + ovh * d["datagrams_sent"]
            gate.check(f"{self.name}.{scheme.value}.wire_overhead.{side}", d["bytes_tun_out"] == want,
                       f"{d['bytes_tun_out']} tunnel bytes, expected {want}")


class _SyncWorkload(Workload):
    """Closed loop, one caller: the next frame enters after the previous
    one left the far gateway."""

    def make_pair(self, scheme, tracer):
        return SyncPair(scheme, self.seed, tracer)

    def establish(self, scheme, prep, tracer):
        pair = self.make_pair(scheme, tracer)
        for side, raw, _ in prep["setup"]:
            pair.ingress(side, raw)
        return pair

    def check_setup(self, pair, prep, run, gate):
        self._verify(pair, prep["setup"], None, gate, "setup")
        run.setup_frames = run.setup_delivered = len(prep["setup"])

    def _verify(self, pair, frames, run, gate, phase) -> None:
        expected = {s: [] for s in SIDES}
        for side, raw, _ in frames:
            expected[PEER[side]].append(raw)
        for side in SIDES:
            got, want = pair.sink[side], expected[side]
            if got == want:
                if run is not None:
                    run.delivered += len(got)
            else:
                ok = Counter(want) & Counter(got)
                if run is not None:
                    run.delivered += sum(1 for v in ok.values() if v == 1)
                gate.check(
                    f"{self.name}.{phase}.delivered_in_order_exactly_once",
                    False,
                    f"side {side}: {len(got)} frames delivered, {len(want)} offered, "
                    f"{sum(ok.values())} matching",
                )
            got.clear()

    def segment(self, pair, prep, run, seconds, gate, last, sample):
        clock = perf_counter_ns
        lat = run.latencies_ns
        handlers = {side: gw.on_lan_frame for side, gw in pair.gw.items()}
        offered = pair.offered
        budget = int(seconds * 1e9)
        used = 0
        gc_start = _gc0()
        while used < budget:
            chunk = _next_chunk(prep, run)
            now = pair.now
            n = 0
            start = clock()
            deadline = start + budget - used
            for side, raw, _ in chunk:
                now += 1
                pair.now = now
                offered[side] += 1
                t0 = clock()
                handlers[side](raw, now)
                t1 = clock()
                lat.append(t1 - t0)
                n += 1
                if t1 >= deadline:
                    break
            used += clock() - start
            done = chunk[:n]
            prep["leftover"] = chunk[n:]
            run.offered += n
            run.bound_frames += sum(1 for f in done if f[2])
            run.handler_ns += sum(lat[-n:])
            self._verify(pair, done, run, gate, "timed")
            if sample:
                _sample_tables(pair.gw, run)
        run.seconds += used / 1e9
        run.gc0 += _gc0() - gc_start


def _sample_tables(engines, run: SchemeRun) -> None:
    """Table sizes summed over both gateways of the pair."""
    gws = engines.values()
    uplink = sum(len(gw.uplink) for gw in gws)
    ids = sum(len(gw.idf_downlink.ids) for gw in gws if gw.idf_downlink is not None)
    run.uplink_entries_max = max(run.uplink_entries_max, uplink)
    run.id_entries_max = max(run.id_entries_max, ids)


class Small1Flow(_SyncWorkload):
    name = "small-1flow"
    setup_repeats = 31
    SETUP_FRAMES = 8

    def prepare(self, scheme):
        rng = random.Random(f"{self.seed}|small")
        dev = Device(self.seed, device_mac(self.seed, "A", 0, 0))
        flow = Flow("A", dev, device_mac(self.seed, "B", 0, 0), False)
        source = FlowSource([flow], rng, sizes=64)
        return {"setup": source.chunk(self.SETUP_FRAMES), "source": source}


class Imix4kFlows(_SyncWorkload):
    name = "imix-4kflows"
    SAS_PER_SIDE = 2048
    BROADCAST_EVERY = 8  # one SA in eight also sends broadcast

    def prepare(self, scheme):
        seed = self.seed
        rng = random.Random(f"{seed}|imix")
        n = self.SAS_PER_SIDE
        devices = {
            side: [Device(seed, device_mac(seed, side, i, 0)) for i in range(n)]
            for side in SIDES
        }
        flows: list[Flow] = []
        setup = []
        source = FlowSource(flows, rng)
        # the forward direction is established first, then the replies;
        # set-up frames are the smallest size, so set-up prices flow
        # establishment rather than per-byte crypto
        for side in SIDES:
            chatty = set(rng.sample(range(n), n // self.BROADCAST_EVERY))
            for i, dev in enumerate(devices[side]):
                bound = i in chatty
                dsts = [devices[PEER[side]][i].mac] + ([BROADCAST_MAC] if bound else [])
                for dst in dsts:
                    flow = Flow(side, dev, dst, bound)
                    flows.append(flow)
                    setup.append(source.frame(flow, 64))
        return {"setup": setup, "source": source}


class Churn(Workload):
    """SAs come and go while frames are in flight.

    256 conversations; each is one SA per side (A device to B device
    and the reply).  Each SA sends 16 frames; when both have, the
    conversation is replaced, half the time by two new devices (new
    SCIs) and otherwise by an AN rollover of both.  One conversation in
    eight also sends every fourth forward frame as broadcast.  The two
    sides offer 5000 frames/s each in virtual time.
    """

    name = "churn"
    setup_repeats = 3
    CONVERSATIONS = 256
    FRAMES_PER_SA = 16
    GAP_US = 100  # between consecutive frames, both sides together
    DELAY_US = 1_000
    TIMER_US = 10_000
    FLOW_TIMEOUT_US = 100_000

    def prepare(self, scheme):
        src = _ChurnSource(self.seed, self.CONVERSATIONS, self.FRAMES_PER_SA)
        # the first frame of every initial SA establishes its flow
        setup = [(side, dev.seal(dst, payload_for(src.rng, 64)))
                 for side, dev, dst in src.initial()]
        return {"setup": setup, "source": src, "outstanding": {}, "vt": 0}

    def establish(self, scheme, prep, tracer):
        pair = DelayedPair(scheme, self.seed, self.DELAY_US, self.TIMER_US, tracer,
                           flow_timeout_us=self.FLOW_TIMEOUT_US)
        vt = 0
        for side, raw in prep["setup"]:
            vt += self.GAP_US
            pair.ingress(side, raw, vt)
        pair.drain()
        return pair

    def check_setup(self, pair, prep, run, gate):
        prep["vt"] = pair.now
        outstanding = prep["outstanding"]
        for _, raw in prep["setup"]:
            outstanding[raw] = -1
        self._reconcile(pair, prep, run, gate)
        # losses are measured here, not gated: enc loses set-up frames to
        # rekey churn as well
        run.setup_frames = len(prep["setup"])
        run.setup_delivered = run.setup_frames - len(outstanding)
        outstanding.clear()

    def _reconcile(self, pair, prep, run, gate) -> None:
        outstanding = prep["outstanding"]
        lat = run.latencies_ns
        for frame, egress in pair.delivered:
            ingress = outstanding.pop(frame, None)
            if ingress is None:
                gate.check(f"{self.name}.exactly_once_bit_exact", False,
                           "a frame delivered twice, or never offered")
                continue
            if ingress >= 0:
                lat.append(ingress + egress)
                run.delivered += 1
        pair.delivered.clear()

    def segment(self, pair, prep, run, seconds, gate, last, sample):
        clock = perf_counter_ns
        outstanding = prep["outstanding"]
        budget = int(seconds * 1e9)
        used = 0
        vt = prep["vt"]
        gc_start = _gc0()
        handler0 = pair.handler_ns
        ingress = pair.ingress
        while used < budget:
            chunk = _next_chunk(prep, run)
            n = 0
            start = clock()
            deadline = start + budget - used
            for side, raw in chunk:
                vt += self.GAP_US
                outstanding[raw] = ingress(side, raw, vt)
                n += 1
                if clock() >= deadline:
                    break
            if last and used + clock() - start >= budget:
                pair.drain()
            used += clock() - start
            prep["leftover"] = chunk[n:]
            run.offered += n
            self._reconcile(pair, prep, run, gate)
            if sample:
                _sample_tables(pair.gw, run)
        prep["vt"] = vt
        run.seconds += used / 1e9
        run.gc0 += _gc0() - gc_start
        run.handler_ns += pair.handler_ns - handler0

    def finish(self, pair, prep, run, gate):
        # whatever is still outstanding after the drain was lost
        prep["outstanding"].clear()


class _ChurnSource:
    """Conversation schedule for ``Churn``; deterministic in the seed."""

    def __init__(self, seed: int, conversations: int, frames_per_sa: int):
        self.seed = seed
        self.rng = random.Random(f"{seed}|churn")
        self.per_sa = frames_per_sa
        self.generation = [0] * conversations
        self.devices = {side: [self._device(side, i) for i in range(conversations)]
                        for side in SIDES}
        self.chatty = [self.rng.randrange(8) == 0 for _ in range(conversations)]
        self.sent = {side: [0] * conversations for side in SIDES}
        self.active = [(side, i) for i in range(conversations) for side in SIDES]

    def _device(self, side: str, i: int) -> Device:
        return Device(self.seed, device_mac(self.seed, side, i, self.generation[i]))

    def _dst(self, side: str, i: int, k: int) -> bytes:
        if side == "A" and self.chatty[i] and k % 4 == 3:
            return BROADCAST_MAC
        return self.devices[PEER[side]][i].mac

    def initial(self):
        out = []
        for side, i in self.active:
            out.append((side, self.devices[side][i], self._dst(side, i, 0)))
            self.sent[side][i] = 1
        return out

    def _replace(self, i: int) -> None:
        if self.rng.random() < 0.5:
            self.generation[i] += 1
            for side in SIDES:
                self.devices[side][i] = self._device(side, i)
        else:
            for side in SIDES:
                self.devices[side][i].rollover()
        self.chatty[i] = self.rng.randrange(8) == 0
        for side in SIDES:
            self.sent[side][i] = 0
            self.active.append((side, i))

    def next_frame(self) -> tuple[str, bytes]:
        rng, active = self.rng, self.active
        j = rng.randrange(len(active))
        side, i = active[j]
        k = self.sent[side][i]
        raw = self.devices[side][i].seal(self._dst(side, i, k), payload_for(rng, 64))
        self.sent[side][i] = k + 1
        if k + 1 == self.per_sa:
            active[j] = active[-1]
            active.pop()
            if self.sent[PEER[side]][i] == self.per_sa:
                self._replace(i)
        return side, raw

    def chunk(self, n: int) -> list[tuple[str, bytes]]:
        return [self.next_frame() for _ in range(n)]


class UdpLoopback(Workload):
    """The ``small-1flow`` frames through the netio layer on 127.0.0.1."""

    name = "udp-loopback"
    setup_repeats = 5
    # an idle pair's runner threads wake ten times a second and take the
    # interpreter lock from the measured pair, so each scheme runs alone
    interleave = False
    IN_FLIGHT = 16
    LOSS_TIMEOUT_S = 0.5
    STOP_TIMEOUT_S = 5.0

    def __init__(self, seed: int):
        super().__init__(seed)
        self._stopped: list[UdpPair] = []

    def prepare(self, scheme):
        prep = Small1Flow(self.seed).prepare(scheme)
        prep["lost"] = set()
        return prep

    def establish(self, scheme, prep, tracer):
        pair = UdpPair(scheme)
        pair.sink.settimeout(2.0)
        prep["setup_got"] = got = []
        # one frame at a time, so discovery and the management connection
        # are complete before the clock starts
        for _, raw, _ in prep["setup"]:
            pair.device.sendto(raw, pair.lan_in)
            try:
                got.append(pair.sink.recv(65600))
            except socket.timeout:
                break
        _settle(pair.engines["A"], len(got))
        pair.claim_threads()
        return pair

    def engines(self, pair):
        return pair.engines

    def discard(self, pair):
        # stopped now, joined once at the end: a runner thread can take a
        # second to notice the stop, and the waits overlap
        pair.stop()
        self._stopped.append(pair)

    def release(self):
        deadline = time.monotonic() + self.STOP_TIMEOUT_S
        ended = [pair.join(deadline) for pair in self._stopped]
        self._stopped.clear()
        return all(ended)

    def check_setup(self, pair, prep, run, gate):
        want = [raw for _, raw, _ in prep["setup"]]
        gate.check(f"{self.name}.setup.delivered", prep["setup_got"] == want,
                   f"{len(prep['setup_got'])} of {len(want)} set-up frames delivered")
        run.setup_frames = len(want)
        run.setup_delivered = len(prep["setup_got"])

    def segment(self, pair, prep, run, seconds, gate, last, sample):
        clock = perf_counter_ns
        lost = prep["lost"]
        sendto, recv, lan_in = pair.device.sendto, pair.sink.recv, pair.lan_in
        pair.sink.settimeout(self.LOSS_TIMEOUT_S)
        lat = run.latencies_ns
        budget = int(seconds * 1e9)
        used = 0
        gc_start = _gc0()
        while used < budget:
            chunk = _next_chunk(prep, run)
            inflight: dict[bytes, int] = {}
            i = 0
            start = clock()
            deadline = start + budget - used
            while True:
                while len(inflight) < self.IN_FLIGHT and i < len(chunk) and clock() < deadline:
                    raw = chunk[i][1]
                    i += 1
                    inflight[raw] = clock()
                    sendto(raw, lan_in)
                if not inflight:
                    break
                try:
                    data = recv(65600)
                except socket.timeout:
                    lost.update(inflight)
                    inflight.clear()
                    continue
                t = clock()
                sent = inflight.pop(data, None)
                if sent is not None:
                    lat.append(t - sent)
                    run.handler_ns += t - sent
                    run.delivered += 1
                elif data in lost:
                    lost.discard(data)  # late, still counted as not delivered
                    run.late += 1
                else:
                    gate.check(f"{self.name}.exactly_once_bit_exact", False,
                               "a frame delivered twice, or never offered")
            used += clock() - start
            prep["leftover"] = chunk[i:]
            run.offered += i
        run.seconds += used / 1e9
        run.gc0 += _gc0() - gc_start
        if sample:
            _sample_tables(pair.engines, run)

    def finish(self, pair, prep, run, gate):
        # collect stragglers so the receiver's count can be matched
        pair.sink.settimeout(0.2)
        while prep["lost"]:
            try:
                data = pair.sink.recv(65600)
            except socket.timeout:
                break
            if data in prep["lost"]:
                prep["lost"].discard(data)
                run.late += 1
        _settle(pair.engines["A"], run.setup_delivered + run.offered)


def _settle(sender, tunneled: int, timeout_s: float = 2.0) -> None:
    """Wait until the sending gateway has counted ``tunneled`` frames.

    A gateway counts a frame as tunneled after sending it, so the far
    LAN can see the frame before the sender's counters include it.
    """
    deadline = time.monotonic() + timeout_s
    while sender.stats.frames_tunneled < tunneled and time.monotonic() < deadline:
        time.sleep(0.0005)


WORKLOADS = {w.name: w for w in (Small1Flow, Imix4kFlows, Churn, UdpLoopback)}


# -- running a workload -------------------------------------------------


SLICES = 16  # timed slices per scheme, interleaved across the schemes


@dataclass
class _Live:
    """One scheme between its set-up and the end of its timed phase."""

    run: SchemeRun
    pair: object
    prep: dict
    engines: dict
    before: dict


def start_scheme(wl: Workload, scheme: Scheme, gate: Gate, tracer=None) -> _Live:
    """Set up (repeatedly where cheap; the last set-up is kept and, with a
    tracer, traced) and check that every flow was established."""
    run = SchemeRun(scheme)
    name = f"{wl.name}.{scheme.value}"
    pair = prep = None
    for r in range(wl.setup_repeats):
        if pair is not None:
            wl.discard(pair)
            pair = None
        # garbage left by an earlier scheme or set-up is not this one's cost
        gc.collect()
        prep = wl.prepare(scheme)
        traced = tracer is not None and r == wl.setup_repeats - 1
        if traced:
            before = tracer.totals()
            tracer.install()
        t0 = perf_counter_ns()
        try:
            pair = wl.establish(scheme, prep, tracer)
        finally:
            if traced:
                tracer.uninstall()
        run.setup_s.append((perf_counter_ns() - t0) / 1e9)
        if traced:
            _add_totals(run.totals, tracer.totals(), before)
    wl.check_setup(pair, prep, run, gate)
    engines = wl.engines(pair)
    before = {side: _merged_stats([gw.snapshot_stats()]) for side, gw in engines.items()}
    return _Live(run, pair, prep, engines, before)


def run_slice(wl: Workload, live: _Live, seconds: float, gate: Gate, last: bool,
              tracer=None) -> None:
    """One timed slice of one scheme; traced when a tracer is given."""
    run = live.run
    offered, delivered, secs = run.offered, run.delivered, run.seconds
    handler, gc0 = run.handler_ns, run.gc0
    if tracer is None:
        wl.segment(live.pair, live.prep, run, seconds, gate, last, sample=False)
    else:
        before = tracer.totals()
        tracer.install()
        try:
            wl.segment(live.pair, live.prep, run, seconds, gate, last, sample=True)
        finally:
            tracer.uninstall()
        after = tracer.totals()
        _add_totals(run.totals, after, before)
        _add_totals(run.segment_totals, after, before)
    used = run.seconds - secs
    if used > 0:
        run.slice_fps.append((run.delivered - delivered) / used)
    run.slice_ends.append(len(run.latencies_ns))
    if tracer is None:
        run.plain_seconds += used
        run.plain_offered += run.offered - offered
        run.plain_gc0 += run.gc0 - gc0
    else:
        run.traced_seconds += used
        run.traced_offered += run.offered - offered
        run.segment_handler_ns += run.handler_ns - handler


def finish_scheme(wl: Workload, live: _Live, gate: Gate) -> SchemeRun:
    """Drain, release the pair and run the end-of-run correctness checks."""
    run, scheme = live.run, live.run.scheme
    name = f"{wl.name}.{scheme.value}"
    wl.finish(live.pair, live.prep, run, gate)
    final = {side: gw.snapshot_stats() for side, gw in live.engines.items()}
    run.mgmt_kinds = Counter(getattr(live.pair, "mgmt_kinds", {}))
    run.pending_max = getattr(live.pair, "pending_max", 0)
    wl.discard(live.pair)
    after = {side: _merged_stats([st]) for side, st in final.items()}
    run.stats_end = _merged_stats(list(final.values()))
    run.stats_delta = _stats_delta(_merged_stats_sum(live.before), run.stats_end)

    gate.check(f"{name}.frames_reconstructed", run.stats_end["frames_reconstructed"]
               == run.setup_delivered + run.delivered + run.late,
               "receiver count differs from the frames captured")
    if isinstance(wl, _SyncWorkload):
        gate.check(f"{name}.no_drops", run.stats_end["dropped"] == 0,
                   f"{run.stats_end['dropped']} drops: {_drop_reasons(final.values())}")
    if not isinstance(wl, Churn):
        wl.steady_checks(scheme, run.stats_delta, run.bound_frames, gate)
    wl.wire_checks(scheme, live.before, after, gate)
    gate.check(f"{name}.frames_offered", run.offered > 0, "no frame entered the timed phase")
    return run


def run_workload(wl: Workload, seconds: float, gate: Gate, tracer=None,
                 slices: int = SLICES) -> list[SchemeRun]:
    """Set every scheme up, then run their timed phases in interleaved
    slices, so that each scheme samples the whole run rather than one
    stretch of it; the starting scheme rotates from round to round.
    Without ``interleave`` the schemes run one after the other.

    With a tracer, the first third of the rounds runs untraced, which
    prices the tracing; the rest is traced.
    """
    n = len(wl.schemes)
    per_slice = seconds / (n * slices)
    traced_from = slices // 3 if tracer is not None else slices

    def timed(live: _Live, k: int) -> None:
        run_slice(wl, live, per_slice, gate, last=k == slices - 1,
                  tracer=tracer if k >= traced_from else None)

    if wl.interleave:
        lives = [start_scheme(wl, s, gate, tracer) for s in wl.schemes]
        gc.collect()
        for k in range(slices):
            for live in lives[k % n:] + lives[:k % n]:
                timed(live, k)
        runs = [finish_scheme(wl, live, gate) for live in lives]
    else:
        runs = []
        for scheme in wl.schemes:
            live = start_scheme(wl, scheme, gate, tracer)
            gc.collect()
            for k in range(slices):
                timed(live, k)
            runs.append(finish_scheme(wl, live, gate))
    gate.check(f"{wl.name}.released", wl.release(), "threads started by a pair did not stop")
    return runs


def _add_totals(into: dict, after: dict, before: dict) -> None:
    for k, v in after.items():
        d = tuple(a - b for a, b in zip(v, before.get(k, (0, 0, 0))))
        if d[0]:
            prev = into.get(k, (0, 0, 0))
            into[k] = tuple(a + b for a, b in zip(prev, d))


def _merged_stats_sum(per_side: dict) -> Counter:
    out: Counter = Counter()
    for counts in per_side.values():
        out.update(counts)
    return out


def _drop_reasons(stats) -> str:
    reasons: Counter = Counter()
    for s in stats:
        reasons.update(s.drops)
    return ", ".join(f"{k}={v}" for k, v in sorted(reasons.items())) or "none"


GROUP_SAMPLES = 1000  # latency samples per group: ten beyond the p99


def latency_groups(run: SchemeRun) -> list[array]:
    """Consecutive slices pooled until each group holds GROUP_SAMPLES
    latencies (a short remainder joins the last group)."""
    groups: list[array] = []
    start = 0
    for end in run.slice_ends:
        if end - start >= GROUP_SAMPLES:
            groups.append(run.latencies_ns[start:end])
            start = end
    rest = run.latencies_ns[start:]
    if groups:
        groups[-1] = groups[-1] + rest
    elif rest:
        groups.append(rest)
    return groups


def percentile(values: list[int], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


def median(values):
    return statistics.median(values) if values else 0.0
