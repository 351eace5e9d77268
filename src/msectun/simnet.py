"""Deterministic in-process network harness.

Virtual LANs populated by scripted MACsec endpoint devices, bridged by
gateway engines over a virtual untrusted WAN with seeded loss,
duplication, reordering and latency, plus an attacker that observes,
replays, mutates, drops and injects tunnel datagrams.  Discrete-event
simulated time (integer microseconds): identical seed and scripts give
byte-identical transcripts.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Optional

from .flow import DEFAULT_FLOW_TIMEOUT_US, DEFAULT_WINDOW
from .frame import (
    BROADCAST_MAC,
    ETHERTYPE_EAPOL,
    FrameError,
    IcvMismatch,
    Sci,
    endpoint_verify,
    ethertype_of,
    parse_macsec,
)
from .gateway import GatewayConfig, GatewayEngine, Scheme
from .pair import seal


class ConfigInvalid(ValueError):
    pass


def _h(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _stable_seed(name: str) -> int:
    # str hashes are salted per process; a digest is the same everywhere
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "big")


class EventLoop:
    """Min-heap of (time, seq, fn); seq breaks ties deterministically."""

    def __init__(self):
        self._q: list = []
        self._seq = 0
        self.now = 0

    def at(self, when: int, fn: Callable[[], None]) -> None:
        heapq.heappush(self._q, (max(when, self.now), self._seq, fn))
        self._seq += 1

    def after(self, delay: int, fn: Callable[[], None]) -> None:
        self.at(self.now + delay, fn)

    def run(self, until: Optional[int] = None) -> None:
        while self._q:
            when, _, fn = self._q[0]
            if until is not None and when > until:
                break
            heapq.heappop(self._q)
            self.now = when
            fn()
        if until is not None and until > self.now:
            self.now = until


@dataclass
class NetModel:
    seed: int = 0
    loss_prob: float = 0.0
    dup_prob: float = 0.0
    reorder_prob: float = 0.0
    reorder_max_us: int = 0
    latency_us: int = 500
    jitter_us: int = 0


class Transcript:
    """Line-oriented record of everything that happened, diffable."""

    def __init__(self):
        self.records: list[tuple[int, str, str, str]] = []

    def log(self, time: int, site: str, event: str, detail: str = "") -> None:
        self.records.append((time, site, event, detail))

    def count(self, event: str, site: Optional[str] = None) -> int:
        return sum(
            1
            for _, s, e, _ in self.records
            if e == event and (site is None or s == site)
        )

    def csv(self) -> str:
        lines = ["time_us,site,event,detail"]
        lines += [f"{t},{s},{e},{d}" for t, s, e, d in self.records]
        return "\n".join(lines) + "\n"


class KeyRegistry:
    """Preconfigured SA keys shared by all simulated devices."""

    def __init__(self, seed: int):
        self._seed = seed.to_bytes(8, "big", signed=False)

    def key_for(self, sci: Sci, an: int) -> bytes:
        return hashlib.sha256(self._seed + sci.pack() + bytes([an])).digest()[:16]


def device_mac(name: str) -> bytes:
    # locally administered unicast address derived from the name
    h = hashlib.sha256(name.encode()).digest()
    return bytes([0x02, h[0]]) + h[1:5]


class SimDevice:
    """Scripted MACsec endpoint: one transmit SC, strictly rising PN."""

    def __init__(
        self,
        name: str,
        lan: "Lan",
        keys: KeyRegistry,
        transcript: Transcript,
        an_ceiling: int = 1 << 16,
    ):
        self.name = name
        self.mac = device_mac(name)
        self.sci = Sci(self.mac, 1)
        self.lan = lan
        self.keys = keys
        self.transcript = transcript
        self.an = 0
        self.pn = 0
        self.an_ceiling = an_ceiling
        self.accepted: list[bytes] = []
        self.icv_failures = 0
        self.parse_failures = 0
        self.rollovers = 0
        lan.attach(self.name, self.on_lan_frame)

    def next_sa(self) -> tuple[int, int]:
        self.pn += 1
        if self.pn > self.an_ceiling:
            self.an = (self.an + 1) & 3
            self.pn = 1
            self.rollovers += 1
        return self.an, self.pn

    def send(self, dst: bytes, payload: bytes, ethertype: int = 0x0800) -> bytes:
        an, pn = self.next_sa()
        key = self.keys.key_for(self.sci, an)
        raw = seal(key, dst, self.mac, self.sci, pn, payload, an, ethertype)
        self.transcript.log(self.lan.loop.now, self.name, "dev_tx", _h(raw))
        self.lan.emit(raw, exclude=self.name)
        return raw

    def send_mka(self, payload: bytes) -> bytes:
        raw = self.mac + self.mac + ETHERTYPE_EAPOL.to_bytes(2, "big") + payload
        self.transcript.log(self.lan.loop.now, self.name, "dev_tx_mka", _h(raw))
        self.lan.emit(raw, exclude=self.name)
        return raw

    def on_lan_frame(self, data: bytes) -> None:
        if ethertype_of(data) == ETHERTYPE_EAPOL:
            self.transcript.log(self.lan.loop.now, self.name, "dev_rx_mka", _h(data))
            return
        if len(data) >= 6 and data[:6] not in (self.mac, BROADCAST_MAC):
            return
        try:
            frame = parse_macsec(data)
        except FrameError:
            self.parse_failures += 1
            self.transcript.log(self.lan.loop.now, self.name, "dev_rx_parse_fail", _h(data))
            return
        key = self.keys.key_for(frame.sectag.sci, frame.sectag.tci.an)
        try:
            endpoint_verify(frame, key)
        except IcvMismatch:
            self.icv_failures += 1
            self.transcript.log(self.lan.loop.now, self.name, "dev_rx_icv_fail", _h(data))
            return
        self.accepted.append(data)
        self.transcript.log(self.lan.loop.now, self.name, "dev_rx_ok", _h(data))


class Lan:
    """Broadcast medium: every attached port sees every emission."""

    def __init__(self, name: str, loop: EventLoop):
        self.name = name
        self.loop = loop
        self._ports: dict[str, Callable[[bytes], None]] = {}

    def attach(self, port: str, handler: Callable[[bytes], None]) -> None:
        self._ports[port] = handler

    def emit(self, data: bytes, exclude: str) -> None:
        for port, handler in list(self._ports.items()):
            if port != exclude:
                self.loop.at(self.loop.now, lambda h=handler: h(data))


class Attacker:
    """On-path adversary for the tunnel side of the network.

    Sees every tunnel datagram, can drop, delay or mutate traffic in
    transit, and can replay captures or inject fabricated datagrams.
    """

    def __init__(self):
        self.observed: list[tuple[int, str, str, bytes]] = []
        self.mutate_fn: Optional[Callable[[bytes], Optional[bytes]]] = None
        self.drop_fn: Optional[Callable[[bytes], bool]] = None
        self.delay_fn: Optional[Callable[[bytes], int]] = None
        self._wan: Optional["Wan"] = None

    def transit(self, src: str, dst: str, dg: bytes, now: int) -> Optional[tuple[bytes, int]]:
        self.observed.append((now, src, dst, dg))
        if self.drop_fn is not None and self.drop_fn(dg):
            return None
        delay = self.delay_fn(dg) if self.delay_fn is not None else 0
        if self.mutate_fn is not None:
            mutated = self.mutate_fn(dg)
            if mutated is None:
                return None
            dg = mutated
        return dg, delay

    def inject(self, dst: str, datagram: bytes, at: int, spoof_src: Optional[str] = None):
        """Deliver a fabricated datagram straight to a gateway.

        Without ``spoof_src`` it comes from ``"attacker"``, which is no
        gateway's peer, so the gateway drops it as ``unknown_peer``
        before any decode; spoof a peer's id to reach the scheme.
        """
        if self._wan is None:
            raise ConfigInvalid("attacker not attached to a WAN")
        self._wan.deliver_raw(dst, datagram, at, spoof_src or "attacker")


class Wan:
    """Untrusted network between gateways; applies the NetModel."""

    def __init__(
        self,
        loop: EventLoop,
        model: NetModel,
        transcript: Transcript,
        attacker: Optional[Attacker] = None,
    ):
        self.loop = loop
        self.model = model
        self.transcript = transcript
        self.rng = random.Random(model.seed ^ 0x57414E)
        self.attacker = attacker
        if attacker is not None:
            attacker._wan = self
        self._gateways: dict[str, Callable[[bytes, str, int], None]] = {}
        self.net_dropped = 0
        self.net_duplicated = 0

    def attach(self, gw_id: str, on_datagram: Callable[[bytes, str, int], None]):
        self._gateways[gw_id] = on_datagram

    def send(self, src: str, dst: str, datagram: bytes) -> None:
        now = self.loop.now
        self.transcript.log(now, src, "tun_tx", f"{dst}:{_h(datagram)}")
        if self.attacker is not None:
            result = self.attacker.transit(src, dst, datagram, now)
            if result is None:
                self.transcript.log(now, "attacker", "atk_drop", _h(datagram))
                return
            datagram, extra = result
        else:
            extra = 0
        m = self.model
        copies = 1
        if m.loss_prob and self.rng.random() < m.loss_prob:
            self.net_dropped += 1
            self.transcript.log(now, "wan", "net_drop", _h(datagram))
            return
        if m.dup_prob and self.rng.random() < m.dup_prob:
            copies = 2
            self.net_duplicated += 1
        for i in range(copies):
            delay = m.latency_us + extra
            if m.jitter_us:
                delay += self.rng.randint(0, m.jitter_us)
            if m.reorder_prob and self.rng.random() < m.reorder_prob:
                delay += self.rng.randint(0, m.reorder_max_us)
            self.deliver_raw(dst, datagram, now + delay, src)

    def deliver_raw(self, dst: str, datagram: bytes, at: int, src: str) -> None:
        handler = self._gateways.get(dst)
        if handler is None:
            raise ConfigInvalid(f"no gateway {dst}")
        self.loop.at(at, lambda: self._arrive(handler, dst, datagram, src))

    def _arrive(self, handler, dst: str, datagram: bytes, src: str) -> None:
        self.transcript.log(self.loop.now, dst, "tun_rx", f"{src}:{_h(datagram)}")
        handler(datagram, src, self.loop.now)


@dataclass
class TrafficSpec:
    """One scripted stream of frames from a device."""

    device: str
    dst: str = ""  # device name, or "broadcast"
    count: int = 0
    start_us: int = 0
    interval_us: int = 100
    payload_len: int = 64
    ethertype: int = 0x0800
    mka: bool = False


@dataclass
class ScenarioConfig:
    lans: dict[str, list[str]]  # lan name -> device names
    scheme: Scheme = Scheme.IDF
    net: NetModel = field(default_factory=NetModel)
    traffic: list[TrafficSpec] = field(default_factory=list)
    duration_us: int = 10_000_000
    window: int = DEFAULT_WINDOW
    an_ceiling: int = 1 << 16
    timer_interval_us: int = 1_000_000
    flow_timeout_us: int = DEFAULT_FLOW_TIMEOUT_US

    def validate(self) -> None:
        if len(self.lans) < 2:
            raise ConfigInvalid("need at least two LANs")
        names = [d for devs in self.lans.values() for d in devs]
        if len(names) != len(set(names)):
            raise ConfigInvalid("duplicate device names")
        for spec in self.traffic:
            if spec.device not in names:
                raise ConfigInvalid(f"unknown device {spec.device}")
            if not spec.mka and spec.dst != "broadcast" and spec.dst not in names:
                raise ConfigInvalid(f"unknown destination {spec.dst}")


class Scenario:
    """A built topology ready to run."""

    def __init__(self, cfg: ScenarioConfig, attacker: Optional[Attacker] = None):
        cfg.validate()
        self.cfg = cfg
        self.loop = EventLoop()
        self.transcript = Transcript()
        self.keys = KeyRegistry(cfg.net.seed)
        self.attacker = attacker
        self.wan = Wan(self.loop, cfg.net, self.transcript, attacker)
        self.lans: dict[str, Lan] = {}
        self.devices: dict[str, SimDevice] = {}
        self.gateways: dict[str, GatewayEngine] = {}
        rng = random.Random(cfg.net.seed ^ 0x475754)

        gw_ids = {lan: f"gw-{lan}" for lan in cfg.lans}
        pair_secrets: dict[tuple[str, str], bytes] = {}
        ids = sorted(gw_ids.values())
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                pair_secrets[(a, b)] = rng.getrandbits(256).to_bytes(32, "big")

        for lan_name, dev_names in cfg.lans.items():
            lan = Lan(lan_name, self.loop)
            self.lans[lan_name] = lan
            for dev in dev_names:
                self.devices[dev] = SimDevice(
                    dev, lan, self.keys, self.transcript, cfg.an_ceiling
                )

        for lan_name in cfg.lans:
            own = gw_ids[lan_name]
            peers = [g for g in gw_ids.values() if g != own]
            secrets = {
                p: pair_secrets[tuple(sorted((own, p)))] for p in peers
            }
            gcfg = GatewayConfig(
                own_id=own,
                peers=peers,
                scheme=cfg.scheme,
                window=cfg.window,
                pair_secrets=secrets,
                flow_timeout_us=cfg.flow_timeout_us,
            )
            self.gateways[own] = self._wire_gateway(gcfg, self.lans[lan_name])

        self._schedule_traffic()
        for gw in self.gateways.values():
            self._schedule_timer(gw)

    def _wire_gateway(self, gcfg: GatewayConfig, lan: Lan) -> GatewayEngine:
        own = gcfg.own_id
        loop = self.loop

        def send_tunnel(peer: str, dg: bytes) -> None:
            self.wan.send(own, peer, dg)

        def send_mgmt(peer: str, data: bytes) -> bool:
            # reliable ordered side channel, delivered ahead of data
            loop.at(
                loop.now,
                lambda: self.gateways[peer].on_mgmt_bytes(data, own, loop.now),
            )
            return True

        def emit_lan(frame: bytes) -> None:
            self.transcript.log(loop.now, own, "lan_emit", _h(frame))
            lan.emit(frame, exclude=own)

        engine = GatewayEngine(
            gcfg,
            send_tunnel,
            send_mgmt,
            emit_lan,
            rng=random.Random(self.cfg.net.seed ^ _stable_seed(own)),
        )
        lan.attach(own, lambda data: engine.on_lan_frame(data, loop.now))
        self.wan.attach(own, engine.on_tunnel_datagram)
        return engine

    def _schedule_traffic(self) -> None:
        for spec in self.cfg.traffic:
            dev = self.devices[spec.device]
            payload = bytes((i * 7 + 1) & 0xFF for i in range(spec.payload_len))
            if spec.mka:
                for i in range(spec.count):
                    self.loop.at(
                        spec.start_us + i * spec.interval_us,
                        lambda d=dev, p=payload: d.send_mka(p),
                    )
                continue
            dst = (
                BROADCAST_MAC
                if spec.dst == "broadcast"
                else device_mac(spec.dst)
            )
            for i in range(spec.count):
                self.loop.at(
                    spec.start_us + i * spec.interval_us,
                    lambda d=dev, t=dst, p=payload, e=spec.ethertype: d.send(t, p, e),
                )

    def _schedule_timer(self, gw: GatewayEngine) -> None:
        interval = self.cfg.timer_interval_us

        def tick():
            gw.on_timer(self.loop.now)
            if self.loop.now < self.cfg.duration_us:
                self.loop.after(interval, tick)

        self.loop.after(interval, tick)

    def run(self) -> Transcript:
        self.loop.run(until=self.cfg.duration_us)
        return self.transcript


def run_scenario(cfg: ScenarioConfig, attacker: Optional[Attacker] = None) -> Scenario:
    """Build and run a scenario to completion; returns it for inspection."""
    scenario = Scenario(cfg, attacker)
    scenario.run()
    return scenario


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build a config from a plain dict (e.g. a parsed JSON file).

    Keys are field names of ``ScenarioConfig``, of ``NetModel`` in ``net``
    and of ``TrafficSpec`` in each ``traffic`` entry; an absent key takes
    the field's default; an unknown key, a missing required one or an
    unknown scheme raises ``ConfigInvalid``.
    """
    try:
        scheme = Scheme(data.get("scheme", ScenarioConfig.scheme))
    except ValueError as e:
        raise ConfigInvalid(str(e)) from None
    converted = {
        "scheme": scheme,
        "net": _build(NetModel, data.get("net", {}), "net"),
        "traffic": [_build(TrafficSpec, t, "traffic") for t in data.get("traffic", [])],
    }
    return _build(ScenarioConfig, data | converted, "scenario")


def _build(cls, data: dict, what: str):
    """``cls(**data)``, once the keys of ``data`` are fields of ``cls``
    and include every field without a default."""
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigInvalid(f"unknown {what} keys: {', '.join(sorted(unknown))}")
    missing = [
        f.name
        for f in fields(cls)
        if f.default is MISSING and f.default_factory is MISSING and f.name not in data
    ]
    if missing:
        raise ConfigInvalid(f"missing {what} keys: {', '.join(missing)}")
    return cls(**data)


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))
