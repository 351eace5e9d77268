"""Simulation harness: determinism, conservation, adversarial runs."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from msectun.encap import EncapScheme, decap, encap
from msectun.gateway import Scheme
from msectun.simnet import (
    Attacker,
    ConfigInvalid,
    NetModel,
    Scenario,
    ScenarioConfig,
    TrafficSpec,
    device_mac,
    run_scenario,
    scenario_from_dict,
)


def _basic_cfg(scheme=Scheme.IDF, **kw):
    defaults = dict(
        lans={"A": ["a1"], "B": ["b1"]},
        scheme=scheme,
        net=NetModel(seed=5, latency_us=200),
        traffic=[
            TrafficSpec(device="a1", dst="b1", count=300, interval_us=50, payload_len=60),
            TrafficSpec(device="b1", dst="a1", count=50, start_us=30, interval_us=200, payload_len=60),
        ],
        duration_us=1_000_000,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def test_lossless_transparency_all_schemes():
    for scheme in Scheme:
        s = run_scenario(_basic_cfg(scheme=scheme))
        assert len(s.devices["b1"].accepted) == 300, scheme
        assert len(s.devices["a1"].accepted) == 50
        assert s.devices["b1"].icv_failures == 0
        for gw in s.gateways.values():
            assert gw.snapshot_stats().dropped() == 0, scheme


def test_determinism_bytewise():
    cfg = _basic_cfg(net=NetModel(seed=31, latency_us=300, loss_prob=0.05, jitter_us=90))
    t1 = run_scenario(cfg).transcript
    t2 = run_scenario(cfg).transcript
    assert t1.records == t2.records
    assert t1.csv() == t2.csv()


def _transcripts_in_child(hash_seed: str, configs: list[dict]) -> str:
    # the child imports this checkout, whatever put it on sys.path here
    src = str(Path(__file__).resolve().parents[1] / "src")
    inherited = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=os.pathsep.join(filter(None, (src, inherited))),
    )
    code = (
        "import json, sys\n"
        "from msectun.simnet import run_scenario, scenario_from_dict\n"
        "for c in json.loads(sys.argv[1]):\n"
        "    sys.stdout.write(run_scenario(scenario_from_dict(c)).transcript.csv())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(configs)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_determinism_across_processes():
    """Two interpreters with different string-hash salts give one transcript."""
    configs = [
        {
            "lans": {"A": ["a1"], "B": ["b1"]},
            "scheme": scheme,
            "net": {"seed": 31, "latency_us": 300, "loss_prob": 0.05, "jitter_us": 90},
            "traffic": [
                {"device": "a1", "dst": "b1", "count": 60, "interval_us": 50},
                {"device": "b1", "dst": "a1", "count": 10, "start_us": 30, "interval_us": 200},
            ],
            "duration_us": 200_000,
        }
        for scheme in ("idf", "enc")
    ]
    first = _transcripts_in_child("1", configs)
    assert first.count("time_us,site,event,detail") == 2
    assert first == _transcripts_in_child("2", configs)


def test_different_seed_differs():
    a = run_scenario(_basic_cfg(net=NetModel(seed=1, loss_prob=0.2, latency_us=100)))
    b = run_scenario(_basic_cfg(net=NetModel(seed=2, loss_prob=0.2, latency_us=100)))
    assert a.transcript.records != b.transcript.records


def test_conservation_under_loss_and_dup():
    cfg = _basic_cfg(
        net=NetModel(seed=77, latency_us=150, loss_prob=0.08, dup_prob=0.05),
        traffic=[TrafficSpec(device="a1", dst="b1", count=1500, interval_us=40, payload_len=48)],
    )
    s = run_scenario(cfg)
    gb = s.gateways["gw-B"].snapshot_stats()
    delivered = len(s.devices["b1"].accepted)
    # every tunnel datagram is accounted for exactly once
    assert gb.datagrams_received == gb.frames_reconstructed + gb.dropped()
    assert delivered == gb.frames_reconstructed
    assert delivered + s.wan.net_dropped + gb.drops["replay"] == 1500 + s.wan.net_duplicated
    # duplicates surface as replay drops, losses as nothing downstream
    assert gb.drops.get("unknown_identifier", 0) == 0
    assert gb.drops.get("out_of_window", 0) == 0


def test_gaps_below_window_never_reject():
    """Loss tuned so the window oracle accepts every survivor."""
    cfg = _basic_cfg(
        net=NetModel(seed=123, latency_us=100, loss_prob=0.10),
        traffic=[TrafficSpec(device="a1", dst="b1", count=4000, interval_us=30, payload_len=48)],
        window=64,
    )
    s = run_scenario(cfg)
    gb = s.gateways["gw-B"].snapshot_stats()
    assert gb.drops.get("out_of_window", 0) == 0
    assert gb.drops.get("unknown_identifier", 0) == 0
    assert len(s.devices["b1"].accepted) == 4000 - s.wan.net_dropped


def test_reorder_within_window_tolerated():
    cfg = _basic_cfg(
        net=NetModel(seed=9, latency_us=300, reorder_prob=0.3, reorder_max_us=400),
        traffic=[TrafficSpec(device="a1", dst="b1", count=2000, interval_us=50, payload_len=48)],
    )
    s = run_scenario(cfg)
    assert len(s.devices["b1"].accepted) == 2000
    assert s.gateways["gw-B"].snapshot_stats().dropped() == 0


@pytest.mark.parametrize("scheme", list(Scheme))
def test_three_lans_broadcast_and_binding(scheme):
    cfg = ScenarioConfig(
        lans={"A": ["a1"], "B": ["b1"], "C": ["c1"]},
        scheme=scheme,
        net=NetModel(seed=3, latency_us=200),
        traffic=[
            TrafficSpec(device="a1", dst="b1", count=200, interval_us=60, payload_len=50),
            TrafficSpec(device="a1", dst="broadcast", count=100, start_us=30, interval_us=120, payload_len=50),
        ],
        duration_us=1_000_000,
    )
    s = run_scenario(cfg)
    # unicast reaches b1 only; broadcast reaches both remote LANs
    assert len(s.devices["b1"].accepted) == 300
    assert len(s.devices["c1"].accepted) == 100
    for dev in s.devices.values():
        assert dev.icv_failures == 0
    for gw in s.gateways.values():
        assert gw.snapshot_stats().dropped() == 0


@pytest.mark.parametrize("scheme", list(Scheme))
def test_unicast_dst_change_forgets_learned_gateway(scheme):
    """a1 talks to b1 (learned: B only), then to c1 on another LAN."""
    cfg = ScenarioConfig(
        lans={"A": ["a1"], "B": ["b1"], "C": ["c1"]},
        scheme=scheme,
        net=NetModel(seed=4, latency_us=200),
        traffic=[
            TrafficSpec(device="a1", dst="b1", count=20, interval_us=100, payload_len=50),
            TrafficSpec(device="b1", dst="a1", count=20, start_us=50, interval_us=100, payload_len=50),
            TrafficSpec(device="a1", dst="c1", count=20, start_us=5000, interval_us=100, payload_len=50),
        ],
        duration_us=1_000_000,
    )
    s = run_scenario(cfg)
    assert len(s.devices["b1"].accepted) == 20
    assert len(s.devices["a1"].accepted) == 20
    assert len(s.devices["c1"].accepted) == 20
    gw_a = s.gateways["gw-A"]
    assert gw_a.snapshot_stats().warnings["unicast_dst_change"] == 1
    for gw in s.gateways.values():
        assert gw.snapshot_stats().dropped() == 0


def test_mka_goes_over_mgmt_not_tunnel():
    cfg = _basic_cfg(
        traffic=[
            TrafficSpec(device="a1", mka=True, count=5, interval_us=100, payload_len=30),
            TrafficSpec(device="a1", dst="b1", count=10, start_us=1000, interval_us=50, payload_len=40),
        ]
    )
    attacker = Attacker()
    s = run_scenario(cfg, attacker)
    assert s.transcript.count("dev_rx_mka", site="b1") == 5
    # the attacker on the tunnel path never saw an EAPOL frame
    for _, _, _, dg in attacker.observed:
        scheme, body = decap(dg)
        assert b"\x88\x8e" not in body[:20]
    assert s.gateways["gw-A"].snapshot_stats().mka_forwarded == 5


def test_device_an_rollover():
    cfg = _basic_cfg(
        an_ceiling=50,
        traffic=[TrafficSpec(device="a1", dst="b1", count=160, interval_us=50, payload_len=40)],
    )
    s = run_scenario(cfg)
    assert s.devices["a1"].rollovers == 3
    assert len(s.devices["b1"].accepted) == 160
    assert s.gateways["gw-B"].snapshot_stats().dropped() == 0


def test_attacker_replay_detected():
    attacker = Attacker()
    cfg = _basic_cfg(
        scheme=Scheme.IDF,
        traffic=[TrafficSpec(device="a1", dst="b1", count=200, interval_us=50, payload_len=48)],
    )
    s = Scenario(cfg, attacker)
    # duplicate every 2nd observed datagram shortly after it passes
    orig_transit = attacker.transit

    def replaying_transit(src, dst, dg, now):
        idx = len(attacker.observed)
        res = orig_transit(src, dst, dg, now)
        if idx % 2 == 0:
            s.wan.deliver_raw(dst, dg, now + 900, src)
        return res

    attacker.transit = replaying_transit
    s.run()
    gb = s.gateways["gw-B"].snapshot_stats()
    assert gb.drops["replay"] == 100
    assert len(s.devices["b1"].accepted) == 200
    assert s.devices["b1"].icv_failures == 0


def test_attacker_random_injection_rejected():
    attacker = Attacker()
    cfg = _basic_cfg(scheme=Scheme.IDF)
    s = Scenario(cfg, attacker)
    rng = random.Random(55)
    for i in range(2000):
        dg = encap(rng.randbytes(80), EncapScheme.IDF)
        attacker.inject("gw-B", dg, at=i * 100, spoof_src="gw-A")
    s.run()
    gb = s.gateways["gw-B"].snapshot_stats()
    assert gb.drops["unknown_identifier"] >= 2000
    assert len(s.devices["b1"].accepted) == 300  # only genuine traffic
    assert s.devices["b1"].icv_failures == 0


def test_attacker_mutation_never_reaches_devices_with_valid_icv():
    attacker = Attacker()
    rng = random.Random(66)

    def flip_one_bit(dg: bytes):
        b = bytearray(dg)
        bit = rng.randrange(len(b) * 8)
        b[bit // 8] ^= 1 << (bit % 8)
        return bytes(b)

    attacker.mutate_fn = flip_one_bit
    cfg = _basic_cfg(
        traffic=[TrafficSpec(device="a1", dst="b1", count=500, interval_us=50, payload_len=48)]
    )
    s = Scenario(cfg, attacker)
    s.run()
    b1 = s.devices["b1"]
    gb = s.gateways["gw-B"].snapshot_stats()
    assert len(b1.accepted) == 0
    # every datagram is accounted: gateway drop or device-side rejection
    assert gb.dropped() + b1.icv_failures + b1.parse_failures == 500


def test_attacker_drop_and_delay():
    attacker = Attacker()
    attacker.drop_fn = lambda dg: len(attacker.observed) % 10 == 1
    attacker.delay_fn = lambda dg: 500
    cfg = _basic_cfg(
        traffic=[TrafficSpec(device="a1", dst="b1", count=100, interval_us=100, payload_len=48)]
    )
    s = Scenario(cfg, attacker)
    s.run()
    assert len(s.devices["b1"].accepted) == 90
    assert s.transcript.count("atk_drop") == 10


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        ScenarioConfig(lans={"A": ["a1"]}).validate()
    with pytest.raises(ConfigInvalid):
        run_scenario(
            ScenarioConfig(
                lans={"A": ["a1"], "B": ["a1"]},
                traffic=[],
            )
        )
    with pytest.raises(ConfigInvalid):
        run_scenario(
            ScenarioConfig(
                lans={"A": ["a1"], "B": ["b1"]},
                traffic=[TrafficSpec(device="ghost", dst="b1", count=1)],
            )
        )


def test_scenario_from_dict():
    cfg = scenario_from_dict(
        {
            "lans": {"A": ["a1"], "B": ["b1"]},
            "scheme": "enc",
            "net": {"seed": 4, "loss_prob": 0.01},
            "traffic": [
                {"device": "a1", "dst": "b1", "count": 20, "interval_us": 100}
            ],
            "duration_us": 500_000,
        }
    )
    assert cfg.scheme is Scheme.ENC
    assert cfg.net.loss_prob == 0.01
    s = run_scenario(cfg)
    assert len(s.devices["b1"].accepted) >= 18

    # every ScenarioConfig field is read; absent ones keep its defaults
    lans = {"A": ["a1"], "B": ["b1"]}
    cfg = scenario_from_dict(
        {"lans": lans, "flow_timeout_us": 1000, "timer_interval_us": 500,
         "naive_pn_reconstruction": True}
    )
    assert (cfg.flow_timeout_us, cfg.timer_interval_us) == (1000, 500)
    assert cfg.naive_pn_reconstruction
    assert scenario_from_dict({"lans": lans}) == ScenarioConfig(lans=lans)
    with pytest.raises(ConfigInvalid, match="typo_key"):
        scenario_from_dict({"lans": lans, "typo_key": 1})


def test_transcript_csv_shape():
    s = run_scenario(_basic_cfg())
    csv = s.transcript.csv()
    header, first = csv.splitlines()[:2]
    assert header == "time_us,site,event,detail"
    assert len(first.split(",")) == 4


def test_device_mac_deterministic_and_unicast():
    assert device_mac("a1") == device_mac("a1")
    assert device_mac("a1") != device_mac("a2")
    assert device_mac("a1")[0] == 0x02
