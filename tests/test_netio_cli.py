"""Real-socket mode and the command line front ends."""

import json
import os
import socket
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import MAC_A, MAC_B, SCI_A, protect
from msectun.gateway import GatewayConfig, Scheme
from msectun.mgmt import MgmtMessage, encode_message
from msectun.netio import GatewayRunner, PeerEndpoints, parse_hostport


def _udp_port():
    s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def _wait_for(cond, seconds: float) -> None:
    """Poll ``cond`` until it holds or ``seconds`` have passed."""
    deadline = time.monotonic() + seconds
    while not cond() and time.monotonic() < deadline:
        time.sleep(0.05)


def _runner_pair(scheme: Scheme):
    ports = {gw: {k: _udp_port() for k in ("tun", "mgmt", "lan", "dev")} for gw in "AB"}
    secret = bytes(range(32))
    runners = {}
    for own, peer in (("A", "B"), ("B", "A")):
        runners[own] = GatewayRunner(
            GatewayConfig(
                own_id=f"gw{own}",
                peers=[f"gw{peer}"],
                scheme=scheme,
                pair_secrets={f"gw{peer}": secret},
            ),
            tun_listen=("127.0.0.1", ports[own]["tun"]),
            mgmt_listen=("127.0.0.1", ports[own]["mgmt"]),
            lan_listen=("127.0.0.1", ports[own]["lan"]),
            lan_peer=("127.0.0.1", ports[own]["dev"]),
            peer_endpoints={
                f"gw{peer}": PeerEndpoints(
                    ("127.0.0.1", ports[peer]["tun"]),
                    ("127.0.0.1", ports[peer]["mgmt"]),
                )
            },
        )
    return runners, ports


@pytest.mark.parametrize("scheme", [Scheme.IDF, Scheme.ENC])
def test_udp_loopback_end_to_end(scheme):
    runners, ports = _runner_pair(scheme)
    for r in runners.values():
        r.start()
    dev_b = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    dev_b.bind(("127.0.0.1", ports["B"]["dev"]))
    dev_b.settimeout(5)
    dev_a = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sent = []
        for pn in range(1, 31):
            raw = protect(MAC_B, MAC_A, SCI_A, pn, payload=bytes(80))
            sent.append(raw)
            dev_a.sendto(raw, ("127.0.0.1", ports["A"]["lan"]))
            time.sleep(0.003)
        got = []
        try:
            while len(got) < 30:
                data, _ = dev_b.recvfrom(65536)
                got.append(data)
        except socket.timeout:
            pass
        # the first frames may race the TCP announce; everything after
        # the flow is established must arrive bit-exact and in order
        assert len(got) >= 25
        assert got == sent[len(sent) - len(got) :]
        assert runners["B"].engine.snapshot_stats().frames_reconstructed == len(got)
    finally:
        for r in runners.values():
            r.stop()
        dev_a.close()
        dev_b.close()


def test_silent_mgmt_connection_does_not_block_peers():
    runners, ports = _runner_pair(Scheme.NAIVE)
    gw_b = runners["B"]
    gw_b.start()
    mgmt_addr = ("127.0.0.1", ports["B"]["mgmt"])
    silent = socket.create_connection(mgmt_addr)  # never sends its handshake
    try:
        hello = encode_message(MgmtMessage.hello())
        malformed = hello[:-4] + (3).to_bytes(4, "big") + b"xyz"  # framed, bad body
        with socket.create_connection(mgmt_addr) as peer:
            peer.sendall(struct.pack(">H", 3) + b"gwA" + malformed + hello)
            _wait_for(lambda: gw_b.engine.peers["gwA"].last_hello is not None, 5)
        assert gw_b.engine.peers["gwA"].last_hello is not None
        assert gw_b.engine.stats.drops["mgmt_malformed"] == 1
    finally:
        silent.close()
        for r in runners.values():
            r.stop()


def test_parse_hostport():
    assert parse_hostport("127.0.0.1:99") == ("127.0.0.1", 99)
    assert parse_hostport(":80") == ("127.0.0.1", 80)


def test_bench_cli(tmp_path):
    out = tmp_path / "r.csv"
    # the child imports this checkout, whatever put it on sys.path here
    src = str(Path(__file__).resolve().parents[1] / "src")
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, inherited))))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "msectun.cli",
            "--help",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0

    from msectun.cli import bench_main

    rc = bench_main(
        ["--schemes", "naive,idf", "--sizes", "64", "--secs", "0.2", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("scheme,frame_size")


def test_gw_cli_config_parsing(tmp_path):
    cfg = {
        "own_id": "gwX",
        "scheme": "idf",
        "peers": {"gwY": {"tunnel": "127.0.0.1:1", "mgmt": "127.0.0.1:2"}},
        "tun_listen": "127.0.0.1:0",
        "mgmt_listen": "127.0.0.1:0",
        "lan_if": "udp:127.0.0.1:0",
    }
    path = tmp_path / "gw.json"
    path.write_text(json.dumps(cfg))
    # exercise the argument/config plumbing without entering the run loop
    from msectun import cli

    parsed = cli._load_gw_config(str(path))
    assert parsed["own_id"] == "gwX"


class _StubRunner:
    """Stands in for ``GatewayRunner``: records the config, opens nothing."""

    configs: list = []

    def __init__(self, config, **endpoints):
        self.configs.append(config)
        self.addresses = {}

    def start(self):
        pass

    def stop(self):
        pass


@pytest.mark.parametrize(
    "json_window,flag,expect",
    [
        (None, [], 64),
        (16, [], 16),
        (16, ["--window", "32"], 32),
        (None, ["--window", "0"], None),
        (16, ["--window", "0"], None),
        (0, [], None),
        (-3, [], None),
        ("64", [], None),
    ],
)
def test_gw_cli_window(tmp_path, monkeypatch, capsys, json_window, flag, expect):
    from msectun import cli

    cfg = {"own_id": "gwX", "peers": {"gwY": {"tunnel": "127.0.0.1:1", "mgmt": "127.0.0.1:2"}}}
    if json_window is not None:
        cfg["window"] = json_window
    path = tmp_path / "gw.json"
    path.write_text(json.dumps(cfg))
    _StubRunner.configs = []
    monkeypatch.setattr(cli, "GatewayRunner", _StubRunner)

    def interrupt(_seconds):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.time, "sleep", interrupt)
    if expect is None:
        with pytest.raises(SystemExit) as exc:
            cli.gw_main(["--config", str(path), *flag])
        assert exc.value.code == 2
        assert "error: --window: " in capsys.readouterr().err
        assert _StubRunner.configs == []
    else:
        assert cli.gw_main(["--config", str(path), *flag]) == 0
        [config] = _StubRunner.configs
        assert config.window == expect


_PEER = {"tunnel": "127.0.0.1:1", "mgmt": "127.0.0.1:2"}


@pytest.mark.parametrize(
    "text,error",
    [
        (json.dumps({"peers": {"gwY": _PEER}}), "own_id: missing 'own_id'"),
        (json.dumps({"own_id": "gwX"}), "peers: missing 'peers'"),
        (json.dumps({"own_id": "gwX", "peers": {}}), "peers: a gateway needs at least one peer"),
        (json.dumps({"own_id": "gwX", "peers": {"gwY": {"tunnel": "127.0.0.1:1"}}}),
         "peers.gwY: missing 'mgmt'"),
        (json.dumps({"own_id": "gwX", "peers": {"gwY": {"mgmt": "127.0.0.1:2"}}}),
         "peers.gwY: missing 'tunnel'"),
        (json.dumps({"own_id": "gwX", "peers": {"gwY": {**_PEER, "mgmt": "127.0.0.1:x"}}}),
         "peers.gwY: invalid literal"),
        (json.dumps({"own_id": "gwX", "scheme": "ipsec", "peers": {"gwY": _PEER}}),
         "scheme: 'ipsec' is not a valid Scheme"),
        (json.dumps({"own_id": "gwX", "peers": {"gwY": _PEER}, "pair_secrets": {"gwY": "zz"}}),
         "pair_secrets: non-hexadecimal"),
        (json.dumps({"own_id": "gwX", "peers": {"gwX": _PEER, "gwY": _PEER}}),
         "peers: own id listed as peer"),
        (None, "--config: [Errno 2]"),
        ('{"own_id": "gwX",', "--config: Expecting"),
        ("[]", "--config: not a JSON object"),
        (json.dumps({"own_id": "gwX", "peers": {"gwY": _PEER}, "tun_listen": "127.0.0.1:x"}),
         "tun_listen: invalid literal"),
        (json.dumps({"own_id": "gwX", "peers": {"gwY": _PEER}, "mgmt_listen": "127.0.0.1:"}),
         "mgmt_listen: invalid literal"),
        (json.dumps({"own_id": "gwX", "peers": {"gwY": _PEER}, "lan_if": "udp"}),
         "lan_if: only udp:host:port[:peerhost:peerport]"),
    ],
    ids=[
        "no-own-id", "no-peers", "empty-peers", "peer-no-mgmt", "peer-no-tunnel", "bad-port",
        "unknown-scheme", "non-hex-secret", "own-id-as-peer", "unreadable", "not-json",
        "not-an-object", "bad-tun-listen", "bad-mgmt-listen", "bad-lan-if",
    ],
)
def test_gw_cli_bad_config_is_a_usage_error(tmp_path, monkeypatch, capsys, text, error):
    from msectun import cli

    path = tmp_path / "gw.json"
    if text is not None:
        path.write_text(text)
    _StubRunner.configs = []
    monkeypatch.setattr(cli, "GatewayRunner", _StubRunner)
    with pytest.raises(SystemExit) as exc:
        cli.gw_main(["--config", str(path)])
    assert exc.value.code == 2
    assert f"error: {error}" in capsys.readouterr().err
    assert _StubRunner.configs == []


@pytest.mark.parametrize(
    "flag,value,error",
    [
        ("--tun-listen", "127.0.0.1:x", "--tun-listen: invalid literal"),
        ("--mgmt-listen", "udp", "--mgmt-listen: invalid literal"),
        ("--lan-if", "udp:127.0.0.1:5001:127.0.0.1", "--lan-if: only udp:host:port"),
        ("--stats-interval", "-1", "--stats-interval: must be a finite number >= 0"),
        ("--stats-interval", "nan", "--stats-interval: must be a finite number >= 0"),
        ("--stats-interval", "inf", "--stats-interval: must be a finite number >= 0"),
    ],
    ids=["tun-listen", "mgmt-listen", "lan-if", "stats-interval-negative", "stats-interval-nan",
         "stats-interval-inf"],
)
def test_gw_cli_bad_address_flag_is_a_usage_error(tmp_path, monkeypatch, capsys, flag, value,
                                                   error):
    from msectun import cli

    path = tmp_path / "gw.json"
    path.write_text(json.dumps({"own_id": "gwX", "peers": {"gwY": _PEER}}))
    _StubRunner.configs = []
    monkeypatch.setattr(cli, "GatewayRunner", _StubRunner)

    def interrupt(_seconds):
        raise KeyboardInterrupt

    # a spec that parses runs the gateway loop: end it at once
    monkeypatch.setattr(cli.time, "sleep", interrupt)
    with pytest.raises(SystemExit) as exc:
        cli.gw_main(["--config", str(path), flag, value])
    assert exc.value.code == 2
    assert f"error: {error}" in capsys.readouterr().err
    assert _StubRunner.configs == []


def test_stats_interval_dump():
    runners, ports = _runner_pair(Scheme.NAIVE)
    lines = []
    runners["A"].stats_interval_s = 0.2
    runners["A"].stats_sink = lines.append
    for r in runners.values():
        r.start()
    lan = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        _wait_for(lambda: len(lines) >= 2, 0.7)
        assert len(lines) >= 2
        header = lines[0].split(",")
        assert "frames_tunneled" in header  # header row first
        # a drop that first fires after the header row keeps the columns
        lan.sendto(bytes(64), ("127.0.0.1", ports["A"]["lan"]))
        seen = len(lines)
        _wait_for(lambda: len(lines) >= seen + 2, 0.7)
        assert len(lines) >= seen + 2
        rows = [line.split(",") for line in lines[1:]]
        assert all(len(row) == len(header) for row in rows)
        assert rows[-1][header.index("drop_not_macsec")] == "1"
    finally:
        lan.close()
        for r in runners.values():
            r.stop()
