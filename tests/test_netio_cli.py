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
