"""Real-socket mode and the command line front ends."""

import fcntl
import json
import os
import resource
import select
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from conftest import MAC_A, MAC_B, SCI_A, protect
from msectun.gateway import GatewayConfig, Scheme
from msectun.mgmt import MgmtKind, MgmtMessage, StreamDecoder, decode_message, encode_message
from msectun.netio import GatewayRunner, PeerEndpoints, parse_hostport


def _free_port():
    """A loopback port that is free for TCP and for UDP: a runner listens
    for management connections on one of these numbers, and a number
    free only for UDP may still be held by an earlier TCP connection."""
    while True:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as tcp:
            tcp.bind(("127.0.0.1", 0))
            port = tcp.getsockname()[1]
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as udp:
                try:
                    udp.bind(("127.0.0.1", port))
                except OSError:
                    continue
        return port


def _wait_for(cond, seconds: float) -> None:
    """Poll ``cond`` until it holds or ``seconds`` have passed."""
    deadline = time.monotonic() + seconds
    while not cond() and time.monotonic() < deadline:
        time.sleep(0.05)


def _runner_pair(scheme: Scheme):
    ports = {gw: {k: _free_port() for k in ("tun", "mgmt", "lan", "dev")} for gw in "AB"}
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


def test_silent_handshakes_do_not_delay_accepts():
    """Three connections that never name themselves hold up no later
    peer: each handshake is buffered as it arrives, not waited for."""
    runners, ports = _runner_pair(Scheme.NAIVE)
    gw_b = runners["B"]
    gw_b.start()
    mgmt_addr = ("127.0.0.1", ports["B"]["mgmt"])
    silent = [socket.create_connection(mgmt_addr) for _ in range(3)]
    try:
        with socket.create_connection(mgmt_addr) as peer:
            start = time.monotonic()
            peer.sendall(struct.pack(">H", 3) + b"gwA" + encode_message(MgmtMessage.hello()))
            _wait_for(lambda: gw_b.engine.peers["gwA"].last_hello is not None, 5)
            delay = time.monotonic() - start
        assert gw_b.engine.peers["gwA"].last_hello is not None
        # one silent handshake read in line would cost its whole 1 s timeout
        assert delay < 0.9
    finally:
        for sock in silent:
            sock.close()
        for r in runners.values():
            r.stop()


def test_handshake_one_byte_at_a_time_names_its_peer():
    runners, ports = _runner_pair(Scheme.NAIVE)
    gw_b = runners["B"]
    gw_b.start()
    try:
        with socket.create_connection(("127.0.0.1", ports["B"]["mgmt"])) as peer:
            peer.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for byte in struct.pack(">H", 3) + b"gwA":
                peer.sendall(bytes([byte]))
                time.sleep(0.02)
            peer.sendall(encode_message(MgmtMessage.hello()))
            _wait_for(lambda: gw_b.engine.peers["gwA"].last_hello is not None, 5)
        assert gw_b.engine.peers["gwA"].last_hello is not None
    finally:
        for r in runners.values():
            r.stop()


def test_connection_that_never_names_itself_is_closed():
    runners, ports = _runner_pair(Scheme.NAIVE)
    runners["B"].start()
    try:
        with socket.create_connection(("127.0.0.1", ports["B"]["mgmt"])) as silent:
            silent.settimeout(3)
            assert silent.recv(1) == b""
    finally:
        for r in runners.values():
            r.stop()


def test_stop_ends_what_start_began():
    """Once traffic has flowed, ``stop`` returns with every thread the
    runners started ended and every socket they hold closed."""
    before = set(threading.enumerate())
    runners, ports = _runner_pair(Scheme.IDF)
    for r in runners.values():
        r.start()
    dev_b = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    dev_b.bind(("127.0.0.1", ports["B"]["dev"]))
    dev_b.settimeout(0.2)
    dev_a = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        for pn in range(1, 26):
            dev_a.sendto(protect(MAC_B, MAC_A, SCI_A, pn), ("127.0.0.1", ports["A"]["lan"]))
            try:
                dev_b.recv(65536)
                break
            except socket.timeout:
                pass
        else:
            pytest.fail("no frame crossed the pair")
        started = set(threading.enumerate()) - before
    finally:
        for r in runners.values():
            r.stop()
        dev_a.close()
        dev_b.close()
    assert [t.name for t in started if t.is_alive()] == []
    for r in runners.values():
        socks = [r._tun_sock, r._lan_sock, r._mgmt_listener, *r._mgmt_conns.values(),
                 *r._accepted]
        assert [s for s in socks if s.fileno() != -1] == []


def test_announcement_queued_before_its_first_datagram_is_taken_first():
    """B starts with gwA's handshake and FLOW_ANNOUNCE waiting on its
    management port and the flow's first datagram on its tunnel socket:
    it takes the announcement first, so the frame is delivered."""
    failed = []
    for run in range(20):
        runners, ports = _runner_pair(Scheme.IDF)
        dev_b = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        dev_b.bind(("127.0.0.1", ports["B"]["dev"]))
        dev_b.settimeout(2)
        raw = protect(MAC_B, MAC_A, SCI_A, 1)
        try:
            # A, not started, dials B's listener and sends its handshake and
            # announcement, then the datagram from its configured address
            runners["A"].engine.on_lan_frame(raw, time.monotonic_ns() // 1000)
            assert runners["A"].engine.snapshot_stats().datagrams_sent == 1
            runners["B"].start()
            try:
                got = dev_b.recv(65536)
            except socket.timeout:
                got = None
            drops = runners["B"].engine.snapshot_stats().drops["unknown_identifier"]
            if got != raw or drops:
                failed.append(run)
        finally:
            for r in runners.values():
                r.stop()
            dev_b.close()
    assert not failed, f"runs {failed} of 20 lost the flow's first frame"


def test_mgmt_messages_leave_only_on_dialed_connections():
    """A stranger that connects to A's management port as gwB is sent
    nothing: A's REKEY and FLOW_ANNOUNCE go to gwB's configured address.
    Stopping A closes the accepted connection too."""
    real_b = socket.create_server(("127.0.0.1", 0))
    real_b.settimeout(5)
    ports = {k: _free_port() for k in ("tun", "mgmt", "lan")}
    runner = GatewayRunner(
        GatewayConfig(own_id="gwA", peers=["gwB"], scheme=Scheme.ENC),
        tun_listen=("127.0.0.1", ports["tun"]),
        mgmt_listen=("127.0.0.1", ports["mgmt"]),
        lan_listen=("127.0.0.1", ports["lan"]),
        lan_peer=None,
        peer_endpoints={"gwB": PeerEndpoints(("127.0.0.1", _free_port()), real_b.getsockname())},
    )
    runner.start()
    stranger = socket.create_connection(("127.0.0.1", ports["mgmt"]))
    lan = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        stranger.sendall(struct.pack(">H", 3) + b"gwB" + encode_message(MgmtMessage.hello()))
        _wait_for(lambda: runner.engine.peers["gwB"].last_hello is not None, 5)
        assert runner.engine.peers["gwB"].last_hello is not None
        lan.sendto(protect(MAC_B, MAC_A, SCI_A, 1), ("127.0.0.1", ports["lan"]))
        conn, _ = real_b.accept()
        with conn:
            conn.settimeout(5)
            assert conn.recv(5, socket.MSG_WAITALL) == struct.pack(">H", 3) + b"gwA"
            decoder, kinds = StreamDecoder(), set()
            while not {MgmtKind.REKEY, MgmtKind.FLOW_ANNOUNCE} <= kinds:
                data = conn.recv(65536)
                assert data
                kinds.update(decode_message(msg).kind for msg in decoder.feed(data))
        stranger.settimeout(0.5)
        with pytest.raises(socket.timeout):
            stranger.recv(65536)
        runner.stop()
        stranger.settimeout(2)
        assert stranger.recv(65536) == b""
    finally:
        runner.stop()
        for sock in (real_b, stranger, lan):
            sock.close()


def test_failed_mgmt_send_closes_its_connection():
    """A dialed connection whose send fails is closed and forgotten."""
    runners, _ = _runner_pair(Scheme.NAIVE)
    gw_a = runners["A"]
    hello = encode_message(MgmtMessage.hello())
    try:
        assert gw_a._send_mgmt("gwB", hello)
        conn = gw_a._mgmt_conns["gwB"]
        conn.shutdown(socket.SHUT_WR)  # the next write fails
        assert not gw_a._send_mgmt("gwB", hello)
        assert conn.fileno() == -1
        assert "gwB" not in gw_a._mgmt_conns
    finally:
        for r in runners.values():
            r.stop()


def test_mgmt_send_redials_a_connection_the_peer_closed():
    """A message for a peer that closed the dialed connection goes out on
    a new connection, not into the dead one."""
    real_b = socket.create_server(("127.0.0.1", 0))
    real_b.settimeout(5)
    ports = {k: _free_port() for k in ("tun", "mgmt", "lan")}
    runner = GatewayRunner(
        GatewayConfig(own_id="gwA", peers=["gwB"], scheme=Scheme.NAIVE),
        tun_listen=("127.0.0.1", ports["tun"]),
        mgmt_listen=("127.0.0.1", ports["mgmt"]),
        lan_listen=("127.0.0.1", ports["lan"]),
        lan_peer=None,
        peer_endpoints={"gwB": PeerEndpoints(("127.0.0.1", _free_port()), real_b.getsockname())},
    )
    hello = encode_message(MgmtMessage.hello())
    expected = struct.pack(">H", 3) + b"gwA" + hello  # each new connection names gwA
    try:
        assert runner._send_mgmt("gwB", hello)
        dialed = runner._mgmt_conns["gwB"]
        conn, _ = real_b.accept()
        with conn:
            conn.settimeout(5)
            assert conn.recv(len(expected), socket.MSG_WAITALL) == expected
        # the peer's close has reached A's end of the connection
        _wait_for(lambda: select.select([dialed], [], [], 0)[0], 5)
        assert runner._send_mgmt("gwB", hello)
        conn, _ = real_b.accept()
        with conn:
            conn.settimeout(5)
            assert conn.recv(len(expected), socket.MSG_WAITALL) == expected
        assert dialed.fileno() == -1
    finally:
        runner.stop()
        real_b.close()


def test_mgmt_send_keeps_a_live_connection_past_fd_setsize():
    """A live dialed connection whose descriptor is at or above select's
    FD_SETSIZE (1024) carries the next message: it is not taken for closed
    and redialed, which would split the peer's message order over two
    connections."""
    if resource.getrlimit(resource.RLIMIT_NOFILE)[0] <= 1024:
        pytest.skip("no descriptor at or above 1024 in this process")
    real_b = socket.create_server(("127.0.0.1", 0))
    real_b.settimeout(5)
    ports = {k: _free_port() for k in ("tun", "mgmt", "lan")}
    runner = GatewayRunner(
        GatewayConfig(own_id="gwA", peers=["gwB"], scheme=Scheme.NAIVE),
        tun_listen=("127.0.0.1", ports["tun"]),
        mgmt_listen=("127.0.0.1", ports["mgmt"]),
        lan_listen=("127.0.0.1", ports["lan"]),
        lan_peer=None,
        peer_endpoints={"gwB": PeerEndpoints(("127.0.0.1", _free_port()), real_b.getsockname())},
    )
    hello = encode_message(MgmtMessage.hello())
    expected = struct.pack(">H", 3) + b"gwA" + hello
    try:
        assert runner._send_mgmt("gwB", hello)
        conn, _ = real_b.accept()
        with conn:
            conn.settimeout(5)
            assert conn.recv(len(expected), socket.MSG_WAITALL) == expected
            dialed = runner._mgmt_conns["gwB"]
            high = socket.socket(fileno=fcntl.fcntl(dialed.fileno(), fcntl.F_DUPFD_CLOEXEC, 1024))
            runner._mgmt_conns["gwB"] = high
            dialed.close()
            assert runner._send_mgmt("gwB", hello)
            assert conn.recv(len(hello), socket.MSG_WAITALL) == hello
        assert runner._mgmt_conns["gwB"] is high
    finally:
        runner.stop()
        real_b.close()


def test_parse_hostport():
    assert parse_hostport("127.0.0.1:99") == ("127.0.0.1", 99)
    assert parse_hostport(":80") == ("127.0.0.1", 80)


def _child(*args: str) -> subprocess.CompletedProcess:
    """Run ``python args`` on this checkout, whatever put it on sys.path here."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, inherited))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_gateway_cli_loads_no_harness():
    """msec-gw's process loads the socket runner, not the simulation,
    the engine pair or the benchmark."""
    proc = _child("-c", "import sys, msectun.cli; print(*sorted(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "msectun.netio" in loaded
    assert not loaded & {"msectun.simnet", "msectun.pair", "msectun.bench"}


def test_bench_cli(tmp_path):
    out = tmp_path / "r.csv"
    assert _child("-m", "msectun.cli", "--help").returncode == 0

    from msectun.bench import main

    rc = main(
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


def _interrupt(_seconds):
    """Stands in for ``time.sleep``: ends ``gw_main``'s run loop at once."""
    raise KeyboardInterrupt


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
        (True, [], None),
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
    monkeypatch.setattr(cli.time, "sleep", _interrupt)
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
    "scheme,secrets,warned",
    [
        ("enc", {}, ["gwY", "gwZ"]),
        ("fullenc", {"gwY": "11" * 32}, ["gwZ"]),
        ("enc", {"gwY": "11" * 32, "gwZ": "22" * 32}, []),
        ("idf", {}, []),
        ("naive", {}, []),
    ],
)
def test_gw_cli_warns_of_peers_keyed_from_the_lab_secret(tmp_path, monkeypatch, capsys, scheme,
                                                         secrets, warned):
    from msectun import cli

    cfg = {"own_id": "gwX", "scheme": scheme, "peers": {"gwY": _PEER, "gwZ": _PEER},
           "pair_secrets": secrets}
    path = tmp_path / "gw.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr(cli, "GatewayRunner", _StubRunner)
    monkeypatch.setattr(cli.time, "sleep", _interrupt)
    assert cli.gw_main(["--config", str(path)]) == 0
    lines = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
    assert len(lines) == len(warned)
    for name, line in zip(warned, lines):
        assert f"pair_secrets.{name}" in line and "public lab" in line


@pytest.mark.parametrize(
    "text,error",
    [
        (json.dumps({"peers": {"gwY": _PEER}}), "own_id: missing 'own_id'"),
        (json.dumps({"own_id": 5, "peers": {"gwY": _PEER}}),
         "own_id: must be a non-empty string, not 5"),
        (json.dumps({"own_id": "", "peers": {"gwY": _PEER}}),
         "own_id: must be a non-empty string, not ''"),
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
        (json.dumps({"own_id": "gwX", "peers": {"gwY": _PEER}, "pair_secrets": {"gwY": ""}}),
         "pair_secrets.gwY: shorter than 16 bytes"),
        (json.dumps({"own_id": "gwX", "peers": {"gwY": _PEER}, "pair_secrets": {"gwy": "00" * 32}}),
         "pair_secrets.gwy: not a peer"),
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
        "no-own-id", "own-id-not-a-string", "empty-own-id", "no-peers", "empty-peers",
        "peer-no-mgmt", "peer-no-tunnel", "bad-port",
        "unknown-scheme", "non-hex-secret", "empty-secret", "secret-for-no-peer",
        "own-id-as-peer", "unreadable", "not-json",
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
    # a config that parses runs the gateway loop: end it at once
    monkeypatch.setattr(cli.time, "sleep", _interrupt)
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
    # a spec that parses runs the gateway loop: end it at once
    monkeypatch.setattr(cli.time, "sleep", _interrupt)
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
