"""Command line entry point of the real-socket gateway: msec-gw."""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Optional

from . import encap, mgmt
from .flow import DEFAULT_WINDOW
from .gateway import GatewayConfig, Scheme
from .netio import GatewayRunner, PeerEndpoints, parse_hostport


def _load_gw_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("not a JSON object")
    return raw


def _parse_lan_if(spec: str) -> tuple[tuple[str, int], Optional[tuple[str, int]]]:
    """``udp:host:port[:peerhost:peerport]`` as (listen address, peer or None)."""
    parts = spec.split(":")
    if parts[0] != "udp" or len(parts) not in (3, 5):
        raise ValueError("only udp:host:port[:peerhost:peerport] LAN attachments are supported")
    peer = (parts[3], int(parts[4])) if len(parts) == 5 else None
    return (parts[1], int(parts[2])), peer


def gw_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="msec-gw", description="MACsec tunnel gateway (real-socket mode)"
    )
    parser.add_argument("--config", required=True, help="JSON gateway config")
    parser.add_argument("--scheme", choices=[s.value for s in Scheme])
    parser.add_argument("--window", type=int)
    parser.add_argument("--tun-listen", help="host:port for the tunnel UDP socket")
    parser.add_argument("--mgmt-listen", help="host:port for the management TCP socket")
    parser.add_argument("--lan-if", help="udp:host:port[:peerhost:peerport] LAN attachment")
    parser.add_argument(
        "--stats-interval", type=float, default=0.0, help="dump counters as CSV every N seconds"
    )
    args = parser.parse_args(argv)
    if not 0 <= args.stats_interval < math.inf:
        # a negative interval would dump a row on every engine loop pass
        parser.error(f"--stats-interval: must be a finite number >= 0, not {args.stats_interval}")

    try:
        raw = _load_gw_config(args.config)
    except (OSError, ValueError) as e:
        parser.error(f"--config: {e}")
    window = args.window if args.window is not None else raw.get("window", DEFAULT_WINDOW)
    if isinstance(window, bool) or not isinstance(window, int) or window < 1:
        parser.error(f"--window: window size must be an integer >= 1, not {window!r}")
    # a bad value is a usage error that names the key it came from
    key = "own_id"
    try:
        own_id = raw[key]
        if not isinstance(own_id, str) or not own_id:
            raise ValueError(f"must be a non-empty string, not {own_id!r}")
        key = "scheme"
        scheme = Scheme(args.scheme or raw.get(key, "idf"))
        key = "peers"
        peers = {}
        for name, ep in raw[key].items():
            key = f"peers.{name}"
            peers[name] = PeerEndpoints(parse_hostport(ep["tunnel"]), parse_hostport(ep["mgmt"]))
        key = "pair_secrets"
        pair_secrets = {name: bytes.fromhex(sec) for name, sec in raw.get(key, {}).items()}
        key = "--tun-listen" if args.tun_listen else "tun_listen"
        tun_listen = parse_hostport(
            args.tun_listen or raw.get("tun_listen", f"127.0.0.1:{encap.DEFAULT_TUNNEL_PORT}")
        )
        key = "--mgmt-listen" if args.mgmt_listen else "mgmt_listen"
        mgmt_listen = parse_hostport(
            args.mgmt_listen or raw.get("mgmt_listen", f"127.0.0.1:{mgmt.DEFAULT_MGMT_PORT}")
        )
        key = "--lan-if" if args.lan_if else "lan_if"
        lan_listen, lan_peer = _parse_lan_if(args.lan_if or raw.get("lan_if", "udp:127.0.0.1:0"))
    except KeyError as e:
        parser.error(f"{key}: missing {e}")
    except (AttributeError, TypeError, ValueError) as e:
        parser.error(f"{key}: {e}")
    try:
        config = GatewayConfig(
            own_id, list(peers), scheme=scheme, window=window, pair_secrets=pair_secrets
        )
    except ValueError as e:
        parser.error(str(e))  # the message names its field
    if scheme in (Scheme.ENC, Scheme.FULLENC):
        for name in peers:
            if name not in pair_secrets:
                print(f"msec-gw: warning: pair_secrets.{name}: not set, so {scheme.value} keys "
                      f"{name} from the public lab fallback, which anyone can compute",
                      file=sys.stderr)

    runner = GatewayRunner(
        config,
        tun_listen=tun_listen,
        mgmt_listen=mgmt_listen,
        lan_listen=lan_listen,
        lan_peer=lan_peer,
        peer_endpoints=peers,
        stats_interval_s=args.stats_interval,
    )
    runner.start()
    print(f"msec-gw {config.own_id} scheme={scheme.value} {runner.addresses}", file=sys.stderr)
    try:
        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        runner.stop()
    return 0


if __name__ == "__main__":
    sys.exit(gw_main())
