"""Command line entry points: msec-gw and msec-bench."""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import encap, mgmt
from .bench import results_csv, run_bench
from .gateway import GatewayConfig, Scheme
from .netio import GatewayRunner, PeerEndpoints, parse_hostport


def _load_gw_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


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

    raw = _load_gw_config(args.config)
    scheme = Scheme(args.scheme or raw.get("scheme", "idf"))
    peers = {
        name: PeerEndpoints(
            tunnel=parse_hostport(ep["tunnel"]), mgmt=parse_hostport(ep["mgmt"])
        )
        for name, ep in raw["peers"].items()
    }
    pair_secrets = {
        name: bytes.fromhex(sec) for name, sec in raw.get("pair_secrets", {}).items()
    }
    config = GatewayConfig(
        own_id=raw["own_id"],
        peers=list(peers),
        scheme=scheme,
        window=args.window or raw.get("window", 64),
        pair_secrets=pair_secrets,
    )

    lan_spec = args.lan_if or raw.get("lan_if", "udp:127.0.0.1:0")
    parts = lan_spec.split(":")
    if parts[0] != "udp":
        parser.error("only udp:host:port[:peerhost:peerport] LAN attachments are supported")
    lan_listen = (parts[1], int(parts[2]))
    lan_peer = (parts[3], int(parts[4])) if len(parts) >= 5 else None

    runner = GatewayRunner(
        config,
        tun_listen=parse_hostport(args.tun_listen or raw.get("tun_listen", f"127.0.0.1:{encap.DEFAULT_TUNNEL_PORT}")),
        mgmt_listen=parse_hostport(args.mgmt_listen or raw.get("mgmt_listen", f"127.0.0.1:{mgmt.DEFAULT_MGMT_PORT}")),
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


def bench_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="msec-bench", description="tunnel scheme benchmark"
    )
    parser.add_argument(
        "--schemes",
        default="naive,idf,enc,fullenc",
        help="comma-separated subset of naive,idf,enc,fullenc",
    )
    parser.add_argument("--sizes", default="64,256,1400", help="frame sizes to sweep")
    parser.add_argument(
        "--secs", type=float, default=10.0, help="time budget per size row"
    )
    parser.add_argument("--window", type=int, default=64)
    parser.add_argument("--out", default="-", help="CSV output path ('-' = stdout)")
    args = parser.parse_args(argv)

    try:
        schemes = [Scheme(s.strip()) for s in args.schemes.split(",") if s.strip()]
    except ValueError as e:
        parser.error(f"--schemes: {e}")
    if not schemes:
        parser.error("--schemes: no scheme given")
    if args.window < 1:
        parser.error("--window: window size must be >= 1")
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
        results = run_bench(schemes, sizes, args.secs, args.window)
    except ValueError as e:
        parser.error(f"--sizes: {e}")
    csv = results_csv(results)
    if args.out == "-":
        sys.stdout.write(csv)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv)
        print(f"wrote {len(results)} rows to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(gw_main())
