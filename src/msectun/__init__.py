"""Layer-2-over-Layer-3 tunneling for MACsec traffic.

Two wire schemes protect the MACsec header fields across an untrusted
IP network: a rotating-identifier scheme (sensitive headers replaced
by per-frame pseudonyms derived with SipHash-2-4) and a two-block
header-encryption scheme (reversed propagating chaining, authenticated
by flow-table lookup).  A raw passthrough scheme and a full-frame AEAD
scheme serve as the unprotected and conventional-VPN baselines for
benchmarking.
"""

__version__ = "0.1.0"

from .frame import (
    MacsecFrame,
    PlainFrame,
    SecTag,
    Sci,
    Tci,
    build_macsec,
    endpoint_protect,
    endpoint_verify,
    is_mka,
    parse_macsec,
)
from .flow import ReplayWindow
from .idf import derive_ridf
from .enc import header_decrypt, header_encrypt
from .gateway import GatewayConfig, GatewayEngine, GatewayStats, Scheme
from .simnet import NetModel, ScenarioConfig, TrafficSpec, run_scenario
from .bench import BenchResult, run_bench

__all__ = [
    "MacsecFrame",
    "PlainFrame",
    "SecTag",
    "Sci",
    "Tci",
    "build_macsec",
    "parse_macsec",
    "endpoint_protect",
    "endpoint_verify",
    "is_mka",
    "ReplayWindow",
    "derive_ridf",
    "header_encrypt",
    "header_decrypt",
    "GatewayConfig",
    "GatewayEngine",
    "GatewayStats",
    "Scheme",
    "NetModel",
    "ScenarioConfig",
    "TrafficSpec",
    "run_scenario",
    "BenchResult",
    "run_bench",
]
