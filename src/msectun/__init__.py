"""Layer-2-over-Layer-3 tunneling for MACsec traffic.

Two wire schemes protect the MACsec header fields across an untrusted
IP network: a rotating-identifier scheme (sensitive headers replaced
by per-frame pseudonyms derived with SipHash-2-4) and a two-block
header-encryption scheme (reversed propagating chaining, authenticated
by flow-table lookup).  A raw passthrough scheme and a full-frame AEAD
scheme serve as the unprotected and conventional-VPN baselines for
benchmarking.  The package root exports nothing: import each name
from the module that defines it.
"""

__version__ = "0.1.0"
