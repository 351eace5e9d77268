"""Turns the measured ``SchemeRun``s into the named metrics.

End-to-end metrics come from an untraced run, per-layer metrics from a
traced one (``--trace 1``).  A per-layer metric whose layer does not run
in a workload (``flow.expire_us`` outside ``churn``, say) reads 0; the
``netio.*`` metrics are printed by ``udp-loopback`` alone.
"""

from __future__ import annotations

import resource

from workloads import GROUP_SAMPLES, SCHEMES, SchemeRun, latency_groups, median, percentile


def end_to_end(runs: list[SchemeRun]) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, note with the sample count)."""
    out: dict[str, tuple[float, str, str]] = {}
    for run in runs:
        s = run.scheme.value
        n = len(run.latencies_ns)
        # the median slice: a burst of interference slows one slice, and
        # slices alternate between the schemes over the whole run
        out[f"{s}.fps"] = (
            median(run.slice_fps),
            "frames/s",
            f"median of {len(run.slice_fps)} slices; "
            f"{run.delivered} frames delivered in {run.seconds:.3f} s",
        )
        out[f"{s}.p50_us"] = (percentile(run.latencies_ns, 0.50) / 1e3, "us", f"n={n}")
        # the tail per group of consecutive slices, then the median over
        # groups: a burst of interference moves one group's p99, not all
        groups = latency_groups(run)
        out[f"{s}.p99_us"] = (
            median([percentile(g, 0.99) for g in groups]) / 1e3,
            "us",
            f"median over {len(groups)} groups of >= {GROUP_SAMPLES} samples; n={n}",
        )
    out["setup_s"] = (
        sum(median(r.setup_s) for r in runs),
        "s",
        "sum over schemes of the median of "
        + ", ".join(f"{len(r.setup_s)}" for r in runs) + " set-ups",
    )
    out["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", "whole process"
    )
    offered = sum(r.offered for r in runs)
    delivered = sum(r.delivered for r in runs)
    out["deliver_frac"] = (
        delivered / offered if offered else 0.0,
        "ratio",
        f"{delivered} of {offered} offered frames delivered exactly once, bit-exact",
    )
    return out


def _mean_us(totals: dict, name: str, field: int = 1) -> float:
    t = totals.get(name)
    return t[field] / t[0] / 1e3 if t else 0.0


def _calls(totals: dict, name: str) -> int:
    t = totals.get(name)
    return t[0] if t else 0


def _pooled(runs: list[SchemeRun], name: str, field: int = 1) -> float:
    calls = sum(_calls(r.totals, name) for r in runs)
    total = sum(r.totals[name][field] for r in runs if name in r.totals)
    return total / calls / 1e3 if calls else 0.0


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(runs: list[SchemeRun], udp: bool) -> dict[str, tuple[float, str]]:
    by = {r.scheme.value: r for r in runs}
    none = SchemeRun(SCHEMES[0])
    idf, enc, full = by.get("idf", none), by.get("enc", none), by.get("fullenc", none)
    traced_frames = {r.scheme.value: r.setup_frames + r.traced_offered for r in runs}
    all_frames = sum(traced_frames.values())
    m: dict[str, tuple[float, str]] = {}

    # frame / encap / flow
    m["frame.parse_us"] = (_pooled(runs, "frame.parse_macsec"), "us")
    m["frame.parses_per_frame"] = (
        _per(sum(_calls(r.totals, "frame.parse_macsec") for r in runs), all_frames), "count")
    m["encap.encap_us"] = (_pooled(runs, "encap.encap"), "us")
    m["encap.decap_us"] = (_pooled(runs, "encap.decap"), "us")
    m["flow.accept_us"] = (_pooled(runs, "flow.ReplayWindow.accept"), "us")
    windowed = [r for r in runs if r.scheme.value in ("idf", "enc")]
    m["flow.accepts_per_frame"] = (_per(
        sum(_calls(r.totals, "flow.ReplayWindow.accept") for r in windowed),
        sum(traced_frames[r.scheme.value] for r in windowed)), "count")
    m["flow.expire_us"] = (_pooled(runs, "flow.UplinkTable.expire"), "us")
    m["flow.uplink_entries_max"] = (max(r.uplink_entries_max for r in runs), "count")

    # siphash / idf
    d = idf.stats_delta
    m["siphash.call_us"] = (_mean_us(idf.totals, "idf.derive_ridf"), "us")
    m["idf.hashes_per_frame"] = (_per(
        d.get("hash_calls_uplink", 0) + d.get("hash_calls_downlink", 0),
        d.get("frames_tunneled", 0)), "count")
    m["idf.encode_self_us"] = (_mean_us(idf.totals, "idf.uplink_encode", 2), "us")
    m["idf.decode_self_us"] = (_mean_us(idf.totals, "idf.IdfDownlink.decode", 2), "us")
    m["idf.register_us"] = (_mean_us(idf.totals, "idf.IdfDownlink.register"), "us")
    m["idf.remove_us"] = (_mean_us(idf.totals, "idf.IdfDownlink.remove"), "us")
    m["idf.id_entries_max"] = (idf.id_entries_max, "count")
    m["idf.ridf_collisions"] = (idf.stats_end.get("ridf_collisions", 0), "count")

    # aes / enc
    d = enc.stats_delta
    m["aes.encrypt_us"] = (_mean_us(enc.totals, "aes.Aes128.encrypt_block"), "us")
    m["aes.decrypt_us"] = (_mean_us(enc.totals, "aes.Aes128.decrypt_block"), "us")
    m["aes.key_expand_us"] = (_mean_us(enc.totals, "aes.Aes128.__init__"), "us")
    m["enc.blocks_per_frame"] = (_per(
        d.get("block_ops_uplink", 0) + d.get("block_ops_downlink", 0),
        d.get("frames_tunneled", 0)), "count")
    m["enc.encode_self_us"] = (_mean_us(enc.totals, "enc.EncTunnel.encode", 2), "us")
    m["enc.decode_self_us"] = (_mean_us(enc.totals, "enc.EncTunnel.decode", 2), "us")
    m["enc.register_us"] = (_mean_us(enc.totals, "enc.EncTunnel.register"), "us")
    m["enc.rekeys"] = (_calls(enc.totals, "enc.PairKeys.rotate"), "count")
    m["enc.bad_epoch_drops"] = (enc.stats_end.get("drop_bad_epoch", 0), "count")

    # fullenc
    d = full.stats_delta
    m["fullenc.encode_us"] = (_mean_us(full.totals, "fullenc.FullEncTunnel.encode"), "us")
    m["fullenc.decode_us"] = (_mean_us(full.totals, "fullenc.FullEncTunnel.decode"), "us")
    m["fullenc.blocks_per_frame"] = (_per(
        d.get("block_ops_uplink", 0) + d.get("block_ops_downlink", 0),
        d.get("frames_tunneled", 0)), "count")

    # mgmt
    m["mgmt.encode_us"] = (_pooled(runs, "mgmt.encode_message"), "us")
    m["mgmt.decode_us"] = (_pooled(runs, "mgmt.decode_message"), "us")
    m["mgmt.msgs_per_kframe"] = (_per(
        1000 * sum(_calls(r.totals, "mgmt.encode_message") for r in runs), all_frames), "count")
    for kind in ("announce", "learned", "expire", "rekey"):
        key = {"announce": "FLOW_ANNOUNCE", "learned": "FLOW_LEARNED",
               "expire": "FLOW_EXPIRE", "rekey": "REKEY"}[kind]
        m[f"mgmt.{kind}"] = (sum(r.mgmt_kinds.get(key, 0) for r in runs), "count")

    # gateway, per scheme
    for scheme in SCHEMES:
        s = scheme.value
        r = by.get(s, none)
        t = r.totals
        m[f"gateway.{s}.uplink_self_us"] = (_mean_us(t, "gateway.on_lan_frame", 2), "us")
        m[f"gateway.{s}.downlink_self_us"] = (_mean_us(t, "gateway.on_tunnel_datagram", 2), "us")
        m[f"gateway.{s}.announce_frame_us"] = (_mean_us(t, "gateway.on_lan_frame#announce"), "us")
        m[f"gateway.{s}.mgmt_us"] = (_mean_us(t, "gateway.on_mgmt_bytes"), "us")
        m[f"gateway.{s}.timer_us"] = (_mean_us(t, "gateway.on_timer"), "us")
        m[f"gateway.{s}.pending_max"] = (r.pending_max, "count")
        m[f"gateway.{s}.drops"] = (r.stats_end.get("dropped", 0), "count")

    # netio, per scheme: only udp-loopback runs this layer
    for scheme in SCHEMES if udp else ():
        s = scheme.value
        r = by.get(s, none)
        t = r.segment_totals
        engine_ns = sum(t[k][1] for k in (
            "gateway.on_lan_frame", "gateway.on_tunnel_datagram",
            "gateway.on_mgmt_bytes", "gateway.on_timer") if k in t)
        frames = r.traced_offered
        engine_us = _per(engine_ns / 1e3, frames)
        wall = r.traced_seconds * 1e9
        busiest = max((t[k][1] for k in ("gateway.on_lan_frame", "gateway.on_tunnel_datagram")
                       if k in t), default=0)
        traced_lat = _per(r.segment_handler_ns / 1e3, frames)
        m[f"netio.{s}.engine_us"] = (engine_us, "us")
        m[f"netio.{s}.engine_busy_frac"] = (_per(busiest, wall), "ratio")
        m[f"netio.{s}.transport_us"] = (traced_lat - engine_us, "us")
        m[f"netio.{s}.lost"] = (r.offered - r.delivered, "count")

    # harness
    m["bench.gen_us"] = (_per(sum(r.gen_ns for r in runs) / 1e3, sum(r.gen_frames for r in runs)), "us")
    m["py.gc_gen0_per_kframe"] = (_per(
        1000 * sum(r.plain_gc0 for r in runs), sum(r.plain_offered for r in runs)), "count")
    plain = sum(r.traced_offered * _per(r.plain_seconds, r.plain_offered) for r in runs)
    traced = sum(r.traced_seconds for r in runs)
    m["trace.overhead_frac"] = (_per(traced, plain) - 1 if plain else 0.0, "ratio")
    m["trace.accounted_frac"] = (_per(
        sum(t[2] for r in runs for k, t in r.segment_totals.items() if "#" not in k),
        sum(r.segment_handler_ns for r in runs)), "ratio")
    return m
