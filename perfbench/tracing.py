"""Span tracer installed around the public functions of each layer.

``Tracer.install()`` replaces module functions and class methods with
wrappers that record a span (id, parent id, name, start, end) per call;
``uninstall()`` restores the originals.  Spans nest per thread, so the
peer gateway's downlink handler called synchronously from the sender's
transport callback is a child of the sender's uplink span.  Self time is
a span's duration minus the time covered by its children, so the self
times of one root span's tree add up to the root's duration.

Aggregates (calls, total and self nanoseconds per name) are kept for
every call.  Raw spans are kept in memory up to ``SPAN_CAP`` per thread
and written out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import itertools
import threading
from array import array
from time import perf_counter_ns

from msectun import aes, enc, encap, flow, frame, fullenc, gateway, idf, mgmt

# (owner, attribute, span name); module-level functions are looked up by
# the library at call time, so patching the module attribute is enough
LAYER_FUNCTIONS = (
    (frame, "parse_macsec", "frame.parse_macsec"),
    (encap, "encap", "encap.encap"),
    (encap, "decap", "encap.decap"),
    (flow.ReplayWindow, "accept", "flow.ReplayWindow.accept"),
    (flow.UplinkTable, "expire", "flow.UplinkTable.expire"),
    (flow.UplinkTable, "entries", "flow.UplinkTable.entries"),
    (idf, "derive_ridf", "idf.derive_ridf"),
    (idf, "uplink_encode", "idf.uplink_encode"),
    (idf.IdfDownlink, "decode", "idf.IdfDownlink.decode"),
    (idf.IdfDownlink, "register", "idf.IdfDownlink.register"),
    (idf.IdfDownlink, "remove", "idf.IdfDownlink.remove"),
    (enc.EncTunnel, "encode", "enc.EncTunnel.encode"),
    (enc.EncTunnel, "decode", "enc.EncTunnel.decode"),
    (enc.EncTunnel, "register", "enc.EncTunnel.register"),
    (enc.EncTunnel, "remove", "enc.EncTunnel.remove"),
    (enc.PairKeys, "rotate", "enc.PairKeys.rotate"),
    (aes.Aes128, "__init__", "aes.Aes128.__init__"),
    (aes.Aes128, "encrypt_block", "aes.Aes128.encrypt_block"),
    (aes.Aes128, "decrypt_block", "aes.Aes128.decrypt_block"),
    (fullenc.FullEncTunnel, "encode", "fullenc.FullEncTunnel.encode"),
    (fullenc.FullEncTunnel, "decode", "fullenc.FullEncTunnel.decode"),
    (mgmt, "encode_message", "mgmt.encode_message"),
    (mgmt, "decode_message", "mgmt.decode_message"),
    (gateway.GatewayEngine, "on_lan_frame", "gateway.on_lan_frame"),
    (gateway.GatewayEngine, "on_tunnel_datagram", "gateway.on_tunnel_datagram"),
    (gateway.GatewayEngine, "on_mgmt_bytes", "gateway.on_mgmt_bytes"),
    (gateway.GatewayEngine, "on_timer", "gateway.on_timer"),
)

# the tag a root span gets when its handler sent a flow announcement
ANNOUNCE_TAG = "#announce"


class _ThreadState:
    __slots__ = ("stack", "calls", "total", "self_ns", "spans", "tagged")

    def __init__(self, n_names: int):
        # open spans: [span id, parent id, name index, start, child ns, tag]
        self.stack: list[list] = []
        self.calls = [0] * n_names
        self.total = [0] * n_names
        self.self_ns = [0] * n_names
        self.spans = array("q")  # id, parent, name index, start, end
        self.tagged: dict[str, list[int]] = {}  # tag -> [calls, total ns]


class Tracer:
    SPAN_CAP = 200_000  # raw spans kept per thread

    def __init__(self):
        self.names = [name for _, _, name in LAYER_FUNCTIONS]
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._originals: list[tuple[object, str, object]] = []

    # -- state -----------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(len(self.names))
            with self._lock:
                self._states.append(st)
            self._local.state = st
        return st

    def tag_root(self, tag: str) -> None:
        """Mark the calling thread's outermost open span with ``tag``."""
        st = self._state()
        if st.stack:
            st.stack[0][5] = tag

    # -- install ---------------------------------------------------------

    def _wrap(self, fn, idx: int):
        tracer = self
        ids = self._ids
        cap = self.SPAN_CAP

        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            span_id = next(ids)
            parent = stack[-1][0] if stack else 0
            rec = [span_id, parent, idx, perf_counter_ns(), 0, None]
            stack.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - rec[3]
                if stack:
                    stack[-1][4] += dur
                st.calls[idx] += 1
                st.total[idx] += dur
                st.self_ns[idx] += dur - rec[4]
                if rec[5] is not None:
                    agg = st.tagged.setdefault(tracer.names[idx] + rec[5], [0, 0])
                    agg[0] += 1
                    agg[1] += dur
                if len(st.spans) < 5 * cap:
                    st.spans.extend((span_id, parent, idx, rec[3], end))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for idx, (owner, attr, _) in enumerate(LAYER_FUNCTIONS):
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, idx))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- results ---------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """name -> (calls, total ns, self ns), summed over threads."""
        out: dict[str, tuple[int, int, int]] = {}
        for i, name in enumerate(self.names):
            calls = sum(st.calls[i] for st in self._states)
            if calls:
                out[name] = (
                    calls,
                    sum(st.total[i] for st in self._states),
                    sum(st.self_ns[i] for st in self._states),
                )
        for st in self._states:
            for key, (calls, total) in st.tagged.items():
                prev = out.get(key, (0, 0, 0))
                out[key] = (prev[0] + calls, prev[1] + total, 0)
        return out

    def write_spans(self, path: str) -> int:
        """Write kept spans as CSV; returns the number written."""
        n = 0
        with open(path, "w") as out:
            out.write("span_id,parent_id,name,start_ns,end_ns\n")
            for st in self._states:
                s = st.spans
                for off in range(0, len(s), 5):
                    out.write(
                        f"{s[off]},{s[off + 1]},{self.names[s[off + 2]]},"
                        f"{s[off + 3]},{s[off + 4]}\n"
                    )
                    n += 1
        return n
