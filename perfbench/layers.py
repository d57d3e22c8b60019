"""Per-layer metrics from the spans of one traced window.

Times are means per call of the layer's span unless noted. Server-side
layers pool both parties. A layer that a workload does not exercise has
no spans and reads 0 (for example the sharding and engine layers on
``get-4k``, the lightweb layers on the ``get-*`` workloads).

``self.<layer>_ms`` is a layer's self time (its spans minus their child
spans) per op: client layers per op, server layers per op per party.

``trace.coverage_frac`` is, per op, the client's self times along the op
plus, for each ``get_slots`` call, the longer of the two parties'
session-handle times for the requests it sent (capped at the client's
wait), divided by the op's wall time; the median over ops is reported.
The rest is the network, the kernel and code between the wrapped calls.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Tuple

from perfbench.spans import ATTRS, END, ID, NAME, PARENT, START, self_times

CLIENT_LAYERS = ("lightweb.visit", "lightweb.plan", "lightweb.render",
                 "lightweb.integrity", "zltp.get", "zltp.get_slots",
                 "zltp.queries", "dpf.gen", "zltp.encode", "zltp.decode")
PARTY_LAYERS = ("session.handle", "session.decode", "session.encode",
                "backend.answer", "shard.answer", "dpf.split",
                "dpf.subtree_eval", "engine.map", "engine.task",
                "dpf.eval_all", "scan", "scan_batch")


def _dur(sp: list) -> float:
    return sp[END] - sp[START]


def _mean_ms(spans: List[list]) -> float:
    return sum(map(_dur, spans)) / len(spans) * 1e3 if spans else 0.0


def _by_name(spans: List[list]) -> Dict[str, List[list]]:
    out: Dict[str, List[list]] = {}
    for sp in spans:
        out.setdefault(sp[NAME], []).append(sp)
    return out


def _trees(spans: List[list]) -> Dict[int, List[list]]:
    """Root span id -> every span of its tree (roots included)."""
    parent = {sp[ID]: sp[PARENT] for sp in spans}

    def root_of(sid: int) -> int:
        while parent.get(sid, 0):
            sid = parent[sid]
        return sid

    trees: Dict[int, List[list]] = {}
    for sp in spans:
        trees.setdefault(root_of(sp[ID]), []).append(sp)
    return trees


def layer_metrics(client_spans: List[list], party_spans: List[List[list]],
                  traced: Any, untraced: Any, memcpy_gb_s: float
                  ) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, Any]]:
    """The per-layer metric set and the trace reconciliation checks."""
    client = _by_name(client_spans)
    server_all = [sp for spans in party_spans for sp in spans]
    server = _by_name(server_all)
    ops = client.get("op", [])
    n_ops = max(1, len(ops))
    n_parties = len(party_spans)

    scans = server.get("scan", []) + server.get("scan_batch", [])
    scan_time = sum(map(_dur, scans))
    scan_bytes = sum(sp[ATTRS]["bytes"] for sp in scans)
    scan_queries = sum(sp[ATTRS]["queries"] for sp in scans)
    backend = server.get("backend.answer", [])
    backend_queries = sum(sp[ATTRS]["queries"] for sp in backend)
    per_party_gets = max(1, backend_queries)
    handles = server.get("session.handle", [])
    tasks = server.get("engine.task", [])
    maps = server.get("engine.map", [])
    gb_per_s = scan_bytes / scan_time / 1e9 if scan_time else 0.0

    client_self = self_times(client_spans)
    party_self = {}
    for spans in party_spans:
        party_self.update({(id(spans), k): v
                           for k, v in self_times(spans).items()})

    values: Dict[str, Tuple[float, str]] = {
        "dpf.gen_ms": (_mean_ms(client.get("dpf.gen", [])), "ms"),
        "dpf.eval_all_ms": (_mean_ms(server.get("dpf.eval_all", [])), "ms"),
        "dpf.split_ms": (_mean_ms(server.get("dpf.split", [])), "ms"),
        "dpf.subtree_eval_ms": (
            _mean_ms(server.get("dpf.subtree_eval", [])), "ms"),
        # Scan time per GET per party, over every shard it touched.
        "scan.ms": (scan_time / per_party_gets * 1e3 if scans else 0.0,
                    "ms"),
        "scan_batch.ms": (_mean_ms(server.get("scan_batch", [])), "ms"),
        "scan.gb_per_s": (gb_per_s, "GB/s"),
        "scan.memcpy_frac": (gb_per_s / memcpy_gb_s, "fraction"),
        "scan.queries_per_pass": (
            scan_queries / len(scans) if scans else 0.0, "count"),
        "shard.answer_ms": (_mean_ms(server.get("shard.answer", [])), "ms"),
        "engine.map_ms": (_mean_ms(maps), "ms"),
        "engine.task_wait_ms": (
            sum(sp[ATTRS]["wait"] for sp in tasks) / len(tasks) * 1e3
            if tasks else 0.0, "ms"),
        # Engine tasks per GET per party.
        "engine.tasks_per_op": (len(tasks) / per_party_gets, "count"),
        "engine.parallelism": (
            sum(map(_dur, tasks)) / sum(map(_dur, maps)) if maps else 0.0,
            "ratio"),
        "zltp.get_slots_ms": (
            _mean_ms(client.get("zltp.get_slots", [])), "ms"),
        "zltp.encode_ms": (_mean_ms(client.get("zltp.encode", [])), "ms"),
        "zltp.decode_ms": (_mean_ms(client.get("zltp.decode", [])), "ms"),
        "zltp.wait_ms": (_mean_self_ms(client.get("zltp.get_slots", []),
                                       client_self), "ms"),
        "session.handle_ms": (_mean_ms(handles), "ms"),
        "backend.answer_ms": (_mean_ms(backend), "ms"),
        "session.overhead_ms": (
            (sum(map(_dur, handles)) - sum(map(_dur, backend)))
            / len(handles) * 1e3 if handles else 0.0, "ms"),
        "backend.queries_per_call": (
            backend_queries / len(backend) if backend else 0.0, "count"),
        "lightweb.visit_ms": (
            _mean_ms(client.get("lightweb.visit", [])), "ms"),
        "lightweb.plan_ms": (_mean_ms(client.get("lightweb.plan", [])), "ms"),
        "lightweb.render_ms": (
            _mean_ms(client.get("lightweb.render", [])), "ms"),
        "lightweb.integrity_ms": (
            _mean_ms(client.get("lightweb.integrity", [])), "ms"),
        "lightweb.code_gets_per_page": (
            traced.code_gets / n_ops if traced.data_gets else 0.0, "count"),
        "lightweb.data_gets_per_page": (
            traced.data_gets / n_ops if traced.data_gets else 0.0, "count"),
        "lightweb.code_cache_hit_frac": (
            traced.cache_hits / n_ops if traced.data_gets else 0.0,
            "fraction"),
    }
    for layer in CLIENT_LAYERS:
        total = sum(client_self[sp[ID]] for sp in client.get(layer, []))
        values[f"self.{layer}_ms"] = (total / n_ops * 1e3, "ms")
    for layer in PARTY_LAYERS:
        total = 0.0
        for spans in party_spans:
            total += sum(party_self[(id(spans), sp[ID])]
                         for sp in spans if sp[NAME] == layer)
        values[f"self.{layer}_ms"] = (total / n_ops / n_parties * 1e3, "ms")

    coverage, joined, unjoined = _coverage(client_spans, client_self,
                                           party_spans)
    p50_traced = statistics.median(traced.latencies)
    p50_untraced = statistics.median(untraced.latencies)
    values.update({
        "trace.coverage_frac": (coverage, "fraction"),
        "trace.overhead_frac": (p50_traced / p50_untraced - 1.0, "fraction"),
        "trace.joined_frac": (
            joined / (joined + unjoined) if joined + unjoined else 0.0,
            "fraction"),
        "trace.ops": (float(len(ops)), "count"),
        "trace.latency_p50_ms": (p50_traced * 1e3, "ms"),
        "trace.untraced_latency_p50_ms": (p50_untraced * 1e3, "ms"),
        "host.memcpy_gb_s": (memcpy_gb_s, "GB/s"),
    })
    checks = {"joined_requests": joined, "unjoined_requests": unjoined,
              "span_counts": {name: len(spans) for name, spans in
                              {**client, **server}.items()}}
    return ({name: {"value": v, "unit": u} for name, (v, u) in values.items()},
            checks)


def _mean_self_ms(spans: List[list], selfs: Dict[int, float]) -> float:
    if not spans:
        return 0.0
    return sum(selfs[sp[ID]] for sp in spans) / len(spans) * 1e3


def _coverage(client_spans: List[list], client_self: Dict[int, float],
              party_spans: List[List[list]]) -> Tuple[float, int, int]:
    """Median blocking-path coverage over ops, and request join counts."""
    handle_by_digest: List[Dict[str, list]] = []
    for spans in party_spans:
        index: Dict[str, list] = {}
        for sp in spans:
            if sp[NAME] == "session.handle":
                for d in sp[ATTRS].get("reqs", ()):
                    index[d] = sp
        handle_by_digest.append(index)

    joined = unjoined = 0
    fractions = []
    for tree in _trees(client_spans).values():
        op = next((sp for sp in tree if sp[NAME] == "op"), None)
        if op is None or _dur(op) <= 0:
            continue
        covered = 0.0
        for sp in tree:
            if sp is op:
                continue
            if sp[NAME] != "zltp.get_slots":
                covered += client_self[sp[ID]]
                continue
            wait = client_self[sp[ID]]
            per_party = [dict() for _ in party_spans]
            for pair in sp[ATTRS].get("reqs", ()):
                found = [index.get(d) for index, d in
                         zip(handle_by_digest, pair)]
                if all(h is not None for h in found):
                    joined += 1
                else:
                    unjoined += 1
                for slot, handle in zip(per_party, found):
                    if handle is not None:
                        slot[handle[ID]] = _dur(handle)
            server = max((sum(s.values()) for s in per_party), default=0.0)
            covered += min(wait, server)
        fractions.append(covered / _dur(op))
    coverage = statistics.median(fractions) if fractions else 0.0
    return coverage, joined, unjoined


__all__ = ["layer_metrics", "CLIENT_LAYERS", "PARTY_LAYERS"]
