"""In-memory spans recorded around calls into each layer's public functions.

The benchmark does not rely on spans inside ``src/``: it wraps the public
functions and methods at each layer boundary from its own code, in the
client process and in each party process, before any traffic flows. A
wrapper is a pass-through until its :class:`Recorder` is enabled.

A span is ``[id, parent, name, start, end, attrs]`` with times from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so comparable across the
processes of one host). Spans of one request are joined across processes
by an 8-byte digest of each DPF key: the client records the digests of
the two keys it deals, each party records the digest of the key it
answers.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional

ID, PARENT, NAME, START, END, ATTRS = range(6)


def digest(payload: bytes) -> str:
    """The request-join key of one DPF key payload."""
    return hashlib.blake2b(payload, digest_size=8).hexdigest()


class Recorder:
    """Per-process span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, parent: Optional[list] = None,
              **attrs: Any) -> list:
        """Open a span under ``parent`` (default: this thread's current)."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sp = [next(self._ids), parent[ID] if parent else 0, name,
              time.perf_counter(), 0.0, attrs]
        stack.append(sp)
        self.spans.append(sp)
        return sp

    def end(self, sp: list) -> None:
        sp[END] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is sp:
            stack.pop()

    def drain(self) -> List[list]:
        """Hand over every recorded span and start a fresh store."""
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, owner: Any, attr: str, name: str,
             annotate: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording pass-through.

        ``annotate(span, args, kwargs, result)`` may add attributes after
        the call returns.
        """
        fn = getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            sp = recorder.begin(name)
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    annotate(sp, args, kwargs, result)
                return result
            finally:
                recorder.end(sp)

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)

    def wrap_tasks(self, owner: Any, attr: str, name: str) -> None:
        """Wrap a ``method(self, tasks, ...)`` that fans tasks out.

        Each task runs under an ``engine.task`` span parented to the
        fan-out span (across threads) and carrying its queue wait, from
        submission to task start.
        """
        fn = getattr(owner, attr)
        recorder = self

        def wrapper(executor, tasks, *args, **kwargs):
            if not recorder.enabled:
                return fn(executor, tasks, *args, **kwargs)
            sp = recorder.begin(name, tasks=len(tasks))
            submitted = sp[START]

            def timed(task):
                def run():
                    saved = getattr(recorder._local, "stack", None)
                    recorder._local.stack = [sp]
                    task_sp = recorder.begin("engine.task", parent=sp)
                    task_sp[ATTRS]["wait"] = task_sp[START] - submitted
                    try:
                        return task()
                    finally:
                        recorder.end(task_sp)
                        recorder._local.stack = saved
                return run

            try:
                return fn(executor, [timed(t) for t in tasks], *args, **kwargs)
            finally:
                recorder.end(sp)

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)


def _root(recorder: Recorder) -> Optional[list]:
    stack = recorder._stack()
    return stack[0] if stack else None


def install_party(recorder: Recorder) -> None:
    """Wrap the server-side layers: session, backend, sharding, engine,
    DPF evaluation and scan."""
    from repro.core.zltp import messages
    from repro.core.zltp.modes import Pir2ModeServer
    from repro.core.zltp.server import ZltpServerSession
    from repro.pir import sharding, twoserver
    from repro.pir.database import BlobDatabase
    from repro.pir.engine import ScanExecutor
    from repro.pir.sharding import ShardedPartyServer

    def tag_requests(sp, args, kwargs, result):
        payloads = args[1] if isinstance(args[1], list) else [args[1]]
        sp[ATTRS]["queries"] = len(payloads)
        root = _root(recorder)
        if root is not None:
            root[ATTRS].setdefault("reqs", []).extend(
                digest(p) for p in payloads)

    def scan_size(sp, args, kwargs, result):
        db, select = args[0], args[1]
        sp[ATTRS]["bytes"] = db.memory_bytes()
        sp[ATTRS]["queries"] = 1 if getattr(select, "ndim", 1) == 1 \
            else int(select.shape[0])

    recorder.wrap(ZltpServerSession, "handle_frames", "session.handle")
    recorder.wrap(ZltpServerSession, "handle_frame", "session.handle")
    recorder.wrap(messages, "decode_message", "session.decode")
    recorder.wrap(messages, "encode_message", "session.encode")
    recorder.wrap(Pir2ModeServer, "answer", "backend.answer", tag_requests)
    recorder.wrap(Pir2ModeServer, "answer_batch", "backend.answer",
                  tag_requests)
    recorder.wrap(ShardedPartyServer, "answer", "shard.answer")
    recorder.wrap(ShardedPartyServer, "answer_batch", "shard.answer")
    recorder.wrap(sharding, "split_dpf_key", "dpf.split")
    recorder.wrap(sharding, "eval_subkeys_batch", "dpf.subtree_eval")
    recorder.wrap(sharding, "eval_subkey_full", "dpf.subtree_eval")
    recorder.wrap_tasks(ScanExecutor, "map", "engine.map")
    recorder.wrap_tasks(ScanExecutor, "fanout_xor", "engine.map")
    recorder.wrap(twoserver, "eval_dpf_full", "dpf.eval_all")
    recorder.wrap(BlobDatabase, "xor_scan", "scan", scan_size)
    recorder.wrap(BlobDatabase, "xor_scan_batch", "scan_batch", scan_size)


def install_client(recorder: Recorder) -> None:
    """Wrap the client-side layers: browser, ZLTP client, framing, keygen."""
    from repro.core.lightweb.browser import LightwebBrowser
    from repro.core.lightweb.lightscript import LightscriptProgram
    from repro.core.zltp import messages, modes
    from repro.core.zltp.client import ZltpClient
    from repro.core.zltp.modes import Pir2ModeClient
    from repro.crypto import merkle

    def tag_requests(sp, args, kwargs, result):
        # queries_for_slot runs directly under get_slots, and its own
        # span is still open here; tag the get_slots span below it.
        stack = recorder._stack()
        owner = stack[-2] if len(stack) >= 2 else None
        if owner is not None and owner[NAME] == "zltp.get_slots":
            owner[ATTRS].setdefault("reqs", []).append(
                [digest(q) for q in result])

    recorder.wrap(LightwebBrowser, "visit", "lightweb.visit")
    recorder.wrap(LightscriptProgram, "plan_fetches", "lightweb.plan")
    recorder.wrap(LightscriptProgram, "render", "lightweb.render")
    recorder.wrap(merkle, "verify_proof", "lightweb.integrity")
    recorder.wrap(ZltpClient, "get", "zltp.get")
    recorder.wrap(ZltpClient, "get_slots", "zltp.get_slots")
    recorder.wrap(messages, "encode_message", "zltp.encode")
    recorder.wrap(messages, "decode_message", "zltp.decode")
    recorder.wrap(modes, "gen_dpf", "dpf.gen")
    recorder.wrap(Pir2ModeClient, "queries_for_slot", "zltp.queries",
                  tag_requests)


def self_times(spans: List[list]) -> Dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[list]] = {}
    for sp in spans:
        children.setdefault(sp[PARENT], []).append(sp)
    out: Dict[int, float] = {}
    for sp in spans:
        kids = sorted(((max(k[START], sp[START]), min(k[END], sp[END]))
                       for k in children.get(sp[ID], ())), key=lambda iv: iv[0])
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in kids:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sp[ID]] = max(0.0, (sp[END] - sp[START]) - covered)
    return out


__all__ = ["Recorder", "digest", "install_party", "install_client",
           "self_times", "ID", "PARENT", "NAME", "START", "END", "ATTRS"]
