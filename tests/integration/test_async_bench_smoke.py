"""Tier-1 wiring for the E12 concurrency benchmark smoke run.

Runs :mod:`benchmarks.async_smoke` at its toy sizes and checks the result
schema, correctness flags, and the *structural* gates — the reactor must
hold every negotiated session on exactly one service thread and still
answer a live GET. Timings are recorded, never asserted, so tier-1 stays
deterministic on any machine (the speedup claims live in
``benchmarks/bench_e12_async_sessions.py``).
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT))

from benchmarks import async_smoke  # noqa: E402


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "BENCH_async_sessions.json"
    assert async_smoke.main(["--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_smoke_schema(results):
    assert set(results) == {"experiment", "sessions", "engine"}
    assert {"concurrent_sessions", "negotiated_sessions", "service_threads",
            "open_seconds", "get_ok"} <= set(results["sessions"])
    engines = {entry["engine"] for entry in results["engine"]}
    assert engines == {"threaded", "procpool"}
    for entry in results["engine"]:
        assert {"engine", "workers", "answer_seconds", "engine_speedup",
                "answers_match"} <= set(entry)


def test_eventloop_holds_every_session(results):
    sessions = results["sessions"]
    assert sessions["negotiated_sessions"] == async_smoke.SESSIONS
    assert sessions["concurrent_sessions"] == async_smoke.SESSIONS


def test_eventloop_spends_exactly_one_service_thread(results):
    assert results["sessions"]["service_threads"] == 1


def test_eventloop_still_answers_while_loaded(results):
    assert results["sessions"]["get_ok"]


def test_pool_answers_are_bitwise_identical(results):
    assert all(entry["answers_match"] for entry in results["engine"])


def test_smoke_writes_default_path():
    # The standalone entry point drops the JSON at the repo root, where
    # EXPERIMENTS.md points readers.
    assert async_smoke.DEFAULT_OUT == REPO_ROOT / "BENCH_async_sessions.json"
