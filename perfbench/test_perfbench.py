"""The benchmark's own tests: toy-size runs of every workload.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(args, cwd=ROOT, timeout=120):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=timeout)


def _gone(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_emits_every_metric(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "2",
                 "--trace", str(trace), "--scale", "toy"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
    info = json.loads(lines[-2])["perfbench_info"]
    assert info["seed"] == 3 and info["host"]["nproc"] >= 1
    if trace:
        assert result["metrics"]["trace.joined_frac"]["value"] == 1.0
        assert info["trace_checks"]["unjoined_requests"] == 0
    else:
        for name, value in result["metrics"].items():
            assert value["value"] > 0, name


def test_same_seed_same_bytes():
    """The seed fixes the inputs: byte counts repeat exactly."""
    runs = [json.loads(_run(["--workload", "get-4k", "--seed", "5",
                             "--seconds", "1", "--scale", "toy"])
                       .stdout.strip().splitlines()[-1])
            for _ in range(2)]
    for name in ("up_bytes_per_op", "down_bytes_per_op"):
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", WORKLOADS[0], "--seed", "1", "--seconds",
                 "1", "--trace", "0"], cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _session_members(sid: int) -> list:
    """Live (non-zombie) processes of a session."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if fields[0] != "Z" and int(fields[3]) == sid:
            members.append(int(entry.name))
    return members


def test_no_process_outlives_a_run():
    """The benchmark runs only itself and its two parties, and every one
    of them has ended when it exits."""
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "2", "--seconds", "2", "--scale", "toy"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        pids = []
        for line in proc.stderr:
            found = re.search(r"set-up 3/3 .* parties \[(\d+), (\d+)\]", line)
            if found:
                pids = [int(found.group(1)), int(found.group(2))]
                break
        assert pids, "benchmark never finished its set-up"
        assert sorted(_session_members(proc.pid)) == sorted([proc.pid, *pids])
        out, _ = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0
    assert json.loads(out.strip().splitlines()[-1])["correct"] is True
    assert _session_members(proc.pid) == []


def test_interrupt_stops_the_parties():
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "browse-2u",
         "--seed", "1", "--seconds", "60", "--scale", "toy"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    pids = []
    try:
        deadline = time.monotonic() + 90
        while time.monotonic() < deadline:
            line = proc.stderr.readline()
            found = re.search(r"set-up 3/3 .* parties \[(\d+), (\d+)\]", line)
            if found:
                pids = [int(found.group(1)), int(found.group(2))]
                break
        assert pids, "benchmark never finished its set-up"
        time.sleep(1.0)
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode not in (0, None)
    assert '"correct"' not in proc.stdout.read()
    assert all(_gone(pid) for pid in pids)


def test_cold_domains_follow_the_usage_profile():
    """Every prefix of a visit sequence holds ``ceil(n * share)`` first
    visits to a domain, with the share from the §4 usage profile."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.inputs import build_browse_inputs

    inputs = build_browse_inputs(seed=4, scale="toy", users=2)
    share = inputs.cold_share
    assert 0 < share < 1
    for visits in inputs.visits:
        seen = set()
        for n, path in enumerate(visits, start=1):
            seen.add(path.split("/", 1)[0])
            assert len(seen) == math.ceil(n * share - 1e-9)
        assert set(visits) <= set(inputs.expected_text)
