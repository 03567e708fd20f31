"""Tests of the benchmark harness itself.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
The end-to-end tests run each workload for about a second.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gallery  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import wl_campaign  # noqa: E402
import wl_service  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(workload: str, trace: int, seconds: float = 1.0,
           bench_dir: Path = BENCH) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload",
         workload, "--seed", "5", "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------------ inputs

def _stream(seed: int, round_: int, n: int = 300) -> list[dict]:
    stream = wl_service.RequestStream(seed, round_)
    return [stream.next() for _ in range(n)]


def test_same_seed_same_inputs():
    assert gallery.plan(3, 0) == gallery.plan(3, 0)
    assert wl_campaign.plan(3) == wl_campaign.plan(3)
    assert _stream(3, 0) == _stream(3, 0)
    a = gallery.make_input("gpu_histogram", 2)
    b = gallery.make_input("gpu_histogram", 2)
    assert (a == b).all()


def test_different_seed_different_inputs():
    assert gallery.plan(3, 0) != gallery.plan(4, 0)
    assert wl_campaign.plan(3) != wl_campaign.plan(4)
    assert _stream(3, 0) != _stream(4, 0)


def test_stream_mixes_first_sight_and_repeats():
    payloads = _stream(9, 0, n=2000)
    distinct = {wl_service.request_key(p) for p in payloads}
    share = len(distinct) / len(payloads)
    assert 0.4 < share < 0.6
    for payload in payloads[:200]:
        harness.use_checkout_sources()
        from repro.service.catalog import MeasureRequest
        MeasureRequest.from_json(dict(payload))


def test_every_launch_has_a_pin():
    pins = json.loads((BENCH / "pins.json").read_text())
    for seed in range(4):
        for program, variant in gallery.plan(seed, 0):
            assert str(variant) in pins["kernels"][program]
    assert len(pins["campaign"]) == wl_campaign.PROTOCOL_SEEDS


# -------------------------------------------------------------- statistics

def test_tail_percentile_needs_ten_samples_beyond():
    assert harness.tail_percentile(list(range(999)), 99) is None
    assert harness.tail_percentile(list(range(1000)), 99) is not None
    assert harness.tail_percentile(list(range(21)), 50) == 10


# ------------------------------------------------------ failure accounting

def test_wrong_cycles_or_result_is_a_failure():
    pins = {"gpu_bfs": {"0": [100.0]}}
    good = {"program": "gpu_bfs", "variant": 0, "values": [100.0],
            "correct": True}
    assert gallery.check([good], pins) == []
    assert len(gallery.check([dict(good, values=[101.0])], pins)) == 1
    assert len(gallery.check([dict(good, correct=False)], pins)) == 1


def _answer(result: dict, cache: str = "miss", status: str = "served"
            ) -> bytes:
    return json.dumps({"status": status, "cache": cache,
                       "result": result}).encode()


def test_service_failures_are_counted():
    p = {"primitive": "omp_barrier", "threads": 4}
    records = [
        (p, 200, _answer({"x": 1}), 0.002),
        (p, 200, _answer({"x": 1}, cache="hit"), 0.001),
        (p, 200, _answer({"x": 2}, cache="hit"), 0.001),   # wrong
        (p, None, b"connection refused", 0.001),           # lost
        (p, 200, _answer({"x": 1}, status="degraded"), 0.001),
    ]
    out = wl_service.classify(records)
    assert len(out["failures"]) == 3
    assert out["ok"] == 2
    assert out["hit"] == [0.001] and out["miss"] == [0.002]


def test_lost_requests_are_recorded_by_the_client_loop():
    calls = []

    def send(port, body):
        calls.append(body)
        if len(calls) % 3 == 0:
            raise ConnectionResetError("reset by peer")
        payload = json.loads(body)
        return 200, _answer({"echo": wl_service.request_key(payload)})

    stream = wl_service.RequestStream(1, 0)
    records, _ = wl_service.drive(0, stream, 0.2, send=send)
    out = wl_service.classify(records)
    lost = [f for f in out["failures"] if f.startswith("lost")]
    assert lost and len(lost) == len(records) - out["ok"]


def test_campaign_claim_and_csv_failures(tmp_path):
    text = ("running 2 experiment(s): fig1, fig2\n"
            "=== fig1 (Fig. 1) x\n  [PASS] a\n"
            "=== fig2 (Fig. 2) y\n  [FAIL] b\n")
    n, failures = wl_campaign.experiment_failures(text, 1)
    assert n == 2 and len(failures) == 1
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "a" / "s.csv").write_text("1,2\n")
    (tmp_path / "b" / "s.csv").write_text("1,3\n")
    pinned = wl_campaign.csv_digests(tmp_path / "a")
    assert wl_campaign.csv_failures(tmp_path / "a", pinned) == []
    assert len(wl_campaign.csv_failures(tmp_path / "b", pinned)) == 1


def test_injected_wrong_pin_fails_the_run(tmp_path):
    """A simulator change that moves one program's cycles is a failed
    operation: run the real kernels workload against altered pins."""
    copy = tmp_path / "perfbench"
    shutil.copytree(BENCH, copy, ignore=shutil.ignore_patterns(
        "__pycache__", "tests"))
    pins = json.loads((copy / "pins.json").read_text())
    for variant, values in pins["kernels"]["gpu_histogram"].items():
        pins["kernels"]["gpu_histogram"][variant] = [values[0] + 1]
    (copy / "pins.json").write_text(json.dumps(pins))
    _, result = _bench("kernels", 0, bench_dir=copy)
    assert result["correct"] is False
    assert result["failed"] >= 3     # a, a again, and b
    assert result["metrics"]["ok_frac"]["value"] < 1.0


# ---------------------------------------------------------- the command

@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    stdout, result = _bench(workload, 0)
    assert result["correct"] is True and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for row in SPEC["end_to_end"]:
        assert f"  {row['name']} = " in stdout
        line = next(l for l in stdout.splitlines()
                    if l.startswith(f"  {row['name']} = "))
        assert f" {row['unit']} (n=" in line
        assert result["metrics"][row["name"]]["unit"] == row["unit"]
    assert set(result["metrics"]) == {r["name"]
                                      for r in SPEC["end_to_end"]}
    assert '"loadavg"' in stdout and '"nproc"' in stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    stdout, result = _bench(workload, 1)
    assert result["correct"] is True
    names = [r["name"] for r in SPEC["per_layer"]]
    assert set(result["metrics"]) == set(names)
    for row in SPEC["per_layer"]:
        assert result["metrics"][row["name"]]["unit"] == row["unit"]
    assert "obs.trace_overhead_pct" in result["metrics"]


def test_layer_names_match_the_spec():
    assert list(layers.NAMES) == [r["name"] for r in SPEC["per_layer"]]


def test_outside_a_checkout_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernels",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
