"""The ``service`` workload: the measurement daemon over HTTP.

Each round boots a fresh daemon (``python -m repro.service serve``
through ``child.py serve``; its default 2 workers, an empty cache
directory) and drives it with a
closed loop of :data:`CONNECTIONS` client threads: callers of
``/measure`` wait for their answer before sending the next request.
The seeded stream is about half first-sight requests drawn across
primitive x system x threads x blocks x dtype x ``n_runs`` and about
half Zipf-distributed repeats of earlier requests.

Checks: every request is answered ``served``; every answer to a
repeated request equals the first answer to it; and a seeded sample of
answers equals an in-process ``execute_request`` of the same request.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import threading
import time
from pathlib import Path

import harness
import layers

ROUNDS = 3
CONNECTIONS = 2
#: Share of requests that repeat an earlier one.
REPEAT_SHARE = 0.5
#: Pareto shape of the repeat ranks (Zipf-like; earlier = hotter).
ZIPF_ALPHA = 1.2
#: Answers per round re-computed in-process.
SAMPLE_CHECKS = 8
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0


class RequestStream:
    """Seeded request payloads for one round (thread-safe)."""

    def __init__(self, seed: int, round_: int) -> None:
        harness.use_checkout_sources()
        from repro.cpu.presets import cpu_preset
        from repro.service.catalog import CATALOG, DTYPE_BY_NAME
        self._rng = random.Random(f"perfbench/service/{seed}/{round_}")
        self._catalog = {name: CATALOG[name].substrate
                         for name in sorted(CATALOG)}
        self._dtypes = sorted(DTYPE_BY_NAME)
        self._max_threads = {s: cpu_preset(s).max_threads
                             for s in (1, 2, 3)}
        self.distinct: list[dict] = []
        self._keys: set[str] = set()
        self._lock = threading.Lock()

    def _draw(self) -> dict:
        rng = self._rng
        name = rng.choice(sorted(self._catalog))
        system = rng.choice((1, 2, 3))
        payload = {"primitive": name, "system": system,
                   "dtype": rng.choice(self._dtypes)}
        if self._catalog[name] == "cpu":
            payload["threads"] = rng.randint(2, self._max_threads[system])
        else:
            payload["threads"] = 32 * rng.randint(1, 32)
            payload["blocks"] = rng.randint(1, 8)
        n_runs = rng.randint(0, 12)
        if n_runs:
            payload["n_runs"] = n_runs
        return payload

    def next(self) -> dict:
        with self._lock:
            rng = self._rng
            if self.distinct and rng.random() < REPEAT_SHARE:
                rank = int(rng.paretovariate(ZIPF_ALPHA)) - 1
                return dict(self.distinct[min(rank,
                                              len(self.distinct) - 1)])
            while True:
                payload = self._draw()
                key = request_key(payload)
                if key not in self._keys:
                    break
            self._keys.add(key)
            self.distinct.append(payload)
            return dict(payload)


def request_key(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


# ------------------------------------------------------------------ daemon

class Daemon:
    """One daemon process: boot (timed to its first healthy answer)
    and stop (reaped, with its peak memory)."""

    def __init__(self, workdir: Path, tag: str, traced: bool) -> None:
        cache = workdir / f"{tag}-cache"
        self.record_path = workdir / f"{tag}.json"
        trace = ["--trace", str(self.record_path), "--spans",
                 str(harness.TRACE_OUT / f"service-{tag}.jsonl")] \
            if traced else []
        self.child = harness.python_child(
            "child.py",
            ["serve", *trace, "--port", "0", "--cache-dir", str(cache)],
            workdir, tag)
        try:
            self.port = self._wait_for_port()
            self._wait_healthy()
        except RuntimeError:
            self.child.kill()
            raise
        self.setup_s = time.monotonic() - self.child.spawn_t

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            match = re.search(r"http://[\d.]+:(\d+)",
                              self.child.read_stdout())
            if match:
                return int(match.group(1))
            if self.child.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError("daemon did not report its port")

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                  timeout=5)
                try:
                    conn.request("GET", "/healthz")
                    if conn.getresponse().status == 200:
                        return
                finally:
                    conn.close()
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("daemon never answered /healthz")

    def stop(self) -> harness.ChildResult:
        self.child.interrupt()
        return self.child.wait(30.0)

    def record(self) -> dict:
        return json.loads(self.record_path.read_text()) \
            if self.record_path.exists() else {}


# ------------------------------------------------------------------ client

def post(port: int, body: bytes) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("POST", "/measure", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def drive(port: int, stream: RequestStream, seconds: float,
          send=post) -> tuple[list[tuple], float]:
    """Closed loop over :data:`CONNECTIONS` lanes for ``seconds``.

    Returns ([(payload, http status or None, body, latency_s)], wall)
    in completion order.
    """
    records: list[tuple] = []
    start = time.monotonic()
    deadline = start + seconds

    def lane() -> None:
        while time.monotonic() < deadline:
            payload = stream.next()
            body = json.dumps(payload).encode()
            t0 = time.perf_counter()
            try:
                status, data = send(port, body)
            except (OSError, http.client.HTTPException) as exc:
                status, data = None, repr(exc).encode()
            records.append((payload, status, data,
                            time.perf_counter() - t0))

    lanes = [threading.Thread(target=lane) for _ in range(CONNECTIONS)]
    for t in lanes:
        t.start()
    for t in lanes:
        t.join()
    return records, time.monotonic() - start


def classify(records: list[tuple]) -> dict:
    """Check a round's answers; split latencies into hits and misses.

    Returns ``{"failures", "first", "hit", "miss", "ok"}``: failure
    strings, the first answer to each distinct request, latencies in
    seconds, and the count of served answers.
    """
    failures: list[str] = []
    first: dict[str, tuple[dict, dict]] = {}
    hit: list[float] = []
    miss: list[float] = []
    ok = 0
    for payload, status, data, latency in records:
        if status is None:
            failures.append(f"lost: {data.decode(errors='replace')}")
            continue
        try:
            body = json.loads(data)
        except ValueError:
            failures.append(f"HTTP {status}: unreadable body")
            continue
        if status != 200 or body.get("status") != "served":
            failures.append(f"HTTP {status} {body.get('status')}: "
                            f"{body.get('error', '')}")
            continue
        key = request_key(payload)
        if key not in first:
            first[key] = (payload, body["result"])
        elif body["result"] != first[key][1]:
            failures.append(f"{key}: answer differs from the first")
            continue
        ok += 1
        if body.get("cache") == "hit":
            hit.append(latency)
        elif not body.get("coalesced"):
            miss.append(latency)
    return {"failures": failures, "first": first, "hit": hit,
            "miss": miss, "ok": ok}


def sample_check(first: dict, seed: int, round_: int) -> list[str]:
    """Re-compute a seeded sample of answers in-process."""
    from repro.service.catalog import MeasureRequest, execute_request
    rng = random.Random(f"perfbench/service-check/{seed}/{round_}")
    keys = sorted(first)
    failures = []
    for key in rng.sample(keys, min(SAMPLE_CHECKS, len(keys))):
        payload, answer = first[key]
        local = json.loads(json.dumps(
            execute_request(MeasureRequest.from_json(dict(payload)))))
        if local != answer:
            failures.append(f"{key}: daemon answer != execute_request")
    return failures


# --------------------------------------------------------------------- run

def _round(report: harness.Report, workdir: Path, seed: int, index: int,
           tag: str, seconds: float, traced: bool) -> dict | None:
    """Boot, drive, stop and check one daemon; None if it never booted."""
    stream = RequestStream(seed, index)
    try:
        daemon = Daemon(workdir, tag, traced)
    except RuntimeError as exc:
        report.fail(f"daemon {tag}: {exc}")
        return None
    try:
        records, wall = drive(daemon.port, stream, seconds)
    finally:
        result = daemon.stop()
    out = classify(records)
    report.tally(len(records), len(out["failures"]),
                 "; ".join(out["failures"][:5]))
    checks = sample_check(out["first"], seed, index)
    report.tally(min(SAMPLE_CHECKS, len(out["first"])), len(checks),
                 "; ".join(checks))
    if result.returncode != 0:
        report.notes.append(f"daemon {tag} exited {result.returncode}: "
                            f"{result.stderr.strip()[-400:]}")
    out.update(setup_s=daemon.setup_s, rss=result.maxrss_mb, wall=wall,
               record=daemon.record() if traced else None)
    return out


def _ms(values: list[float], q: float) -> float | None:
    value = harness.tail_percentile(values, q)
    return None if value is None else value * 1e3


def run(seed: int, seconds: float, workdir: Path, trace: bool,
        pins: dict) -> harness.Report:
    del pins  # the service is checked against itself and the engine
    report = harness.Report()
    if trace:
        return _traced(report, seed, seconds, workdir)
    rounds = [r for r in (
        _round(report, workdir, seed, i, f"r{i}", seconds / ROUNDS,
               traced=False)
        for i in range(ROUNDS)) if r is not None]
    if not rounds:
        return report
    # Misses are the headline operation, hits the second one.
    for cls, metric in (("miss", "main_ms"), ("hit", "second_ms")):
        values = [x for r in rounds for x in r[cls]]
        for q in (50, 99):
            name = f"measure_{cls}_p{q}_ms"
            value = _ms(values, q)
            if value is None:
                report.notes.append(f"{name}: only {len(values)} samples")
                continue
            report.named(name, value, "ms", len(values))
            if q == 50:
                report.metric(metric, value, len(values))
    served = sum(r["ok"] for r in rounds)
    rps = served / sum(r["wall"] for r in rounds)
    report.named("measure_rps", rps, "1/s", served)
    report.metric("ops_per_s", rps, served)
    report.metric("setup_s",
                  harness.median([r["setup_s"] for r in rounds]),
                  len(rounds))
    report.metric("peak_rss_mb",
                  harness.median([r["rss"] for r in rounds]), len(rounds))
    return report


def _traced(report: harness.Report, seed: int, seconds: float,
            workdir: Path) -> harness.Report:
    """Pairs of rounds on the same stream, one against a traced daemon
    and one against a plain one."""
    pairs = 2
    samples, traced_lat, plain_lat = [], [], []
    for i in range(pairs):
        for on in ((True, False) if i % 2 == 0 else (False, True)):
            out = _round(report, workdir, seed, i, f"t{i}-{int(on)}",
                         seconds / (2 * pairs), traced=on)
            if out is None:
                continue
            latencies = out["hit"] + out["miss"]
            mean = sum(latencies) / len(latencies) if latencies else None
            (traced_lat if on else plain_lat).append(mean)
            if on:
                samples.append(service_layers(out))
    metrics = layers.median_of(samples)
    metrics["obs.trace_overhead_pct"] = layers.overhead_pct(traced_lat,
                                                            plain_lat)
    layers.fill(report, metrics, len(samples))
    return report


def service_layers(out: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round, including the HTTP share
    of a request: median client latency minus median submit time."""
    record = out["record"] or {}
    metrics = layers.common(record)
    submits = record.get("layers", {}).get("service.submit", {})
    for cls in ("hit", "miss"):
        durations = submits.get("by_tag", {}).get(cls, {}).get(
            "durations", [])
        if out[cls] and durations:
            metrics[f"service.daemon.http_ms.{cls}"] = (
                harness.median(out[cls])
                - harness.median(durations) / 1e9) * 1e3
    return metrics
