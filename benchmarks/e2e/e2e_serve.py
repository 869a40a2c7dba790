"""Serve workloads of the end-to-end benchmark: serve-hot and serve-churn.

Each workload launches a real ``python -m repro serve --port 0`` process
group and drives it over one TCP connection with the JSON-lines protocol.
The load generator is this one process with two threads: the main
thread sends, a reader thread stamps every reply.  serve-hot sends its
selects back to back (a closed loop, one client); serve-churn sends on a
seeded open-loop schedule, and a request's latency runs from the time it
was *due*, so a stall also charges the requests queued behind it.
Everything is measured from outside: the wire, the ``stats`` op and
``/proc``.

Served processes are not pinned: a server's threads overlap on two
cores whenever numpy releases the interpreter lock, and pinning would
take that away.  ``run.py`` probes the speed of both cores instead.
The record carries the raw monotonic spans of set-up, latency and
throughput samples; ``run.py`` scales them by the speed measured
around each one.

Run through ``run.py``; ``--regen`` rewrites ``expected/serve-*.json``.
"""

from __future__ import annotations

import argparse
import json
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import e2e_harness as h

#: Seconds a select may take before it counts as failed.
REQUEST_TIMEOUT = 90.0
#: Seconds a refresh, stats or shutdown op may take.
CONTROL_TIMEOUT = 120.0
#: Seconds the server gets to print its banner.
LAUNCH_TIMEOUT = 150.0


class Client:
    """One protocol connection; a reader thread stamps every reply."""

    def __init__(self, port: int) -> None:
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=30.0)
        self._sock.settimeout(None)
        self._reader = self._sock.makefile("r", encoding="utf-8")
        self._replies: Dict[str, tuple] = {}
        self._cond = threading.Condition()
        self._closed = False
        self._thread = threading.Thread(target=self._read, name="e2e-reader", daemon=True)
        self._thread.start()

    def _read(self) -> None:
        try:
            for line in self._reader:
                now = time.perf_counter()
                try:
                    message = json.loads(line)
                except ValueError:
                    continue
                event = message.get("event")
                if event in ("accepted", "progress"):
                    continue
                key = "__shutdown__" if event == "shutting_down" else str(message.get("id"))
                with self._cond:
                    self._replies[key] = (now, message)
                    self._cond.notify_all()
        except (OSError, ValueError):
            pass
        finally:
            with self._cond:
                self._closed = True
                self._cond.notify_all()

    def send(self, payload: Dict[str, object]) -> float:
        self._sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
        return time.perf_counter()

    def wait(self, keys: Sequence[str], timeout: float) -> Dict[str, tuple]:
        """Replies ``(received, message)`` for ``keys`` that came in time."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                missing = [key for key in keys if key not in self._replies]
                remaining = deadline - time.monotonic()
                if not missing or self._closed or remaining <= 0:
                    return {key: self._replies[key] for key in keys if key in self._replies}
                self._cond.wait(timeout=min(remaining, 1.0))

    def call(self, payload: Dict[str, object], key: str, timeout: float = CONTROL_TIMEOUT):
        """Send one control op and wait for its reply: (sent, received, message)."""
        sent = self.send(payload)
        reply = self.wait([key], timeout).get(key)
        if reply is None:
            raise RuntimeError(f"no reply to {payload.get('op')!r} within {timeout:.0f}s")
        return sent, reply[0], reply[1]

    def close(self) -> None:
        for closer in (self._reader.close, self._sock.close):
            try:
                closer()
            except OSError:
                pass
        self._thread.join(timeout=5.0)


class Tier:
    """A launched serve process group: banner, pids and teardown."""

    def __init__(self, argv: List[str], env: Dict[str, str], log_path: Path) -> None:
        self._log = open(log_path, "w", encoding="utf-8")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._log, env=env, text=True,
            cwd=str(h.REPO_ROOT), start_new_session=True,
        )
        self.pids = [self.proc.pid]
        line = self._read_banner()
        self.setup_span = [started, time.perf_counter()]
        if not line:
            self.stop()
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise RuntimeError(f"serve exited before its banner:\n{tail}")
        self.banner = json.loads(line)
        self.port = int(self.banner["port"])
        self.pids += [int(worker["pid"]) for worker in self.banner.get("workers") or []]

    def _read_banner(self) -> str:
        holder: List[str] = []
        reader = threading.Thread(
            target=lambda: holder.append(self.proc.stdout.readline()), daemon=True
        )
        reader.start()
        reader.join(timeout=LAUNCH_TIMEOUT)
        return holder[0] if holder else ""

    def cpu_seconds(self) -> float:
        return sum(h.proc_cpu_seconds(pid) or 0.0 for pid in self.pids)

    def peak_rss_mb(self) -> float:
        return sum(h.proc_peak_rss_mb(pid) or 0.0 for pid in self.pids)

    def stop(self) -> List[int]:
        """SIGTERM the group; return members that had to be SIGKILLed."""
        try:
            return h.stop_group(self.proc)
        finally:
            self._log.close()
            if self.proc.stdout is not None:
                self.proc.stdout.close()


# --------------------------------------------------------------------------- #
# measurement helpers
# --------------------------------------------------------------------------- #
class Run:
    """Counters, samples and errors of one workload run."""

    def __init__(self, expected: Dict[str, str]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        # Monotonic spans of the gated samples (see h.end_to_end_metrics).
        self.timings: Dict[str, list] = {"setup": [], "latency": [], "throughput": []}
        self.requests: List[tuple] = []  # (target, due, received) of paced selects
        self.refresh_ms: List[float] = []  # every refresh's round trip, in order
        self.notify_waits: List[float] = []
        self.late: List[float] = []
        self.costs: List[float] = []
        self.layers: Dict[str, float] = {}
        self.mismatches: List[dict] = []  # full payloads of wrong answers

    def error(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, keys: Sequence[str], message: Dict[str, object]) -> None:
        """The payload must match the expected answer under one of ``keys``."""
        digest = h.payload_digest(message)
        known = [self.expected[key] for key in keys if key in self.expected]
        if not known:
            self.error(f"no expected answer for {keys[0]}; run run.py --regen-expected")
        elif digest not in known:
            self.error(f"answer mismatch for {' or '.join(keys)}: {json.dumps(message)[:300]}")
            if len(self.mismatches) < 5:
                self.mismatches.append({"keys": list(keys), "payload": message})

    def settle(self, client: Client, sent: Dict[str, dict]) -> Dict[str, tuple]:
        """Wait for the ``sent`` selects; count failures; return the results."""
        replies = client.wait(list(sent), REQUEST_TIMEOUT)
        results = {}
        for key in sent:
            reply = replies.get(key)
            if reply is None:
                self.failed += 1
                self.error(f"{key}: no terminal event within {REQUEST_TIMEOUT:.0f}s")
            elif reply[1].get("event") != "result":
                self.failed += 1
                self.error(f"{key}: {json.dumps(reply[1])[:300]}")
            else:
                results[key] = reply
        return results

    def await_refresh(self, client: Client, ordinal: int, sent: float) -> tuple:
        """Wait for refresh ``ordinal``; return (sent, received or inf)."""
        key = f"refresh-{ordinal}"
        reply = client.wait([key], CONTROL_TIMEOUT).get(key)
        if reply is None or reply[1].get("event") != "refreshed":
            self.failed += 1
            self.error(f"{key}: {json.dumps(reply[1])[:300] if reply else 'no reply'}")
            return sent, float("inf")
        return sent, reply[0]


def _scheduler_totals(stats: Dict[str, object]) -> Dict[str, float]:
    """Scheduler counters of one ``stats`` reply, summed over workers."""
    if "workers" in stats:
        schedulers = [(s or {}).get("scheduler") for s in stats["workers"].values()]
    else:
        schedulers = [stats.get("scheduler")]
    totals: Dict[str, float] = {}
    for sched in schedulers:
        if not sched:
            continue
        flat = {
            "completed": sched.get("completed", 0),
            "rounds": sched.get("rounds", 0),
            "arms_pruned": sched.get("arms_pruned", 0),
        }
        for key in ("hits", "misses", "epochs_trained", "epochs_reused"):
            flat[f"pool.{key}"] = (sched.get("session_pool") or {}).get(key, 0)
        for key in ("fused_epochs", "serial_epochs", "probe_epochs"):
            flat[f"train.{key}"] = (sched.get("train") or {}).get(key, 0)
        for key, value in flat.items():
            totals[key] = totals.get(key, 0) + float(value)
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def scheduler_metrics(before: Dict[str, object], after: Dict[str, object]) -> Dict[str, float]:
    """Per-layer scheduler metrics: deltas of two ``stats`` replies."""
    a, b = _scheduler_totals(before), _scheduler_totals(after)
    d = {key: b.get(key, 0.0) - a.get(key, 0.0) for key in b}
    hits, misses = d.get("pool.hits", 0.0), d.get("pool.misses", 0.0)
    trained, reused = d.get("pool.epochs_trained", 0.0), d.get("pool.epochs_reused", 0.0)
    fused, serial = d.get("train.fused_epochs", 0.0), d.get("train.serial_epochs", 0.0)
    return {
        "sched.pool.hit_ratio": _ratio(hits, hits + misses),
        "sched.pool.reuse_ratio": _ratio(reused, reused + trained),
        "sched.rounds_per_req": _ratio(d.get("rounds", 0.0), d.get("completed", 0.0)),
        "sched.train.fused_share": _ratio(fused, fused + serial),
        "sched.train.probe_epochs": d.get("train.probe_epochs", 0.0),
        "sched.arms_pruned": d.get("arms_pruned", 0.0),
    }


def _select(request_id: str, target: str, *, top_k=None, speculative=False) -> Dict[str, object]:
    payload: Dict[str, object] = {"op": "select", "id": request_id, "target": target}
    if top_k is not None:
        payload["top_k"] = top_k
    if speculative:
        payload["extrapolate"] = True
    else:
        payload["exact"] = True
    return payload


def _open_loop(
    client: Client, run: Run, prefix: str, events: Sequence[dict], make_payload
) -> Dict[str, dict]:
    """Send ``events`` on their schedule; return {key: event + stamps}."""
    sent: Dict[str, dict] = {}
    origin = time.perf_counter() + 0.05
    for index, event in enumerate(events):
        due = origin + event["at"]
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        key = f"{prefix}{index}"
        stamp = client.send(make_payload(key, event))
        run.late.append(max(0.0, stamp - due))
        run.attempted += 1
        sent[key] = dict(event, due=due, sent=stamp)
    return sent


def _record_requests(run: Run, sent: Dict[str, dict], results: Dict[str, tuple]) -> None:
    """Paced selects: due and reply times, notify waits and costs."""
    for key, (received, message) in results.items():
        request = sent[key]
        run.requests.append((request["target"], request["due"], received))
        server = message.get("latency_seconds")
        if isinstance(server, (int, float)):
            run.notify_waits.append((received - request["sent"]) - server)
        run.costs.append(float(message.get("total_cost", 0.0)))


def _closed_loop(client: Client, run: Run, prefix: str, targets: Sequence[str]) -> None:
    """serve-hot's selects, each sent when the previous one has answered."""
    for index, target in enumerate(targets):
        key = f"{prefix}{index}"
        stamp = client.send(_select(key, target))
        run.attempted += 1
        sent = {key: {"target": target, "due": stamp, "sent": stamp}}
        results = run.settle(client, sent)
        _record_requests(run, sent, results)
        for received, message in results.values():
            run.timings["latency"].append([stamp, received])
            run.check([h.answer_key(0, target, None, False)], message)


def _burst(client: Client, run: Run, requests: Sequence[tuple], check, *, latency: bool) -> None:
    """Send ``(key, payload)`` pairs back to back; one throughput sample.

    With ``latency`` each request's send-to-reply time is a latency sample.
    """
    sent = {}
    started = time.perf_counter()
    for key, payload in requests:
        sent[key] = client.send(payload)
        run.attempted += 1
    results = run.settle(client, sent)
    for key, (received, message) in results.items():
        check(key, message)
        if latency:
            run.timings["latency"].append([sent[key], received])
    if results:
        finished = max(received for received, _ in results.values())
        run.timings["throughput"].append({"count": len(results), "spans": [[started, finished]]})


def _load_expected(name: str) -> Dict[str, object]:
    path = h.EXPECTED_DIR / f"{name}.json"
    if not path.exists():
        raise RuntimeError(f"missing {path}; run run.py --regen-expected")
    return json.loads(path.read_text(encoding="utf-8"))


def _serve_argv(*extra: str) -> List[str]:
    return [sys.executable, "-m", "repro", "serve", "--modality", "nlp", "--port", "0", *extra]


def _stats(client: Client, key: str) -> Dict[str, object]:
    return client.call({"op": "stats", "id": key}, key)[2]["stats"]


def _teardown(run: Run, client: Client, tier: Tier) -> None:
    """Shutdown op, then SIGTERM the group; no serve process may survive."""
    try:
        client.call({"op": "shutdown", "id": "bye"}, "__shutdown__", timeout=30.0)
    except RuntimeError as error:
        run.error(f"shutdown: {error}")
    client.close()
    killed = tier.stop()
    if killed:
        run.error(f"serve processes survived SIGTERM and were killed: {killed}")


# --------------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------------- #
def serve_hot(run: Run, tier_env: Dict[str, str], seed: int, seconds: float, work: Path):
    """Every session is already pooled: recall, plan completion and the wire."""
    schedule = h.serve_hot_schedule(seed, seconds)
    tier = Tier(_serve_argv(), tier_env, work / "serve.log")
    run.timings["setup"].append(tier.setup_span)
    client = Client(tier.port)
    try:
        warm = {f"w{i}": task for i, task in enumerate(h.NLP_TASKS)}
        for key, task in warm.items():
            client.send(_select(key, task))
        for key, (_, message) in run.settle(client, warm).items():
            run.check([h.answer_key(0, warm[key], None, False)], message)
        if run.failed:
            run.error(f"{run.failed} warm-up requests failed")
            run.failed = 0

        before = _stats(client, "stats-start")
        cpu_before = tier.cpu_seconds()
        for cycle, segment in enumerate(schedule["segments"]):
            _closed_loop(client, run, f"q{cycle}-", segment["closed"])
            order = segment["burst"]
            requests = [(f"b{cycle}-{i}", _select(f"b{cycle}-{i}", task))
                        for i, task in enumerate(order)]
            _burst(client, run, requests, lambda key, message, order=order: run.check(
                [h.answer_key(0, order[int(key.split("-")[1])], None, False)], message),
                latency=False)
        run.layers.update(scheduler_metrics(before, _stats(client, "stats-end")))
        run.layers["proc.cpu_s"] = tier.cpu_seconds() - cpu_before
        peak = tier.peak_rss_mb()
    finally:
        _teardown(run, client, tier)
    return tier, peak


def serve_churn(run: Run, tier_env: Dict[str, str], seed: int, seconds: float, work: Path):
    """Refreshes beside the reads: cold selects on two routed workers."""
    document = _load_expected("serve-churn")
    held_out = document["held_out"]
    schedule = h.serve_churn_schedule(seed, seconds)
    argv = _serve_argv("--num-models", str(document["num_models"]), "--workers", "2",
                       "--store-dir", str(work / "store"))
    tier = Tier(argv, tier_env, work / "serve.log")
    run.timings["setup"].append(tier.setup_span)
    client = Client(tier.port)
    try:
        before = _stats(client, "stats-start")
        cpu_before = tier.cpu_seconds()
        applied: List[tuple] = []  # (sent, received) of each refresh, in order
        for cycle, segment in enumerate(schedule["segments"]):
            events = sorted(
                [dict(request, kind="select") for request in segment["open"]]
                + [{"at": segment["refresh_at"], "kind": "refresh"}],
                key=lambda event: event["at"],
            )
            midpoint = len(applied) + 1

            def payload_for(key: str, event: dict, midpoint=midpoint) -> Dict[str, object]:
                if event["kind"] == "refresh":
                    return {"op": "refresh", "id": f"refresh-{midpoint}",
                            **h.churn_refresh(midpoint, held_out)}
                return _select(key, event["target"], top_k=event["top_k"],
                               speculative=event["speculative"])

            sent = _open_loop(client, run, f"o{cycle}-", events, payload_for)
            selects = {key: event for key, event in sent.items() if event["kind"] == "select"}
            results = run.settle(client, selects)
            refresh_sent = next(e["sent"] for e in sent.values() if e["kind"] == "refresh")
            applied.append(run.await_refresh(client, midpoint, refresh_sent))
            _record_requests(run, sent, results)
            for key, (_, message) in results.items():
                request = sent[key]
                # Admitted under the version served when it was sent, or
                # under a refresh sent before it that had not answered yet.
                low = sum(1 for _, received in applied if received < request["sent"])
                high = sum(1 for sent_at, _ in applied if sent_at <= request["sent"])
                run.check([
                    h.answer_key(o, request["target"], request["top_k"], request["speculative"])
                    for o in range(low, high + 1)
                ], message)

            ordinal = len(applied) + 1
            refresh_sent = client.send({"op": "refresh", "id": f"refresh-{ordinal}",
                                        **h.churn_refresh(ordinal, held_out)})
            run.attempted += 1
            applied.append(run.await_refresh(client, ordinal, refresh_sent))
            burst = segment["burst"]
            requests = [(f"c{cycle}-{i}", _select(f"c{cycle}-{i}", task, top_k=top_k))
                        for i, (task, top_k) in enumerate(burst)]
            _burst(client, run, requests, lambda key, message, burst=burst, ordinal=ordinal:
                   run.check([h.answer_key(ordinal, *burst[int(key.split("-")[1])], False)],
                             message), latency=True)
        run.layers.update(scheduler_metrics(before, _stats(client, "stats-end")))
        run.layers["proc.cpu_s"] = tier.cpu_seconds() - cpu_before
        peak = tier.peak_rss_mb()
        run.refresh_ms = [(received - sent) * 1000.0 for sent, received in applied
                          if received != float("inf")]
    finally:
        _teardown(run, client, tier)
    return tier, peak


def _record(run: Run, tier: Tier, peak_rss_mb: float) -> Dict[str, object]:
    """Workload record: raw timed spans, per-layer metrics, errors.

    ``timings`` holds what ``run.py`` scales into the time metrics:
    serve-hot's latency samples are its closed-loop selects and its
    throughput samples its bursts.  serve-churn's latency and throughput
    samples are the cold bursts sent right after a refresh: the same 28
    cold selects at the same zoo versions for every seed.  Its open-loop
    selects mix pool hits, cold selects and requests queued behind a
    refresh (their p50 ranged 440-870 ms over six seeds), and its
    refreshes took 0.5-1.2 s depending on the traffic before them, so
    both feed only the record and the per-layer numbers.
    """
    metrics: Dict[str, dict] = {}

    def put(name: str, value: float, unit: str, samples: int) -> None:
        metrics[name] = {"value": value, "unit": unit, "samples": samples}

    put("peak_rss_mb", peak_rss_mb, "MB", len(tier.pids))
    if run.notify_waits:
        put("serving.notify_wait_ms_p50", h.percentile(run.notify_waits, 50) * 1000.0,
            "ms", len(run.notify_waits))
    if run.late:
        put("loadgen.late_ms_p99", h.percentile(run.late, 99) * 1000.0, "ms", len(run.late))
    if run.costs:
        put("result.cost_epochs_per_op", statistics.fmean(run.costs), "epochs", len(run.costs))
    for name, value in run.layers.items():
        put(name, value, h.PER_LAYER[name][0], 1)
    return {
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "metrics": metrics,
        "timings": run.timings,
        "raw": {"requests": run.requests, "refresh_ms": run.refresh_ms},
        "mismatches": run.mismatches,
    }


# --------------------------------------------------------------------------- #
# expected answers
# --------------------------------------------------------------------------- #
def regen_expected() -> None:
    """Write ``expected/serve-*.json`` from an in-process SelectionService.

    The answers cover every (zoo ordinal, target, top_k, mode) a schedule
    of any seed can send, so one file serves all seeds.
    """
    from repro.service import SelectionService
    from repro.serving import result_payload
    from repro.zoo.catalog import nlp_catalog

    def answer(service, target, top_k, speculative):
        handle = service.submit(target, top_k=top_k, extrapolate=bool(speculative))
        return h.payload_digest(result_payload(service.result(handle)))

    service = SelectionService.from_modality("nlp")
    hot = {h.answer_key(0, task, None, False): answer(service, task, None, False)
           for task in h.NLP_TASKS}
    service.close()
    _write_expected("serve-hot", {"num_models": 40, "answers": hot})

    base = 32
    held_out = [entry.name for entry in nlp_catalog()][base:]
    service = SelectionService.from_modality("nlp", num_models=base)
    churn: Dict[str, str] = {}
    for ordinal in range(h.CHURN_REFRESHES + 1):
        if ordinal:
            service.refresh(**h.churn_refresh(ordinal, held_out))
        for task in h.NLP_TASKS:
            for top_k in h.CHURN_TOP_K:
                for speculative in (False, True):
                    churn[h.answer_key(ordinal, task, top_k, speculative)] = answer(
                        service, task, top_k, speculative)
        print(f"  serve-churn: zoo ordinal {ordinal} done", file=sys.stderr)
    service.close()
    _write_expected("serve-churn", {"num_models": base, "held_out": held_out, "answers": churn})


def _write_expected(name: str, document: Dict[str, object]) -> None:
    h.EXPECTED_DIR.mkdir(parents=True, exist_ok=True)
    path = h.EXPECTED_DIR / f"{name}.json"
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"  wrote {path.relative_to(h.REPO_ROOT)}", file=sys.stderr)


WORKLOADS = {"serve-hot": serve_hot, "serve-churn": serve_churn}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--work-dir")
    parser.add_argument("--trace-dir", default=None, help="trace the served processes")
    parser.add_argument("--record", help="write the record here")
    parser.add_argument("--regen", action="store_true", help="rewrite expected/serve-*.json")
    args = parser.parse_args(argv)
    if args.regen:
        regen_expected()
        return 0
    if None in (args.workload, args.seed, args.seconds, args.work_dir, args.record):
        parser.error("--workload, --seed, --seconds, --work-dir and --record are required")
    work = Path(args.work_dir)
    env = h.child_env(work, trace_dir=Path(args.trace_dir) if args.trace_dir else None)
    run = Run(_load_expected(args.workload)["answers"])
    tier, peak = WORKLOADS[args.workload](run, env, args.seed, args.seconds, work)
    record = _record(run, tier, peak)
    Path(args.record).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
