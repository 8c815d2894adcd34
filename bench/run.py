"""plam benchmark: one workload, one seed, a closed loop with one client.

    python3 bench/run.py --workload eval-families --seed 1 --seconds 30 --trace 0

Each pass starts a fresh single-threaded worker (`worker.py`), which
imports plam from `src/` of this checkout and builds the seeded inputs;
this client then sends the queries one at a time and waits for each
answer. Passes repeat until the run's time is used (at least two passes
and 100 queries). Every pass sends the same queries, and their output
digests must be identical before any timing is reported. Timings are
reported at a reference machine speed (see `calibration.py`).

A query that fails in the first pass by a known defect of plam, as the
workload declares it (`known_defect`), is reported by name and left out
of the later passes and of every count and timing. A defect fixed shows
as that query rejoining the timed passes. If more than a small share of
a pass fails that way, nothing is left out and all of them count as
failed, so that a regression cannot hide behind a known defect.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs one untraced
and one traced pass and prints the per-layer metrics. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibration
from tracing import UNREACHABLE

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("eval-families", "refute-corpus", "cli-session")
MIN_PASSES = 2
MIN_SAMPLES = 100  # so that at least 10 samples lie beyond the p90
SETUP_SAMPLES = 5
# How strongly each workload's times follow the calibration loop's drift
# (1 if not listed). cli-session spends much of its time in C-implemented
# library code (argparse, re, json, io), which drifts about half as much
# as the pure-Python loop: over five runs, its p50 spread was 0.10 to 0.18
# fully scaled and 0.01 to 0.08 scaled by the square root.
DRIFT_EXPONENT = {"cli-session": 0.5}
MAX_KNOWN_SHARE = 0.05  # above this share of a pass, known defects count as failed
GROWTH_MIN_SIZE = 8  # smaller outputs time the fixed per-query cost, not growth
START_TIMEOUT_S = 60
HARD_STOP_S = 110
GRACE_S = 30
GROWTH_METRICS = {
    "eval_branch": "bigstep.eval_fuel.growth_exp",
    "eval_walk": "bigstep.eval_fuel.growth_exp_walk",
    "tower": "bigstep.eval_fuel.growth_exp_tower",
    "step_head": "smallstep.step_n.growth_exp_head",
    "step_spine": "smallstep.step_n.growth_exp_spine",
    "prob_tree": "trees.prob_tree.growth_exp",
}


class WorkerLost(Exception):
    pass


class Worker:
    """A worker process and a reader thread that queues its reply lines."""

    def __init__(self, workload: str, seed: int, trace: bool = False, setup_only: bool = False):
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload, "--seed", str(seed)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        # A fixed hash seed keeps set iteration order, and so outputs, equal across passes.
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT
        )
        self._lines = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self.hello = self.recv(START_TIMEOUT_S)
        except WorkerLost:
            self.stop()
            raise

    def _read(self):
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def recv(self, timeout: float) -> dict:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise WorkerLost(f"no answer within {timeout:.0f} s") from None
        if line is None:
            raise WorkerLost(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def request(self, msg: dict, timeout: float) -> dict:
        try:
            self.proc.stdin.write(json.dumps(msg) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise WorkerLost("worker closed its input") from None
        return self.recv(timeout)

    def finish(self, timeout: float) -> dict:
        try:
            return self.request({"end": True}, timeout)
        finally:
            self.stop()

    def stop(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (BrokenPipeError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)


class Pass:
    """The answers of one pass over the workload's queries."""

    def __init__(self):
        self.setups = []
        self.calibrations = []  # loop times measured by the pass's workers
        self.results = []
        self.known = []  # results set aside as known defects
        self.rss_mb = []
        self.trace = None
        self.wall = 0.0


def run_pass(workload: str, seed: int, trace: bool, hard_stop: float, skip=frozenset()) -> Pass:
    p = Pass()
    t0 = time.monotonic()
    worker = Worker(workload, seed, trace)
    p.setups.append(worker.hello["setup_s"])
    count = worker.hello["queries"]
    try:
        for i in range(count):
            if i in skip:
                continue
            now = time.monotonic()
            if now > hard_stop:
                break
            # The worker stops a query at its CPU budget; this wall limit
            # only catches a worker that no longer answers at all.
            wall_limit = hard_stop - now + GRACE_S
            try:
                p.results.append(worker.request({"query": i}, wall_limit))
            except WorkerLost as exc:
                worker.stop()
                p.results.append({"i": i, "t": time.monotonic() - now, "status": "lost", "detail": str(exc),
                                  "known": None, "digest": None, "size": None, "ladder": None})
                worker = Worker(workload, seed, trace)
                p.setups.append(worker.hello["setup_s"])
        final = worker.finish(GRACE_S)
        p.calibrations.extend(final["calibration"])
        p.rss_mb.append(final["rss_mb"])
        p.trace = final["trace"]
    finally:
        worker.stop()
    p.wall = time.monotonic() - t0
    return p


def set_aside_known(p: Pass) -> frozenset:
    """Move the first pass's known-defect failures out of its results.

    Returns the query indices that later passes leave out.
    """
    known = [r for r in p.results if r["known"]]
    if len(known) > MAX_KNOWN_SHARE * (len(p.results) or 1):
        return frozenset()
    p.known = known
    p.results = [r for r in p.results if not r["known"]]
    return frozenset(r["i"] for r in known)


def known_notes(p: Pass) -> list:
    lines = [f"known defects, shown by the first pass and left out of the counts: {len(p.known)} queries"]
    return lines + [f"known defect, query {r['i']}: {r['known']} ({r['status']}: {r['detail']})" for r in p.known]


def nondeterminism(passes) -> str:
    """The first query whose output digest differs between passes, if any."""
    seen = {}
    for p in passes:
        for r in p.results:
            if r["digest"] is None:
                continue
            first = seen.setdefault(r["i"], r["digest"])
            if first != r["digest"]:
                return f"query {r['i']}: output digest {r['digest']} differs from {first}"
    return ""


def growth_exponents(passes) -> dict:
    """Least-squares slope of log time against log output size, per ladder."""
    rungs = {}
    for p in passes:
        for r in p.results:
            if r["ladder"] and r["status"] == "ok" and r["size"] >= GROWTH_MIN_SIZE:
                rungs.setdefault((r["ladder"], r["i"]), []).append((r["size"], r["t"]))
    points = {}
    for (ladder, _), samples in rungs.items():
        size = samples[0][0]
        points.setdefault(ladder, []).append((math.log(size), math.log(statistics.median(t for _, t in samples))))
    out = {}
    for ladder, pts in points.items():
        xs, ys = [x for x, _ in pts], [y for _, y in pts]
        if len(pts) >= 2 and max(xs) > min(xs):
            mx, my = statistics.fmean(xs), statistics.fmean(ys)
            slope = sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x in xs)
            out[ladder] = (slope, len(pts))
    return out


def budget_stops(results) -> int:
    return sum(r["status"] == "budget" for r in results)


def summarize(passes, scale: float = 1.0) -> dict:
    """Counts and timings of the passes, with times multiplied by `scale`."""
    results = [r for p in passes for r in p.results]
    times = [r["t"] * scale for r in results]
    completed = sum(r["status"] == "ok" for r in results)
    return {
        "attempted": len(results),
        "failed": len(results) - completed,
        "completed": completed,
        "busy_s": sum(times),
        "times": times,
        "budget_stops": budget_stops(results),
        "wrong": [r for r in results if r["status"] == "check"],
        "failures": [r for r in results if r["status"] != "ok"],
    }


def end_to_end(workload: str, seed: int, seconds: int, start: float, hard_stop: float):
    passes, skip = [], frozenset()
    while True:
        p = run_pass(workload, seed, False, hard_stop, skip)
        if not passes:
            skip = set_aside_known(p)
        passes.append(p)
        now = time.monotonic()
        samples = sum(len(q.results) for q in passes)
        if now >= hard_stop:
            break
        # Start another pass only if at least half of it fits in the run.
        if len(passes) >= MIN_PASSES and samples >= MIN_SAMPLES and now - start + p.wall / 2 > seconds:
            break
    setups = [s for p in passes for s in p.setups]
    while len(setups) < SETUP_SAMPLES:
        probe = Worker(workload, seed, setup_only=True)
        probe.stop()
        setups.append(probe.hello["setup_s"])
    # One factor per run: single loop samples are as noisy as short
    # queries, while the median over the run follows the slow drift.
    exponent = DRIFT_EXPONENT.get(workload, 1.0)
    run_scale = calibration.scale([c for p in passes for c in p.calibrations], exponent)
    s = summarize(passes, run_scale)
    ms = [t * 1000 for t in s["times"]]
    raw_ms = [r["t"] * 1000 for p in passes for r in p.results]
    metrics = {
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
        "throughput_qps": (s["completed"] / s["busy_s"], "1/s"),
        "setup_s": (statistics.median(setups) * run_scale, "s"),
        # The first pass also holds the known defects, whose memory is not the workload's.
        "peak_rss_mb": (statistics.median(r for p in passes[1:] for r in p.rss_mb), "MB"),
    }
    notes = [
        f"passes: {len(passes)}; latency samples: {len(ms)}; setup samples: {len(setups)}",
        f"error_rate: {s['failed'] / s['attempted']:.6f} ratio ({s['failed']} of {s['attempted']})",
        f"budget_stops: {s['budget_stops']} count, and {budget_stops(passes[0].known)} among the known defects",
        f"timings above are at reference speed; calibration loop time / reference: "
        f"{run_scale ** (-1 / exponent):.3f}, drift exponent {exponent}",
        f"raw wall clock: latency_p50_ms {statistics.median(raw_ms):.4g}, latency_p90_ms "
        f"{statistics.quantiles(raw_ms, n=10, method='inclusive')[8]:.4g}, throughput_qps "
        f"{s['completed'] / sum(raw_ms) * 1000:.4g}",
    ]
    notes += known_notes(passes[0])
    notes += [f"growth {ladder}: exponent {e:.3f} over {n} rungs" for ladder, (e, n) in sorted(growth_exponents(passes).items())]
    return passes, s, metrics, notes


def per_layer(workload: str, seed: int, hard_stop: float):
    plain = run_pass(workload, seed, False, hard_stop)
    traced = run_pass(workload, seed, True, hard_stop, set_aside_known(plain))
    passes = [plain, traced]
    s = summarize(passes)
    tr = traced.trace
    calls, self_s, counts = tr["calls"], tr["self_s"], tr["counts"]
    # Over the queries that completed in both passes, so that budget stops
    # (whose length is the budget, not the work) do not enter the ratio.
    both = {r["i"] for r in plain.results if r["status"] == "ok"}
    both &= {r["i"] for r in traced.results if r["status"] == "ok"}
    busy_plain = sum(r["t"] for r in plain.results if r["i"] in both)
    busy_traced = sum(r["t"] for r in traced.results if r["i"] in both)

    def ratio(num, den):
        return num / den if den else 0.0

    refutes = calls.get("equiv.refute_bisim", 0) + calls.get("equiv.refute_sim", 0)
    metrics = {}
    for span in ("syntax.parse", "syntax.substitute", "syntax.classify", "bigstep.eval_fuel",
                 "smallstep.converge", "trees.prob_tree", "equiv.transitions", "assign.assignment_solve"):
        metrics[f"{span}.calls"] = (calls.get(span, 0), "count")
    for span in ("syntax.parse", "syntax.pretty", "syntax.substitute", "syntax.classify", "prob.Distr",
                 "bigstep.eval_fuel", "smallstep.step_n", "smallstep.converge", "trees.prob_tree",
                 "trees.tree_eq", "equiv.transitions", "equiv.refute_bisim", "equiv.refute_sim",
                 "equiv.applicative_compare", "assign.assignment_solve", "cli.main"):
        metrics[f"{span}.self_s"] = (self_s.get(span, 0.0), "s")
    for key in ("syntax.nodes_built", "prob.distr_built", "prob.distr_pairs_in", "prob.dyadic_ops",
                "smallstep.cap_hits"):
        metrics[key] = (counts.get(key, 0), "count")
    metrics["smallstep.converge.exact_ratio"] = (
        ratio(counts.get("smallstep.converge.exact", 0), calls.get("smallstep.converge", 0)), "ratio")
    metrics["equiv.certified_ratio"] = (ratio(counts.get("equiv.certified", 0), refutes), "ratio")
    growth = growth_exponents([plain])
    for ladder, name in GROWTH_METRICS.items():
        metrics[name] = (growth.get(ladder, (0.0, 0))[0], "exponent")
    metrics["budget_stops"] = (summarize([plain])["budget_stops"] + budget_stops(plain.known), "count")
    metrics["trace.overhead_ratio"] = (ratio(busy_traced, busy_plain), "ratio")

    notes = [
        f"untraced and traced pass: {len(plain.results)} and {len(traced.results)} queries",
        "growth exponents come from the untraced pass; 0 where the workload has no ladder",
        f"not measured: {UNREACHABLE}",
        "absent from this version of plam: " + (", ".join(tr["absent"]) or "none"),
        "budget_stops counts the known defects' budget stops too",
        *known_notes(plain),
        "all spans (calls, self s): " + ", ".join(
            f"{k} {calls.get(k, 0)} {v:.4f}" for k, v in sorted(self_s.items())),
    ]
    return passes, s, metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one plam benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "plam" / "__init__.py").is_file():
        print(f"error: no plam sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    start = time.monotonic()
    # No query starts after this; with the grace below the run ends within 180 s.
    hard_stop = start + min(HARD_STOP_S, max(3 * args.seconds, args.seconds + 60))
    if args.trace:
        passes, s, metrics, notes = per_layer(args.workload, args.seed, hard_stop)
    else:
        passes, s, metrics, notes = end_to_end(args.workload, args.seed, args.seconds, start, hard_stop)
    drift = nondeterminism(passes)
    if drift:
        print(f"error: outputs differ between passes, no timing reported ({drift})", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{s['attempted']} queries, {s['failed']} failed, {len(s['wrong'])} wrong outputs")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:>14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    failing = {}
    for r in s["failures"]:
        key = (r["i"], r["status"], r["detail"])
        failing[key] = failing.get(key, 0) + 1
    for (i, status, detail), times in sorted(failing.items())[:30]:
        print(f"  failed query {i} ({times}x): {status}: {detail}")
    result = {
        "correct": not s["wrong"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
