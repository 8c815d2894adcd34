"""One benchmark worker: a fresh single-threaded process that sets up one
workload and then answers queries one at a time.

Protocol (JSON lines): the worker announces `{"setup_s", "queries",
"budget_s"}`; each request `{"query": i}` gets `{"i", "t", "status",
"detail", "known", "digest", "size", "ladder"}`, where `known` names the
known defect a failed query shows, if the workload declares one; the
request `{"end": true}` gets `{"calibration", "rss_mb", "trace"}`.
`calibration` lists the times of
the fixed loop in `calibration.py`, run at the start of the pass, between
queries every quarter second, and at the end; never inside a timed
query. Replies go to the original stdout; anything the program prints
lands on stderr.

Each query runs under a CPU-time budget (`ITIMER_PROF`) and the process
under an address-space ceiling (`RLIMIT_AS`), so a blow-up is stopped
and the pass goes on.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

import calibration

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MEMORY_CEILING = 2 << 30  # bytes of address space
CHECK_BUDGET_S = 30.0  # output checks replay work, so they get more room
TRACE_BUDGET_FACTOR = 5  # wrappers slow a traced query down
CALIBRATION_ROUNDS = 5  # loop runs at the start and at the end of a pass
CALIBRATION_EVERY_S = 0.25  # wall time between loop runs during a pass


class BudgetExceeded(BaseException):
    """Raised in the worker when a query spends its CPU-time budget.

    A BaseException, so that no `except Exception` in the program under
    test can swallow it.
    """


class Budget:
    """Runs a call under a CPU-time limit delivered as SIGPROF."""

    def __init__(self):
        self._armed = False
        signal.signal(signal.SIGPROF, self._expired)

    def _expired(self, signum, frame):
        # A signal already pending when the call returned must not escape.
        if self._armed:
            raise BudgetExceeded()

    def call(self, fn, seconds: float):
        self._armed = True
        signal.setitimer(signal.ITIMER_PROF, seconds)
        try:
            return fn()
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_PROF, 0)


def load_workload(name: str, seed: int):
    """Import plam from this checkout and build the workload's inputs."""
    sys.path.insert(0, str(ROOT / "src"))
    if name == "eval-families":
        from eval_families import EvalFamilies

        return EvalFamilies(seed)
    if name == "refute-corpus":
        from refute_corpus import RefuteCorpus

        return RefuteCorpus(seed)
    if name == "cli-session":
        from cli_session import CliSession

        workdir = ROOT / ".bench_build"
        workdir.mkdir(exist_ok=True)
        return CliSession(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


def run_query(workload, q, budget: Budget, tracer, budget_s: float) -> dict:
    status, detail, out = "ok", "", None
    if tracer is not None:
        tracer.begin()
    t0 = time.perf_counter()
    try:
        out = budget.call(lambda: workload.run(q), budget_s)
    except BudgetExceeded:
        status, detail = "budget", f"stopped after {budget_s} s of CPU time"
    except MemoryError:
        status, detail = "memory", "stopped at the address-space ceiling"
    except Exception as exc:  # an uncaught exception is a failed query
        status, detail = "exception", f"{type(exc).__name__}: {str(exc)[:160]}"
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.end()
    reply = {"t": elapsed, "status": status, "detail": detail, "known": None, "digest": None,
             "size": None, "ladder": getattr(q, "ladder", None)}
    if status != "ok":
        known_defect = getattr(workload, "known_defect", None)
        reply["known"] = known_defect(q, status, detail) if known_defect else None
    if status == "ok":
        try:
            problem, reply["digest"], reply["size"] = budget.call(
                lambda: workload.check(q, out), max(budget_s, CHECK_BUDGET_S)
            )
        except BudgetExceeded:
            problem = "the output check ran out of budget"
        except MemoryError:
            problem = "the output check hit the address-space ceiling"
        if problem:
            reply["status"], reply["detail"] = "check", problem
    return reply


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CEILING, MEMORY_CEILING))
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def send(msg: dict) -> None:
        proto.write(json.dumps(msg) + "\n")
        proto.flush()

    t0 = time.perf_counter()
    workload = load_workload(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    try:
        budget_s = workload.budget_s * (TRACE_BUDGET_FACTOR if args.trace else 1)
        send({"setup_s": setup_s, "queries": len(workload.queries), "budget_s": budget_s})
        if args.setup_only:
            return 0
        tracer = None
        if args.trace:
            from tracing import Tracer, install

            tracer = Tracer()
            install(tracer)
        budget = Budget()
        samples = [calibration.sample() for _ in range(CALIBRATION_ROUNDS)]
        last_sample = time.monotonic()
        for line in sys.stdin:
            msg = json.loads(line)
            if "query" not in msg:
                break
            i = msg["query"]
            send(dict(run_query(workload, workload.queries[i], budget, tracer, budget_s), i=i))
            if time.monotonic() - last_sample >= CALIBRATION_EVERY_S:
                samples.append(calibration.sample())
                last_sample = time.monotonic()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        samples += [calibration.sample() for _ in range(CALIBRATION_ROUNDS)]
        send({"calibration": samples, "rss_mb": rss_mb, "trace": tracer.snapshot() if tracer else None})
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
