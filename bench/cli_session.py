"""cli-session: about 300 `plam` command lines through `cli.main`, JSON output.

Calls are grouped into per-term sessions (parse, then eval, trace, tree
and compare-tree at one fuel, then bisim/sim/appcmp against the next
corpus term), so `(term, fuel)` repeats across subcommands and the
global `_eval` cache earns hits. Around them: seeded assignment problems
(n <= 8, feasible and infeasible), `fixtures`, `proptest --cases 50`,
malformed terms (contract: exit 1), and over-cap flags and terms nested
2000+ deep (contract: exit 2). The deep terms raise `RecursionError`
today; that known defect (`known_defect`) is reported by the first pass
of a run and left out of later passes.

Checks: the exit code matches the class of each input; a refusal prints
nothing on stdout and a message on stderr; each JSON answer is checked
by exact arithmetic here (mass + deficit = 1, applicative verdicts
re-derived, assignment answers against a brute-force Hall check), and
`fixtures` and `proptest` report no failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import tempfile
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import plam
import plam.cli
from plam.gen import closed_corpus
from reference import applicative_verdict, digest

SESSIONS = 32
ASSIGN_PROBLEMS = 16
MALFORMED = 12
OVER_CAP = 8
DEEP = 6
POOL_SIZE = 5
MALFORMATIONS = (
    lambda t: t + " )",
    lambda t: "(" + t,
    lambda t: t + " $",
    lambda t: "\\." + t,
)


class Query:
    __slots__ = ("argv", "expect", "problem", "deep")

    def __init__(self, argv, expect, problem=None, deep=False):
        self.argv = [str(a) for a in argv] + ["--format", "json"]
        self.expect = expect  # exit code the contract gives this input
        self.problem = problem  # (demands, supplies) for assign
        self.deep = deep  # nested 2000+ deep


class CliSession:
    # Well above the slowest normal call (fixtures, about 30 ms).
    budget_s = 0.5

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self._dir = Path(tempfile.mkdtemp(prefix="cli-session-", dir=workdir))
        texts = [plam.pretty(t) for t in closed_corpus(seed, SESSIONS + 1, max_size=8)]
        groups = []
        for t, u in zip(texts, texts[1:]):
            fuel = rng.choice((4, 8))
            level = rng.choice((2, 3))
            groups.append([
                Query(["parse", t], 0),
                Query(["eval", t, "--fuel", fuel], 0),
                Query(["trace", t, "--steps", rng.choice((4, 6, 8)),
                       "--strategy", rng.choice(("head", "spine"))], 0),
                Query(["tree", t, "--level", level, "--fuel", fuel], 0),
                Query(["compare-tree", t, u, "--level", level, "--fuel", fuel], 0),
                Query(["bisim", t, u, "--depth", 4, "--fuel", 8], 0),
                Query(["sim", t, u, "--depth", 3, "--fuel", 8], 0),
                Query(["appcmp", t, u, "--maxlen", 2, "--fuel", 8], 0),
            ])
        for i in range(ASSIGN_PROBLEMS):
            demands, supplies = _assign_problem(rng, heavy=i % 2 == 1)
            path = self._dir / f"problem{i}.json"
            path.write_text(json.dumps({
                "p": [str(p) for p in demands],
                "r": {"{" + ",".join(map(str, sorted(s))) + "}": str(v) for s, v in supplies.items()},
            }))
            groups.append([Query(["assign", "--problem", path], 0, (demands, supplies))])
        for _ in range(MALFORMED):
            bad = rng.choice(MALFORMATIONS)(rng.choice(texts))
            cmd = rng.choice(("parse", "eval", "tree", "bisim"))
            argv = [cmd, bad, rng.choice(texts)] if cmd == "bisim" else [cmd, bad]
            groups.append([Query(argv, 1)])
        for _ in range(OVER_CAP):
            t, u = rng.choice(texts), rng.choice(texts)
            argv = rng.choice((
                ["eval", t, "--fuel", rng.randint(65, 128)],
                ["trace", t, "--steps", rng.randint(513, 1024)],
                ["tree", t, "--level", rng.randint(9, 16)],
                ["compare-tree", t, u, "--level", rng.randint(9, 16)],
                ["bisim", t, u, "--depth", rng.randint(17, 32)],
                ["sim", t, u, "--depth", rng.randint(17, 32)],
            ))
            groups.append([Query(argv, 2)])
        for _ in range(DEEP):
            k = rng.randint(2000, 2500)
            argv = rng.choice((
                ["parse", "\\x." * k + "x"],
                ["eval", "x (+) " * k + "x"],
                ["eval", "(\\x.x) (" * k + "y" + ")" * k],
            ))
            groups.append([Query(argv, 2, deep=True)])
        groups.append([Query(["fixtures"], 0)])
        groups.append([Query(["proptest", "--seed", rng.randrange(1000), "--cases", 50], 0)])
        rng.shuffle(groups)
        self.queries = [q for group in groups for q in group]

    def close(self):
        shutil.rmtree(self._dir, ignore_errors=True)

    def run(self, q: Query):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = plam.cli.main(q.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, out.getvalue(), err.getvalue()

    def known_defect(self, q: Query, status: str, detail: str):
        """The known defect a failed query shows, or None."""
        if q.deep and status == "exception" and detail.startswith("RecursionError"):
            return "deeply nested input raises RecursionError instead of exit 2"
        return None

    def check(self, q: Query, out):
        """Return (problem or "", digest, None)."""
        code, stdout, stderr = out
        dig = digest([f"{code}", stdout, stderr])
        if code != q.expect:
            return f"exit {code}, the contract says {q.expect}", dig, None
        if code:
            if stdout or not stderr.strip() or "Traceback" in stderr:
                return "a refusal must print only a message on stderr", dig, None
            return "", dig, None
        try:
            payload = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON", dig, None
        return _check_payload(q, payload), dig, None


def _assign_problem(rng, heavy: bool):
    n = rng.randint(2, 8)
    supplies = {}
    for _ in range(rng.randint(1, n + 2)):
        subset = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
        supplies[subset] = supplies.get(subset, Fraction(0)) + Fraction(rng.randint(1, 4), 8)
    supplies = {s: min(v, Fraction(1)) for s, v in supplies.items()}
    low, high = (3, 8) if heavy else (0, 3)
    demands = [Fraction(rng.randint(low, high), 8) for _ in range(n)]
    return demands, supplies


def _hall_violation(demands, supplies, chosen) -> bool:
    demand = sum((demands[i - 1] for i in chosen), Fraction(0))
    supply = sum((v for s, v in supplies.items() if s & chosen), Fraction(0))
    return demand > supply


def _feasible(demands, supplies) -> bool:
    n = len(demands)
    return not any(
        _hall_violation(demands, supplies, frozenset(c))
        for k in range(1, n + 1)
        for c in combinations(range(1, n + 1), k)
    )


def _check_assign(problem, payload) -> str:
    demands, supplies = problem
    feasible = _feasible(demands, supplies)
    if payload["feasible"] != feasible:
        return f"answered feasible={payload['feasible']}, Hall's condition says {feasible}"
    if not feasible:
        if not _hall_violation(demands, supplies, frozenset(payload["witness"])):
            return "the infeasibility witness does not violate Hall's condition"
        return ""
    shares = {}
    for e in payload["shares"]:
        subset, share = frozenset(e["subset"]), Fraction(e["share"])
        if e["item"] not in subset or not 0 <= share <= 1:
            return "a share lies outside its subset or outside [0, 1]"
        shares[(e["item"], subset)] = share
    for k in range(1, len(demands) + 1):
        got = sum((shares.get((k, s), 0) * v for s, v in supplies.items() if k in s), Fraction(0))
        if got < demands[k - 1]:
            return f"item {k} receives {got} < demand {demands[k - 1]}"
    for s in supplies:
        if sum((shares.get((k, s), 0) for k in s), Fraction(0)) > 1:
            return f"subset {sorted(s)} hands out more than all of its supply"
    return ""


def _mass(entries, key) -> Fraction:
    return sum((Fraction(e[key]) for e in entries), Fraction(0))


def _check_payload(q: Query, payload) -> str:
    cmd = q.argv[0]
    if cmd == "parse":
        return "" if payload["size"] >= 1 and payload["term"] else "empty parse answer"
    if cmd == "eval":
        mass, deficit = Fraction(payload["mass"]), Fraction(payload["deficit"])
        if mass + deficit != 1 or _mass(payload["support"], "prob") != mass:
            return "eval masses do not add up"
        return ""
    if cmd == "trace":
        table = payload["cumulative"]
        if _mass(table["support"], "prob") != Fraction(table["mass"]) or Fraction(table["mass"]) > 1:
            return "trace table masses do not add up"
        return ""
    if cmd == "tree":
        if _mass(payload["support"], "weight") + Fraction(payload["deficit"]) != 1:
            return "tree weights and deficit do not add up to 1"
        return ""
    if cmd == "compare-tree":
        return "" if payload["verdict"] in ("equal", "different", "unknown") else "unknown verdict"
    if cmd in ("bisim", "sim"):
        if payload["verdict"] == "distinguished" and payload["trace"]:
            return ""
        if payload["verdict"] == "inconclusive" and payload["trace"] is None:
            return ""
        return "game verdict and trace disagree"
    if cmd == "appcmp":
        seqs = payload["sequences"]
        if len(seqs) != 1 + POOL_SIZE + POOL_SIZE ** 2:
            return "wrong number of argument sequences"
        for s in seqs:
            left, right = s["left"], s["right"]
            verdict = applicative_verdict(
                Fraction(left["mass"]), left["exact"], Fraction(right["mass"]), right["exact"]
            )
            if s["verdict"] != verdict:
                return f"verdict {s['verdict']} but the masses give {verdict}"
        return ""
    if cmd == "assign":
        return _check_assign(q.problem, payload)
    if cmd == "fixtures":
        return "" if payload["failed"] == 0 else f"{payload['failed']} fixtures failed"
    if cmd == "proptest":
        return "" if not payload["failures"] else f"{len(payload['failures'])} property failures"
    return f"no check for {cmd}"
