"""Command-line front-end.

Exit codes: 0 on success (any verdict counts as success), 1 on usage or
parse errors, 2 when a resource cap is exceeded.

Each subcommand returns its exit code, its answer as a JSON payload, and
a renderer of that payload as text lines; `main` prints one of the two.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import re
import sys
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from .assign import AssignmentProblem, Infeasible, assignment_solve
from .bigstep import eval_fuel
from .equiv import DEFAULT_POOL_NAMES, TreeWitness, applicative_compare, refute_bisim, refute_sim
from .fixtures import run_fixtures
from .gen import closed_corpus
from .prob import Distr, Dyadic
from .smallstep import DEFAULT_LEAF_CAP, head_step, spine_step, step_n, trace_tree
from .syntax import (
    ParseError,
    ResourceCapExceeded,
    Term,
    free_vars,
    is_hnf,
    parse,
    pretty,
    size,
)
from .trees import Different, Equal, ProbTree, prob_tree, tree_eq

MAX_FUEL = 64
MAX_STEPS = 512
MAX_LEVEL = 8
MAX_DEPTH = 16
MAX_SEQUENCES = 1000  # argument sequences of one `appcmp` call
MAX_EXPONENT = 1000  # decimal exponent of a number in a problem file
MAX_CASES = 10_000  # random terms of one `proptest` call
MAX_DEMANDS = 12  # demands of one `assign` problem file

DEFAULT_POOL = ",".join(DEFAULT_POOL_NAMES)

# exit code, JSON payload, and the text renderer of that payload
Answer = Tuple[int, dict, Callable[[dict], List[str]]]


class UsageError(Exception):
    pass


def _parse_term(text: str) -> Term:
    try:
        return parse(text)
    except ParseError as exc:
        raise UsageError(f"cannot parse {text!r}: {exc}") from exc


def _parse_pool(text: str) -> List[Term]:
    return [_parse_term(part) for part in text.split(",") if part.strip()]


def _distr_json(d: Distr) -> dict:
    entries = sorted(((pretty(t), w) for t, w in d.items()), key=lambda kv: kv[0])
    return {
        "support": [{"term": t, "prob": str(w)} for t, w in entries],
        "mass": str(d.mass),
    }


def _distr_text(d: dict) -> str:
    if not d["support"]:
        return "  (bottom: empty distribution)"
    return "\n".join(f"  {e['prob']}\t{e['term']}" for e in d["support"])


def _pt_json(pt: ProbTree) -> dict:
    return {
        "level": pt.level,
        "deficit": str(pt.deficit),
        "support": [
            {
                "weight": str(w),
                "tree": {
                    "binders": vt.binders,
                    "head": vt.head,
                    "offset": vt.offset,
                    "args": [_pt_json(a) for a in vt.args],
                },
            }
            for vt, w in pt.entries
        ],
    }


def _pt_text(pt: dict, indent: int = 0) -> List[str]:
    pad = "  " * indent
    lines = [f"{pad}level {pt['level']} tree, deficit {pt['deficit']}"]
    if not pt["support"]:
        lines.append(f"{pad}  bottom")
    for e in pt["support"]:
        vt = e["tree"]
        lines.append(
            f"{pad}  {e['weight']} -> λ({vt['binders']}+)...{vt['head']}"
            f" [offset {vt['offset']}]"
        )
        for a in vt["args"]:
            lines.extend(_pt_text(a, indent + 2))
    return lines


def _witness_json(w) -> dict:
    if isinstance(w, TreeWitness):
        return {
            "kind": "tree",
            "level": w.level,
            "path": list(w.detail.path),
            "left": str(w.detail.left),
            "right": str(w.detail.right),
        }
    return {
        "kind": "block",
        "label": repr(w.label),
        "block": [repr(s) for s in w.block],
        "left": [str(w.left[0]), str(w.left[1])],
        "right": [str(w.right[0]), str(w.right[1])],
        "sub": [
            {"pair": [repr(a), repr(b)], "witness": _witness_json(sub)}
            for (a, b), sub in w.sub.items()
        ],
    }


def _witness_text(w: dict, indent: int = 0) -> List[str]:
    pad = "  " * indent
    if w["kind"] == "tree":
        return [
            f"{pad}tree difference at level {w['level']}: Different(path={w['path']},"
            f" left={w['left']}, right={w['right']})"
        ]
    (l_lo, l_hi), (r_lo, r_hi) = w["left"], w["right"]
    lines = [
        f"{pad}move {w['label']} separates: left mass in [{l_lo}, {l_hi}],"
        f" right mass in [{r_lo}, {r_hi}]",
        f"{pad}block: " + ", ".join(w["block"]),
    ]
    for sub in w["sub"]:
        a, b = sub["pair"]
        lines.append(f"{pad}because {a} vs {b}:")
        lines.extend(_witness_text(sub["witness"], indent + 1))
    return lines


# ---------------------------------------------------------------------------
# Subcommands


def cmd_parse(args) -> Answer:
    t = _parse_term(args.term)
    payload = {
        "term": pretty(t),
        "size": size(t),
        "free": sorted(free_vars(t)),
        "hnf": is_hnf(t),
    }
    return 0, payload, lambda p: [p["term"]]


def cmd_eval(args) -> Answer:
    res = eval_fuel(_parse_term(args.term), args.fuel)
    payload = _distr_json(res.distr)
    payload["deficit"] = str(res.deficit)
    return 0, payload, lambda p: [
        f"eval at fuel {args.fuel}: mass {p['mass']}, deficit {p['deficit']}",
        _distr_text(p),
    ]


def cmd_trace(args) -> Answer:
    t = _parse_term(args.term)
    nodes = trace_tree(t, args.steps, args.strategy, cap=args.cap)
    table = step_n(t, args.steps, args.strategy, cap=args.cap)
    payload = {
        "nodes": [
            {"depth": depth, "prob": str(p), "term": pretty(u), "hnf": is_hnf(u)}
            for depth, p, u in nodes
        ],
        "cumulative": _distr_json(table),
    }

    def text(p: dict) -> List[str]:
        cumulative = p["cumulative"]
        return [
            f"{'  ' * n['depth']}[{n['prob']}] {n['term']}{'*' if n['hnf'] else ''}"
            for n in p["nodes"]
        ] + [
            f"cumulative after {args.steps} steps (mass {cumulative['mass']}):",
            _distr_text(cumulative),
        ]

    return 0, payload, text


def cmd_tree(args) -> Answer:
    return 0, _pt_json(prob_tree(_parse_term(args.term), args.level, args.fuel)), _pt_text


_VERDICT_TEXT = {
    "equal": "equal",
    "different": "different at path {path}: {left} vs {right}",
    "unknown": "unknown (uncertainty bound {bound})",
}


def cmd_compare_tree(args) -> Answer:
    a = prob_tree(_parse_term(args.term1), args.level, args.fuel)
    b = prob_tree(_parse_term(args.term2), args.level, args.fuel)
    verdict = tree_eq(a, b)
    if isinstance(verdict, Equal):
        payload = {"verdict": "equal"}
    elif isinstance(verdict, Different):
        payload = {"verdict": "different", "path": list(verdict.path),
                   "left": str(verdict.left), "right": str(verdict.right)}
    else:
        payload = {"verdict": "unknown", "bound": str(verdict.bound)}
    return 0, payload, lambda p: [_VERDICT_TEXT[p["verdict"]].format_map(p)]


def _game_text(p: dict) -> List[str]:
    if p["trace"] is None:
        return ["inconclusive (no certified difference at these bounds)"]
    return ["distinguished:"] + _witness_text(p["trace"])


def cmd_game(args) -> Answer:
    m, n = _parse_term(args.term1), _parse_term(args.term2)
    kwargs = dict(depth=args.depth, fuel=args.fuel, pool=_parse_pool(args.pool))
    if args.command == "bisim":
        w = refute_bisim(m, n, tree_level=args.tree_level, **kwargs)
    else:
        w = refute_sim(m, n, **kwargs)
    if w is None:
        return 0, {"verdict": "inconclusive", "trace": None}, _game_text
    return 0, {"verdict": "distinguished", "trace": _witness_json(w)}, _game_text


def _appcmp_text(p: dict) -> List[str]:
    lines = []
    for r in p["sequences"]:
        left, right = r["left"], r["right"]
        lines.append(
            f"{' '.join(r['args']) or '(empty)'}:"
            f" left {left['mass']}{'' if left['exact'] else '+?'}"
            f" right {right['mass']}{'' if right['exact'] else '+?'} -> {r['verdict']}"
        )
    return lines


def cmd_appcmp(args) -> Answer:
    m, n = _parse_term(args.term1), _parse_term(args.term2)
    pool = _parse_pool(args.pool)
    count = sum(len(pool) ** k for k in range(args.maxlen + 1))
    if count > MAX_SEQUENCES:  # refused before a single sequence is built
        raise ResourceCapExceeded(
            f"--maxlen {args.maxlen} over {len(pool)} pool terms gives {count}"
            f" argument sequences, above the cap {MAX_SEQUENCES}"
        )
    seqs = [seq for k in range(args.maxlen + 1) for seq in itertools.product(pool, repeat=k)]
    reports = applicative_compare(m, n, seqs, fuel=args.fuel)
    payload = {
        "sequences": [
            {
                "args": [pretty(a) for a in r.args],
                "left": {"mass": str(r.left.mass), "exact": r.left.exact},
                "right": {"mass": str(r.right.mass), "exact": r.right.exact},
                "verdict": r.verdict,
            }
            for r in reports
        ]
    }
    return 0, payload, _appcmp_text


def _parse_subset(key: str) -> frozenset:
    """A subset key of a problem file: `{k,…}` with ASCII decimal items,
    spaces allowed around every item and brace."""
    if not re.fullmatch(r"\s*\{\s*(\d+\s*(,\s*\d+\s*)*)?\}\s*", key, re.ASCII):
        raise UsageError(f"problem file: subset key {json.dumps(key)} is not of the form {{k,...}}")
    return frozenset(int(p) for p in key.strip()[1:-1].split(",") if p.strip())


def _json_object(pairs: list) -> dict:
    """One object of a problem file; `json` would keep only the last of a
    repeated key."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise UsageError(f"problem file: key {json.dumps(key)} given twice")
        out[key] = value
    return out


def _assign_text(p: dict) -> List[str]:
    if not p["feasible"]:
        return [f"infeasible, witness subset {p['witness']}"]
    return ["feasible"] + [
        f"  s[{e['item']}, {set(e['subset'])}] = {e['share']}" for e in p["shares"]
    ]


def _number(value) -> Fraction:
    """One demand or supply of a problem file, read exactly: a JSON number
    literal arrives as its decimal text."""
    if isinstance(value, bool):
        raise UsageError(f"problem file: {value!r} is not a number")
    if isinstance(value, str):
        # Fraction expands 10^exponent in full, so look at it first
        _, e, exponent = value.upper().partition("E")
        digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        if e and digits.isdecimal() and (len(digits) > 4 or int(digits) > MAX_EXPONENT):
            raise ResourceCapExceeded(f"problem file: a number's exponent exceeds {MAX_EXPONENT}")
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise UsageError(f"problem file: {value!r} is not a number") from exc


def cmd_assign(args) -> Answer:
    with open(args.problem, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_float=str, object_pairs_hook=_json_object)
        except RecursionError:
            raise UsageError("problem file nests too deeply") from None
    if not isinstance(data, dict):
        raise UsageError("problem file must hold a JSON object")
    p, r = data.get("p", []), data.get("r", {})
    if not isinstance(p, list) or not isinstance(r, dict):
        raise UsageError('problem file: "p" must be a list and "r" an object')
    if len(p) > MAX_DEMANDS:
        raise ResourceCapExceeded(f"assignment size {len(p)} exceeds cap {MAX_DEMANDS}")
    supply = {}
    for k, v in r.items():
        subset = _parse_subset(k)
        if subset in supply:
            raise UsageError(f"problem file: subset {sorted(subset)} given twice")
        supply[subset] = _number(v)
    problem = AssignmentProblem([_number(x) for x in p], supply)
    result = assignment_solve(problem)
    if isinstance(result, Infeasible):
        payload = {"feasible": False, "witness": sorted(result.witness)}
    else:
        shares = [
            {"item": k, "subset": sorted(subset), "share": str(s)}
            for (k, subset), s in sorted(
                result.shares.items(), key=lambda kv: (kv[0][0], sorted(kv[0][1]))
            )
        ]
        payload = {"feasible": True, "shares": shares}
    return 0, payload, _assign_text


def _fixtures_text(p: dict) -> List[str]:
    lines = [
        f"{'PASS' if r['ok'] else 'FAIL'} {r['name']}" + ("" if r["ok"] else f": {r['detail']}")
        for r in p["results"]
    ]
    lines.append(f"{p['passed']} passed, {p['failed']} failed")
    return lines


def cmd_fixtures(args) -> Answer:
    results = run_fixtures()
    failed = sum(not ok for _, ok, _ in results)
    payload = {
        "results": [
            {"name": name, "ok": ok, "detail": detail} for name, ok, detail in results
        ],
        "passed": len(results) - failed,
        "failed": failed,
    }
    return (1 if failed else 0), payload, _fixtures_text


def _proptest_text(p: dict) -> List[str]:
    lines = [f"ran {p['cases']} cases, {len(p['failures'])} failures"]
    lines.extend(f"  FAIL {f['property']}: {f['term']}" for f in p["failures"])
    return lines


def cmd_proptest(args) -> Answer:
    rng = random.Random(args.seed)
    corpus = closed_corpus(args.seed, args.cases, max_size=10)
    failures = []
    for t in corpus:
        if parse(pretty(t)) != t:
            failures.append(("round-trip", t))
            continue
        for step in (head_step, spine_step):
            total = sum((p for p, _ in step(t)), Dyadic(0))
            if total != Dyadic(1):
                failures.append(("stochasticity", t))
        f = rng.randrange(0, 4)
        if not eval_fuel(t, f).distr.leq(eval_fuel(t, f + 1).distr):
            failures.append(("fuel-monotonicity", t))
        # the head chain against the table of the spine trace: each hnf
        # node weighted by the product of the steps on its path
        n = rng.randrange(0, 5)
        path: List[Dyadic] = []
        reached = []
        for depth, p, u in trace_tree(t, n, "spine"):
            del path[depth:]
            path.append(path[-1] * p if depth else p)
            if is_hnf(u):
                reached.append((u, path[-1]))
        if step_n(t, n, "head") != Distr(reached):
            failures.append(("strategy-agreement", t))
    payload = {
        "cases": len(corpus),
        "failures": [{"property": p, "term": pretty(t)} for p, t in failures],
    }
    return (1 if failures else 0), payload, _proptest_text


# ---------------------------------------------------------------------------


def _int(flag: str, default: int, cap: int) -> tuple:
    """A non-negative int option, refused above `cap`."""
    return flag, dict(type=int, default=default), cap


_PAIR = ("term1", "term2")
_POOL = ("--pool", dict(default=DEFAULT_POOL))
# name, handler, help, positional terms, options before --format
_COMMANDS = (
    ("parse", cmd_parse, "parse and pretty-print a term", ("term",), ()),
    ("eval", cmd_eval, "fuel-bounded big-step evaluation", ("term",),
     (_int("--fuel", 16, MAX_FUEL),)),
    ("trace", cmd_trace, "small-step reduction tree and table", ("term",), (
        ("--strategy", dict(choices=("head", "spine"), default="head")),
        _int("--steps", 8, MAX_STEPS),
        _int("--cap", DEFAULT_LEAF_CAP, DEFAULT_LEAF_CAP),
    )),
    ("tree", cmd_tree, "level-indexed probabilistic tree", ("term",),
     (_int("--level", 2, MAX_LEVEL), _int("--fuel", 16, MAX_FUEL))),
    ("compare-tree", cmd_compare_tree, "three-valued tree equality", _PAIR,
     (_int("--level", 2, MAX_LEVEL), _int("--fuel", 16, MAX_FUEL))),
    ("bisim", cmd_game, "refute probabilistic bisimilarity", _PAIR,
     (_int("--depth", 8, MAX_DEPTH), _int("--fuel", 8, MAX_FUEL), _POOL,
      _int("--tree-level", 0, MAX_LEVEL))),
    ("sim", cmd_game, "refute probabilistic similarity", _PAIR,
     (_int("--depth", 6, MAX_DEPTH), _int("--fuel", 8, MAX_FUEL), _POOL)),
    ("appcmp", cmd_appcmp, "applicative-context mass comparison", _PAIR,
     (_int("--fuel", 8, MAX_FUEL), _int("--maxlen", 2, MAX_DEPTH), _POOL)),
    ("assign", cmd_assign, "solve a probabilistic assignment problem", (),
     (("--problem", dict(required=True)),)),
    ("fixtures", cmd_fixtures, "replay all worked-example fixtures", (), ()),
    ("proptest", cmd_proptest, "randomized property checks", (),
     (("--seed", dict(type=int, default=0)), _int("--cases", 200, MAX_CASES))),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call and reused after it."""
    top = argparse.ArgumentParser(
        prog="plam",
        description="Exact interpreter and equivalence toolkit for the "
        "probabilistic λ-calculus under head-style reduction.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, fn, help_text, terms, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for term in terms:
            p.add_argument(term)
        for flag, kwargs, *_ in options:
            p.add_argument(flag, **kwargs)
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.set_defaults(fn=fn, caps=[option for option in options if len(option) == 3])
    return top


def _check_caps(args) -> None:
    for flag, _, cap in args.caps:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value > cap:
            raise ResourceCapExceeded(f"{flag} {value} exceeds cap {cap}")
        if value < 0:
            raise UsageError(f"{flag} must be non-negative")


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage or help; 2 is reserved for caps
        return 1 if exc.code else 0
    try:
        _check_caps(args)
        code, payload, text = args.fn(args)
        if args.format == "json":
            print(json.dumps(payload, indent=2))
        else:
            print("\n".join(text(payload)))
        return code
    except (UsageError, OSError, ValueError) as exc:
        # OSError covers an unreadable --problem file; ValueError covers
        # ParseError and json.JSONDecodeError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceCapExceeded as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # a term built during the run nests deeper than the interpreter stack
        print("resource cap exceeded: term nested too deeply to process", file=sys.stderr)
        return 2
    except MemoryError:
        print("resource cap exceeded: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
