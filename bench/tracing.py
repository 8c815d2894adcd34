"""Per-layer tracing of plam, installed from outside the package.

Every `plam.*` module that binds a traced function (for example
`from .syntax import substitute` in `plam.bigstep`) has that binding
replaced, so calls between layers pass through the wrappers. A span
records calls and self time (its duration minus the time covered by
spans it caused). Recursive functions such as `shift` and `prob_tree`
record only their outermost entry. Counters on the public classes
count work: `Lam`/`App`/`Choice` constructors, `Dyadic` arithmetic and
`Distr.__init__` (which is also timed as the span `prob.Distr`).

Not reachable from outside: `smallstep._STRATEGIES` holds `head_step`
and `spine_step` directly, so the single steps taken inside `step_n`
and `converge` are neither counted nor timed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

UNREACHABLE = (
    "per-step counts inside step_n/converge: smallstep._STRATEGIES holds "
    "head_step/spine_step directly, so wrappers installed from outside never see them"
)

# (module, function) pairs traced as spans, named "<module>.<function>".
SPANS = (
    ("syntax", "parse"),
    ("syntax", "pretty"),
    ("syntax", "substitute"),
    ("syntax", "shift"),
    ("syntax", "classify"),
    ("bigstep", "eval_fuel"),
    ("smallstep", "step_n"),
    ("smallstep", "converge"),
    ("smallstep", "trace_tree"),
    ("trees", "prob_tree"),
    ("trees", "tree_eq"),
    ("equiv", "transitions"),
    ("equiv", "refute_bisim"),
    ("equiv", "refute_sim"),
    ("equiv", "applicative_compare"),
    ("assign", "assignment_solve"),
    ("fixtures", "run_fixtures"),
    ("gen", "closed_corpus"),
    ("cli", "main"),
)


class Tracer:
    """Span and counter store; it records only while `active` is set."""

    def __init__(self):
        self.active = False
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._child = []  # one child-time accumulator per open span
        self._open = set()  # names of open spans (outermost-entry rule)
        self.absent = []  # spans whose function this version of plam lacks

    def begin(self):
        # A budget stop can leave spans half-closed; every query starts clean.
        self._child.clear()
        self._open.clear()
        self.active = True

    def end(self):
        self.active = False

    def span(self, name, fn, on_result=None, on_error=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or name in tracer._open:
                return fn(*args, **kwargs)
            tracer._open.add(name)
            tracer.calls[name] += 1
            tracer._child.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            finally:
                dt = time.perf_counter() - t0
                child = tracer._child.pop() if tracer._child else 0.0
                tracer.self_s[name] += dt - child
                if tracer._child:
                    tracer._child[-1] += dt
                tracer._open.discard(name)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    def counter(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "absent": list(self.absent),
        }


def _rebind(original, replacement) -> None:
    """Replace every binding of `original` in the loaded plam modules."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "plam" or mod_name.startswith("plam.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap plam's public layer functions and classes; call once per process."""
    prob, smallstep, syntax = (importlib.import_module(f"plam.{m}") for m in ("prob", "smallstep", "syntax"))

    def converge_result(tr, result):
        tr.counts["smallstep.converge.exact"] += bool(result.exact)

    def cap_hit(tr, exc):
        if isinstance(exc, smallstep.ResourceCapExceeded):
            tr.counts["smallstep.cap_hits"] += 1

    def certified(tr, result):
        tr.counts["equiv.certified"] += result is not None

    hooks = {
        "smallstep.converge": dict(on_result=converge_result, on_error=cap_hit),
        "smallstep.step_n": dict(on_error=cap_hit),
        "smallstep.trace_tree": dict(on_error=cap_hit),
        "equiv.refute_bisim": dict(on_result=certified),
        "equiv.refute_sim": dict(on_result=certified),
    }
    for module, func in SPANS:
        name = f"{module}.{func}"
        try:
            original = getattr(importlib.import_module(f"plam.{module}"), func)
        except (ImportError, AttributeError):
            # A later version of plam may merge or rename a layer function;
            # its metrics then read 0 and the run names it as absent.
            tracer.absent.append(name)
            continue
        _rebind(original, tracer.span(name, original, **hooks.get(name, {})))

    for cls in (syntax.Lam, syntax.App, syntax.Choice):
        cls.__init__ = tracer.counter("syntax.nodes_built", cls.__init__)
    for op in ("__add__", "__sub__", "__mul__"):
        setattr(prob.Dyadic, op, tracer.counter("prob.dyadic_ops", getattr(prob.Dyadic, op)))

    distr_init = prob.Distr.__init__

    def counted_init(self, pairs=()):
        if tracer.active:
            pairs = list(pairs)
            tracer.counts["prob.distr_built"] += 1
            tracer.counts["prob.distr_pairs_in"] += len(pairs)
        distr_init(self, pairs)

    prob.Distr.__init__ = tracer.span("prob.Distr", functools.wraps(distr_init)(counted_init))
