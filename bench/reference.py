"""Independent references for output checks: the benchmark's own canonical
forms and exact arithmetic, never plam's printer, equality or `Dyadic`."""

from __future__ import annotations

import hashlib
from fractions import Fraction

from plam.syntax import App, Choice, Free, Lam, Var


def base_name(name: str) -> str:
    """Free names carry a per-query suffix (`a_<seed>_<query>`); drop it."""
    return name.split("_", 1)[0]


def frac(w) -> Fraction:
    """A plam Dyadic as a Fraction, read from its fields."""
    return Fraction(w.num, 1 << w.exp)


def canon(term) -> str:
    """Prefix form of a term with query suffixes dropped from free names.

    Iterative, because outputs such as the tower outcomes nest deeper
    than the interpreter's recursion limit allows walking recursively.
    """
    out = []
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            out.append(f"#{t.index}")
        elif isinstance(t, Free):
            out.append(base_name(t.name))
        elif isinstance(t, Lam):
            out.append("L")
            stack.append(t.body)
        elif isinstance(t, App):
            out.append("@")
            stack.append(t.arg)
            stack.append(t.fun)
        elif isinstance(t, Choice):
            out.append("+")
            stack.append(t.right)
            stack.append(t.left)
        else:
            raise TypeError(f"not a term: {t!r}")
    return " ".join(out)


def digest(lines) -> str:
    """Order-insensitive fingerprint of an output given as text lines."""
    h = hashlib.sha256()
    for line in sorted(lines):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def decode_word(term, letters: str, end: str):
    """Read `l1 (l2 (... end))` as the word l1 l2 ..., or None if not of that shape."""
    word = []
    while isinstance(term, App) and isinstance(term.fun, Free):
        letter = base_name(term.fun.name)
        if letter not in letters:
            return None
        word.append(letter)
        term = term.arg
    if isinstance(term, Free) and base_name(term.name) == end:
        return "".join(word)
    return None


def applicative_verdict(left: Fraction, left_exact: bool, right: Fraction, right_exact: bool) -> str:
    """The verdict two convergence masses certify: a lower bound must beat
    everything the other side could still reach."""
    if left > (right if right_exact else 1):
        return "LeftExceeds"
    if right > (left if left_exact else 1):
        return "RightExceeds"
    return "Inconclusive"
