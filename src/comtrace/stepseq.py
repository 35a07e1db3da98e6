"""Step sequences, occurrence enumeration, cancellation, projection, and the
bijection between step sequences and finite stratified orders.

A step sequence is a tuple of steps (frozensets of events); the empty tuple
is the monoid unit and renders as the keyword ``lambda``.  The enumerated
form replaces each event by an occurrence pair (event, k) where k counts that
event's occurrences left to right, starting at 1.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .alphabet import Event, GAlphabet, Step, event_text
from .errors import UnknownEvent
from .relations import PointOrder, Relation, order_to_partition, orders_of_partitions

StepSeq = tuple  # tuple[Step, ...]
Occurrence = tuple  # (event, k)

LAMBDA = "lambda"


# --------------------------------------------------------------------------
# text form
# --------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\{|\}|,|[A-Za-z0-9_]+)")


def render(alphabet: GAlphabet, s: StepSeq) -> str:
    if not s:
        return LAMBDA
    return "".join(
        "{" + ",".join(event_text(e) for e in alphabet.sort_events(step)) + "}"
        for step in s
    )


def parse(alphabet: GAlphabet, text: str) -> StepSeq:
    """Parse ``lambda`` or a sequence of braced steps; validates every step."""
    stripped = text.strip()
    if stripped == LAMBDA:
        return ()
    tokens = []
    pos = 0
    while pos < len(stripped):
        m = _TOKEN.match(stripped, pos)
        if not m:
            raise UnknownEvent(f"cannot parse step sequence at {stripped[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    steps: list[Step] = []
    i = 0
    while i < len(tokens):
        if tokens[i] != "{":
            raise UnknownEvent(f"expected '{{' at token {tokens[i]!r}")
        i += 1
        members = []
        expect_name = True
        while i < len(tokens) and tokens[i] != "}":
            if expect_name:
                if tokens[i] in (",", "{"):
                    raise UnknownEvent(f"expected event name at {tokens[i]!r}")
                members.append(tokens[i])
            else:
                if tokens[i] != ",":
                    raise UnknownEvent(f"expected ',' at {tokens[i]!r}")
            expect_name = not expect_name
            i += 1
        if i == len(tokens):
            raise UnknownEvent("unterminated step (missing '}')")
        if not members or expect_name:
            raise UnknownEvent("empty step or trailing comma")
        steps.append(alphabet.require_step(members))
        i += 1
    return tuple(steps)


# --------------------------------------------------------------------------
# weight and counts
# --------------------------------------------------------------------------

def weight(s: StepSeq) -> int:
    return sum(len(step) for step in s)


def counts(s: StepSeq) -> Counter:
    c: Counter = Counter()
    for step in s:
        c.update(step)
    return c


def weight_and_counts(s: StepSeq) -> tuple[int, Counter]:
    return weight(s), counts(s)


def carrier_events(s: StepSeq) -> frozenset:
    return frozenset().union(*s) if s else frozenset()


# --------------------------------------------------------------------------
# enumerated form
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Enumerated:
    """A step sequence over occurrences (event, k), k counted from 1."""

    steps: tuple

    @cached_property
    def pos(self) -> dict:
        """Occurrence -> 1-based index of its step."""
        return {occ: i + 1 for i, step in enumerate(self.steps) for occ in step}

    @cached_property
    def carrier(self) -> frozenset:
        return frozenset(self.pos)

    @cached_property
    def points(self) -> PointOrder:
        """The carrier's point order, shared by the relations built here."""
        return PointOrder(self.carrier)


def label(occ: Occurrence) -> Event:
    return occ[0]


def enumerate_occurrences(s: StepSeq) -> Enumerated:
    seen: Counter = Counter()
    osteps = []
    for step in s:
        block = set()
        for e in step:
            seen[e] += 1
            block.add((e, seen[e]))
        osteps.append(frozenset(block))
    return Enumerated(tuple(osteps))


def delabel(osteps: Iterable[frozenset]) -> StepSeq:
    """Forget occurrence indices, recovering the plain step sequence."""
    return tuple(frozenset(label(o) for o in step) for step in osteps)


# --------------------------------------------------------------------------
# cancellation and projection
# --------------------------------------------------------------------------

def cancel(s: StepSeq, a: Event, side: str) -> StepSeq:
    """Remove the rightmost (side='right') or leftmost (side='left')
    occurrence of ``a``; the identity when ``a`` does not occur."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    indices = range(len(s) - 1, -1, -1) if side == "right" else range(len(s))
    for i in indices:
        if a in s[i]:
            rest = s[i] - {a}
            if rest:
                return s[:i] + (rest,) + s[i + 1:]
            return s[:i] + s[i + 1:]
    return s


def cancel_all(s: StepSeq, x, side: str) -> StepSeq:
    """Cancellation extended over a set of events or a whole step sequence,
    applied event by event (the single-event cancellations commute)."""
    if x and isinstance(next(iter(x)), frozenset):
        for step in x:
            s = cancel_all(s, step, side)
        return s
    for a in sorted(x, key=repr):
        s = cancel(s, a, side)
    return s


def project(s: StepSeq, d: Iterable[Event]) -> StepSeq:
    d = frozenset(d)
    out = []
    for step in s:
        kept = step & d
        if kept:
            out.append(kept)
    return tuple(out)


# --------------------------------------------------------------------------
# step sequences as stratified orders
# --------------------------------------------------------------------------

def order_of(s: StepSeq | Enumerated) -> Relation:
    """The stratified order of occurrences: alpha before beta iff alpha's
    step comes strictly earlier."""
    en = s if isinstance(s, Enumerated) else enumerate_occurrences(s)
    return orders_of_partitions(en.points, [en.steps])[0]


def weak_order_of(s: StepSeq | Enumerated) -> Relation:
    """The 'not later than' companion: distinct occurrences with pos <= pos."""
    return order_of(s).weak_extension()


def sequence_of(rel: Relation) -> tuple[frozenset, ...]:
    """The step sequence of a stratified order: its blocks in order.

    The blocks are sets of carrier points (occurrences, if the order came
    from :func:`order_of`); apply :func:`delabel` to return to events.
    Raises NotStratified when the relation is not a stratified order.
    """
    return order_to_partition(rel)
