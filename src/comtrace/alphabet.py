"""Alphabets for traces, comtraces and generalized comtraces.

A g-comtrace alphabet is (E, sim, ser, inl) where

* sim ("simultaneity") is irreflexive and symmetric: events that may occur
  in one step;
* ser ("serializability") is a subset of sim, genuinely directed:
  (a, b) in ser means the step {a, b} may be serialized to a-then-b;
* inl ("interleaving") is irreflexive and symmetric, disjoint from sim:
  the two orders are equivalent but the events never share a step.

inl = empty gives a comtrace alphabet; additionally sim = ser gives the
lifted form of a Mazurkiewicz trace alphabet.

Event labels are ordinary strings in user-facing alphabets, but any hashable,
orderable value is accepted: the structure-to-comtrace constructions build
alphabets whose "events" are occurrence pairs like ("a", 1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Hashable, Iterable, NamedTuple

from .errors import (
    NotAStep,
    ReflexivePair,
    SerNotInSim,
    SimInlOverlap,
    UniverseTooLarge,
    UnknownEvent,
)

Event = Hashable
Pair = tuple[Event, Event]
Step = frozenset  # frozenset[Event]

STEP_UNIVERSE_CAP = 2 ** 16


def event_text(e: Event) -> str:
    """Render an event label: plain strings as-is, occurrences as ``a.1``."""
    if isinstance(e, tuple):
        return f"{e[0]}.{e[1]}"
    return str(e)


def _successors(index: dict, pairs: frozenset) -> tuple:
    succ = [0] * len(index)
    for a, b in pairs:
        succ[index[a]] |= 1 << index[b]
    return tuple(succ)


class StepRewrites(NamedTuple):
    """What the rewrites need to know about one step, as a :class:`MaskView`
    computes it once: the step's mask, the events every one of its events
    serializes before (``ser``) and interleaves with (``inl``), and its
    ``splits``, every ordered pair ``(B, C)`` of steps partitioning it with
    ``B x C`` in ser."""

    mask: int
    ser: int
    inl: int
    splits: tuple


class MaskView:
    """An alphabet's events as bits: event ``order[i]`` is bit ``1 << i``.

    ``ser[i]`` and ``inl[i]`` are the successor masks of ``order[i]``: the
    events ``e`` with ``(order[i], e)`` in ser, respectively inl.  A step is
    the mask of its events.  Each distinct step gets one
    :class:`StepRewrites` record, built the first time the step is seen and
    kept in the ``records`` dict: :meth:`rewrites` returns it and
    :meth:`to_mask` reads the mask off it.  :meth:`from_mask` hands back one
    frozenset object per mask (memoized in ``step_of``), so the steps of the
    records' splits are those objects too.

    The view holds the event order but not the alphabet, so caching it on the
    alphabet makes no reference cycle: an alphabet dropped by a cache is
    freed at once, with its view and its records.
    """

    __slots__ = ("order", "bit", "ser", "inl", "step_of", "records")

    def __init__(self, order: tuple, ser: frozenset, inl: frozenset):
        index = {e: i for i, e in enumerate(order)}
        self.order = order
        self.bit = {e: 1 << i for e, i in index.items()}
        self.ser = _successors(index, ser)
        self.inl = _successors(index, inl)
        self.step_of: dict = {}  # mask -> step
        self.records: dict = {}  # step -> StepRewrites

    def rewrites(self, step: Step) -> StepRewrites:
        rec = self.records.get(step)
        if rec is None:
            rec = self.records[step] = self._record(step)
        return rec

    def to_mask(self, step: Step) -> int:
        return self.rewrites(step)[0]

    def _record(self, step: Step) -> StepRewrites:
        m = 0
        for e in step:
            try:
                m |= self.bit[e]
            except KeyError:
                raise UnknownEvent(f"unknown event {event_text(e)!r}") from None
        splits = []
        # every proper nonempty submask b of m with (m ^ b) inside the events
        # all of b serializes before
        b = (m - 1) & m
        while b:
            c = m ^ b
            if not c & ~self.common(self.ser, b):
                splits.append((self.from_mask(b), self.from_mask(c)))
            b = (b - 1) & m
        return StepRewrites(m, self.common(self.ser, m), self.common(self.inl, m), tuple(splits))

    def from_mask(self, m: int) -> Step:
        step = self.step_of.get(m)
        if step is None:
            step = frozenset(e for i, e in enumerate(self.order) if m >> i & 1)
            self.step_of[m] = step
        return step

    @staticmethod
    def common(succ: tuple, m: int) -> int:
        """The AND of ``succ[i]`` over the bits ``i`` of ``m`` (all ones for 0):
        the events every event of ``m`` relates to."""
        acc = -1
        while m:
            low = m & -m
            acc &= succ[low.bit_length() - 1]
            m ^= low
        return acc


@dataclass(frozen=True)
class GAlphabet:
    """A validated (E, sim, ser, inl) alphabet with a fixed total event order.

    ``order`` is the total order <E used everywhere a tie must be broken
    deterministically (step rendering, the step order, canonical choices).
    It defaults to the natural sort of the labels; construct via
    :func:`galphabet` which validates all invariants.

    ``masks`` is the alphabet's :class:`MaskView`, built on first use and
    kept in the instance ``__dict__``: steps as int bitmasks with one rewrite
    record each, and ser/inl as per-event successor masks, for the rewrite
    and canonical-form kernels.
    Bits follow ``order``, so :meth:`with_order` gives a new view.
    """

    events: frozenset
    sim: frozenset
    ser: frozenset
    inl: frozenset
    order: tuple

    # -- ordering helpers ----------------------------------------------

    def key(self, e: Event) -> int:
        try:
            return self._index[e]
        except KeyError:
            raise UnknownEvent(f"unknown event {event_text(e)!r}") from None

    @property
    def _index(self) -> dict:
        idx = self.__dict__.get("_index_cache")
        if idx is None:
            idx = {e: i for i, e in enumerate(self.order)}
            self.__dict__["_index_cache"] = idx
        return idx

    @cached_property
    def masks(self) -> MaskView:
        return MaskView(self.order, self.ser, self.inl)

    def sort_events(self, events: Iterable[Event]) -> list:
        return sorted(events, key=self.key)

    def with_order(self, order: Iterable[Event]) -> "GAlphabet":
        """The same alphabet under a different total event order."""
        order = tuple(order)
        if set(order) != set(self.events) or len(order) != len(self.events):
            raise UnknownEvent("order must list every event exactly once")
        return replace(self, order=order)

    # -- classification ------------------------------------------------

    @property
    def is_comtrace(self) -> bool:
        return not self.inl

    @property
    def is_trace(self) -> bool:
        return not self.inl and self.sim == self.ser

    # -- steps -----------------------------------------------------------

    def is_step(self, members: Iterable[Event]) -> bool:
        ms = frozenset(members)
        if not ms or any(e not in self.events for e in ms):
            return False
        return all((a, b) in self.sim for a in ms for b in ms if a != b)

    def require_step(self, members: Iterable[Event]) -> Step:
        members = frozenset(members)
        for e in members:
            if e not in self.events:
                raise UnknownEvent(f"unknown event {event_text(e)!r}")
        if not members:
            raise NotAStep("steps are nonempty")
        for a in members:
            for b in members:
                if a != b and (a, b) not in self.sim:
                    raise NotAStep(
                        f"{event_text(a)} and {event_text(b)} may not occur simultaneously"
                    )
        return members

    def steps_universe(self, cap: int = STEP_UNIVERSE_CAP) -> list[Step]:
        """All nonempty sim-cliques, sorted by size then lexicographically by <E."""
        ordered = list(self.order)
        found: list[tuple] = []

        def grow(clique: list, start: int) -> None:
            if len(found) > cap:
                raise UniverseTooLarge(f"more than {cap} steps")
            if clique:
                found.append(tuple(clique))
            for i in range(start, len(ordered)):
                e = ordered[i]
                if all((c, e) in self.sim for c in clique):
                    clique.append(e)
                    grow(clique, i + 1)
                    clique.pop()

        grow([], 0)
        found.sort(key=lambda c: (len(c), tuple(self.key(e) for e in c)))
        return [frozenset(c) for c in found]


def _symmetrize(pairs: Iterable[Pair]) -> frozenset:
    out = set()
    for a, b in pairs:
        out.add((a, b))
        out.add((b, a))
    return frozenset(out)


def galphabet(
    events: Iterable[Event],
    sim: Iterable[Pair] = (),
    ser: Iterable[Pair] = (),
    inl: Iterable[Pair] = (),
    order: Iterable[Event] | None = None,
) -> GAlphabet:
    """Validate and build a g-comtrace alphabet.

    sim and inl are auto-symmetrized; ser is taken exactly as written.
    Raises the first violated invariant: UnknownEvent, ReflexivePair,
    SerNotInSim or SimInlOverlap.
    """
    events = frozenset(events)
    sim_s = _symmetrize(sim)
    ser_s = frozenset(tuple(p) for p in ser)
    inl_s = _symmetrize(inl)

    for name, rel in (("sim", sim_s), ("ser", ser_s), ("inl", inl_s)):
        for a, b in rel:
            if a not in events or b not in events:
                missing = a if a not in events else b
                raise UnknownEvent(f"unknown event {event_text(missing)!r} in {name}")
            if a == b:
                raise ReflexivePair(f"({event_text(a)},{event_text(b)}) in {name}")
    for p in ser_s:
        if p not in sim_s:
            raise SerNotInSim(f"({event_text(p[0])},{event_text(p[1])}) in ser but not in sim")
    overlap = sim_s & inl_s
    if overlap:
        a, b = min(overlap)
        raise SimInlOverlap(f"({event_text(a)},{event_text(b)}) in both sim and inl")

    if order is None:
        order = tuple(sorted(events))
    else:
        order = tuple(order)
        if set(order) != set(events) or len(order) != len(events):
            raise UnknownEvent("order must list every event exactly once")
    return GAlphabet(events=events, sim=sim_s, ser=ser_s, inl=inl_s, order=order)


@dataclass(frozen=True)
class DerivedRelations:
    ind: frozenset  # ser intersected with its inverse: fully serializable both ways
    syn: frozenset  # simultaneous but not serializable in either direction
    syn_steps: tuple  # steps all of whose distinct pairs are synchronous


def derived_relations(alphabet: GAlphabet) -> DerivedRelations:
    """ind = ser n ser^-1, syn = sim \\ (ser u ser^-1), and the synchronous steps.

    Singleton steps are (vacuously) synchronous: they cannot be simulated by
    any sequence of proper sub-steps.
    """
    ser_inv = frozenset((b, a) for a, b in alphabet.ser)
    ind = alphabet.ser & ser_inv
    syn = alphabet.sim - (alphabet.ser | ser_inv)
    syn_steps = tuple(
        s
        for s in alphabet.steps_universe()
        if all((a, b) in syn for a in s for b in s if a != b)
    )
    return DerivedRelations(ind=ind, syn=syn, syn_steps=syn_steps)


def lift_trace_alphabet(
    events: Iterable[Event],
    ind: Iterable[Pair],
    order: Iterable[Event] | None = None,
) -> GAlphabet:
    """The comtrace alphabet (E, ind, ind) of a trace alphabet (E, ind)."""
    ind_s = _symmetrize(ind)
    return galphabet(events, sim=ind_s, ser=ind_s, inl=(), order=order)


def lift_word(word: Iterable[Event]) -> tuple[Step, ...]:
    """A sequence of events as the step sequence of its singletons."""
    return tuple(frozenset([e]) for e in word)
