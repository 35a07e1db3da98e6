"""The (g-)comtrace congruence: one-step rewrites, class enumeration,
equivalence testing and quotient composition.

Two step sequences are congruent when one rewrites to the other by a chain of

* splits   wAz  ->  wBCz   where A = B u C, B n C = empty, B x C in ser,
* joins    wBCz ->  wAz    under the same side condition, and
* swaps    wABz ->  wBAz   where A x B in inl

(the last only contributes on genuine g-comtrace alphabets).  The rewrites
run on the alphabet's mask view (``GAlphabet.masks``): a step is an int whose
bits are its events' positions in ``order``, and ser/inl are per-event
successor masks, so "B x C in ser" is "C lies inside the AND of the ser
successors of B's events".  Each distinct step gets one rewrite record on the
view, holding its mask, those ANDs for ser and inl, and its splits, so a
rewrite reads the records of its steps and only a join converts a mask back
to a step.  Bits follow ``order``; the frozenset steps stay the interface.

Classes are materialized by breadth-first search with a hard member cap; the
visited set is keyed on the step sequences themselves, and the members are
returned sorted by rendered text (each distinct step rendered once), so the
order is reproducible and independent of the search order.  The class cache
(``_class_members``) holds the last ``CLASS_CACHE_SIZE`` classes and finds
each by any of its members, since the classes partition the sequences.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache
from threading import Lock

from .alphabet import GAlphabet
from .errors import ClassCapExceeded, NotTraceAlphabet
from .stepseq import StepSeq, counts, render, weight

CLASS_CAP = 100_000
# classes kept by the enumeration cache; a long process (a sampling loop over
# fresh random alphabets) must not grow without bound, since each entry also
# keeps its alphabet alive
CLASS_CACHE_SIZE = 2048


@dataclass(frozen=True)
class ClassSet:
    """A materialized equivalence class: members sorted by rendered text."""

    alphabet: GAlphabet
    members: tuple

    @property
    def representative(self) -> str:
        return render(self.alphabet, self.members[0])

    @cached_property
    def member_set(self) -> frozenset:
        return frozenset(self.members)

    def __contains__(self, s: StepSeq) -> bool:
        return s in self.member_set

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


def rewrite_neighbors(alphabet: GAlphabet, s: StepSeq) -> set:
    """Everything reachable from s by a single split, join or swap."""
    view = alphabet.masks
    recs = [view.rewrites(a) for a in s]
    out = set()
    for i, rec in enumerate(recs):
        for split in rec.splits:
            out.add(s[:i] + split + s[i + 1:])
    inl = alphabet.inl
    for i in range(len(s) - 1):
        (b, ser_b, inl_b, _), c = recs[i], recs[i + 1].mask
        if not b & c and not c & ~ser_b:
            out.add(s[:i] + (view.from_mask(b | c),) + s[i + 2:])
        if inl and not c & ~inl_b:
            out.add(s[:i] + (s[i + 1], s[i]) + s[i + 2:])
    return out


ClassCacheInfo = namedtuple("ClassCacheInfo", "hits misses classes members")


class _ClassIndex:
    """The class cache: the last ``maxsize`` classes computed, in LRU order,
    each found by any of its members.

    The classes under one ``(alphabet, cap)`` partition the step sequences,
    so a class computed from one member is the class of every other member:
    the sorted member tuple is stored once and each member is indexed to it.
    The BFS runs only when no held class contains the sequence; a class over
    the cap raises from the BFS and is not stored.  Eviction drops a whole
    class with its member keys, and an ``(alphabet, cap)`` left with no
    class, so an evicted alphabet is freed.

    Storing and evicting take a lock; a lookup does not, as each of its dict
    steps is atomic and a class evicted meanwhile is still the right answer.
    The hit and miss counts are exact when one thread uses the cache.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._lock = Lock()
        self._groups: dict = {}  # (alphabet, cap) -> {member: _Held}
        self._lru: OrderedDict = OrderedDict()  # _Held -> None, least recent first
        self._hits = self._misses = 0

    def __call__(self, alphabet: GAlphabet, s: StepSeq, cap: int) -> tuple:
        key = (alphabet, cap)
        group = self._groups.get(key)
        held = group.get(s) if group else None
        if held is not None:
            self._hits += 1
            try:
                self._lru.move_to_end(held)
            except KeyError:  # evicted by another thread meanwhile
                pass
            return held.members
        self._misses += 1
        members = _bfs(alphabet, s, cap)
        with self._lock:
            group = self._groups.setdefault(key, {})
            held = group.get(s)
            if held is None:  # not stored meanwhile by another thread
                held = _Held(key, group, members)
                for m in members:
                    group[m] = held
                lru = self._lru
                lru[held] = None
                if len(lru) > self.maxsize:
                    old = lru.popitem(last=False)[0]
                    for m in old.members:
                        del old.group[m]
                    if not old.group:
                        del self._groups[old.key]
            return held.members

    def cache_info(self) -> ClassCacheInfo:
        with self._lock:
            return ClassCacheInfo(
                self._hits, self._misses, len(self._lru),
                sum(map(len, self._groups.values())),
            )

    def cache_clear(self) -> None:
        with self._lock:
            self._groups.clear()
            self._lru.clear()
            self._hits = self._misses = 0


class _Held:
    """One held class: its cache key, the key's member index and its sorted
    member tuple."""

    __slots__ = ("key", "group", "members")

    def __init__(self, key: tuple, group: dict, members: tuple):
        self.key = key
        self.group = group
        self.members = members


def _bfs(alphabet: GAlphabet, s: StepSeq, cap: int) -> tuple:
    frontier = [s]
    seen = {s}
    while frontier:
        nxt = []
        for u in frontier:
            for v in rewrite_neighbors(alphabet, u):
                if v not in seen:
                    if len(seen) >= cap:
                        raise ClassCapExceeded(
                            f"class of {render(alphabet, s)} exceeds {cap} members"
                        )
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    # each distinct step rendered once; a member's text is its steps' texts
    # joined, as render would give it (the class of lambda has one member)
    texts = {a: render(alphabet, (a,)) for a in {a for v in seen for a in v}}
    return tuple(sorted(seen, key=lambda v: "".join([texts[a] for a in v])))


_class_members = _ClassIndex(CLASS_CACHE_SIZE)


def enumerate_class(alphabet: GAlphabet, s: StepSeq, cap: int = CLASS_CAP) -> ClassSet:
    """The full congruence class of s (breadth-first closure of the rewrites)."""
    return ClassSet(alphabet, _class_members(alphabet, s, cap))


def equivalent(alphabet: GAlphabet, s: StepSeq, t: StepSeq, cap: int = CLASS_CAP) -> bool:
    """Are s and t congruent?  Weight/count screens first; canonical forms
    when the alphabet is a comtrace alphabet; class membership in general."""
    if s == t:
        return True
    if weight(s) != weight(t) or counts(s) != counts(t):
        return False
    if alphabet.is_comtrace:
        from .canonical import canonicalize

        return canonicalize(alphabet, s) == canonicalize(alphabet, t)
    return t in enumerate_class(alphabet, s, cap)


def compose_classes(alphabet: GAlphabet, s: StepSeq, t: StepSeq, cap: int = CLASS_CAP) -> ClassSet:
    """The class of the concatenation: [s][t] = [st]."""
    return enumerate_class(alphabet, s + t, cap)


# --------------------------------------------------------------------------
# word-level traces
#
# A trace is the word-level quotient: only adjacent swaps of independent
# letters, no steps.  Over the lifted alphabet (E, ind, ind) the comtrace
# class of a lifted word is strictly larger (it contains genuine multi-event
# steps); the embedding x ind-equiv y  iff  lift(x) ser-equiv lift(y) relates
# the two quotients.
# --------------------------------------------------------------------------

def trace_neighbors(alphabet: GAlphabet, word: tuple) -> set:
    if not alphabet.is_trace:
        raise NotTraceAlphabet("trace operations need a lifted trace alphabet (sim = ser)")
    ind = alphabet.ser
    out = set()
    for i in range(len(word) - 1):
        if (word[i], word[i + 1]) in ind:
            out.add(word[:i] + (word[i + 1], word[i]) + word[i + 2:])
    return out


@lru_cache(maxsize=CLASS_CACHE_SIZE)
def _trace_members(alphabet: GAlphabet, word: tuple, cap: int) -> tuple:
    frontier = [word]
    seen = {word}
    while frontier:
        nxt = []
        for u in frontier:
            for v in trace_neighbors(alphabet, u):
                if v not in seen:
                    if len(seen) >= cap:
                        raise ClassCapExceeded(f"trace class of {word} exceeds {cap} members")
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return tuple(sorted(seen))


def trace_class(alphabet: GAlphabet, word: tuple, cap: int = CLASS_CAP) -> tuple:
    """All words congruent to the given word under adjacent-swap rewriting."""
    return _trace_members(alphabet, tuple(word), cap)
