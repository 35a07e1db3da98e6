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
successors of B's events".  Bits follow ``order``; the frozenset steps stay
the interface.

Classes are materialized by breadth-first search with a hard member cap; the
visited set is keyed on the step sequences themselves, and the members are
returned sorted by rendered text (each distinct step rendered once), so the
order is reproducible and independent of the search order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

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
    ser, inl, common, step = view.ser, view.inl, view.common, view.from_mask
    ms = [view.to_mask(a) for a in s]
    out = set()
    for i, m in enumerate(ms):
        # splits: every proper nonempty submask b of m with (m ^ b) inside
        # the events all of b serializes before
        b = (m - 1) & m
        while b:
            c = m ^ b
            if not c & ~common(ser, b):
                out.add(s[:i] + (step(b), step(c)) + s[i + 1:])
            b = (b - 1) & m
    for i in range(len(ms) - 1):
        b, c = ms[i], ms[i + 1]
        if not b & c and not c & ~common(ser, b):
            out.add(s[:i] + (step(b | c),) + s[i + 2:])
        if alphabet.inl and not c & ~common(inl, b):
            out.add(s[:i] + (s[i + 1], s[i]) + s[i + 2:])
    return out


@lru_cache(maxsize=CLASS_CACHE_SIZE)
def _class_members(alphabet: GAlphabet, s: StepSeq, cap: int) -> tuple:
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
