"""Canonical representatives: forward dependency and the comtrace canonical
form, greedy/maximal concurrency predicates, the step and lexicographic
orders, the g-canonical form, and the trace-level Foata machinery.

The orders:

* step order:  A < B  iff  |A| > |B|, or sizes tie and the least event of
  A \\ B precedes the least of B \\ A (bigger steps first, then by <E);
* lexicographic order on sequences: componentwise by the step order, with a
  proper prefix preceding its extensions.

Both reduce to plain tuple comparison of the keys computed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from .alphabet import GAlphabet, MaskView, Step, lift_word
from .congruence import CLASS_CACHE_SIZE, CLASS_CAP, enumerate_class
from .errors import InlNotEmpty, NotTraceAlphabet
from .stepseq import StepSeq


# --------------------------------------------------------------------------
# step and lexicographic orders
# --------------------------------------------------------------------------

def step_order_key(alphabet: GAlphabet, step: Step) -> tuple:
    """Key whose natural tuple order is the total step order."""
    return (-len(step), tuple(sorted(alphabet.key(e) for e in step)))


def lex_key(alphabet: GAlphabet, s: StepSeq) -> tuple:
    return tuple(step_order_key(alphabet, step) for step in s)


def compare(alphabet: GAlphabet, x, y, mode: str = "lex") -> int:
    """-1, 0 or 1 comparing two steps (mode='step') or sequences (mode='lex')."""
    if mode == "step":
        kx, ky = step_order_key(alphabet, x), step_order_key(alphabet, y)
    elif mode == "lex":
        kx, ky = lex_key(alphabet, x), lex_key(alphabet, y)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return (kx > ky) - (kx < ky)


# --------------------------------------------------------------------------
# forward dependency and the canonical form
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FdWitness:
    """(a, b) is forward dependent, certified by the sub-step c of b whose
    events can migrate into a:  a x c in ser  and  c x (b \\ c) in ser."""

    a: Step
    b: Step
    c: Step


def forward_dependent(alphabet: GAlphabet, a: Step, b: Step) -> FdWitness | None:
    """The best witness, the largest c (it is unique; see _migrant), or None."""
    if alphabet.inl:
        raise InlNotEmpty("forward dependency is defined for comtrace alphabets only")
    view = alphabet.masks
    c = _migrant(view, view.to_mask(a), view.to_mask(b))
    return FdWitness(a=a, b=b, c=view.from_mask(c)) if c else None


def _migrant(view: MaskView, a: int, b: int) -> int:
    """The largest witness c of forward dependency of the step masks (a, b), or 0.

    Witnesses are closed under union: if c1 and c2 qualify, every event of
    c1 | c2 serializes before all of b ^ (c1 | c2).  So the largest witness
    is unique, the step-order tie-break never decides, and it is the greatest
    fixpoint of  c -> {x in c : ser[x] contains b ^ c},  started from the
    events of b that all of a serializes before.
    """
    ser = view.ser
    c = b & view.common(ser, a)
    while c:
        rest, kept, m = b ^ c, c, c
        while m:
            low = m & -m
            if rest & ~ser[low.bit_length() - 1]:
                kept ^= low
            m ^= low
        if kept == c:
            return c
        c = kept
    return 0


def is_canonical(alphabet: GAlphabet, s: StepSeq) -> bool:
    """No adjacent pair is forward dependent (lambda and single steps are)."""
    if alphabet.inl:
        raise InlNotEmpty("canonical form is defined for comtrace alphabets only")
    return all(
        forward_dependent(alphabet, s[i], s[i + 1]) is None for i in range(len(s) - 1)
    )


def canonicalize(alphabet: GAlphabet, s: StepSeq) -> StepSeq:
    """The unique canonical member of [s], by repeated local rewriting of the
    leftmost forward-dependent pair: a, b  ->  a u c, b \\ c.

    Each rewrite strictly grows the prefix-weight tuple lexicographically, so
    the loop terminates; uniqueness of the canonical member makes any
    rewriting strategy correct.  After a rewrite at i the scan resumes at
    i - 1: the pairs left of it are unchanged and none was forward dependent,
    so it is still the leftmost pair that is rewritten.
    """
    if alphabet.inl:
        raise InlNotEmpty("canonical form is defined for comtrace alphabets only")
    view = alphabet.masks
    ms = [view.to_mask(a) for a in s]
    i = 0
    while i < len(ms) - 1:
        c = _migrant(view, ms[i], ms[i + 1])
        if c:
            ms[i] |= c
            if ms[i + 1] == c:
                del ms[i + 1]
            else:
                ms[i + 1] ^= c
            i = max(i - 1, 0)
        else:
            i += 1
    return tuple(map(view.from_mask, ms))


# --------------------------------------------------------------------------
# greedy / maximal concurrency (oracle-grade, by class enumeration)
# --------------------------------------------------------------------------

def _max_first_step(alphabet: GAlphabet, suffix: StepSeq, cap: int) -> int:
    cls = enumerate_class(alphabet, suffix, cap)
    return max(len(m[0]) for m in cls.members)


def is_gmc(alphabet: GAlphabet, s: StepSeq, cap: int = CLASS_CAP) -> bool:
    """Every suffix opens with a step of maximal size over the suffix class."""
    return all(
        len(s[i]) == _max_first_step(alphabet, s[i:], cap) for i in range(len(s))
    )


@lru_cache(maxsize=CLASS_CACHE_SIZE)
def _mc_index(alphabet: GAlphabet, s: StepSeq, cap: int) -> int:
    """1-based index of the first step that is maximally concurrent in s."""
    for i in range(len(s)):
        if len(s[i]) == _max_first_step(alphabet, s[i:], cap):
            return i + 1
    raise AssertionError("the last step is always maximally concurrent")


def is_mc(alphabet: GAlphabet, s: StepSeq, cap: int = CLASS_CAP) -> bool:
    """Maximally concurrent: shortest in its class, and every suffix has the
    earliest possible first maximally-concurrent step among equally long
    congruent sequences."""
    cls = enumerate_class(alphabet, s, cap)
    if len(s) != min(len(m) for m in cls.members):
        return False
    for i in range(len(s)):
        suffix = s[i:]
        mci = _mc_index(alphabet, suffix, cap)
        for w in enumerate_class(alphabet, suffix, cap).members:
            if len(w) == len(suffix) and _mc_index(alphabet, w, cap) < mci:
                return False
    return True


def g_canonical(alphabet: GAlphabet, s: StepSeq, cap: int = CLASS_CAP) -> StepSeq:
    """The lexicographically least member of [s] (any alphabet)."""
    members = enumerate_class(alphabet, s, cap).members
    # lex_key with each distinct step's key computed once
    keys = {step: step_order_key(alphabet, step) for step in set(chain.from_iterable(members))}
    return min(members, key=lambda m: tuple(map(keys.__getitem__, m)))


# --------------------------------------------------------------------------
# traces: maximal decomposition, GMC words, Foata form
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceForms:
    decomposition: tuple  # maximal fully-commutative blocks of the input word
    foata: tuple  # blocks of the Foata normal form (each sorted by <E)
    max_stepseq: StepSeq  # the block sets of the input word, as steps


def fully_commutative(alphabet: GAlphabet, word: tuple) -> bool:
    """All distinct positions pairwise independent (repeats are dependent)."""
    if not alphabet.is_trace:
        raise NotTraceAlphabet("needs a lifted trace alphabet (sim = ser)")
    ind = alphabet.ser
    return all(
        (word[i], word[j]) in ind for i in range(len(word)) for j in range(i + 1, len(word))
    )


def trace_decomposition(alphabet: GAlphabet, word: tuple) -> tuple:
    """The unique maximal fully-commutative decomposition, greedily."""
    if not alphabet.is_trace:
        raise NotTraceAlphabet("needs a lifted trace alphabet (sim = ser)")
    ind = alphabet.ser
    blocks: list[tuple] = []
    cur: list = []
    for a in word:
        if all((b, a) in ind for b in cur):
            cur.append(a)
        else:
            blocks.append(tuple(cur))
            cur = [a]
    if cur:
        blocks.append(tuple(cur))
    return tuple(blocks)


def is_trace_gmc(alphabet: GAlphabet, word: tuple) -> bool:
    """A word is greedily maximally concurrent iff the step sequence of its
    maximal decomposition is canonical over the lifted alphabet."""
    blocks = trace_decomposition(alphabet, word)
    return is_canonical(alphabet, tuple(frozenset(b) for b in blocks))


def foata_trace(alphabet: GAlphabet, word: tuple) -> TraceForms:
    """Maximal decomposition, Foata normal form, and the step-set image.

    The Foata blocks are the steps of the canonical form of the lifted word,
    each written in <E order (the lexicographically least arrangement of a
    fully-commutative block).
    """
    word = tuple(word)
    blocks = trace_decomposition(alphabet, word)
    canon = canonicalize(alphabet, lift_word(word))
    foata = tuple(tuple(alphabet.sort_events(step)) for step in canon)
    return TraceForms(
        decomposition=blocks,
        foata=foata,
        max_stepseq=tuple(frozenset(b) for b in blocks),
    )
