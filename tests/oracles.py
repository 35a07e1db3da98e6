"""Brute-force oracles for the bitmask kernels of `congruence` and `canonical`.

These are the rewrite rules and forward dependency written straight from
their definitions, over frozenset steps and the ser/inl pair sets, with no
event indexing and no masks.  The tests hold the library's kernels to them,
set for set and witness for witness.
"""
from __future__ import annotations

from itertools import combinations

from comtrace.canonical import FdWitness, step_order_key


def oracle_splits(step, ser):
    """All ordered pairs (B, C) partitioning the step with B x C in ser."""
    members = sorted(step, key=repr)
    for r in range(1, len(members)):
        for combo in combinations(members, r):
            b = frozenset(combo)
            c = step - b
            if all((x, y) in ser for x in b for y in c):
                yield b, c


def oracle_rewrite_neighbors(alphabet, s) -> set:
    """Everything reachable from s by a single split, join or swap."""
    out = set()
    ser, inl = alphabet.ser, alphabet.inl
    for i, step in enumerate(s):
        for b, c in oracle_splits(step, ser):
            out.add(s[:i] + (b, c) + s[i + 1:])
    for i in range(len(s) - 1):
        b, c = s[i], s[i + 1]
        if b.isdisjoint(c) and all((x, y) in ser for x in b for y in c):
            out.add(s[:i] + (b | c,) + s[i + 2:])
        if all((x, y) in inl for x in b for y in c):
            out.add(s[:i] + (c, b) + s[i + 2:])
    out.discard(s)
    return out


def oracle_witnesses(alphabet, a, b) -> list:
    """Every nonempty sub-step c of b with a x c and c x (b \\ c) in ser."""
    ser = alphabet.ser
    members = sorted(b, key=repr)
    n = len(members)
    out = []
    for mask in range(1, 1 << n):
        c = frozenset(members[i] for i in range(n) if mask & (1 << i))
        if all((x, y) in ser for x in a for y in c) and all(
            (x, y) in ser for x in c for y in b - c
        ):
            out.append(c)
    return out


def oracle_forward_dependent(alphabet, a, b):
    """The best witness (largest c, ties by the step order) or None."""
    best = None
    best_key = None
    for c in oracle_witnesses(alphabet, a, b):
        key = (-len(c), step_order_key(alphabet, c))
        if best is None or key < best_key:
            best, best_key = c, key
    if best is None:
        return None
    return FdWitness(a=a, b=b, c=best)
