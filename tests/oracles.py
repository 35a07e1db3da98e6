"""Brute-force oracles for the bitmask kernels of the library.

These are the rewrite rules, forward dependency, the relation operators,
the extension generator, the structure axioms and the structure
constructions written straight from their definitions, over frozenset steps
and pair sets, with no event or point indexing and no masks.  The tests hold
the library's kernels to them, set for set, in yield order, and witness for
witness.
"""
from __future__ import annotations

from itertools import combinations, permutations

from comtrace.canonical import FdWitness, step_order_key
from comtrace.stepseq import enumerate_occurrences, label


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


# --------------------------------------------------------------------------
# relations: a relation is (carrier, pairs), both frozensets
# --------------------------------------------------------------------------

def oracle_transitive_closure(carrier, pairs) -> frozenset:
    succ = {x: {b for a, b in pairs if a == x} for x in carrier}
    closed = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(closed):
            for c in succ[b]:
                if (a, c) not in closed:
                    closed.add((a, c))
                    changed = True
    return frozenset(closed)


def oracle_reflexive_transitive_closure(carrier, pairs) -> frozenset:
    return oracle_transitive_closure(carrier, pairs) | frozenset((x, x) for x in carrier)


def oracle_symmetric_closure(pairs) -> frozenset:
    return pairs | frozenset((b, a) for a, b in pairs)


def oracle_symmetric_intersection(pairs) -> frozenset:
    return frozenset(p for p in pairs if (p[1], p[0]) in pairs)


def oracle_complement(carrier, pairs) -> frozenset:
    return frozenset((a, b) for a in carrier for b in carrier) - pairs


def oracle_compose(r, s) -> frozenset:
    """Left-to-right: (a, c) iff a r b and b s c for some b."""
    by_first = {}
    for b, c in s:
        by_first.setdefault(b, set()).add(c)
    return frozenset((a, c) for a, b in r for c in by_first.get(b, ()))


def oracle_incomparability(carrier, pairs) -> frozenset:
    return frozenset(
        (a, b)
        for a in carrier
        for b in carrier
        if a != b and (a, b) not in pairs and (b, a) not in pairs
    )


def oracle_ordered_partitions(carrier, strict=(), weak=(), apart=()):
    """Every ordered set partition honouring strict (earlier block), weak
    (not-later block) and apart (different blocks), front block by front
    block, the candidates of each stage ordered by their sorted point reprs."""
    carrier = frozenset(carrier)
    strict, weak, apart = frozenset(strict), frozenset(weak), frozenset(apart)

    def blocks(remaining):
        if not remaining:
            yield ()
            return
        ok = {x for x in remaining if not any((y, x) in strict for y in remaining)}
        closure = {}
        for x in ok:
            need = {x}
            frontier = [x]
            while frontier:
                cur = frontier.pop()
                for y in remaining:
                    if (y, cur) in weak and y not in need:
                        need.add(y)
                        frontier.append(y)
            if need <= ok:
                closure[x] = frozenset(need)
        usable = sorted(closure, key=repr)
        candidates = set()
        for r in range(1, len(usable) + 1):
            for picked in combinations(usable, r):
                block = frozenset().union(*(closure[x] for x in picked))
                if not any((a, b) in apart for a in block for b in block):
                    candidates.add(block)
        for block in sorted(candidates, key=lambda b: sorted(map(repr, b))):
            for rest in blocks(remaining - block):
                yield (block, *rest)

    yield from blocks(carrier)


# --------------------------------------------------------------------------
# structure axioms: the first violated axiom in S1, S2, S3, S4 (wc then
# prec first), G1, G2 order, with a witness, or None
# --------------------------------------------------------------------------

def oracle_so_violation(prec, wc):
    for a, b in wc:
        if a == b:
            return "S1", (a, b)
    for p in prec:
        if p not in wc:
            return "S2", p
    for (a, b), (b2, c) in permutations(wc, 2):
        if b == b2 and a != c and (a, c) not in wc:
            return "S3", (a, b, c)
    for a, b in wc:
        for b2, c in prec:
            if b == b2 and (a, c) not in prec:
                return "S4", (a, b, c)
    for a, b in prec:
        for b2, c in wc:
            if b == b2 and (a, c) not in prec:
                return "S4", (a, b, c)
    return None


def oracle_gso_violation(cmt, wc):
    for a, b in wc:
        if a == b:
            return "G1", (a, b)
    for a, b in cmt:
        if a == b or (b, a) not in cmt:
            return "G2", (a, b)
    return oracle_so_violation(cmt & wc, wc)


def violates(axiom, witness, first, second) -> bool:
    """Does the witness really break the axiom?  (first, second) are the pair
    sets (prec, wc) for S1-S4 and (cmt, wc) for G1, G2."""
    if axiom in ("S1", "G1"):
        a, b = witness
        return a == b and (a, b) in second
    if axiom == "G2":
        a, b = witness
        return (a, b) in first and (a == b or (b, a) not in first)
    if axiom == "S2":
        return witness in first and witness not in second
    a, b, c = witness
    if axiom == "S3":
        return (a, b) in second and (b, c) in second and a != c and (a, c) not in second
    if axiom == "S4":
        chained = ((a, b) in second and (b, c) in first) or ((a, b) in first and (b, c) in second)
        return chained and (a, c) not in first
    raise ValueError(axiom)


# --------------------------------------------------------------------------
# structure constructions from step sequences and classes
# --------------------------------------------------------------------------

def _positions(s):
    enum = enumerate_occurrences(s)
    return enum.carrier, enum.pos


def oracle_step_orders(s):
    """(carrier, strictly earlier, not later and distinct) of a step sequence."""
    carrier, pos = _positions(s)
    before = frozenset((x, y) for x in carrier for y in carrier if pos[x] < pos[y])
    not_later = frozenset(
        (x, y) for x in carrier for y in carrier if x != y and pos[x] <= pos[y]
    )
    return carrier, before, not_later


def oracle_so_local(alphabet, s):
    """(carrier, prec, wc) before the diamond closure."""
    carrier, before, not_later = oracle_step_orders(s)
    ser = alphabet.ser
    prec = frozenset((x, y) for x, y in before if (label(x), label(y)) not in ser)
    wc = frozenset((x, y) for x, y in not_later if (label(y), label(x)) not in ser)
    return carrier, prec, wc


def oracle_diamond(carrier, r1, r2):
    star = oracle_reflexive_transitive_closure(carrier, r1 | r2)
    prec = oracle_compose(oracle_compose(star, r1), star)
    return prec, star - frozenset((x, x) for x in carrier)


def oracle_bowtie(carrier, r1, r2):
    r3 = r1 & oracle_reflexive_transitive_closure(carrier, r2)
    prec, wc = oracle_diamond(carrier, r3, r2)
    return oracle_symmetric_closure(prec) | r1, wc


def oracle_gso_local(alphabet, s):
    """(carrier, cmt, wc, prec) read off one step sequence, before the bowtie
    closure; the three prec cases as in `gsostruct._local_invariants`."""
    carrier, before, not_later = oracle_step_orders(s)
    _, pos = _positions(s)
    ser, inl = alphabet.ser, alphabet.inl
    serinl = ser | inl
    cmt = frozenset(
        (x, y) for x in carrier for y in carrier if (label(x), label(y)) in inl
    )
    wc = frozenset((x, y) for x, y in not_later if (label(y), label(x)) not in serinl)
    wreach = oracle_reflexive_transitive_closure(carrier, wc)
    both_ways = oracle_symmetric_intersection(wreach)
    squeeze = oracle_compose(
        oracle_compose(both_ways, oracle_complement(carrier, cmt)), both_ways
    )
    prec = set()
    for x, y in before:
        if (label(x), label(y)) not in serinl:
            prec.add((x, y))
        elif (x, y) in cmt and (x, y) in squeeze:
            prec.add((x, y))
        elif (label(x), label(y)) in ser:
            between = [z for z in carrier if (x, z) in wreach and (z, y) in wreach]
            if any(
                pos[d] < pos[g] and (label(d), label(g)) not in ser
                for d in between
                for g in between
            ):
                prec.add((x, y))
    return carrier, cmt, wc, frozenset(prec)


def oracle_class_intersections(members):
    """(carrier, strictly earlier in every member, in different steps in
    every member, not later in every member)."""
    orders = [oracle_step_orders(m) for m in members]
    carrier = orders[0][0]
    before = frozenset.intersection(*(b for _, b, _ in orders))
    apart = frozenset.intersection(*(oracle_symmetric_closure(b) for _, b, _ in orders))
    not_later = frozenset.intersection(*(w for _, _, w in orders))
    return carrier, before, apart, not_later
