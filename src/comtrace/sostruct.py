"""Stratified order structures: validation, the structure induced by a step
sequence (local invariants + diamond closure), class-level intersection,
stratified extensions, and the reverse construction from a structure back to
a comtrace alphabet and comtrace.

A so-structure (X, prec, wc) pairs an "earlier than" with a "not later than"
relation.  The axioms:

  S1  wc is irreflexive
  S2  prec is contained in wc
  S3  a wc b wc c and a != c    implies  a wc c
  S4  a wc b prec c, or a prec b wc c,  implies  a prec c
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable

from .alphabet import GAlphabet, galphabet
from .congruence import CLASS_CAP, enumerate_class
from .errors import AxiomViolation, CarrierTooLarge, InlNotEmpty
from .relations import (
    EXTENSION_CARRIER_CAP,
    PointOrder,
    Relation,
    RelStructure,
    bits,
    diamond_closure,
    image,
    ordered_partitions,
    orders_of_partitions,
)
from .stepseq import (
    StepSeq,
    enumerate_occurrences,
    label,
    order_of,
)


@dataclass(frozen=True)
class SoStructure:
    carrier: frozenset
    prec: Relation
    wc: Relation

    def __le__(self, other: "SoStructure") -> bool:
        return self.carrier == other.carrier and self.prec <= other.prec and self.wc <= other.wc

    @cached_property
    def _ser(self) -> tuple[Relation, Relation]:
        """ser of the alphabet read off the structure and its inverse, over
        the carrier: read off once, however many extensions are rebuilt."""
        ser = Relation.over(self.carrier, alphabet_of_so(self).ser)
        return ser, ser.inverse()


def so_structure(carrier: Iterable, prec: Iterable[tuple], wc: Iterable[tuple]) -> SoStructure:
    carrier = frozenset(carrier)
    return SoStructure(carrier, Relation.over(carrier, prec), Relation.over(carrier, wc))


def _broken_chain(first, second, closed, points: PointOrder, skip_same=False):
    """A triple (a, b, c) with a first b, b second c, and (a, c) not in
    closed, or None; with skip_same, a = c is no violation.  All three are
    row lists over points."""
    for i, r in enumerate(first):
        bad = image(r, second) & ~closed[i]
        if skip_same:
            bad &= ~(1 << i)
        if bad:
            k = (bad & -bad).bit_length() - 1
            j = next(j for j in bits(r) if second[j] >> k & 1)
            p = points.points
            return p[i], p[j], p[k]
    return None


def validate_so(s: SoStructure) -> SoStructure:
    """Return s if it satisfies S1-S4, else raise AxiomViolation.  The axioms
    are checked in order, and the witness is a violating pair or triple."""
    points = s.wc.points
    p = points.points
    wc, prec = s.wc.rows, s.prec.rows_in(points)
    for i, r in enumerate(wc):
        if r >> i & 1:
            raise AxiomViolation("S1", (p[i], p[i]))
    for i, r in enumerate(prec):
        bad = r & ~wc[i]
        if bad:
            raise AxiomViolation("S2", (p[i], p[(bad & -bad).bit_length() - 1]))
    witness = _broken_chain(wc, wc, wc, points, skip_same=True)
    if witness:
        raise AxiomViolation("S3", witness)
    witness = _broken_chain(wc, prec, prec, points) or _broken_chain(prec, wc, prec, points)
    if witness:
        raise AxiomViolation("S4", witness)
    return s


def is_so(s: SoStructure) -> bool:
    try:
        validate_so(s)
        return True
    except AxiomViolation:
        return False


# --------------------------------------------------------------------------
# step sequence -> so-structure
# --------------------------------------------------------------------------

def _lifted(alphabet: GAlphabet, points: PointOrder, succ: tuple) -> Relation:
    """The occurrence relation (x, y) iff (label(x), label(y)) is in the
    alphabet relation given by its per-event successor masks (``succ``,
    e.g. ``alphabet.masks.ser``)."""
    events = [alphabet.key(label(x)) for x in points.points]
    occurrences = [0] * len(alphabet.order)
    for i, e in enumerate(events):
        occurrences[e] |= 1 << i
    by_event = []
    for m in succ:
        acc = 0
        for f in bits(m):
            acc |= occurrences[f]
        by_event.append(acc)
    return Relation.from_rows(points, tuple(by_event[e] for e in events))


def so_of_stepseq(alphabet: GAlphabet, s: StepSeq) -> SoStructure:
    """The so-structure induced by a single step sequence over a comtrace
    alphabet: filter the step-sequence orders by serializability, then take
    the diamond closure.

      local prec: alpha strictly before beta and (l(alpha), l(beta)) not ser
      local wc:   alpha not later than beta   and (l(beta), l(alpha)) not ser
    """
    if alphabet.inl:
        raise InlNotEmpty("induced so-structures need a comtrace alphabet")
    enum = enumerate_occurrences(s)
    ser = _lifted(alphabet, enum.points, alphabet.masks.ser)
    before = order_of(enum)
    prec = before - ser
    wc = before.weak_extension() - ser.inverse()
    closed = diamond_closure(RelStructure(enum.carrier, prec, wc))
    return validate_so(SoStructure(closed.carrier, closed.r1, closed.r2))


def _class_orders(alphabet: GAlphabet, s: StepSeq, cap: int) -> tuple[Relation, Relation, Relation]:
    """Over the members of the class of s: the occurrence pairs strictly
    earlier in every member, in different steps in every member, and not
    later in every member (the intersections of the members' stratified
    orders, of their symmetric closures and of their weak companions)."""
    members = enumerate_class(alphabet, s, cap).members
    points = enumerate_occurrences(members[0]).points
    full = points.full
    before = [full] * len(points.points)
    apart = before[:]
    not_later = before[:]
    for member in members:
        later = 0
        for step in reversed(enumerate_occurrences(member).steps):
            m = points.mask(step)
            for i in bits(m):
                before[i] &= later
                apart[i] &= full ^ m
                not_later[i] &= later | (m ^ 1 << i)
            later |= m
    return tuple(Relation.from_rows(points, tuple(r)) for r in (before, apart, not_later))


def so_of_class(alphabet: GAlphabet, s: StepSeq, cap: int = CLASS_CAP) -> SoStructure:
    """The so-structure defined by the whole class of s: the intersections of
    the generated orders and of their weak companions, over all members.

    Agrees with so_of_stepseq(alphabet, s); keeping both gives the theorem
    its two independent sides.
    """
    if alphabet.inl:
        raise InlNotEmpty("induced so-structures need a comtrace alphabet")
    prec, _, wc = _class_orders(alphabet, s, cap)
    return validate_so(SoStructure(prec.carrier, prec, wc))


# --------------------------------------------------------------------------
# stratified extensions and the Szpilrajn-style reconstruction
# --------------------------------------------------------------------------

def extensions_so(s: SoStructure, cap: int = EXTENSION_CARRIER_CAP) -> list[Relation]:
    """All stratified orders that extend the structure: prec forces strictly
    earlier blocks, wc forces not-later blocks."""
    if len(s.carrier) > cap:
        raise CarrierTooLarge(f"carrier of {len(s.carrier)} points exceeds cap {cap}")
    parts = ordered_partitions(s.carrier, strict=s.prec, weak=s.wc)
    return orders_of_partitions(s.prec.points, parts)


def so_from_orders(orders: Iterable[Relation]) -> SoStructure:
    """(X, intersection of the orders, intersection of their weak companions).

    Applied to extensions_so(s) this reconstructs s exactly.
    """
    orders = list(orders)
    assert orders, "need at least one stratified order"
    prec = reduce(Relation.__and__, orders)
    wc = reduce(Relation.__and__, (o.weak_extension() for o in orders))
    return SoStructure(prec.carrier, prec, wc)


def pi3_witness(orders: Iterable[Relation]) -> tuple | None:
    """A pair ordered both ways by members of the set but never simultaneous,
    or None.  None means the set of orders satisfies the simultaneity-closure
    paradigm: a ordered before b somewhere and after b somewhere else forces
    an order where they share a block."""
    orders = list(orders)
    assert orders
    carrier = sorted(orders[0].carrier, key=repr)
    frowns = [o.incomparability() for o in orders]
    for a in carrier:
        for b in carrier:
            if a == b:
                continue
            if any((a, b) in o for o in orders) and any((b, a) in o for o in orders):
                if not any((a, b) in f for f in frowns):
                    return (a, b)
    return None


def pi3_check(orders: Iterable[Relation]) -> bool:
    return pi3_witness(orders) is None


# --------------------------------------------------------------------------
# so-structure -> comtrace
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class InducedComtrace:
    alphabet: GAlphabet
    members: tuple  # the step sequences of the extensions, in ordered_partitions' order


def alphabet_of_so(s: SoStructure, order: tuple | None = None) -> GAlphabet:
    """The comtrace alphabet (X, sim, ser) read off a so-structure:

      sim: distinct and prec-incomparable
      ser: sim, and additionally not wc-related the other way
    """
    sim = s.prec.incomparability()
    ser = sim - s.wc.inverse()
    return galphabet(s.carrier, sim=sim.pairs, ser=ser.pairs, order=order)


def comtrace_of_so(s: SoStructure, order: tuple | None = None) -> InducedComtrace:
    """The comtrace generated by a so-structure: the step sequences of all
    stratified extensions, over the read-off alphabet.  This set is a single
    congruence class of that alphabet, and its induced so-structure is s
    again (both facts are theorems, exercised by the tests).  The members
    come in the generator's order, which depends on the structure alone."""
    theta = alphabet_of_so(s, order=order)
    parts = ordered_partitions(s.carrier, strict=s.prec, weak=s.wc)
    return InducedComtrace(alphabet=theta, members=tuple(tuple(part) for part in parts))


def so_from_extension(s: SoStructure, ext: Relation) -> SoStructure:
    """Rebuild the structure from any single one of its stratified extensions:
    (X, ext minus ser, weak-ext minus ser-inverse), no closure needed."""
    ser, ser_back = s._ser
    return SoStructure(s.carrier, ext - ser, ext.weak_extension() - ser_back)
