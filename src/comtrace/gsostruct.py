"""Generalized stratified order structures (commutativity + weak causality),
their induced so-structure, the structure generated by a step sequence over a
g-comtrace alphabet (local invariants + bowtie closure), stratified
extensions, the reverse construction back to a g-comtrace, the semi-canonical
step builder, and serializability analysis of single steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable

from .alphabet import GAlphabet, Step, galphabet
from .canonical import step_order_key
from .congruence import CLASS_CAP
from .errors import AxiomViolation, CarrierTooLarge, EmptyZ
from .relations import (
    EXTENSION_CARRIER_CAP,
    Relation,
    RelStructure,
    bits,
    bowtie_closure,
    image,
    ordered_partitions,
    orders_of_partitions,
    transpose,
)
from .sostruct import SoStructure, _class_orders, _lifted, validate_so
from .stepseq import (
    StepSeq,
    enumerate_occurrences,
    label,
    order_of,
)

SEMICAN_MINS_CAP = 20


@dataclass(frozen=True)
class GsoStructure:
    carrier: frozenset
    cmt: Relation  # commutativity: never simultaneous
    wc: Relation  # weak causality: not later than

    @property
    def induced_so(self) -> SoStructure:
        return SoStructure(self.carrier, self.cmt & self.wc, self.wc)

    def __le__(self, other: "GsoStructure") -> bool:
        return self.carrier == other.carrier and self.cmt <= other.cmt and self.wc <= other.wc

    @cached_property
    def _ser_inl(self) -> tuple[Relation, Relation, Relation]:
        """ser, its inverse and inl of the alphabet read off the structure,
        over the carrier: read off (and validated) once, however many
        extensions are rebuilt."""
        theta = alphabet_of_gso(self)
        ser = Relation.over(self.carrier, theta.ser)
        return ser, ser.inverse(), Relation.over(self.carrier, theta.inl)


def gso_structure(carrier: Iterable, cmt: Iterable[tuple], wc: Iterable[tuple]) -> GsoStructure:
    carrier = frozenset(carrier)
    return GsoStructure(carrier, Relation.over(carrier, cmt), Relation.over(carrier, wc))


def validate_gso(g: GsoStructure) -> GsoStructure:
    """wc irreflexive, cmt symmetric irreflexive, induced so-structure valid."""
    points = g.wc.points
    p = points.points
    for i, r in enumerate(g.wc.rows):
        if r >> i & 1:
            raise AxiomViolation("G1", (p[i], p[i]))
    cmt = g.cmt.rows_in(points)
    for i, (r, back) in enumerate(zip(cmt, transpose(cmt))):
        bad = r & (1 << i | ~back)
        if bad:
            raise AxiomViolation("G2", (p[i], p[(bad & -bad).bit_length() - 1]))
    validate_so(g.induced_so)
    return g


def is_gso(g: GsoStructure) -> bool:
    try:
        validate_gso(g)
        return True
    except AxiomViolation:
        return False


# --------------------------------------------------------------------------
# step sequence -> gso-structure
# --------------------------------------------------------------------------

def _local_invariants(alphabet: GAlphabet, s: StepSeq):
    """The three occurrence relations read off a single step sequence.

    cmt: labels interleaving-related.
    wc:  not later, and the reversal is neither serializable nor interleaving.
    prec: strictly earlier, and one of
      (i)   the pair is neither serializable nor interleaving;
      (ii)  cmt, but forced apart by cmt-free company inside weak cycles;
      (iii) serializable, but two occurrences strictly ordered and not
            serializable are squeezed between the pair along weak chains.
    """
    enum = enumerate_occurrences(s)
    view = alphabet.masks
    ser = _lifted(alphabet, enum.points, view.ser)
    cmt = _lifted(alphabet, enum.points, view.inl)
    serinl = ser | cmt
    before = order_of(enum)
    wc = before.weak_extension() - serinl.inverse()
    wreach = wc.reflexive_transitive_closure()
    both_ways = wreach.symmetric_intersection()
    squeeze = both_ways.compose(cmt.complement()).compose(both_ways)
    # (iii): y is kept when some d between x and y (along wreach) is strictly
    # before and not serializable with another g between them
    unser = (before - ser).rows
    reach, reached = wreach.rows, transpose(wreach.rows)
    rows = []
    for i, r in enumerate((before & ser).rows):
        kept = 0
        for j in bits(r):
            between = reach[i] & reached[j]
            if image(between, unser) & between:
                kept |= 1 << j
        rows.append(kept)
    squeezed = Relation.from_rows(before.points, tuple(rows))
    prec = (before - serinl) | (before & cmt & squeeze) | squeezed
    return cmt, wc, prec


def gso_of_stepseq(alphabet: GAlphabet, s: StepSeq) -> GsoStructure:
    """The gso-structure induced by a single step sequence: bowtie closure of
    (prec u cmt, prec u wc) over the local invariants."""
    cmt, wc, prec = _local_invariants(alphabet, s)
    closed = bowtie_closure(RelStructure(cmt.carrier, prec | cmt, prec | wc))
    return validate_gso(GsoStructure(closed.carrier, closed.r1, closed.r2))


def gso_of_class(alphabet: GAlphabet, s: StepSeq, cap: int = CLASS_CAP) -> GsoStructure:
    """The gso-structure defined by the whole class: intersection of the
    symmetric closures of the generated orders, and of their weak companions."""
    _, cmt, wc = _class_orders(alphabet, s, cap)
    return GsoStructure(cmt.carrier, cmt, wc)


# --------------------------------------------------------------------------
# stratified extensions and reconstruction
# --------------------------------------------------------------------------

def extensions_gso(g: GsoStructure, cap: int = EXTENSION_CARRIER_CAP) -> list[Relation]:
    """Stratified orders where cmt pairs land in different blocks and wc pairs
    in not-later blocks."""
    if len(g.carrier) > cap:
        raise CarrierTooLarge(f"carrier of {len(g.carrier)} points exceeds cap {cap}")
    parts = ordered_partitions(g.carrier, weak=g.wc, apart=g.cmt)
    return orders_of_partitions(g.wc.points, parts)


def gso_from_orders(orders: Iterable[Relation]) -> GsoStructure:
    """(X, intersection of symmetric closures, intersection of weak companions);
    applied to extensions_gso(g) this reconstructs g exactly."""
    orders = list(orders)
    assert orders, "need at least one stratified order"
    cmt = reduce(Relation.__and__, (o.symmetric_closure() for o in orders))
    wc = reduce(Relation.__and__, (o.weak_extension() for o in orders))
    return GsoStructure(cmt.carrier, cmt, wc)


# --------------------------------------------------------------------------
# gso-structure -> g-comtrace
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class InducedGComtrace:
    alphabet: GAlphabet
    members: tuple  # step sequences of the extensions, in ordered_partitions' order


def alphabet_of_gso(g: GsoStructure, order: tuple | None = None) -> GAlphabet:
    """(X, sim, ser, inl) read off a gso-structure:

      sim: distinct and not cmt
      ser: sim, and not wc-related the other way
      inl: cmt but wc-unrelated both ways
    """
    cmt = g.cmt
    full = cmt.points.full
    sim = Relation.from_rows(
        cmt.points, tuple(full & ~(r | 1 << i) for i, r in enumerate(cmt.rows))
    )
    wc_back = g.wc.inverse()
    ser = sim - wc_back
    inl = cmt - g.wc - wc_back
    return galphabet(g.carrier, sim=sim.pairs, ser=ser.pairs, inl=inl.pairs, order=order)


def gcomtrace_of_gso(g: GsoStructure, order: tuple | None = None) -> InducedGComtrace:
    """The g-comtrace generated by a gso-structure: the step sequences of all
    stratified extensions over the read-off alphabet (a single congruence
    class, whose induced gso-structure is g again -- both are theorems).  The
    members come in the generator's order, which depends on the structure
    alone."""
    theta = alphabet_of_gso(g, order=order)
    parts = ordered_partitions(g.carrier, weak=g.wc, apart=g.cmt)
    return InducedGComtrace(alphabet=theta, members=tuple(tuple(part) for part in parts))


def gso_from_extension(g: GsoStructure, ext: Relation) -> GsoStructure:
    """Rebuild the structure from one stratified extension, no closure needed:
    (X, sym(ext minus ser) u inl, weak-ext minus (ser-inverse u inl))."""
    ser, ser_back, inl = g._ser_inl
    cmt = (ext - ser).symmetric_closure() | inl
    wc = ext.weak_extension() - ser_back - inl
    return GsoStructure(g.carrier, cmt, wc)


# --------------------------------------------------------------------------
# semi-canonical construction
# --------------------------------------------------------------------------

def semican(alphabet: GAlphabet, g: GsoStructure, mins_cap: int = SEMICAN_MINS_CAP) -> StepSeq:
    """Build the lexicographically least member of the class that generated g,
    step by step, reading only the structure.

    At each stage, over the unconsumed occurrences X, admissible fronts are

      Z(X) = { nonempty Y of minimal (cmt n wc) occurrences:
               no cmt pair inside Y, nothing outside Y weakly below Y }

    and the next step is the least label image of Z(X) in the step order.
    Raises EmptyZ if no front is admissible or the finished sequence fails to
    regenerate g (the input was not induced by any step sequence), and
    CarrierTooLarge when the minima set is too big to enumerate subsets of.
    """
    points = g.wc.points
    p = points.points
    wc, cmt = g.wc.rows, g.cmt.rows_in(points)
    prec_below = transpose([c & w for c, w in zip(cmt, wc)])
    wc_below = transpose(wc)
    remaining = points.full
    steps: list[Step] = []
    fronts: list[frozenset] = []
    while remaining:
        mins = [i for i in bits(remaining) if not prec_below[i] & remaining]
        if len(mins) > mins_cap:
            raise CarrierTooLarge(f"{len(mins)} minimal occurrences exceed cap {mins_cap}")
        best_label = best_key = best_front = None
        for picked in range(1, 1 << len(mins)):
            front = 0
            for k in bits(picked):
                front |= 1 << mins[k]
            if image(front, cmt) & front:
                continue
            rest = remaining & ~front
            if image(front, wc_below) & rest:
                continue
            labels = frozenset(label(p[a]) for a in bits(front))
            if len(labels) != front.bit_count() or not alphabet.is_step(labels):
                continue  # not realizable as one step; genuine inputs never hit this
            key = step_order_key(alphabet, labels)
            if best_key is None or key < best_key:
                best_label, best_key, best_front = labels, key, front
        if best_front is None:
            raise EmptyZ(f"no admissible front among minima {[repr(p[i]) for i in mins]}")
        steps.append(best_label)
        fronts.append(points.subset(best_front))
        remaining &= ~best_front
    result = tuple(steps)
    _check_regenerates(alphabet, g, result, fronts)
    return result


def _check_regenerates(alphabet: GAlphabet, g: GsoStructure, s: StepSeq, fronts) -> None:
    """The found sequence must induce g back, up to renaming each carrier
    point to its (label, occurrence index) under the block order."""
    seen: dict = {}
    rename = {}
    for front in fronts:
        for x in front:
            e = label(x)
            seen[e] = seen.get(e, 0) + 1
            rename[x] = (e, seen[e])
    rebuilt = gso_of_stepseq(alphabet, s)
    ok = (
        rebuilt.carrier == frozenset(rename.values())
        and rebuilt.cmt.pairs == frozenset((rename[a], rename[b]) for a, b in g.cmt.pairs)
        and rebuilt.wc.pairs == frozenset((rename[a], rename[b]) for a, b in g.wc.pairs)
    )
    if not ok:
        raise EmptyZ("structure is not induced by any step sequence over this alphabet")


# --------------------------------------------------------------------------
# serializability of a single step around a chosen event
# --------------------------------------------------------------------------

def shed_left(alphabet: GAlphabet, step: Step, event) -> tuple[Step, Step]:
    """Split step ~ (left)(kept) with event in kept and kept smallest; the
    left part is empty when nothing around event serializes leftward.

    The family of admissible kept-parts is closed under intersection, so the
    smallest one is their common intersection.
    """
    ser = alphabet.ser
    candidates = [
        d
        for d in _proper_subsets_with(step, event)
        if all((x, y) in ser for x in step - d for y in d)
    ]
    if not candidates:
        return frozenset(), step
    kept = frozenset.intersection(*candidates)
    assert kept in candidates
    return step - kept, kept


def shed_right(alphabet: GAlphabet, step: Step, event) -> tuple[Step, Step]:
    """Split step ~ (kept)(right) with event in kept and kept smallest."""
    ser = alphabet.ser
    candidates = [
        d
        for d in _proper_subsets_with(step, event)
        if all((x, y) in ser for x in d for y in step - d)
    ]
    if not candidates:
        return step, frozenset()
    kept = frozenset.intersection(*candidates)
    assert kept in candidates
    return kept, step - kept


def _proper_subsets_with(step: Step, event) -> Iterable[Step]:
    """All proper subsets of the step that contain the event."""
    assert event in step
    rest = sorted(step - {event}, key=repr)
    full = (1 << len(rest)) - 1
    for mask in range(full + 1):
        if mask == full:
            continue  # that would be the whole step again
        yield frozenset(x for i, x in enumerate(rest) if mask & (1 << i)) | {event}


def step_core(alphabet: GAlphabet, step: Step, event) -> tuple[tuple, Step, tuple]:
    """Alternately shed serializable material to the left and right of event
    until neither side moves: step ~ left parts + core + right parts, with the
    core not serializable around event in either direction."""
    core = alphabet.require_step(step)
    left: list[Step] = []
    right: list[Step] = []
    while True:
        gone, kept = shed_left(alphabet, core, event)
        if gone:
            left.append(gone)
            core = kept
            continue
        kept, gone = shed_right(alphabet, core, event)
        if gone:
            right.insert(0, gone)
            core = kept
            continue
        return tuple(left), core, tuple(right)


def core_factorization(alphabet: GAlphabet, step: Step, event) -> StepSeq:
    """The step sequence witnessing step_core: left parts, core, right parts."""
    left, core, right = step_core(alphabet, step, event)
    return (*left, core, *right)
