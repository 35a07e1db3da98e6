"""Finite binary relations and the closure operators used throughout.

Everything here is set semantics over a shared finite carrier: transitive and
reflexive-transitive closures, symmetric closure, the symmetric intersection
R n R^-1, complement, left-to-right composition, order classification, the
enumeration of total/stratified extensions, a brute-force Szpilrajn check,
and the two structure-closure operators (diamond and bowtie) that turn local
invariant relations into (generalized) stratified order structures.

Inside, a relation is a row mask per point: the carrier's points in a fixed
:class:`PointOrder` (sorted by ``repr``), point ``points[i]`` as bit
``1 << i``, and row ``i`` the mask of the points ``points[i]`` relates to.
The operators work on rows and hand their point order on to the relations
they return; the public ``pairs`` frozenset is built from the rows only when
read.  The frozenset definitions of these kernels are the test oracles.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import reduce
from operator import and_, or_
from typing import Hashable, Iterable, Iterator

from .errors import CarrierTooLarge, NotStratified

Point = Hashable

EXTENSION_CARRIER_CAP = 8


def bits(m: int) -> Iterator[int]:
    """The indices of the set bits of m, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def transpose(rows) -> list[int]:
    """The rows of the inverse relation."""
    out = [0] * len(rows)
    for i, r in enumerate(rows):
        bit = 1 << i
        while r:
            low = r & -r
            out[low.bit_length() - 1] |= bit
            r ^= low
    return out


def image(m: int, rows) -> int:
    """The OR of rows[j] over the bits j of m: where one step from m leads."""
    acc = 0
    while m:
        low = m & -m
        acc |= rows[low.bit_length() - 1]
        m ^= low
    return acc


class PointOrder:
    """A carrier's points in a fixed order: ``points[i]`` is bit ``1 << i``.

    The order is the points sorted by ``repr``, so the ascending ranks of a
    set of points list it in sorted-``repr`` order.  Relations built from one
    another share one instance; there is no cache across carriers.
    """

    __slots__ = ("carrier", "points", "index", "full")

    def __init__(self, carrier: frozenset):
        self.carrier = carrier
        self.points = tuple(sorted(carrier, key=repr))
        self.index = {p: i for i, p in enumerate(self.points)}
        self.full = (1 << len(self.points)) - 1

    def mask(self, points: Iterable[Point]) -> int:
        index = self.index
        m = 0
        for p in points:
            m |= 1 << index[p]
        return m

    def subset(self, m: int) -> frozenset:
        points = self.points
        return frozenset(points[i] for i in bits(m))


def _rows_of(points: PointOrder, pairs: Iterable[tuple]) -> tuple:
    index = points.index
    rows = [0] * len(points.points)
    for a, b in pairs:
        rows[index[a]] |= 1 << index[b]
    return tuple(rows)


_set = object.__setattr__


class Relation:
    """An immutable relation over a finite carrier.

    Built from pairs (``Relation(carrier, pairs)``) or from rows over a
    point order (:meth:`from_rows`); each form is derived from the other on
    first use.  Equality and hashing are those of (carrier, pairs).
    """

    __slots__ = ("carrier", "_points", "_rows", "_pairs")

    def __init__(self, carrier: Iterable[Point], pairs: Iterable[tuple]):
        _set(self, "carrier", frozenset(carrier))
        _set(self, "_pairs", frozenset(pairs))
        _set(self, "_points", None)
        _set(self, "_rows", None)
        self.__post_init__()

    def __post_init__(self):
        """The carrier check, run by every construction path, rows-built
        relations included (perfbench's tracer counts relations here)."""
        if self._pairs is not None:
            assert all(a in self.carrier and b in self.carrier for a, b in self._pairs)
        else:
            assert 0 <= reduce(or_, self._rows, 0) <= self._points.full

    # -- constructors --------------------------------------------------

    @staticmethod
    def over(carrier: Iterable[Point], pairs: Iterable[tuple] = ()) -> "Relation":
        return Relation(frozenset(carrier), frozenset((a, b) for a, b in pairs))

    @staticmethod
    def from_rows(points: PointOrder, rows: tuple) -> "Relation":
        rel = object.__new__(Relation)
        _set(rel, "carrier", points.carrier)
        _set(rel, "_pairs", None)
        _set(rel, "_points", points)
        _set(rel, "_rows", rows)
        rel.__post_init__()
        return rel

    # -- the two forms -------------------------------------------------

    @property
    def pairs(self) -> frozenset:
        pairs = self._pairs
        if pairs is None:
            pts = self._points.points
            built = []
            for i, r in enumerate(self._rows):
                a = pts[i]
                while r:
                    low = r & -r
                    built.append((a, pts[low.bit_length() - 1]))
                    r ^= low
            pairs = frozenset(built)
            _set(self, "_pairs", pairs)
        return pairs

    @property
    def points(self) -> PointOrder:
        points = self._points
        if points is None:
            points = PointOrder(self.carrier)
            _set(self, "_points", points)
        return points

    @property
    def rows(self) -> tuple:
        rows = self._rows
        if rows is None:
            rows = _rows_of(self.points, self._pairs)
            _set(self, "_rows", rows)
        return rows

    def rows_in(self, points: PointOrder) -> tuple:
        """The rows of this relation over the given order of its carrier.

        A relation that so far holds only pairs takes that order as its own.
        """
        mine = self._points
        if mine is None:
            assert points.carrier == self.carrier
            _set(self, "_points", points)
            return self.rows
        if mine is points or mine.points == points.points:
            return self.rows
        assert points.carrier == self.carrier
        return _rows_of(points, self.pairs)

    def _derive(self, rows) -> "Relation":
        return Relation.from_rows(self.points, tuple(rows))

    # -- value semantics -----------------------------------------------

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Relation, (self.carrier, self.pairs)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Relation):
            return NotImplemented
        if self._pairs is not None and other._pairs is not None:
            return self.carrier == other.carrier and self._pairs == other._pairs
        if self._points is None:
            self, other = other, self
        if self._points is not other._points and self.carrier != other.carrier:
            return False
        return self.rows == other.rows_in(self._points)

    def __hash__(self) -> int:
        return hash((self.carrier, self.pairs))

    def __repr__(self) -> str:
        return f"Relation(carrier={self.carrier!r}, pairs={self.pairs!r})"

    # -- algebra --------------------------------------------------------

    def __contains__(self, pair: tuple) -> bool:
        if self._pairs is not None:
            return pair in self._pairs
        index = self._points.index
        i, j = index.get(pair[0]), index.get(pair[1])
        return i is not None and j is not None and bool(self._rows[i] >> j & 1)

    def __or__(self, other: "Relation") -> "Relation":
        return self._derive(map(or_, self.rows, other.rows_in(self.points)))

    def __and__(self, other: "Relation") -> "Relation":
        return self._derive(map(and_, self.rows, other.rows_in(self.points)))

    def __sub__(self, other: "Relation") -> "Relation":
        return self._derive(a & ~b for a, b in zip(self.rows, other.rows_in(self.points)))

    def __le__(self, other: "Relation") -> bool:
        if (self._points is None or self._points is not other._points) and (
            self.carrier != other.carrier
        ):
            return False
        return not any(a & ~b for a, b in zip(self.rows, other.rows_in(self.points)))

    def inverse(self) -> "Relation":
        return self._derive(transpose(self.rows))

    def transitive_closure(self) -> "Relation":
        """Warshall's algorithm on the rows."""
        rows = list(self.rows)
        for k in range(len(rows)):
            bit, through = 1 << k, rows[k]
            if through:
                for i, r in enumerate(rows):
                    if r & bit:
                        rows[i] = r | through
        return self._derive(rows)

    def reflexive_transitive_closure(self) -> "Relation":
        tc = self.transitive_closure()
        return tc._derive(r | 1 << i for i, r in enumerate(tc.rows))

    def symmetric_closure(self) -> "Relation":
        return self._derive(map(or_, self.rows, transpose(self.rows)))

    def symmetric_intersection(self) -> "Relation":
        """R n R^-1 (written R with the double-cap superscript in order theory)."""
        return self._derive(map(and_, self.rows, transpose(self.rows)))

    def complement(self) -> "Relation":
        full = self.points.full
        return self._derive(full & ~r for r in self.rows)

    def compose(self, other: "Relation") -> "Relation":
        """Left-to-right composition: (a, c) iff a R b and b S c for some b."""
        then = other.rows_in(self.points)
        return self._derive(image(r, then) for r in self.rows)

    # -- predicates ------------------------------------------------------

    def is_irreflexive(self) -> bool:
        return not any(r >> i & 1 for i, r in enumerate(self.rows))

    def is_symmetric(self) -> bool:
        return list(self.rows) == transpose(self.rows)

    def is_transitive(self) -> bool:
        rows = self.rows
        return not any(image(r, rows) & ~r for r in rows)

    # -- derived relations of an order -----------------------------------

    def incomparability(self) -> "Relation":
        """a and b distinct, related in neither direction (written a frown b)."""
        full = self.points.full
        return self._derive(
            full & ~(r | c | 1 << i)
            for i, (r, c) in enumerate(zip(self.rows, transpose(self.rows)))
        )

    def weak_extension(self) -> "Relation":
        """The 'ordered or incomparable' relation: R u incomparability(R)."""
        full = self.points.full
        return self._derive(
            r | full & ~(c | 1 << i)
            for i, (r, c) in enumerate(zip(self.rows, transpose(self.rows)))
        )


def relation_algebra(rel: Relation, op: str) -> Relation:
    """Named dispatch over the unary relation operators (CLI convenience)."""
    ops = {
        "transitive_closure": Relation.transitive_closure,
        "reflexive_transitive": Relation.reflexive_transitive_closure,
        "symmetric_closure": Relation.symmetric_closure,
        "symmetric_intersection": Relation.symmetric_intersection,
        "complement": Relation.complement,
    }
    return ops[op](rel)


# --------------------------------------------------------------------------
# order classification
# --------------------------------------------------------------------------

def classify_order(rel: Relation) -> str:
    """One of 'not_order', 'partial', 'stratified', 'total'.

    A partial order is stratified when incomparable-or-equal is transitive
    (hence an equivalence); it is total when nothing is incomparable.
    """
    if not rel.is_irreflexive() or not rel.is_transitive():
        return "not_order"
    full = rel.points.full
    # incomparable-or-equal: the diagonal is in, since rel is irreflexive
    simeq = [full & ~(r | c) for r, c in zip(rel.rows, transpose(rel.rows))]
    if all(m == 1 << i for i, m in enumerate(simeq)):
        return "total"
    # reflexive and symmetric by construction; an equivalence iff transitive
    if any(image(m, simeq) & ~m for m in simeq):
        return "partial"
    return "stratified"


def is_stratified(rel: Relation) -> bool:
    return classify_order(rel) in ("stratified", "total")


# --------------------------------------------------------------------------
# ordered-partition / extension enumeration
# --------------------------------------------------------------------------

def _predecessor_rows(points: PointOrder, rel) -> list[int]:
    """Row i: the points related to points[i], for a Relation over the
    carrier or an iterable of pairs."""
    return transpose(rel.rows_in(points) if isinstance(rel, Relation) else _rows_of(points, rel))


def ordered_partitions(
    carrier: Iterable[Point],
    strict: Relation | Iterable[tuple] = (),
    weak: Relation | Iterable[tuple] = (),
    apart: Relation | Iterable[tuple] = (),
) -> Iterator[tuple[frozenset, ...]]:
    """All ordered set partitions (B1, ..., Bk) of the carrier such that

    * (x, y) in strict  =>  block(x) <  block(y)
    * (x, y) in weak    =>  block(x) <= block(y)
    * (x, y) in apart   =>  block(x) != block(y)

    This single generator yields total extensions (apart = everything),
    stratified extensions of posets (strict only), and the stratified
    extensions of so-/gso-structures (strict + weak / weak + apart).  Each
    constraint is a Relation over the carrier or an iterable of pairs.

    Front blocks are pruned, not filtered: a block must contain no point with
    a remaining strict predecessor, must be closed under remaining weak
    predecessors, and may not contain an apart pair.  The admissible front
    blocks of each set of remaining points are computed once, ordered by
    their points' sorted ``repr``s (their ascending ranks), and the
    partitions follow in that order, depth first.
    """
    carrier = frozenset(carrier)
    given = [r for r in (strict, weak, apart) if isinstance(r, Relation)]
    points = given[0].points if given and given[0].carrier == carrier else PointOrder(carrier)
    strict_pred = _predecessor_rows(points, strict)
    weak_pred = _predecessor_rows(points, weak)
    # apart only ever asks whether a block holds both ends, so either direction serves
    apart_rows = _predecessor_rows(points, apart)
    fronts: dict[int, list[int]] = {}
    blocks: dict[int, frozenset] = {}

    def separated(m: int) -> bool:
        return not image(m, apart_rows) & m

    def front_blocks(rest: int) -> list[int]:
        ok = 0
        for i in bits(rest):
            if not strict_pred[i] & rest:
                ok |= 1 << i
        # weak-closure of each admissible point: everything that must ride
        # along in the same (first) block; unusable if it needs a point that
        # still has strict predecessors.  Every admissible first block is a
        # union of such closures (and any union of closed sets is closed).
        closures = set()
        for i in bits(ok):
            need = frontier = 1 << i
            while frontier:
                frontier = image(frontier, weak_pred) & rest & ~need
                need |= frontier
            if not need & ~ok:
                closures.add(need)
        # a block holding an apart pair stays one under any union, so only
        # separated unions are grown
        unions = {0}
        for c in closures:
            if separated(c):
                unions |= {u | c for u in unions if separated(u | c)}
        unions.discard(0)
        return sorted(unions, key=lambda m: tuple(bits(m)))

    def block(m: int) -> frozenset:
        got = blocks.get(m)
        if got is None:
            got = blocks[m] = points.subset(m)
        return got

    full = points.full
    if not full:
        yield ()
        return
    prefix: list[frozenset] = []
    rests = [full]
    stack = [iter(front_blocks(full))]
    while stack:
        b = next(stack[-1], None)
        if b is None:
            stack.pop()
            rests.pop()
            if prefix:
                prefix.pop()
            continue
        rest = rests[-1] & ~b
        if not rest:
            yield (*prefix, block(b))
            continue
        following = fronts.get(rest)
        if following is None:
            following = fronts[rest] = front_blocks(rest)
        prefix.append(block(b))
        rests.append(rest)
        stack.append(iter(following))


def orders_of_partitions(points: PointOrder, partitions: Iterable[tuple]) -> list[Relation]:
    """The stratified orders over the given point order whose blocks, in
    order, are the partitions (as ordered_partitions yields them)."""
    masks: dict[frozenset, int] = {}
    orders = []
    for partition in partitions:
        rows = [0] * len(points.points)
        later = 0
        for blk in reversed(partition):
            m = masks.get(blk)
            if m is None:
                m = masks[blk] = points.mask(blk)
            later_m = later
            later |= m
            while m:
                low = m & -m
                rows[low.bit_length() - 1] = later_m
                m ^= low
        orders.append(Relation.from_rows(points, tuple(rows)))
    return orders


def partition_to_order(partition: tuple[frozenset, ...]) -> Relation:
    """The stratified order whose blocks, in order, are the given partition."""
    carrier = frozenset().union(*partition) if partition else frozenset()
    return orders_of_partitions(PointOrder(carrier), [partition])[0]


def order_to_partition(rel: Relation) -> tuple[frozenset, ...]:
    """The block sequence of a stratified order; raises NotStratified otherwise."""
    if not is_stratified(rel):
        raise NotStratified(f"relation on {sorted(map(repr, rel.carrier))} is not stratified")
    pred = transpose(rel.rows)
    remaining = rel.points.full
    blocks = []
    while remaining:
        bottom = 0
        for i in bits(remaining):
            if not pred[i] & remaining:
                bottom |= 1 << i
        blocks.append(rel.points.subset(bottom))
        remaining &= ~bottom
    return tuple(blocks)


def extensions(poset: Relation, kind: str, cap: int = EXTENSION_CARRIER_CAP) -> list[Relation]:
    """All total or stratified extensions of a partial order."""
    if len(poset.carrier) > cap:
        raise CarrierTooLarge(f"carrier of {len(poset.carrier)} points exceeds cap {cap}")
    points = poset.points
    if kind == "total":
        distinct = tuple(points.full & ~(1 << i) for i in range(len(points.points)))
        apart = Relation.from_rows(points, distinct)
        parts = ordered_partitions(poset.carrier, strict=poset, apart=apart)
    elif kind == "stratified":
        parts = ordered_partitions(poset.carrier, strict=poset)
    else:
        raise ValueError(f"unknown extension kind {kind!r}")
    return orders_of_partitions(points, parts)


def szpilrajn_check(poset: Relation, cap: int = EXTENSION_CARRIER_CAP) -> bool:
    """Is the order the intersection of its total extensions, and also of its
    stratified extensions?  True for every finite poset; this is the oracle."""
    for kind in ("total", "stratified"):
        exts = extensions(poset, kind, cap=cap)
        common = frozenset.intersection(*(e.pairs for e in exts))
        if common != poset.pairs:
            return False
    return True


# --------------------------------------------------------------------------
# structure closures
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RelStructure:
    carrier: frozenset
    r1: Relation
    r2: Relation

    def __le__(self, other: "RelStructure") -> bool:
        return self.carrier == other.carrier and self.r1 <= other.r1 and self.r2 <= other.r2


def rel_structure(carrier: Iterable[Point], r1: Iterable[tuple], r2: Iterable[tuple]) -> RelStructure:
    carrier = frozenset(carrier)
    return RelStructure(carrier, Relation.over(carrier, r1), Relation.over(carrier, r2))


def diamond_closure(s: RelStructure) -> RelStructure:
    """(X, R1, R2) |-> (X, (R1 u R2)* . R1 . (R1 u R2)*, (R1 u R2)* \\ id).

    The result is a so-structure exactly when its first component is
    irreflexive.
    """
    both_star = (s.r1 | s.r2).reflexive_transitive_closure()
    prec = both_star.compose(s.r1).compose(both_star)
    wc = both_star._derive(r & ~(1 << i) for i, r in enumerate(both_star.rows))
    return RelStructure(s.carrier, prec, wc)


def bowtie_closure(s: RelStructure) -> RelStructure:
    """(X, R1, R2) |-> (X, sym(prec0) u R1, wc0) where (prec0, wc0) is the
    diamond closure of (R1 n R2*, R2)."""
    r3 = s.r1 & s.r2.reflexive_transitive_closure()
    inner = diamond_closure(RelStructure(s.carrier, r3, s.r2))
    return RelStructure(s.carrier, inner.r1.symmetric_closure() | s.r1, inner.r2)
