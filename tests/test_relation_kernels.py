"""The row-mask kernels of `relations`, `sostruct` and `gsostruct` against
the frozenset oracles in `oracles.py`: relation operators on seeded random
relations (with cycles and reflexive pairs), `ordered_partitions` in yield
order, the S1-S4/G1-G2 scans on perturbed structures, and the local
invariants, closures and class intersections of the structure constructions.
"""
from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from comtrace import g_canonical, lex_key
from comtrace.errors import AxiomViolation
from comtrace.gsostruct import (
    GsoStructure,
    _local_invariants,
    gso_of_class,
    gso_of_stepseq,
    validate_gso,
)
from comtrace.relations import PointOrder, Relation, ordered_partitions
from comtrace.sostruct import SoStructure, so_of_class, so_of_stepseq, validate_so

from conftest import random_instance
from oracles import (
    oracle_bowtie,
    oracle_class_intersections,
    oracle_complement,
    oracle_compose,
    oracle_diamond,
    oracle_gso_local,
    oracle_gso_violation,
    oracle_incomparability,
    oracle_ordered_partitions,
    oracle_reflexive_transitive_closure,
    oracle_so_local,
    oracle_so_violation,
    oracle_symmetric_closure,
    oracle_symmetric_intersection,
    oracle_transitive_closure,
    violates,
)

# point kinds the library meets: event labels, occurrences, plain numbers
POINT_KINDS = (
    lambda i: "abcdefg"[i],
    lambda i: ("abc"[i % 3], i // 3 + 1),
    lambda i: i * 7 % 11,
)


def random_carrier(rng, most=7):
    kind = rng.choice(POINT_KINDS)
    return frozenset(kind(i) for i in range(rng.randint(0, most)))


def random_pairs(rng, carrier, density=None):
    """Any pairs at all over the carrier: cycles and reflexive pairs included."""
    density = rng.random() if density is None else density
    return frozenset((a, b) for a in carrier for b in carrier if rng.random() < density)


def rows_built(rel: Relation) -> Relation:
    """The same relation built from rows, over a point order of its own."""
    points = PointOrder(rel.carrier)
    return Relation.from_rows(points, rel.rows_in(points))


def test_unary_operators_match_oracles():
    rng = random.Random(41)
    for _ in range(3000):
        carrier = random_carrier(rng)
        pairs = random_pairs(rng, carrier)
        for r in (Relation(carrier, pairs), rows_built(Relation(carrier, pairs))):
            assert r.pairs == pairs
            assert r.inverse().pairs == frozenset((b, a) for a, b in pairs)
            assert r.transitive_closure().pairs == oracle_transitive_closure(carrier, pairs)
            assert r.reflexive_transitive_closure().pairs == oracle_reflexive_transitive_closure(
                carrier, pairs
            )
            assert r.symmetric_closure().pairs == oracle_symmetric_closure(pairs)
            assert r.symmetric_intersection().pairs == oracle_symmetric_intersection(pairs)
            assert r.complement().pairs == oracle_complement(carrier, pairs)
            frown = oracle_incomparability(carrier, pairs)
            assert r.incomparability().pairs == frown
            assert r.weak_extension().pairs == pairs | frown
            assert r.is_irreflexive() == all(a != b for a, b in pairs)
            assert r.is_symmetric() == (oracle_symmetric_closure(pairs) == pairs)
            assert r.is_transitive() == (oracle_transitive_closure(carrier, pairs) == pairs)


def test_binary_operators_match_oracles():
    rng = random.Random(42)
    for _ in range(3000):
        carrier = random_carrier(rng)
        p, q = random_pairs(rng, carrier), random_pairs(rng, carrier)
        # a pairs-built and a rows-built operand, each with its own point order
        r, s = Relation(carrier, p), rows_built(Relation(carrier, q))
        for x, y, xp, yp in ((r, s, p, q), (s, r, q, p)):
            assert (x | y).pairs == xp | yp
            assert (x & y).pairs == xp & yp
            assert (x - y).pairs == xp - yp
            assert (x <= y) == (xp <= yp)
            assert x.compose(y).pairs == oracle_compose(xp, yp)
        assert (r <= Relation(carrier | {"z"}, p)) is False


def test_pairs_built_and_rows_built_relations_are_one_value():
    rng = random.Random(43)
    for _ in range(500):
        carrier = random_carrier(rng)
        pairs = random_pairs(rng, carrier)
        by_pairs, by_rows = Relation(carrier, pairs), rows_built(Relation(carrier, pairs))
        assert by_pairs == by_rows and by_rows == by_pairs
        assert hash(by_pairs) == hash(by_rows)
        assert by_rows == rows_built(by_rows)
        assert len({by_pairs, by_rows}) == 1
        assert all(pair in by_rows for pair in pairs)
        other = random_pairs(rng, carrier)
        assert (by_rows == rows_built(Relation(carrier, other))) == (pairs == other)
    r = rows_built(Relation.over("ab", {("a", "b")}))
    assert r != Relation.over("abc", {("a", "b")})
    for rel in (r, Relation.over("ab", {("a", "b")})):
        with pytest.raises(FrozenInstanceError):
            rel.pairs = frozenset()
        with pytest.raises(FrozenInstanceError):
            rel.carrier = frozenset()
        with pytest.raises(FrozenInstanceError):
            del rel.carrier


def test_relations_keep_their_carrier_check():
    with pytest.raises(AssertionError):
        Relation.over("ab", {("a", "c")})
    points = PointOrder(frozenset("ab"))
    with pytest.raises(AssertionError):
        Relation.from_rows(points, (0b100, 0))


def _constraints(rng, carrier):
    """Random strict/weak/apart constraints, sparse enough to leave room."""
    pairs = [(a, b) for a in carrier for b in carrier]
    pick = lambda d: frozenset(p for p in pairs if rng.random() < d)  # noqa: E731
    return pick(0.15 * rng.random()), pick(0.3 * rng.random()), pick(0.3 * rng.random())


def test_ordered_partitions_match_oracle_in_yield_order():
    rng = random.Random(44)
    for _ in range(600):
        carrier = random_carrier(rng, most=6)
        strict, weak, apart = _constraints(rng, carrier)
        expect = list(oracle_ordered_partitions(carrier, strict, weak, apart))
        assert list(ordered_partitions(carrier, strict, weak, apart)) == expect
        as_relations = [rows_built(Relation(carrier, c)) for c in (strict, weak, apart)]
        assert list(ordered_partitions(carrier, *as_relations)) == expect


def _perturbed(rng, first, second):
    """Add and drop a few pairs of either relation."""
    carrier = first.carrier
    points = sorted(carrier, key=repr)
    out = []
    for rel in (first, second):
        pairs = set(rel.pairs)
        for _ in range(rng.randint(0, 2)):
            if pairs and rng.random() < 0.5:
                pairs.discard(rng.choice(sorted(pairs, key=repr)))
            else:
                pairs.add((rng.choice(points), rng.choice(points)))
        out.append(Relation(carrier, frozenset(pairs)))
    return out


def _assert_same_verdict(check, oracle, structure, first, second):
    expect = oracle(first.pairs, second.pairs)
    if expect is None:
        assert check(structure) is structure
        return
    with pytest.raises(AxiomViolation) as got:
        check(structure)
    assert got.value.axiom == expect[0]
    assert violates(got.value.axiom, got.value.witness, first.pairs, second.pairs)


def test_axiom_scans_match_oracles_on_perturbed_structures():
    rng = random.Random(45)
    verdicts = set()
    for i in range(400):
        alph, s, _ = random_instance(rng, events="abcd", allow_inl=i % 2 == 1, max_len=3,
                                     class_cap=60)
        g = gso_of_stepseq(alph, s)
        cmt, wc = _perturbed(rng, g.cmt, g.wc)
        _assert_same_verdict(validate_gso, oracle_gso_violation, GsoStructure(g.carrier, cmt, wc),
                             cmt, wc)
        verdicts.add(oracle_gso_violation(cmt.pairs, wc.pairs) is None)
        if alph.is_comtrace:
            so = so_of_stepseq(alph, s)
            prec, wc = _perturbed(rng, so.prec, so.wc)
            _assert_same_verdict(validate_so, oracle_so_violation,
                                 SoStructure(so.carrier, prec, wc), prec, wc)
            names = oracle_so_violation(prec.pairs, wc.pairs)
            verdicts.add(names[0] if names else None)
    assert verdicts >= {True, False, None, "S1", "S2", "S3", "S4"}


def test_structure_constructions_match_oracles():
    rng = random.Random(46)
    for i in range(300):
        alph, s, members = random_instance(rng, events="abcde", allow_inl=i % 2 == 1,
                                           max_len=4, class_cap=80, weight_cap=8)
        carrier, cmt, wc, prec = oracle_gso_local(alph, s)
        got = _local_invariants(alph, s)
        assert tuple(r.pairs for r in got) == (cmt, wc, prec)
        g = gso_of_stepseq(alph, s)
        assert (g.cmt.pairs, g.wc.pairs) == oracle_bowtie(carrier, prec | cmt, prec | wc)
        _, _, apart, not_later = oracle_class_intersections(list(members))
        assert (gso_of_class(alph, s).cmt.pairs, gso_of_class(alph, s).wc.pairs) == (
            apart, not_later,
        )
        if alph.is_comtrace:
            so = so_of_stepseq(alph, s)
            assert (so.prec.pairs, so.wc.pairs) == oracle_diamond(*oracle_so_local(alph, s))
            _, before, _, not_later = oracle_class_intersections(list(members))
            so_cls = so_of_class(alph, s)
            assert (so_cls.prec.pairs, so_cls.wc.pairs) == (before, not_later)


def test_g_canonical_is_least_by_lex_key():
    rng = random.Random(47)
    for i in range(200):
        alph, s, members = random_instance(rng, events="abcde", allow_inl=i % 2 == 1,
                                           max_len=4, class_cap=200)
        if i % 3 == 0:
            order = list(alph.order)
            rng.shuffle(order)
            alph = alph.with_order(order)
        assert g_canonical(alph, s) == min(members, key=lambda m: lex_key(alph, m))


INDUCED_MEMBERS = """
import sys
sys.path.insert(0, sys.argv[1])
from comtrace import galphabet, gso_structure, parse, so_structure
from comtrace.gsostruct import gcomtrace_of_gso, gso_of_stepseq
from comtrace.sostruct import comtrace_of_so

def show(members):  # member order kept, each step written sorted
    print([[sorted(map(repr, step)) for step in m] for m in members])

show(comtrace_of_so(so_structure("abc", [], [])).members)
alph = galphabet("abcd", sim={("a", "b"), ("a", "d"), ("b", "c")},
                 ser={("a", "b"), ("b", "a"), ("b", "c")}, inl={("a", "c")})
show(gcomtrace_of_gso(gso_of_stepseq(alph, parse(alph, "{a,b}{c}{a,d}"))).members)
"""


def test_induced_members_do_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-c", INDUCED_MEMBERS, src], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
