"""The bitmask kernels (steps as event masks over ``GAlphabet.masks``)
against the frozenset oracles, on random alphabets, on the same alphabets
under a permuted event order (bits follow the order), and on occurrence-pair
alphabets read off order structures."""
from __future__ import annotations

import gc
import weakref

import pytest

from comtrace import enumerate_class, forward_dependent, galphabet, parse
from comtrace.alphabet import MaskView
from comtrace.canonical import step_order_key
from comtrace.congruence import rewrite_neighbors
from comtrace.errors import UnknownEvent
from comtrace.gsostruct import gcomtrace_of_gso, gso_of_stepseq
from comtrace.sostruct import comtrace_of_so, so_of_stepseq

from conftest import DIAMOND, DIAMOND_INL, random_alphabet, random_instance
from oracles import (
    oracle_forward_dependent,
    oracle_rewrite_neighbors,
    oracle_splits,
    oracle_witnesses,
)


def fs(text):
    return frozenset(text)


def _permuted(rng, alph):
    order = list(alph.order)
    rng.shuffle(order)
    return alph.with_order(order)


def _occurrence_classes():
    """(alphabet, members) of the classes induced by two order structures:
    events are occurrence pairs such as ("a", 1)."""
    ct = comtrace_of_so(so_of_stepseq(DIAMOND, parse(DIAMOND, "{a,b}{c}{a,d}{b}")))
    gct = gcomtrace_of_gso(gso_of_stepseq(DIAMOND_INL, parse(DIAMOND_INL, "{a,b}{c}{a,d}")))
    return [(ct.alphabet, ct.members), (gct.alphabet, gct.members)]


def _assert_neighbors_match(alph, seqs):
    for s in seqs:
        assert rewrite_neighbors(alph, s) == oracle_rewrite_neighbors(alph, s)


def _assert_witnesses_match(alph):
    steps = alph.steps_universe()
    for a in steps:
        for b in steps:
            assert forward_dependent(alph, a, b) == oracle_forward_dependent(alph, a, b)


def test_rewrite_neighbors_match_oracle(rng):
    for allow_inl in (False, True):
        for _ in range(30):
            alph, _, cls = random_instance(
                rng, events="abcde", allow_inl=allow_inl, max_len=3, class_cap=200
            )
            _assert_neighbors_match(alph, cls)
            _assert_neighbors_match(_permuted(rng, alph), cls)
    for alph, members in _occurrence_classes():
        assert alph.events and isinstance(next(iter(alph.events)), tuple)
        _assert_neighbors_match(alph, members)


def _assert_records_match(alph, steps):
    view = alph.masks
    for step in steps:
        rec = view.rewrites(step)
        assert rec.mask == sum(view.bit[e] for e in step)
        for rel, succ in ((alph.ser, rec.ser), (alph.inl, rec.inl)):
            assert succ == sum(view.bit[e] for e in alph.events if all((x, e) in rel for x in step))
        assert len(rec.splits) == len(set(rec.splits))
        assert set(rec.splits) == set(oracle_splits(step, alph.ser))


def test_rewrite_records_match_oracle(rng):
    for allow_inl in (False, True):
        for _ in range(30):
            alph = random_alphabet(rng, "abcde"[: rng.randint(2, 5)], allow_inl=allow_inl)
            _assert_records_match(alph, alph.steps_universe())
            _assert_records_match(_permuted(rng, alph), alph.steps_universe())
    for alph, members in _occurrence_classes():
        _assert_records_match(alph, {a for m in members for a in m})


def test_each_step_record_is_built_once(monkeypatch):
    built = []
    record = MaskView._record
    monkeypatch.setattr(MaskView, "_record", lambda view, step: built.append(step) or record(view, step))
    alph = DIAMOND_INL.with_order("dcba")  # a fresh view
    members = enumerate_class(alph, parse(alph, "{a,b}{c}{a,d}")).members
    for _ in range(3):
        for m in members:
            rewrite_neighbors(alph, m)
    steps = {a for m in members for a in m}
    assert sorted(built, key=sorted) == sorted(steps, key=sorted)
    assert all(alph.masks.rewrites(a) is alph.masks.rewrites(a) for a in steps)


def test_unknown_event_raises_and_builds_no_record():
    view = DIAMOND.masks
    with pytest.raises(UnknownEvent):
        view.rewrites(fs("az"))
    with pytest.raises(UnknownEvent):
        rewrite_neighbors(DIAMOND, (fs("a"), fs("z")))
    assert fs("az") not in view.records and fs("z") not in view.records


def test_forward_dependent_matches_oracle(rng):
    for _ in range(40):
        alph = random_alphabet(rng, "abcde"[: rng.randint(2, 5)])
        _assert_witnesses_match(alph)
        _assert_witnesses_match(_permuted(rng, alph))
    alph, _ = _occurrence_classes()[0]
    _assert_witnesses_match(alph)


def test_witnesses_are_closed_under_union(rng):
    # why the kernel returns the greatest fixpoint: the union of two witnesses
    # is a witness, so the largest one is unique and no tie reaches the result
    for _ in range(40):
        alph = random_alphabet(rng, "abcde"[: rng.randint(2, 5)])
        steps = alph.steps_universe()
        for a in steps:
            for b in steps:
                ws = set(oracle_witnesses(alph, a, b))
                assert all(c1 | c2 in ws for c1 in ws for c2 in ws)


def test_same_size_witnesses_tie_below_their_union():
    # {b} and {c} both migrate from {b,c} into {a}: a tie of size 1 that the
    # step order breaks towards the one holding the lowest differing event,
    # under either event order; their union {b,c} is the witness returned
    alph = galphabet(
        "abc",
        sim={("a", "b"), ("a", "c"), ("b", "c")},
        ser={("a", "b"), ("a", "c"), ("b", "c"), ("c", "b")},
    )
    for order, first in (("abc", "b"), ("acb", "c")):
        ordered = alph.with_order(order)
        ws = oracle_witnesses(ordered, fs("a"), fs("bc"))
        assert sorted(ws, key=lambda c: (-len(c), step_order_key(ordered, c))) == [
            fs("bc"), fs(first), fs("bc") - fs(first),
        ]
        assert forward_dependent(ordered, fs("a"), fs("bc")).c == fs("bc")
        assert oracle_forward_dependent(ordered, fs("a"), fs("bc")).c == fs("bc")


def test_mask_bits_follow_the_order():
    for alph in (DIAMOND, DIAMOND.with_order("dcba")):
        view = alph.masks
        assert view is alph.masks
        for i, e in enumerate(alph.order):
            assert view.to_mask(fs(e)) == 1 << i
        for step in alph.steps_universe():
            assert view.from_mask(view.to_mask(step)) == step
    with pytest.raises(UnknownEvent):
        DIAMOND.masks.to_mask(fs("z"))


def test_dropped_alphabet_is_freed_without_the_cycle_collector():
    # the mask view must not refer back to its alphabet: a cycle would keep
    # every alphabet a bounded cache evicts alive until a full collection
    alph = galphabet("abc", sim={("a", "b")}, ser={("a", "b")})
    rewrite_neighbors(alph, (fs("ab"), fs("c")))
    ref = weakref.ref(alph)
    gc.disable()
    try:
        del alph
        assert ref() is None
    finally:
        gc.enable()
