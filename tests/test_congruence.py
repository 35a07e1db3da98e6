"""Equivalence-class enumeration against the hand-checked golden classes."""
from __future__ import annotations

from itertools import chain, islice, product

import pytest

from comtrace import (
    compose_classes,
    enumerate_class,
    equivalent,
    lift_trace_alphabet,
    parse,
    render,
    trace_class,
)
from comtrace.congruence import (
    CLASS_CACHE_SIZE,
    _class_members,
    _trace_members,
    rewrite_neighbors,
)
from comtrace.errors import ClassCapExceeded
from comtrace.sostruct import comtrace_of_so, so_of_stepseq

from conftest import (
    CLASS_SEEDS,
    DIAMOND,
    DIAMOND_INL,
    INL_PAIR,
    SER_ONEWAY,
    SYNC_MIX,
    random_instance,
)


def members(alph, text, cap=100_000):
    return {render(alph, m) for m in enumerate_class(alph, parse(alph, text), cap=cap)}


def test_split_join_class():
    assert members(SER_ONEWAY, "{a}{b,c}") == {"{a}{b,c}", "{a}{b}{c}"}


def test_swap_requires_inl():
    # {b,c}{a} and {c}{b}{a}: no rule chain connects them
    assert not equivalent(
        SER_ONEWAY, parse(SER_ONEWAY, "{b,c}{a}"), parse(SER_ONEWAY, "{c}{b}{a}")
    )


def test_one_way_serializability_is_asymmetric():
    # {a,c} splits as {a}{c} but not as {c}{a}
    assert equivalent(SYNC_MIX, parse(SYNC_MIX, "{a,c}"), parse(SYNC_MIX, "{a}{c}"))
    assert not equivalent(SYNC_MIX, parse(SYNC_MIX, "{a,c}"), parse(SYNC_MIX, "{c}{a}"))


def test_synchronous_step_never_splits():
    # {a,d} is simultaneous-only: its class is a singleton
    assert members(SYNC_MIX, "{a,d}") == {"{a,d}"}


def test_composition_multiplies_classes():
    x1 = enumerate_class(SYNC_MIX, parse(SYNC_MIX, "{a,b}{c}{a}"))
    x2 = enumerate_class(SYNC_MIX, parse(SYNC_MIX, "{e}{a,d}{a,c}"))
    assert len(x1) == 4 and len(x2) == 2
    assert {render(SYNC_MIX, m) for m in x1} == {
        "{a,b}{c}{a}", "{a}{b}{c}{a}", "{b}{a}{c}{a}", "{b}{a,c}{a}",
    }
    x3 = compose_classes(SYNC_MIX, x1.members[0], x2.members[0])
    assert len(x3) == 8
    # composing classes = class of the concatenation, and it contains all
    # pairwise concatenations
    concats = {u + v for u in x1 for v in x2}
    assert concats <= set(x3.members)


def test_interleaving_swap_class():
    ten = {
        "{a}{b}{c}", "{a}{c}{b}", "{b}{a}{c}", "{b}{c}{a}", "{c}{a}{b}",
        "{c}{b}{a}", "{a,c}{b}", "{b,c}{a}", "{b}{a,c}", "{a}{b,c}",
    }
    assert members(INL_PAIR, "{a,c}{b}") == ten
    # the swap {a}{b} <-> {b}{a} is there even though {a,b} is not a step
    assert equivalent(
        INL_PAIR, parse(INL_PAIR, "{a}{b}{c}"), parse(INL_PAIR, "{b}{a}{c}")
    )


def test_figure_class_without_interleaving():
    assert members(DIAMOND, "{a,b}{c}{a,d}") == {
        "{a,b}{c}{a,d}",
        "{a}{b}{c}{a,d}",
        "{a}{b,c}{a,d}",
        "{b}{a}{c}{a,d}",
    }


def test_figure_class_with_interleaving():
    assert members(DIAMOND_INL, "{a,b}{c}{a,d}") == {
        "{a,b}{c}{a,d}",
        "{a}{b}{c}{a,d}",
        "{a}{b,c}{a,d}",
        "{b}{a}{c}{a,d}",
        "{b}{c}{a}{a,d}",
        "{b,c}{a}{a,d}",
    }


def test_trace_class_of_word():
    t = lift_trace_alphabet("abc", ind={("b", "c")})
    assert set(trace_class(t, tuple("abcbca"))) == {
        tuple(w) for w in ("abbcca", "abcbca", "abccba", "acbbca", "acbcba", "accbba")
    }


def test_word_trace_class_is_coarser_than_lifted_comtrace_class():
    # the comtrace congruence on lifted words also splits/joins steps, so the
    # class of the lifted word is strictly bigger than the lifted trace class
    t = lift_trace_alphabet("abc", ind={("b", "c")})
    lifted = enumerate_class(t, tuple(frozenset(ch) for ch in "abcbca"))
    assert len(trace_class(t, tuple("abcbca"))) == 6
    assert len(lifted) == 13


def test_class_members_are_invariant_seqs(rng):
    from comtrace.stepseq import counts, weight

    for _ in range(25):
        alph, s, cls = random_instance(rng, allow_inl=True, max_len=3)
        w, c = weight(s), counts(s)
        for m in cls:
            assert weight(m) == w and counts(m) == c
        # neighbors stay within the class
        for n in rewrite_neighbors(alph, s):
            assert n in cls


def test_cap_is_enforced():
    with pytest.raises(ClassCapExceeded):
        enumerate_class(INL_PAIR, parse(INL_PAIR, "{a}{b}{c}" * 4), cap=5)


def _assert_sorted_by_text(alph, cls):
    # strictly increasing text: sorted by it, and no member twice
    texts = [render(alph, m) for m in cls.members]
    assert texts == sorted(set(texts))


def test_class_members_are_distinct_and_sorted_by_text(rng):
    # the order the class CLI verb prints and the ClassSet docstring promise
    for alph, text in CLASS_SEEDS:
        _assert_sorted_by_text(alph, enumerate_class(alph, parse(alph, text)))
    for allow_inl in (False, True):
        for _ in range(20):
            alph, _, cls = random_instance(rng, allow_inl=allow_inl, max_len=3)
            _assert_sorted_by_text(alph, cls)
    # occurrence events render as a.1, a.2, ...
    ct = comtrace_of_so(so_of_stepseq(DIAMOND, parse(DIAMOND, "{a,b}{c}{a,d}")))
    cls = enumerate_class(ct.alphabet, ct.members[0])
    assert len(cls) == 4
    _assert_sorted_by_text(ct.alphabet, cls)


def test_class_cache_stays_bounded():
    # a long loop over distinct sequences must not grow the process without bound
    steps = DIAMOND.steps_universe()
    seqs = chain.from_iterable(product(steps, repeat=n) for n in range(1, 6))
    for s in islice(seqs, CLASS_CACHE_SIZE + 100):
        enumerate_class(DIAMOND, s)
    assert _class_members.cache_info().currsize == CLASS_CACHE_SIZE


def test_trace_cache_stays_bounded():
    t = lift_trace_alphabet("abc", ind={("b", "c")})
    for word in islice(product("abc", repeat=7), CLASS_CACHE_SIZE + 100):
        trace_class(t, word)
    assert _trace_members.cache_info().currsize == CLASS_CACHE_SIZE


def test_member_set_is_built_once_and_agrees_with_members():
    cls = enumerate_class(INL_PAIR, parse(INL_PAIR, "{a,c}{b}"))
    assert cls.member_set is cls.member_set
    assert cls.member_set == set(cls.members)
    assert all(m in cls for m in cls.members)
    outside = parse(INL_PAIR, "{a,c}{a}")
    assert outside not in cls.members and outside not in cls
