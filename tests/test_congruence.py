"""Equivalence-class enumeration against the hand-checked golden classes."""
from __future__ import annotations

import gc
import weakref
from itertools import chain, islice, product

import pytest

from comtrace import (
    compose_classes,
    enumerate_class,
    equivalent,
    galphabet,
    lift_trace_alphabet,
    parse,
    render,
    trace_class,
)
from comtrace.congruence import (
    CLASS_CACHE_SIZE,
    CLASS_CAP,
    _class_members,
    _ClassIndex,
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
    # a long loop over distinct classes must not grow the process without
    # bound; sequences of one class share one entry, so feed distinct classes
    steps = DIAMOND.steps_universe()
    seqs = chain.from_iterable(product(steps, repeat=n) for n in range(1, 6))
    _class_members.cache_clear()
    seen, sizes = set(), []
    for s in seqs:
        if len(sizes) == CLASS_CACHE_SIZE + 100:
            break
        if s not in seen:
            cls = enumerate_class(DIAMOND, s)
            seen.update(cls.members)
            sizes.append(len(cls))
    info = _class_members.cache_info()
    assert (info.hits, info.misses) == (0, CLASS_CACHE_SIZE + 100)
    assert info.classes == CLASS_CACHE_SIZE
    assert info.members == sum(sizes[-CLASS_CACHE_SIZE:])


def _random_classes(rng, count):
    """(alphabet, seed sequence) of small random classes, half with inl."""
    for allow_inl in (False, True):
        for _ in range(count):
            alph, s, _ = random_instance(rng, allow_inl=allow_inl, max_len=3, class_cap=60)
            yield alph, s


def test_every_member_gets_the_class_a_fresh_bfs_gives(rng):
    for alph, s in _random_classes(rng, 15):
        _class_members.cache_clear()
        members = _class_members(alph, s, CLASS_CAP)
        assert all(_class_members(alph, m, CLASS_CAP) is members for m in members)
        assert _class_members.cache_info().misses == 1
        for m in members:
            _class_members.cache_clear()
            assert _class_members(alph, m, CLASS_CAP) == members


def test_over_cap_class_raises_from_every_member_and_is_not_cached(rng):
    checked = 0
    for alph, s in _random_classes(rng, 15):
        members = enumerate_class(alph, s).members
        if len(members) < 3:
            continue
        cap = len(members) - 1
        _class_members.cache_clear()
        for m in members:
            with pytest.raises(ClassCapExceeded) as err:
                enumerate_class(alph, m, cap)
            assert str(err.value) == f"class of {render(alph, m)} exceeds {cap} members"
        info = _class_members.cache_info()
        assert (info.hits, info.misses, info.classes, info.members) == (0, len(members), 0, 0)
        checked += 1
    assert checked >= 5


def test_alphabets_with_another_order_do_not_share_classes(rng):
    for alph, s in _random_classes(rng, 10):
        other = alph.with_order(reversed(alph.order))
        _class_members.cache_clear()
        here = _class_members(alph, s, CLASS_CAP)
        there = _class_members(other, s, CLASS_CAP)
        assert there is not here and set(there) == set(here)
        assert _class_members.cache_info().misses == 2
        _class_members.cache_clear()
        assert _class_members(other, s, CLASS_CAP) == there
        _assert_sorted_by_text(other, enumerate_class(other, s))


def test_scripted_lookups_count_hits_and_misses():
    index = _ClassIndex(2)
    x = parse(INL_PAIR, "{a,c}{b}")  # a class of ten
    x_other = parse(INL_PAIR, "{b}{c}{a}")
    y = parse(INL_PAIR, "{a}")
    z = parse(INL_PAIR, "{b}")

    def counts():
        info = index.cache_info()
        return info.hits, info.misses, info.classes, info.members

    x_members = index(INL_PAIR, x, CLASS_CAP)
    assert counts() == (0, 1, 1, 10)
    assert index(INL_PAIR, x_other, CLASS_CAP) is x_members
    assert counts() == (1, 1, 1, 10)
    index(INL_PAIR, x, 10)  # another cap is another key
    assert counts() == (1, 2, 2, 20)
    for _ in range(2):  # over the cap: a miss each time, nothing stored
        with pytest.raises(ClassCapExceeded):
            index(INL_PAIR, x, 9)
    assert counts() == (1, 4, 2, 20)
    index(INL_PAIR, x_other, CLASS_CAP)  # x at CLASS_CAP is now the most recent
    index(INL_PAIR, y, CLASS_CAP)  # evicts x at cap 10 with its ten keys
    assert counts() == (2, 5, 2, 11)
    index(INL_PAIR, x, CLASS_CAP)
    index(INL_PAIR, x, 10)  # evicted: computed again, evicting y
    index(INL_PAIR, z, CLASS_CAP)  # evicts x at CLASS_CAP
    assert counts() == (3, 7, 2, 11)
    index.cache_clear()
    assert counts() == (0, 0, 0, 0)


def test_evicted_alphabet_is_freed():
    index = _ClassIndex(1)
    alph = galphabet("ab", sim={("a", "b")}, ser={("a", "b")})
    index(alph, (frozenset("ab"),), CLASS_CAP)
    ref = weakref.ref(alph)
    gc.disable()
    try:
        del alph
        assert ref() is not None
        index(INL_PAIR, parse(INL_PAIR, "{a}"), CLASS_CAP)
        assert ref() is None
    finally:
        gc.enable()


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
