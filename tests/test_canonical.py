"""Canonical forms: forward dependency, greedy/minimal concurrency, the
lexicographic representative, and the trace-level Foata machinery."""
from __future__ import annotations

from itertools import chain, islice, product

import pytest

from comtrace import (
    canonicalize,
    enumerate_class,
    foata_trace,
    forward_dependent,
    g_canonical,
    galphabet,
    is_canonical,
    is_gmc,
    is_mc,
    lift_trace_alphabet,
    lift_word,
    parse,
    render,
)
from comtrace.canonical import (
    _mc_index,
    compare,
    fully_commutative,
    is_trace_gmc,
    lex_key,
    step_order_key,
    trace_decomposition,
)
from comtrace.congruence import CLASS_CACHE_SIZE, CLASS_CAP
from comtrace.errors import InlNotEmpty, NotTraceAlphabet

from conftest import CLIQUE_INL, DIAMOND, SER_ONEWAY, TINY_INL, random_instance


def fs(text):
    return frozenset(text)


# --- the two orders ---------------------------------------------------------

def test_step_order_bigger_steps_first():
    alph = galphabet("abcde", sim={("a", "c"), ("b", "c"), ("c", "d"), ("d", "e"), ("c", "e")})
    assert compare(alph, fs("ac"), fs("b"), mode="step") == -1
    assert compare(alph, fs("a"), fs("b"), mode="step") == -1
    assert compare(alph, fs("b"), fs("b"), mode="step") == 0


def test_lex_order_on_sequences():
    alph = galphabet("abcde", sim={("a", "c"), ("b", "c"), ("c", "d"), ("d", "e"), ("c", "e")})
    x = (fs("ac"), fs("bc"), fs("d"), fs("dc"))
    y = (fs("ac"), fs("b"), fs("cde"))
    # second position decides: {b,c} precedes {b} because it is bigger
    assert compare(alph, x, y) == -1
    # a proper prefix precedes its extensions
    assert lex_key(alph, x[:1]) < lex_key(alph, x)


# --- forward dependency -----------------------------------------------------

def test_forward_dependent_picks_largest_migrant():
    w = forward_dependent(DIAMOND, fs("a"), fs("bc"))
    assert w is not None and w.c == fs("b")


def test_forward_dependent_none_when_blocked():
    # nothing in {c} can migrate into {a}: (a,c) not in ser
    assert forward_dependent(DIAMOND, fs("a"), fs("c")) is None


def test_forward_dependency_requires_comtrace_alphabet():
    with pytest.raises(InlNotEmpty):
        forward_dependent(TINY_INL, fs("a"), fs("c"))
    with pytest.raises(InlNotEmpty):
        canonicalize(TINY_INL, (fs("a"),))


def test_canonicalize_figure_sequence():
    s = parse(DIAMOND, "{a}{b,c}{a,d}")
    assert render(DIAMOND, canonicalize(DIAMOND, s)) == "{a,b}{c}{a,d}"


def test_canonicalize_is_class_filter():
    for text in ("{a}{b,c}{a,d}", "{b}{a}{c}{a,d}", "{a,b}{c}{a,d}"):
        s = parse(DIAMOND, text)
        canon = canonicalize(DIAMOND, s)
        cls = enumerate_class(DIAMOND, s)
        assert canon in cls
        assert [m for m in cls if is_canonical(DIAMOND, m)] == [canon]


def test_canonical_equals_gmc_equals_mc_when_no_interleaving(rng):
    for _ in range(40):
        alph, s, cls = random_instance(rng, max_len=3, class_cap=200)
        canon = canonicalize(alph, s)
        gmc = {m for m in cls if is_gmc(alph, m)}
        mc = {m for m in cls if is_mc(alph, m)}
        assert gmc == mc == {canon}
        assert g_canonical(alph, s) == canon
        assert all(len(canon) <= len(m) for m in cls)


# --- greedy and minimal concurrency with interleaving ------------------------

def test_gmc_not_unique_with_interleaving():
    cls = enumerate_class(TINY_INL, parse(TINY_INL, "{a}{b}{c}"))
    texts = {render(TINY_INL, m) for m in cls}
    assert texts == {"{a}{b}{c}", "{b}{a,c}", "{b}{a}{c}", "{b}{c}{a}"}
    gmc = {render(TINY_INL, m) for m in cls if is_gmc(TINY_INL, m)}
    assert gmc == {"{a}{b}{c}", "{b}{a,c}"}
    mc = {render(TINY_INL, m) for m in cls if is_mc(TINY_INL, m)}
    assert mc == {"{b}{a,c}"}
    assert render(TINY_INL, g_canonical(TINY_INL, cls.members[0])) == "{a}{b}{c}"


def test_gmc_may_be_longer_than_shortest():
    cls = enumerate_class(CLIQUE_INL, parse(CLIQUE_INL, "{a}{b,c,d,e}"))
    assert len(cls) == 154
    gmc = [m for m in cls if is_gmc(CLIQUE_INL, m)]
    assert [render(CLIQUE_INL, m) for m in gmc] == ["{b,d,e}{a}{c}"]
    shortest = [m for m in cls if len(m) == min(len(m) for m in cls)]
    assert [render(CLIQUE_INL, m) for m in shortest] == ["{a}{b,c,d,e}"]
    assert is_mc(CLIQUE_INL, shortest[0])
    assert not is_gmc(CLIQUE_INL, shortest[0])


def test_mc_index_cache_stays_bounded():
    steps = DIAMOND.steps_universe()
    seqs = chain.from_iterable(product(steps, repeat=n) for n in range(1, 6))
    for s in islice(seqs, CLASS_CACHE_SIZE + 100):
        _mc_index(DIAMOND, s, CLASS_CAP)
    assert _mc_index.cache_info().currsize == CLASS_CACHE_SIZE


# --- traces ------------------------------------------------------------------

TRACE = lift_trace_alphabet("abc", ind={("b", "c")})


def test_fully_commutative_words():
    assert fully_commutative(TRACE, tuple("bc"))
    assert not fully_commutative(TRACE, tuple("ab"))
    assert not fully_commutative(TRACE, tuple("bb"))


def test_trace_decomposition_is_greedy():
    # maximal fully commutative prefixes: a | bc | bc | a
    assert trace_decomposition(TRACE, tuple("abcbca")) == (
        tuple("a"), tuple("bc"), tuple("bc"), tuple("a"),
    )


def test_foata_blocks():
    forms = foata_trace(TRACE, tuple("abcbca"))
    assert forms.foata == (("a",), ("b", "c"), ("b", "c"), ("a",))
    assert forms.max_stepseq == canonicalize(TRACE, lift_word("abcbca"))


def test_word_gmc_iff_lifted_canonical():
    for word in ("abcbca", "abbcca", "accbba", "bca", "cba"):
        assert is_trace_gmc(TRACE, tuple(word)) == is_canonical(
            TRACE, foata_trace(TRACE, tuple(word)).max_stepseq
        )


def test_trace_ops_reject_non_trace_alphabet():
    with pytest.raises(NotTraceAlphabet):
        fully_commutative(SER_ONEWAY, tuple("bc"))
