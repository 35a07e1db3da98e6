"""Step-sequence parsing, rendering, occurrences, cancellation, projection."""
from __future__ import annotations

import pytest

from comtrace import cancel, cancel_all, parse, project, render
from comtrace.errors import NotAStep, UnknownEvent
from comtrace.stepseq import (
    LAMBDA,
    Enumerated,
    carrier_events,
    counts,
    delabel,
    enumerate_occurrences,
    label,
    order_of,
    sequence_of,
    weak_order_of,
    weight,
)

from conftest import DIAMOND, SER_ONEWAY, random_alphabet, random_stepseq


def test_parse_render_round_trip():
    s = parse(SER_ONEWAY, "{a}{b,c}")
    assert s == (frozenset("a"), frozenset("bc"))
    assert render(SER_ONEWAY, s) == "{a}{b,c}"


def test_parse_lambda():
    assert parse(SER_ONEWAY, LAMBDA) == ()
    assert render(SER_ONEWAY, ()) == "lambda"


def test_parse_rejects_non_step():
    with pytest.raises(NotAStep):
        parse(SER_ONEWAY, "{a,b}")
    with pytest.raises(UnknownEvent):
        parse(SER_ONEWAY, "{a}{}")


def test_parse_rejects_unknown_event():
    with pytest.raises(UnknownEvent):
        parse(SER_ONEWAY, "{z}")


def test_weight_and_counts():
    s = parse(DIAMOND, "{a,b}{c}{a,d}")
    assert weight(s) == 5
    assert counts(s) == {"a": 2, "b": 1, "c": 1, "d": 1}
    assert carrier_events(s) == frozenset("abcd")


def test_enumerate_occurrences_positions():
    s = parse(DIAMOND, "{a,b}{c}{a,d}")
    occ = enumerate_occurrences(s)
    assert occ.carrier == frozenset(
        {("a", 1), ("b", 1), ("c", 1), ("a", 2), ("d", 1)}
    )
    assert occ.pos[("a", 1)] == 1 and occ.pos[("a", 2)] == 3
    assert label(("a", 2)) == "a"
    assert delabel(occ.steps) == s


def test_enumerated_attributes_agree_with_their_definitions(rng):
    for _ in range(40):
        alph = random_alphabet(rng, "abcde", allow_inl=rng.random() < 0.5)
        s = random_stepseq(rng, alph, max_len=5)
        en = enumerate_occurrences(s)
        # set at construction, not computed on first read
        assert {"pos", "carrier", "points"} <= set(vars(en))
        assert en.pos == {occ: i + 1 for i, step in enumerate(en.steps) for occ in step}
        assert en.carrier == frozenset(en.pos) == frozenset().union(*en.steps)
        assert en.points.carrier == en.carrier
        assert en.points.points == tuple(sorted(en.carrier, key=repr))
        # equality, hashing and repr depend on the steps alone
        again = Enumerated(en.steps)
        assert again == en and hash(again) == hash(en)
        assert repr(en) == f"Enumerated(steps={en.steps!r})"
        assert Enumerated(en.steps[1:]) != en


def test_order_of_is_strict_weak_of_positions():
    s = parse(DIAMOND, "{a,b}{c}")
    strict = order_of(s)
    weak = weak_order_of(s)
    assert (("a", 1), ("c", 1)) in strict.pairs
    assert (("a", 1), ("b", 1)) not in strict.pairs
    # weak adds the same-step pairs in both directions
    assert (("a", 1), ("b", 1)) in weak.pairs
    assert (("b", 1), ("a", 1)) in weak.pairs
    assert strict.pairs <= weak.pairs
    assert delabel(sequence_of(strict)) == s


def test_cancel_removes_from_chosen_side():
    s = parse(DIAMOND, "{a,b}{c}{a,d}")
    assert cancel(s, "a", "right") == parse(DIAMOND, "{a,b}{c}{d}")
    assert cancel(s, "a", "left") == parse(DIAMOND, "{b}{c}{a,d}")
    # absent event: identity
    assert cancel(s, "z", "right") == s


def test_cancel_drops_emptied_step():
    s = parse(DIAMOND, "{a,b}{c}")
    assert cancel(s, "c", "right") == parse(DIAMOND, "{a,b}")


def test_cancel_all_folds_left_to_right():
    s = parse(DIAMOND, "{a,b}{c}{a,d}")
    assert cancel_all(s, "ac", "right") == parse(DIAMOND, "{a,b}{d}")
    assert cancel_all(s, ("a", "a"), "left") == parse(DIAMOND, "{b}{c}{d}")


def test_project_keeps_only_domain():
    s = parse(DIAMOND, "{a,b}{c}{a,d}")
    assert project(s, "ad") == parse(DIAMOND, "{a}{a,d}")
    assert project(s, "z") == ()
