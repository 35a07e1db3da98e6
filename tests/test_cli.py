"""End-to-end command-line checks, driven through click's test runner."""
from __future__ import annotations

import pytest
from click.testing import CliRunner

from comtrace.cli import main

ALPH_SER_ONEWAY = "events: a b c\nsim: (b,c)\nser: (b,c)\n"
ALPH_TINY_INL = "events: a b c\nsim: (a,c)\nser: (a,c) (c,a)\ninl: (a,b)\n"
ALPH_NO_SIM = "events: a b c\nsim:\nser:\n"
SO_LAYERED = (
    "carrier: a b c d e\n"
    "prec: (a,c) (a,d) (a,e) (b,d) (b,e) (c,d) (c,e)\n"
    "wc: (a,c) (a,d) (a,e) (b,d) (b,e) (c,d) (c,e) (b,c) (d,e) (e,d)\n"
)


@pytest.fixture
def runner(tmp_path):
    r = CliRunner()
    paths = {}
    for name, text in [
        ("oneway.alph", ALPH_SER_ONEWAY),
        ("tiny.alph", ALPH_TINY_INL),
        ("nosim.alph", ALPH_NO_SIM),
        ("layered.so", SO_LAYERED),
    ]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return r, paths


def test_class_listing(runner):
    r, paths = runner
    res = r.invoke(main, ["class", "--alphabet", paths["oneway.alph"], "{a}{b,c}"])
    assert res.exit_code == 0
    assert res.output.splitlines() == ["{a}{b,c}", "{a}{b}{c}"]


def test_gcanon(runner):
    r, paths = runner
    res = r.invoke(main, ["gcanon", "--alphabet", paths["tiny.alph"], "{b}{a,c}"])
    assert res.exit_code == 0
    assert res.output.strip() == "{a}{b}{c}"


def test_equiv_false_still_exits_zero(runner):
    r, paths = runner
    res = r.invoke(
        main, ["equiv", "--alphabet", paths["oneway.alph"], "{b,c}{a}", "{c}{b}{a}"]
    )
    assert res.exit_code == 0
    assert res.output.strip() == "false"


def test_equiv_true(runner):
    r, paths = runner
    res = r.invoke(
        main, ["equiv", "--alphabet", paths["oneway.alph"], "{b,c}{a}", "{b}{c}{a}"]
    )
    assert res.exit_code == 0
    assert res.output.strip() == "true"


def test_canon(runner):
    r, paths = runner
    res = r.invoke(main, ["canon", "--alphabet", paths["oneway.alph"], "{a}{b}{c}"])
    assert res.exit_code == 0
    assert res.output.strip() == "{a}{b,c}"


def test_validate_alphabet_and_structure(runner):
    r, paths = runner
    res = r.invoke(main, ["validate", "--alphabet", paths["tiny.alph"]])
    assert res.exit_code == 0
    assert "3 events" in res.output
    res = r.invoke(main, ["validate", paths["layered.so"]])
    assert res.exit_code == 0
    assert "so-structure: valid" in res.output


def test_steps_listing(runner):
    r, paths = runner
    res = r.invoke(main, ["steps", "--alphabet", paths["tiny.alph"]])
    assert res.exit_code == 0
    assert res.output.splitlines() == ["{a}", "{b}", "{c}", "{a,c}"]


def test_sostruct_text(runner):
    r, paths = runner
    res = r.invoke(main, ["sostruct", "--alphabet", paths["oneway.alph"], "{b,c}{a}"])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "carrier: a.1 b.1 c.1"
    assert lines[1] == "prec: (b.1,a.1) (c.1,a.1)"
    assert lines[2] == "wc: (b.1,a.1) (b.1,c.1) (c.1,a.1)"


def test_gsostruct_text(runner):
    r, paths = runner
    res = r.invoke(main, ["gsostruct", "--alphabet", paths["tiny.alph"], "{b}{a,c}"])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "carrier: a.1 b.1 c.1"
    assert lines[1] == "cmt: (a.1,b.1) (b.1,a.1) (b.1,c.1) (c.1,b.1)"
    assert lines[2] == "wc: (b.1,c.1)"


def test_extensions(runner):
    r, paths = runner
    res = r.invoke(main, ["extensions", "--alphabet", paths["oneway.alph"], "{b,c}{a}"])
    assert res.exit_code == 0
    assert res.output.splitlines() == ["{b.1,c.1}{a.1}", "{b.1}{c.1}{a.1}"]


def test_from_so_lists_caption_class(runner):
    r, paths = runner
    res = r.invoke(main, ["from-so", paths["layered.so"]])
    assert res.exit_code == 0
    out = res.output.splitlines()
    assert "members:" in out
    members = out[out.index("members:") + 1:]
    assert members == [
        "{a,b}{c}{d,e}",
        "{a}{b,c}{d,e}",
        "{a}{b}{c}{d,e}",
        "{b}{a}{c}{d,e}",
    ]


def test_from_so_rejects_gso_file(runner, tmp_path):
    r, paths = runner
    p = tmp_path / "g.gso"
    p.write_text("carrier: x y\ncmt: (x,y) (y,x)\nwc:\n")
    res = r.invoke(main, ["from-so", str(p)])
    assert res.exit_code == 2


def test_semican_verb(runner):
    r, paths = runner
    res = r.invoke(main, ["semican", "--alphabet", paths["tiny.alph"], "{b}{a,c}"])
    assert res.exit_code == 0
    assert res.output.strip() == "{a}{b}{c}"


def test_dot_output(runner):
    r, paths = runner
    res = r.invoke(main, ["dot", "--alphabet", paths["oneway.alph"], "{b,c}{a}"])
    assert res.exit_code == 0
    assert "digraph prec {" in res.output
    assert '"b.1" -> "a.1" [style=solid];' in res.output
    assert "digraph wc {" in res.output


@pytest.mark.parametrize("verb", [["sostruct", "--format", "dot"], ["dot"]])
def test_reduce_drops_implied_prec_edges(runner, verb):
    # {a}{b}{c} with nothing simultaneous: prec is the 3-chain a < b < c
    r, paths = runner
    args = [*verb, "--alphabet", paths["nosim.alph"], "{a}{b}{c}"]
    full = r.invoke(main, args)
    reduced = r.invoke(main, [*args[:-1], "--reduce", args[-1]])
    assert full.exit_code == reduced.exit_code == 0
    prec_full, wc_full = full.output.split("digraph wc {")
    prec_reduced, wc_reduced = reduced.output.split("digraph wc {")
    edges = ['"a.1" -> "b.1" [style=solid];', '"b.1" -> "c.1" [style=solid];']
    implied = '"a.1" -> "c.1" [style=solid];'
    assert all(e in prec_full for e in edges) and implied in prec_full
    assert all(e in prec_reduced for e in edges) and implied not in prec_reduced
    assert wc_reduced == wc_full  # only prec is reduced


def test_domain_error_exit_code(runner):
    r, paths = runner
    # {a,b} is not a step of this alphabet
    res = r.invoke(main, ["class", "--alphabet", paths["oneway.alph"], "{a,b}"])
    assert res.exit_code == 1
    assert "error: NotAStep" in res.output


def test_usage_error_exit_code(runner):
    r, paths = runner
    res = r.invoke(main, ["class", "{a}"])
    assert res.exit_code == 2
