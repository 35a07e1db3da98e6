"""Seeded input generation for the three benchmark workloads.

Generation runs in the orchestrating process (run.py), never in a measured
worker: a worker receives its instances only as JSON lines holding alphabet
text (the `files.parse_alphabet` format) and step-sequence text (the
`stepseq.parse` format), plus, for `large_class`, the expected answer
computed here by an independent route.

A run is a sequence of rounds.  Round r of workload w under seed n is drawn
from its own `random.Random(f"{w}:{n}:{r}")`, so the same (w, n, r) always
yields byte-identical text.  Each round fills fixed quotas per stratum (class
size, weight, interleaving), so rounds of different seeds carry comparable
work.  For canon_oracle and structure_roundtrip the quotas are the strata's
measured shares of the workload's own random draw, so a round has that
draw's mix without its sampling variance.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _library():
    """Import the library and the test-suite generators from this checkout."""
    for sub in ("tests", "src"):
        path = str(ROOT / sub)
        if path not in sys.path:
            sys.path.insert(0, path)
    import comtrace  # noqa: F401  (fails loudly when src/ is missing)
    import conftest

    return conftest.random_alphabet, conftest.random_stepseq


def seq_text(s) -> str:
    """Step-sequence text written without the library's renderer, so the
    expected answers do not depend on the code being measured."""
    return "".join("{" + ",".join(sorted(step)) + "}" for step in s) or "lambda"


def alphabet_text(alph) -> str:
    def pairs(rel, symmetric):
        kept = sorted(p for p in rel if not symmetric or p[0] < p[1])
        return " ".join(f"({a},{b})" for a, b in kept)

    return (
        f"events: {' '.join(alph.order)}\n"
        f"sim: {pairs(alph.sim, True)}\n"
        f"ser: {pairs(alph.ser, False)}\n"
        f"inl: {pairs(alph.inl, True)}\n"
    )


def members_sha(members) -> str:
    text = "\n".join(sorted(seq_text(m) for m in members))
    return hashlib.sha256(text.encode()).hexdigest()


def _fill(quotas, draw) -> list[dict]:
    """Draw until every stratum's quota is met.  quotas holds (least, greatest,
    instances per round) of the stratified quantity; draw() returns
    (quantity, instance), or None for a draw the workload redraws."""
    need = {(lo, hi): n for lo, hi, n in quotas}
    out = []
    while any(need.values()):
        got = draw()
        if got is None:
            continue
        value, inst = got
        stratum = next((k for k in need if k[0] <= value <= k[1]), None)
        if stratum is not None and need[stratum]:
            need[stratum] -= 1
            out.append(inst)
    return out


# --------------------------------------------------------------------------
# canon_oracle: the c02 draw (2-4 events, serializable, up to 4 steps)
# --------------------------------------------------------------------------

# (least class size, greatest class size, instances per round).  The quotas
# are the shares of c02's own draw, redrawn above 40 members, measured over
# 100000 draws: 49% of its classes have one member and 1.4% have more than
# 25.  Fixing them per round keeps that mix while removing its sampling
# variance; the big lumps (1, 2, 13, 25 members) get strata of their own.
CANON_CLASS_CAP = 40
CANON_STRATA = (
    (1, 1, 494), (2, 2, 154), (3, 3, 74), (4, 4, 67), (5, 5, 47), (6, 10, 69),
    (11, 13, 36), (14, 16, 10), (17, 24, 11), (25, 25, 24), (26, 34, 7), (35, 40, 7),
)


def _canon_oracle(rng: random.Random) -> list[dict]:
    random_alphabet, random_stepseq = _library()
    from comtrace import enumerate_class
    from comtrace.errors import ClassCapExceeded
    from comtrace.stepseq import render

    def draw():
        alph = random_alphabet(rng, "abcd"[: rng.randint(2, 4)])
        s = random_stepseq(rng, alph, max_len=4)
        try:
            size = len(enumerate_class(alph, s, cap=CANON_CLASS_CAP))
        except ClassCapExceeded:
            return None  # redraw: c02's generator raises here instead
        return size, {"alphabet": alphabet_text(alph), "seq": render(alph, s)}

    return _fill(CANON_STRATA, draw)


# --------------------------------------------------------------------------
# structure_roundtrip: the c04/c05 draw widened to 5 events and weight 8
# --------------------------------------------------------------------------

# (least weight, greatest weight, instances per round) for serializable and
# for interleaving alphabets, 240 of each.  The quotas are the shares of the
# widened draw itself (redrawn above weight 8 or 120 class members, and, for
# the interleaving half, when the alphabet has no inl), measured over
# 50000 kept draws of each kind.
STRUCTURE_STRATA = {
    False: ((1, 1, 32), (2, 2, 43), (3, 3, 40), (4, 4, 40),
            (5, 5, 34), (6, 6, 26), (7, 7, 16), (8, 8, 9)),
    True: ((1, 1, 39), (2, 2, 47), (3, 3, 45), (4, 4, 46),
           (5, 5, 31), (6, 6, 19), (7, 7, 9), (8, 8, 4)),
}
STRUCTURE_MAX_WEIGHT = 8
STRUCTURE_CLASS_CAP = 120


def _structure_roundtrip(rng: random.Random) -> list[dict]:
    random_alphabet, random_stepseq = _library()
    from comtrace import enumerate_class
    from comtrace.errors import ClassCapExceeded
    from comtrace.stepseq import render, weight

    def draw(with_inl):
        alph = random_alphabet(rng, "abcde"[: rng.randint(2, 5)], allow_inl=with_inl)
        if with_inl and not alph.inl:
            return None
        s = random_stepseq(rng, alph, max_len=4)
        if weight(s) > STRUCTURE_MAX_WEIGHT:
            return None
        try:
            enumerate_class(alph, s, cap=STRUCTURE_CLASS_CAP)
        except ClassCapExceeded:
            return None
        return weight(s), {"alphabet": alphabet_text(alph), "seq": render(alph, s)}

    out = []
    for with_inl, quotas in STRUCTURE_STRATA.items():
        out += _fill(quotas, lambda: draw(with_inl))
    rng.shuffle(out)
    return out


# --------------------------------------------------------------------------
# large_class: a few big cold classes over 6 events, sized by structures
# --------------------------------------------------------------------------

# (least class size, greatest class size, with inl) per instance of a round;
# interleaving classes are drawn about twice as big because their check takes
# one g_canonical where a serializable class canonicalizes every member, so
# both kinds take about as long and instance times stay unimodal
LARGE_STRATA = ((2000, 2400, False), (3200, 4000, True)) * 2
LARGE_MAX_WEIGHT = 12
GROWTH_TRIES = 4


def _extension_count(g, cap: int) -> int:
    """How many stratified extensions the gso-structure g has (the size of
    its class), or a number above cap once there are more.

    Extensions are ordered partitions with wc pairs in not-later blocks and
    cmt pairs in different blocks, as gcomtrace_of_gso lists them; here they
    are counted by memoised recursion over the points still to place, which
    is far cheaper than listing them when sizing draws: listing them (with
    ordered_partitions, stopped past cap) made a round's generation take
    about 33 s instead of about 3 s."""
    points = sorted(g.carrier)
    index = {p: i for i, p in enumerate(points)}
    below = [0] * len(points)  # weak predecessors of each point
    apart = [0] * len(points)
    for a, b in g.wc.pairs:
        below[index[b]] |= 1 << index[a]
    for a, b in g.cmt.pairs:
        apart[index[a]] |= 1 << index[b]
    bits = [1 << i for i in range(len(points))]
    memo = {0: 1}

    def separated(mask: int) -> bool:
        return not any(mask & bit and apart[i] & mask for i, bit in enumerate(bits))

    def count(rest: int) -> int:
        if rest in memo:
            return memo[rest]
        # a first block is a union of weak-closures (within rest) of points;
        # collect the distinct unions that keep every cmt pair apart
        blocks = {0}
        for i, bit in enumerate(bits):
            if not rest & bit:
                continue
            closure, frontier = bit, below[i] & rest
            while frontier & ~closure:
                closure |= frontier
                frontier = 0
                for j, b in enumerate(bits):
                    if closure & b:
                        frontier |= below[j] & rest
            if separated(closure):
                blocks |= {u | closure for u in blocks if separated(u | closure)}
        total = 0
        for block in blocks - {0}:
            total += count(rest & ~block)
            if total > cap:
                break
        memo[rest] = total
        return total

    return count((1 << len(points)) - 1)


def _large_class(rng: random.Random) -> list[dict]:
    random_alphabet, _ = _library()
    from comtrace.gsostruct import gcomtrace_of_gso, gso_of_stepseq, semican
    from comtrace.stepseq import delabel, render, weight

    out = []
    for lo, hi, with_inl in LARGE_STRATA:
        found = None
        while found is None:
            alph = random_alphabet(rng, "abcdef", allow_inl=with_inl)
            if with_inl and not alph.inl:
                continue
            # multi-event steps are what make classes big
            steps = [st for st in alph.steps_universe() if len(st) > 1]
            if not steps:
                continue
            s = tuple(rng.choice(steps) for _ in range(2))
            g = gso_of_stepseq(alph, s)
            size = _extension_count(g, hi)
            # grow the sequence a step at a time until the class is big
            # enough, trying a few steps when one overshoots
            while size < lo:
                room = LARGE_MAX_WEIGHT - weight(s)
                options = [st for st in steps if len(st) <= room]
                for step in rng.sample(options, min(GROWTH_TRIES, len(options))):
                    grown_g = gso_of_stepseq(alph, s + (step,))
                    grown = _extension_count(grown_g, hi)
                    if grown <= hi:
                        s, g, size = s + (step,), grown_g, grown
                        break
                else:
                    break
            if lo <= size <= hi:
                found = alph, s, g
        alph, s, g = found
        members = [delabel(m) for m in gcomtrace_of_gso(g).members]
        if len(members) != size:
            raise RuntimeError(f"{render(alph, s)}: {len(members)} extensions listed, {size} counted")
        out.append({
            "alphabet": alphabet_text(alph),
            "seq": render(alph, s),
            "expect": {
                "size": len(members),
                "members_sha": members_sha(members),
                "least": seq_text(semican(alph, g)),
            },
        })
    rng.shuffle(out)
    return out


GENERATORS = {
    "canon_oracle": _canon_oracle,
    "structure_roundtrip": _structure_roundtrip,
    "large_class": _large_class,
}


def generate(workload: str, seed: int, round_index: int) -> str:
    """Round `round_index` of the workload under `seed`, as JSON lines."""
    rng = random.Random(f"{workload}:{seed}:{round_index}")
    instances = GENERATORS[workload](rng)
    lines = []
    for i, inst in enumerate(instances):
        inst["id"] = f"r{round_index}.{i}"
        lines.append(json.dumps(inst, sort_keys=True))
    return "\n".join(lines) + "\n"
