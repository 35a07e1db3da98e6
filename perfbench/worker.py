"""The measured process: one round of one workload, cold caches.

Reads the round's instances as JSON lines on stdin, imports the library from
this checkout, parses every alphabet and sequence, then checks and times each
instance in turn.  Prints one JSON object on stdout:

    ready       CLOCK_MONOTONIC reading once set-up (import + parse) is done
    times_ms    wall time per checked instance
    failed      ids of instances whose check disagreed or raised
    digest      sha256 over every instance's result line
    maxrss_kb   peak resident set size of this process
    trace       per-layer metrics and the names hit (traced rounds only)

Usage: worker.py --workload NAME [--trace SPANS_FILE]
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from workloads import ROOT, members_sha, seq_text


# --------------------------------------------------------------------------
# checks: each returns (ok, result line); the result line feeds the digest
# --------------------------------------------------------------------------

def check_canon_oracle(alph, s, _expect):
    """The c02 theorems: the class has exactly one canonical member, and it
    is the one greedy-maximal, the one maximally-concurrent, the lexicographically
    least, and a shortest member."""
    from comtrace import canonicalize, enumerate_class, g_canonical, is_canonical, is_gmc, is_mc

    members = enumerate_class(alph, s).member_set
    canon = canonicalize(alph, s)
    canon_set = {m for m in members if is_canonical(alph, m)}
    gmc_set = {m for m in members if is_gmc(alph, m)}
    mc_set = {m for m in members if is_mc(alph, m)}
    ok = canon_set == gmc_set == mc_set == {canon} == {g_canonical(alph, s)}
    ok = ok and len(canon) == min(len(m) for m in members)
    return ok, f"{len(members)} {seq_text(canon)}"


def check_structure_roundtrip(alph, s, _expect):
    """The c04 (serializable alphabets) or c05 (with inl) round trips:
    structure of the sequence = structure of the class, extensions = class
    orders, each extension rebuilds the structure, the induced comtrace is the
    class, and semican = g_canonical."""
    from comtrace import enumerate_class, g_canonical
    from comtrace.gsostruct import (
        extensions_gso, gcomtrace_of_gso, gso_from_extension, gso_of_class, gso_of_stepseq, semican,
    )
    from comtrace.sostruct import (
        comtrace_of_so, extensions_so, so_from_extension, so_of_class, so_of_stepseq,
    )
    from comtrace.stepseq import delabel, order_of

    members = enumerate_class(alph, s).member_set
    orders = {order_of(m).pairs for m in members}
    g = gso_of_stepseq(alph, s)
    if alph.is_comtrace:
        st = so_of_stepseq(alph, s)
        ok = st == so_of_class(alph, s)
        exts = extensions_so(st)
        ok = ok and {e.pairs for e in exts} == orders
        ok = ok and all(so_from_extension(st, e) == st for e in exts)
        induced = comtrace_of_so(st).members
        shape = f"so {len(st.prec.pairs)} {len(st.wc.pairs)}"
    else:
        ok = g == gso_of_class(alph, s)
        exts = extensions_gso(g)
        ok = ok and {e.pairs for e in exts} == orders
        ok = ok and all(gso_from_extension(g, e) == g for e in exts)
        induced = gcomtrace_of_gso(g).members
        shape = f"gso {len(g.cmt.pairs)} {len(g.wc.pairs)}"
    ok = ok and len(induced) == len(members) and {delabel(m) for m in induced} == members
    least = semican(alph, g)
    ok = ok and least == g_canonical(alph, s)
    return ok, f"{len(members)} {shape} {seq_text(least)}"


def check_large_class(alph, s, expect):
    """The BFS class equals the structure-route class computed at generation,
    and every member canonicalizes to canonicalize(s) (serializable) or the
    least member equals semican of the structure (with inl)."""
    from comtrace import canonicalize, enumerate_class, g_canonical

    members = enumerate_class(alph, s).members
    ok = len(members) == expect["size"] and members_sha(members) == expect["members_sha"]
    if alph.is_comtrace:
        least = canonicalize(alph, s)
        ok = ok and all(canonicalize(alph, m) == least for m in members)
    else:
        least = g_canonical(alph, s)
    ok = ok and seq_text(least) == expect["least"]
    return ok, f"{len(members)} {seq_text(least)}"


CHECKS = {
    "canon_oracle": check_canon_oracle,
    "structure_roundtrip": check_structure_roundtrip,
    "large_class": check_large_class,
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(CHECKS))
    ap.add_argument("--trace", metavar="SPANS_FILE")
    args = ap.parse_args()
    text = sys.stdin.read()

    sys.path.insert(0, str(ROOT / "src"))
    import comtrace

    if not Path(comtrace.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"comtrace imported from {comtrace.__file__}, not this checkout")
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from comtrace.files import parse_alphabet
    from comtrace.stepseq import parse

    instances = []
    for line in text.splitlines():
        raw = json.loads(line)
        alph = parse_alphabet(raw["alphabet"])
        instances.append((raw["id"], alph, parse(alph, raw["seq"]), raw.get("expect")))
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    check = CHECKS[args.workload]
    times_ms, failed, lines = [], [], []
    clock = time.perf_counter
    for index, (iid, alph, s, expect) in enumerate(instances):
        if tracer is not None:
            tracer.instance = index
        t0 = clock()
        try:
            ok, line = check(alph, s, expect)
        except Exception as exc:  # a raising check is a failed instance, not a crashed run
            ok, line = False, f"raised {type(exc).__name__}: {exc}"
        times_ms.append((clock() - t0) * 1000.0)
        if not ok:
            failed.append(iid)
        lines.append(f"{iid} {ok} {line}")
    out = {
        "ready": ready,
        "times_ms": times_ms,
        "failed": failed,
        "digest": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["trace"] = {
            "metrics": tracer.summary(sum(times_ms) / 1000.0),
            "hit": tracer.hit_names(),
            "spans": len(tracer.spans),
        }
        tracer.write_spans(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
