#!/usr/bin/env python3
"""The comtrace benchmark: batches of theorem checks, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src/`.

Workloads (see workloads.py for the draws and their strata):

  canon_oracle         c02's canonical-form theorems on serializable classes
                       of up to 40 members, in c02's own mix of class sizes
                       (half have one member); class BFS, `render` dedup and
                       the process-global class caches dominate.
  structure_roundtrip  c04/c05's order-structure round trips up to weight 8,
                       in that draw's own mix of weights, half with
                       interleaving; relations, sostruct and gsostruct do the
                       work and congruence stays small.
  large_class          cold classes of 2000-4000 members over 6 events, each
                       serializable one canonicalized member by member, each
                       interleaving one given its g-canonical form; raw
                       rewrite throughput, no cache reuse.

Untraced run (--trace 0).  A run is a sequence of rounds.  Each round is a
fresh, single-threaded worker process (worker.py) over a newly generated pool
of instances, so the library's caches start cold; rounds run one after
another until the checked time reaches --seconds.  End-to-end metrics:

  instances_per_s   instances checked per second of checking wall time
  instance_p50_ms   median wall time per instance
  instance_tail_ms  a fixed high percentile per workload, chosen so at least
                    ten instances of a run lie beyond it; printed with it
  peak_rss_mb       median over rounds of the worker's peak RSS
  setup_s           spawn to ready: interpreter, `import comtrace`, and
                    parsing the round's inputs; median over the rounds

Traced run (--trace 1).  Round 0 runs once untraced and once under the tracer
(tracer.py), whatever --seconds says; per-module metrics come from the traced
round, and `trace.overhead_ratio` is its checking time over the untraced one.
The two digests must match.  Round 0 is fixed by the seed, so counts repeat exactly.

Every instance is checked against an independent side; an instance whose
check disagrees or raises counts as failed.  Each run writes its provenance
(Python, CPU, nproc, git SHA, seed, a fixed-loop noise figure) and results to
.bench_out/, and prints as its last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

# percentile reported as instance_tail_ms; each keeps ten or more instances
# of a run beyond it at this commit's speed
TAIL_PERCENTILE = {"canon_oracle": 99.0, "structure_roundtrip": 99.0, "large_class": 60.0}
WORKER_TIMEOUT_S = 150
# stop starting rounds once this much wall time has gone, whatever --seconds says
RUN_WALL_LIMIT_S = 120

END_TO_END_UNITS = {
    "instances_per_s": "1/s",
    "instance_p50_ms": "ms",
    "instance_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so a worker's reading compares with ours
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


# --------------------------------------------------------------------------
# provenance
# --------------------------------------------------------------------------

def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def loop_noise(repeats: int = 5, n: int = 3_000_000) -> dict:
    """Wall times of a fixed pure-Python loop: how noisy the machine is now."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        x = 0
        for i in range(n):
            x += i
        times.append(time.perf_counter() - t0)
    med = statistics.median(times)
    return {"loop": f"{n} additions x {repeats}", "median_s": med,
            "spread": (max(times) - min(times)) / med, "times_s": times}


def provenance(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": seed,
        "noise": loop_noise(),
    }


# --------------------------------------------------------------------------
# workers
# --------------------------------------------------------------------------

def run_worker(workload: str, text: str, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = clock()
    proc = subprocess.run(cmd, input=text, capture_output=True, text=True, env=env,
                          timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {workload} exited with {proc.returncode}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = out["ready"] - started
    return out


def untraced_run(workload: str, seed: int, seconds: float) -> dict:
    from workloads import generate

    begun = clock()
    rounds = []
    checked_s = 0.0
    while checked_s < seconds and (not rounds or clock() - begun < RUN_WALL_LIMIT_S):
        out = run_worker(workload, generate(workload, seed, len(rounds)))
        rounds.append(out)
        checked_s += sum(out["times_ms"]) / 1000.0
    times = [t for r in rounds for t in r["times_ms"]]
    pct = TAIL_PERCENTILE[workload]
    tail = percentile(times, pct)
    metrics = {
        "instances_per_s": len(times) / checked_s,
        "instance_p50_ms": statistics.median(times),
        "instance_tail_ms": tail,
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in rounds) / 1024.0,
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
    }
    return {
        "rounds": len(rounds),
        "attempted": len(times),
        "failed": [f for r in rounds for f in r["failed"]],
        "digest": hashlib.sha256(" ".join(r["digest"] for r in rounds).encode()).hexdigest(),
        "metrics": metrics,
        "notes": {
            "instance_tail_ms": f"p{pct:g} of {len(times)} instances, "
                                f"{sum(t > tail for t in times)} beyond it",
            "setup_s": f"median over {len(rounds)} rounds",
            "peak_rss_mb": f"median over {len(rounds)} rounds",
            "instances_per_s": f"{len(times)} instances in {checked_s:.2f} s of checking",
        },
        "setups_s": [r["setup_s"] for r in rounds],
        "round_times_ms": [r["times_ms"] for r in rounds],
    }


def traced_run(workload: str, seed: int) -> dict:
    from workloads import generate

    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.tsv.gz"
    text = generate(workload, seed, 0)
    plain = run_worker(workload, text)
    traced = run_worker(workload, text, "--trace", str(spans))
    metrics = dict(traced["trace"]["metrics"])
    metrics["trace.overhead_ratio"] = sum(traced["times_ms"]) / sum(plain["times_ms"])
    return {
        "rounds": 1,
        "attempted": len(traced["times_ms"]),
        "failed": traced["failed"],
        "digest": traced["digest"],
        "untraced_digest": plain["digest"],
        "metrics": metrics,
        "hit": traced["trace"]["hit"],
        "spans_file": str(spans.relative_to(ROOT)),
        "span_count": traced["trace"]["spans"],
    }


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENTILE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in (ROOT / "src" / "comtrace" / "__init__.py", ROOT / "tests" / "conftest.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a comtrace checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(HERE))
    import tracer

    prov = provenance(args.seed)
    if args.trace:
        res = traced_run(args.workload, args.seed)
        correct = not res["failed"] and res["digest"] == res["untraced_digest"]
    else:
        res = untraced_run(args.workload, args.seed, args.seconds)
        correct = not res["failed"]
    attempted = res["attempted"]
    failed = len(res["failed"])

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "provenance": prov, "correct": correct, "failed_ratio": failed / attempted, **res}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    noise = prov["noise"]
    print(f"provenance: python {prov['python']}, cpu {prov['cpu']!r}, nproc {prov['nproc']}, "
          f"git {prov['git_sha']}, seed {args.seed}")
    print(f"noise: fixed loop ({noise['loop']}) median {noise['median_s']:.4f} s, "
          f"spread {noise['spread']:.3f} of median")
    print(f"{args.workload}: {res['rounds']} round(s), {attempted} instances, {failed} failed, "
          f"failed_ratio {failed / attempted:.4f}, digest {res['digest'][:16]}")
    if args.trace:
        print(f"untraced digest {res['untraced_digest'][:16]}, {res['span_count']} spans "
              f"in {res['spans_file']}, names hit: {len(res['hit'])}")
    units = tracer.metric_units() if args.trace else END_TO_END_UNITS
    for name, value in res["metrics"].items():
        note = res.get("notes", {}).get(name)
        print(f"  {name} = {value:.6g} {units[name]}" + (f"  ({note})" if note else ""))
    if res["failed"]:
        print(f"failed instances: {res['failed'][:10]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
