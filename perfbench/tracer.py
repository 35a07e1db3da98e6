"""Span tracing for the benchmark's traced run.

`install` replaces each traced function in every `comtrace.*` namespace that
binds it (so `enumerate_class` is caught whether called from `canonical`,
`sostruct`, `gsostruct` or `lang`, and `render` from `congruence`) and patches
two `Relation` methods.  No file of the library changes.

Each call becomes one span (name, start, end, parent span, instance id),
kept in memory and written out at the end.  A span's self time is its
duration minus the time its child spans cover; time in no span is the
benchmark's own check code.  `ordered_partitions` is a generator, so each
resumption is a span and `calls` counts the generators created.

Which end-to-end metric each module's numbers should move, and where:

  congruence   instances_per_s and instance_tail_ms on canon_oracle and
               large_class; enumerate_class.repeat_ratio (calls whose
               (alphabet, seq, cap) was already seen in the process, the reuse
               a cache can exploit) moves peak_rss_mb on canon_oracle
  stepseq      render: instances_per_s on canon_oracle and large_class;
               parse: setup_s
  canonical    instances_per_s on large_class, which canonicalizes every member
  relations    instances_per_s and instance_tail_ms on structure_roundtrip
  sostruct     structure_roundtrip
  gsostruct    structure_roundtrip
  alphabet,    setup_s, and structure_roundtrip through the alphabets read
  files        off structures

`lang` and `cli` are not traced: `lang`'s time is `congruence`'s, and `cli`
is a thin shell over one call.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import Counter, defaultdict

# module -> traced public functions, each reported as <module>.<fn>.calls/.self_s
TRACED = {
    "congruence": ("enumerate_class", "rewrite_neighbors"),
    "stepseq": ("render", "parse", "order_of", "enumerate_occurrences"),
    "canonical": ("canonicalize", "forward_dependent", "is_canonical", "is_gmc", "is_mc", "g_canonical"),
    "relations": ("ordered_partitions", "diamond_closure", "bowtie_closure"),
    "sostruct": ("so_of_stepseq", "so_of_class", "extensions_so", "so_from_extension",
                 "comtrace_of_so", "validate_so"),
    "gsostruct": ("gso_of_stepseq", "gso_of_class", "extensions_gso", "gso_from_extension",
                  "gcomtrace_of_gso", "semican", "validate_gso"),
    "alphabet": ("galphabet",),
    "files": ("parse_alphabet",),
}
RELATION_METHODS = ("transitive_closure", "compose")
GENERATORS = {"relations.ordered_partitions"}
SHARE_MODULES = ("congruence", "stepseq", "canonical", "relations", "sostruct", "gsostruct")


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
    names += [f"relations.{m}" for m in RELATION_METHODS]
    return names


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "congruence.enumerate_class.repeat_ratio": "ratio",
        "congruence.neighbors_generated": "count",
        "congruence.bfs_yield": "ratio",
        "relations.partitions_yielded": "count",
        "relations.relations_built": "count",
    })
    for mod in SHARE_MODULES:
        units[f"{mod}.self_share"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (id, name id, start, end, parent id, instance, value)
        self.stack = [-1]
        self.next_id = 0
        self.instance = -1
        self.calls: Counter = Counter()
        self.relations_built = 0
        self.class_keys: set = set()
        self.class_repeats = 0

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name: str, fn, value=None, before=None):
        """A wrapper recording one span per call; value(result) is stored
        with the span, before(args, kwargs) runs ahead of the call."""
        nid = self._name_id(name)
        clock, stack, spans, calls = time.perf_counter, self.stack, self.spans, self.calls
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[nid] += 1
            if before is not None:
                before(args, kwargs)
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append((sid, nid, start, end, parent, tracer.instance,
                           value(result) if value is not None else 0))
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """A generator wrapper: one span per resumption, value 1 per item."""
        nid = self._name_id(name)
        clock, stack, spans, calls = time.perf_counter, self.stack, self.spans, self.calls
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[nid] += 1
            inner = fn(*args, **kwargs)
            while True:
                sid = tracer.next_id
                tracer.next_id = sid + 1
                parent = stack[-1]
                stack.append(sid)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    spans.append((sid, nid, start, clock(), parent, tracer.instance, 0))
                    return
                finally:
                    stack.pop()
                spans.append((sid, nid, start, clock(), parent, tracer.instance, 1))
                yield item

        return traced

    def _note_class_key(self, args, kwargs):
        from comtrace.congruence import CLASS_CAP

        alphabet, s = args[0], args[1]
        # the default resolved as the library's class cache sees it, so a call
        # leaving cap out and one passing CLASS_CAP are the same key
        cap = args[2] if len(args) > 2 else kwargs.get("cap", CLASS_CAP)
        key = (alphabet, tuple(s), cap)
        if key in self.class_keys:
            self.class_repeats += 1
        else:
            self.class_keys.add(key)

    def install(self) -> None:
        import comtrace  # noqa: F401  (loads every module the package exports)
        from comtrace.relations import Relation

        modules = [m for n, m in list(sys.modules.items())
                   if n == "comtrace" or n.startswith("comtrace.")]
        for mod, fns in TRACED.items():
            home = sys.modules[f"comtrace.{mod}"]
            for fn in fns:
                name = f"{mod}.{fn}"
                original = getattr(home, fn)
                if name in GENERATORS:
                    wrapped = self.wrap_generator(name, original)
                elif name == "congruence.enumerate_class":
                    wrapped = self.wrap(name, original, value=len, before=self._note_class_key)
                elif name == "congruence.rewrite_neighbors":
                    wrapped = self.wrap(name, original, value=len)
                else:
                    wrapped = self.wrap(name, original)
                for m in modules:
                    for attr, bound in list(vars(m).items()):
                        if bound is original:
                            setattr(m, attr, wrapped)
        for meth in RELATION_METHODS:
            setattr(Relation, meth, self.wrap(f"relations.{meth}", getattr(Relation, meth)))
        post_init = Relation.__post_init__
        tracer = self

        def counted_post_init(rel):
            tracer.relations_built += 1
            post_init(rel)

        Relation.__post_init__ = counted_post_init

    # -- results ---------------------------------------------------------

    def summary(self, instance_s: float) -> dict:
        """Per-layer metrics over all spans; shares are of `instance_s`, the
        summed wall time of the checked instances."""
        child = defaultdict(float)
        neighbors_by_parent = defaultdict(int)
        nid_of = {n: i for i, n in enumerate(self.names)}
        rn, ec = nid_of["congruence.rewrite_neighbors"], nid_of["congruence.enumerate_class"]
        op = nid_of["relations.ordered_partitions"]
        for _sid, nid, start, end, parent, _inst, value in self.spans:
            child[parent] += end - start
            if nid == rn:
                neighbors_by_parent[parent] += value
        self_s = defaultdict(float)
        module_self = defaultdict(float)
        yielded = bfs_members = bfs_neighbors = 0
        for sid, nid, start, end, _parent, inst, value in self.spans:
            own = end - start - child[sid]
            self_s[nid] += own
            if inst >= 0:
                module_self[self.names[nid].split(".")[0]] += own
            if nid == op:
                yielded += value
            elif nid == ec and sid in neighbors_by_parent:
                bfs_members += value
                bfs_neighbors += neighbors_by_parent[sid]
        metrics = {}
        for nid, name in enumerate(self.names):
            metrics[f"{name}.calls"] = self.calls[nid]
            metrics[f"{name}.self_s"] = self_s[nid]
        class_calls = self.calls[ec]
        metrics.update({
            "congruence.enumerate_class.repeat_ratio":
                self.class_repeats / class_calls if class_calls else 0.0,
            "congruence.neighbors_generated": sum(neighbors_by_parent.values()),
            "congruence.bfs_yield": bfs_members / bfs_neighbors if bfs_neighbors else 0.0,
            "relations.partitions_yielded": yielded,
            "relations.relations_built": self.relations_built,
        })
        for mod in SHARE_MODULES:
            metrics[f"{mod}.self_share"] = module_self[mod] / instance_s if instance_s else 0.0
        return metrics

    def hit_names(self) -> list[str]:
        return sorted(self.names[nid] for nid, n in self.calls.items() if n)

    def write_spans(self, path) -> None:
        """One tab-separated line per span, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\tinstance\tvalue\n")
            for sid, nid, start, end, parent, inst, value in self.spans:
                fh.write(f"{sid}\t{self.names[nid]}\t{start:.9f}\t{end:.9f}\t{parent}\t{inst}\t{value}\n")
