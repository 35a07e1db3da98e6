"""Command-line front end.  Every verb is a thin shell over one library
operation; output is deterministic (sorted by rendered text everywhere).

Exit codes: 0 success, 1 domain error (printed as `error: Name: detail`),
2 usage error.
"""

from __future__ import annotations

import functools
import os
import sys

import click

from .alphabet import GAlphabet, event_text
from .canonical import canonicalize, g_canonical
from .congruence import CLASS_CAP, enumerate_class, equivalent
from .errors import ComtraceError
from .files import load_alphabet, load_structure
from .gsostruct import (
    GsoStructure,
    extensions_gso,
    gcomtrace_of_gso,
    gso_of_stepseq,
    semican,
    validate_gso,
)
from .relations import Relation, classify_order, order_to_partition
from .sostruct import (
    SoStructure,
    comtrace_of_so,
    extensions_so,
    so_of_stepseq,
    validate_so,
)
from .stepseq import parse, render


@click.group()
def main():
    """Step-sequence quotient monoids and their order structures."""


def _domain_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ComtraceError as exc:
            click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(1)
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)
        except OSError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


def _alphabet_options(fn):
    fn = click.option(
        "--alphabet", "alphabet_path", required=True, metavar="FILE",
        help="Alphabet file (events/sim/ser/inl sections).",
    )(fn)
    fn = click.option(
        "--order", "order_text", default=None, metavar='"a b c"',
        help="Override the event order.",
    )(fn)
    return fn


def _load(alphabet_path: str, order_text: str | None) -> GAlphabet:
    order = tuple(order_text.split()) if order_text else None
    return load_alphabet(alphabet_path, order=order)


def _pair_text(pair: tuple) -> str:
    return f"({event_text(pair[0])},{event_text(pair[1])})"


def _relation_line(name: str, pairs) -> str:
    body = " ".join(_pair_text(p) for p in sorted(pairs, key=_pair_text))
    return f"{name}:" + (f" {body}" if body else "")


def _points_line(name: str, points) -> str:
    return f"{name}: " + " ".join(sorted(map(event_text, points)))


def _occ_seq_text(partition) -> str:
    if not partition:
        return "lambda"
    return "".join(
        "{" + ",".join(sorted(map(event_text, block))) + "}" for block in partition
    )


def _dot_graph(name: str, rel: Relation, style: str, symmetric: bool = False,
               reduce_edges: bool = False) -> str:
    lines = [f"digraph {name} {{"]
    for p in sorted(map(event_text, rel.carrier)):
        lines.append(f'  "{p}";')
    # for a transitive relation, the pairs no two-step chain implies (Hasse edges)
    pairs = (rel - rel.compose(rel)).pairs if reduce_edges else rel.pairs
    seen = set()
    for a, b in sorted(pairs, key=_pair_text):
        if symmetric:
            if (b, a) in seen:
                continue
            seen.add((a, b))
            lines.append(f'  "{event_text(a)}" -> "{event_text(b)}" [style={style}, dir=none];')
        else:
            lines.append(f'  "{event_text(a)}" -> "{event_text(b)}" [style={style}];')
    lines.append("}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# verbs
# --------------------------------------------------------------------------

@main.command()
@click.option("--alphabet", "alphabet_path", default=None, metavar="FILE")
@click.option("--order", "order_text", default=None, metavar='"a b c"')
@click.argument("structure", required=False)
@_domain_errors
def validate(alphabet_path, order_text, structure):
    """Check an alphabet file and/or a structure file."""
    if not alphabet_path and not structure:
        raise click.UsageError("nothing to validate: give --alphabet and/or a structure file")
    if alphabet_path:
        alph = _load(alphabet_path, order_text)
        click.echo(
            f"alphabet: {len(alph.events)} events, {len(alph.sim)} sim,"
            f" {len(alph.ser)} ser, {len(alph.inl)} inl"
        )
    if structure:
        s = load_structure(structure)
        if isinstance(s, SoStructure):
            validate_so(s)
            click.echo(f"so-structure: valid, {len(s.carrier)} points")
        elif isinstance(s, GsoStructure):
            validate_gso(s)
            click.echo(f"gso-structure: valid, {len(s.carrier)} points")
        else:
            kind = classify_order(s.r1)
            click.echo(f"relational structure: {len(s.carrier)} points, r1 is {kind}")


@main.command()
@_alphabet_options
@_domain_errors
def steps(alphabet_path, order_text):
    """List every step (simultaneity clique) of the alphabet."""
    alph = _load(alphabet_path, order_text)
    for step in alph.steps_universe():
        click.echo(render(alph, (step,)))


@main.command(name="class")
@_alphabet_options
@click.option("--cap", default=CLASS_CAP, show_default=True)
@click.argument("seq")
@_domain_errors
def class_(alphabet_path, order_text, cap, seq):
    """Enumerate the whole equivalence class of a step sequence."""
    alph = _load(alphabet_path, order_text)
    for member in enumerate_class(alph, parse(alph, seq), cap).members:
        click.echo(render(alph, member))


@main.command()
@_alphabet_options
@click.option("--cap", default=CLASS_CAP, show_default=True)
@click.argument("left")
@click.argument("right")
@_domain_errors
def equiv(alphabet_path, order_text, cap, left, right):
    """Print true/false: are two step sequences congruent?"""
    alph = _load(alphabet_path, order_text)
    verdict = equivalent(alph, parse(alph, left), parse(alph, right), cap)
    click.echo("true" if verdict else "false")


@main.command()
@_alphabet_options
@click.argument("seq")
@_domain_errors
def canon(alphabet_path, order_text, seq):
    """Canonical form (comtrace alphabets) by forward-dependency rewriting."""
    alph = _load(alphabet_path, order_text)
    click.echo(render(alph, canonicalize(alph, parse(alph, seq))))


@main.command()
@_alphabet_options
@click.option("--cap", default=CLASS_CAP, show_default=True)
@click.argument("seq")
@_domain_errors
def gcanon(alphabet_path, order_text, cap, seq):
    """Lexicographically least class member (any alphabet)."""
    alph = _load(alphabet_path, order_text)
    click.echo(render(alph, g_canonical(alph, parse(alph, seq), cap)))


@main.command()
@_alphabet_options
@click.option("--format", "fmt", type=click.Choice(["text", "dot"]), default="text")
@click.option("--reduce", "reduce_edges", is_flag=True, help="Drop implied prec edges in DOT.")
@click.argument("seq")
@_domain_errors
def sostruct(alphabet_path, order_text, fmt, reduce_edges, seq):
    """The stratified order structure induced by a step sequence."""
    alph = _load(alphabet_path, order_text)
    s = so_of_stepseq(alph, parse(alph, seq))
    if fmt == "dot":
        click.echo(_dot_graph("prec", s.prec, "solid", reduce_edges=reduce_edges))
        click.echo(_dot_graph("wc", s.wc, "dashed"))
    else:
        click.echo(_points_line("carrier", s.carrier))
        click.echo(_relation_line("prec", s.prec.pairs))
        click.echo(_relation_line("wc", s.wc.pairs))


@main.command()
@_alphabet_options
@click.option("--format", "fmt", type=click.Choice(["text", "dot"]), default="text")
@click.argument("seq")
@_domain_errors
def gsostruct(alphabet_path, order_text, fmt, seq):
    """The generalized structure (commutativity + weak causality)."""
    alph = _load(alphabet_path, order_text)
    g = gso_of_stepseq(alph, parse(alph, seq))
    if fmt == "dot":
        click.echo(_dot_graph("cmt", g.cmt, "solid", symmetric=True))
        click.echo(_dot_graph("wc", g.wc, "dashed"))
    else:
        click.echo(_points_line("carrier", g.carrier))
        click.echo(_relation_line("cmt", g.cmt.pairs))
        click.echo(_relation_line("wc", g.wc.pairs))


@main.command()
@_alphabet_options
@click.argument("seq")
@_domain_errors
def extensions(alphabet_path, order_text, seq):
    """All stratified extensions of the induced structure, as step sequences
    of occurrences."""
    alph = _load(alphabet_path, order_text)
    s = parse(alph, seq)
    if alph.is_comtrace:
        exts = extensions_so(so_of_stepseq(alph, s))
    else:
        exts = extensions_gso(gso_of_stepseq(alph, s))
    lines = sorted(_occ_seq_text(order_to_partition(e)) for e in exts)
    for line in lines:
        click.echo(line)


@main.command(name="from-so")
@click.option("--order", "order_text", default=None, metavar='"a b c"')
@click.argument("structure")
@_domain_errors
def from_so(order_text, structure):
    """Read a prec/wc structure file; print the alphabet it induces and the
    comtrace it generates."""
    s = load_structure(structure)
    if not isinstance(s, SoStructure):
        raise click.UsageError("from-so needs a structure file with prec:/wc: sections")
    validate_so(s)
    order = tuple(order_text.split()) if order_text else None
    induced = comtrace_of_so(s, order=order)
    alph = induced.alphabet
    click.echo(_points_line("events", alph.events))
    click.echo(_relation_line("sim", alph.sim))
    click.echo(_relation_line("ser", alph.ser))
    click.echo("members:")
    for seq in sorted(render(alph, m) for m in induced.members):
        click.echo(seq)


@main.command(name="from-gso")
@click.option("--order", "order_text", default=None, metavar='"a b c"')
@click.argument("structure")
@_domain_errors
def from_gso(order_text, structure):
    """Read a cmt/wc structure file; print the induced alphabet and the
    generated g-comtrace."""
    g = load_structure(structure)
    if not isinstance(g, GsoStructure):
        raise click.UsageError("from-gso needs a structure file with cmt:/wc: sections")
    validate_gso(g)
    order = tuple(order_text.split()) if order_text else None
    induced = gcomtrace_of_gso(g, order=order)
    alph = induced.alphabet
    click.echo(_points_line("events", alph.events))
    click.echo(_relation_line("sim", alph.sim))
    click.echo(_relation_line("ser", alph.ser))
    click.echo(_relation_line("inl", alph.inl))
    click.echo("members:")
    for seq in sorted(render(alph, m) for m in induced.members):
        click.echo(seq)


@main.command(name="semican")
@_alphabet_options
@click.argument("seq")
@_domain_errors
def semican_(alphabet_path, order_text, seq):
    """g-canonical form computed from the induced structure alone."""
    alph = _load(alphabet_path, order_text)
    g = gso_of_stepseq(alph, parse(alph, seq))
    click.echo(render(alph, semican(alph, g)))


@main.command()
@_alphabet_options
@click.option("--reduce", "reduce_edges", is_flag=True, help="Drop implied prec edges.")
@click.argument("seq")
@_domain_errors
def dot(alphabet_path, order_text, reduce_edges, seq):
    """DOT graphs of the induced structure (solid prec/cmt, dashed wc)."""
    alph = _load(alphabet_path, order_text)
    s = parse(alph, seq)
    if alph.is_comtrace:
        so = so_of_stepseq(alph, s)
        click.echo(_dot_graph("prec", so.prec, "solid", reduce_edges=reduce_edges))
        click.echo(_dot_graph("wc", so.wc, "dashed"))
    else:
        g = gso_of_stepseq(alph, s)
        click.echo(_dot_graph("cmt", g.cmt, "solid", symmetric=True))
        click.echo(_dot_graph("wc", g.wc, "dashed"))


if __name__ == "__main__":
    main()
