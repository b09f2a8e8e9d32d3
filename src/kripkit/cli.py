"""Command-line front end: evaluate, transform, translate, search, run the
bundled claim suite, export graphs."""
import sys

import click

from .formula import parse, print_formula
from .kripke_core import KripkitError, Model, parse_model, serialize_model
from .semantics import satisfies
from .transforms import (apply_eee, apply_reading_event, apply_see, apply_sse)
from .translate import translate_traced
from .validity import SearchBounds, check_validity


class _Group(click.Group):
    # domain errors are user errors at the CLI boundary: report, exit 2
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except KripkitError as exc:
            raise click.UsageError(str(exc)) from exc


@click.group(cls=_Group)
def main():
    """Finite multi-agent Kripke models with communicative updates."""


def _load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


def _agent_list(text):
    return tuple(t.strip() for t in text.split(",") if t.strip())


def _parse_alpha(text):
    """`a:a,b;b:b` -> {"a": ("a", "b"), "b": ("b",)}."""
    alpha = {}
    for entry in text.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        if ":" not in entry:
            raise click.UsageError(f"bad --alpha entry {entry!r}")
        agent, _, sources = entry.partition(":")
        alpha[agent.strip()] = _agent_list(sources)
    return alpha


@main.command("check")
@click.option("--model", "model_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--world", required=True, help="evaluation world name")
@click.option("--formula", "formula_text", required=True)
def cmd_check(model_path, world, formula_text):
    """Evaluate a formula at a pointed model; exit 0 if true, 1 if false."""
    model, _ = _load_model(model_path)
    value = satisfies(model, world, parse(formula_text))
    click.echo("true" if value else "false")
    sys.exit(0 if value else 1)


@main.command("transform")
@click.option("--model", "model_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--op", required=True,
              type=click.Choice(["eee", "see", "sse", "read"]))
@click.option("--agents", default=None, help="sender group, comma-separated")
@click.option("--topic", default=None, help="topic formula for --op sse")
@click.option("--alpha", default=None,
              help="reading map for --op read, e.g. a:a,b;b:b;c:a,b,c")
@click.option("--out", "out_path", default=None,
              type=click.Path(dir_okay=False, writable=True))
def cmd_transform(model_path, op, agents, topic, alpha, out_path):
    """Apply a model transformation and emit the result in the text format."""
    model, point = _load_model(model_path)
    if op == "eee":
        result = apply_eee(model)
    elif op == "see":
        if agents is None:
            raise click.UsageError("--op see requires --agents")
        result = apply_see(model, frozenset(_agent_list(agents)))
    elif op == "sse":
        if agents is None or topic is None:
            raise click.UsageError("--op sse requires --agents and --topic")
        result = apply_sse(model, frozenset(_agent_list(agents)), parse(topic))
    else:
        if alpha is None:
            raise click.UsageError("--op read requires --alpha")
        result = apply_reading_event(model, _parse_alpha(alpha))
    text = serialize_model(result, point)
    if out_path is None:
        click.echo(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


@main.command("translate")
@click.option("--formula", "formula_text", required=True)
@click.option("--trace", is_flag=True, help="print every rewrite step")
def cmd_translate(formula_text, trace):
    """Translate a formula into the update-free fragment."""
    result, steps = translate_traced(parse(formula_text))
    if trace:
        for i, step in enumerate(steps):
            click.echo(f"{i}: [{step.clause}] {print_formula(step.formula)}"
                       f"  =>  {print_formula(step.result)}")
    click.echo(print_formula(result))


@main.command("validity")
@click.option("--formula", "formula_text", required=True)
@click.option("--max-worlds", required=True, type=int)
@click.option("--agents", required=True, help="agent roster, comma-separated")
@click.option("--atoms", required=True, help="atom roster, comma-separated")
@click.option("--sample", default=None, type=int,
              help="check this many random models instead of all of them")
@click.option("--seed", default=None, type=int)
def cmd_validity(formula_text, max_worlds, agents, atoms, sample, seed):
    """Search for a countermodel within the given bounds.

    Exits 0 when the formula holds everywhere in bounds, 1 on a countermodel.
    """
    phi = parse(formula_text)
    bounds = SearchBounds(max_worlds, _agent_list(agents), _agent_list(atoms),
                          sample=sample, seed=seed)
    verdict = check_validity(phi, bounds)
    if verdict.valid:
        click.echo("valid up to bound")
        click.echo(f"checked {verdict.checked} models")
        sys.exit(0)
    pm = verdict.countermodel
    click.echo("countermodel found")
    click.echo(f"model index {verdict.index}, "
               f"world {pm.model.worlds[pm.world]}")
    click.echo(serialize_model(pm.model, pm.world))
    sys.exit(1)


@main.command("demo")
@click.argument("suite")
def cmd_demo(suite):
    """Run a bundled demo suite; `demo paper` checks every recorded claim."""
    if suite != "paper":
        raise click.UsageError(f"unknown suite {suite!r}")
    from .corpus import run_claims  # here, so other commands skip the corpus
    report = run_claims()
    for r in report.results:
        status = "PASS" if r.passed else "FAIL"
        click.echo(f"{status} {r.id} [{r.kind}] "
                   f"expected={r.expected} got={r.got}")
    click.echo(f"{report.n_passed}/{len(report.results)} checks passed")
    sys.exit(0 if report.ok else 1)


def render_dot(model: Model, point=None) -> str:
    """Deterministic DOT text: symmetric pairs merge into one bidirectional
    edge, agent labels combine, loops stay explicit."""
    n = model.n
    lines = ["digraph model {", "  rankdir=LR;", "  node [shape=circle];"]
    for w, name in enumerate(model.worlds):
        true_atoms = [at for at in model.atoms
                      if (model.atom_mask(at) >> w) & 1]
        label = name + ("\\n" + ",".join(true_atoms) if true_atoms else "")
        extra = ", peripheries=2" if point == w else ""
        lines.append(f'  "{name}" [label="{label}"{extra}];')
    for u in range(n):
        for v in range(u, n):
            both, fwd, rev = [], [], []
            for a, ag in enumerate(model.agents):
                f = (model.row(a, u) >> v) & 1
                r = (model.row(a, v) >> u) & 1
                if f and r:
                    both.append(ag)
                elif f:
                    fwd.append(ag)
                elif r:
                    rev.append(ag)
            wu, wv = model.worlds[u], model.worlds[v]
            if both:
                lines.append(f'  "{wu}" -> "{wv}" '
                             f'[label="{",".join(both)}", dir=none];')
            if fwd:
                lines.append(f'  "{wu}" -> "{wv}" [label="{",".join(fwd)}"];')
            if rev:
                lines.append(f'  "{wv}" -> "{wu}" [label="{",".join(rev)}"];')
    lines.append("}")
    return "\n".join(lines)


@main.command("dot")
@click.option("--model", "model_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
def cmd_dot(model_path):
    """Export a model as Graphviz DOT (stable output for a fixed model)."""
    model, point = _load_model(model_path)
    click.echo(render_dot(model, point))


if __name__ == "__main__":
    main()
