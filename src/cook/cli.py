"""Command-line entry points: analyze, run, and gen."""

from __future__ import annotations

import json
import sys

import click

from . import cfg as cfgmod
from .aliases import AliasAnalysis
from .callgraph import to_dot as callgraph_dot
from .errors import CaribError
from .generator import GenParams, generate_program
from .interp import DEFAULT_FUEL, ArrVal, Outcome, run_concrete
from .lang import ast, parse_unit, pretty
from .lang.check import check as check_program
from .lang.printer import _Printer
from .pipeline import BASIC, SUMMARY, ProgramModel
from .report import ReportConfig, analyze_sources, load_safe_list
from .rewrite import rewrite_program


@click.group()
def main() -> None:
    """Sub-Turing island analysis for Carib programs."""


def _load_program(paths: tuple[str, ...]) -> ast.Program:
    classes: list = []
    interfaces: list = []
    methods: list = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                unit = parse_unit(fh.read())
        except OSError as e:
            raise click.ClickException(str(e))
        except UnicodeDecodeError as e:
            raise click.ClickException(f"{path}: not UTF-8: {e}")
        except CaribError as e:
            raise click.ClickException(f"{path}:{e.format()}")
        classes.extend(unit.classes)
        interfaces.extend(unit.interfaces)
        methods.extend(unit.methods)
    return ast.Program(tuple(classes), tuple(interfaces), tuple(methods))


def _describe_node(node: cfgmod.CfgNode) -> str:
    if node.kind == cfgmod.ENTRY:
        return "entry"
    if node.kind == cfgmod.EXIT:
        return "exit"
    if node.kind == cfgmod.BRANCH:
        return node.cond.render()
    p = _Printer()
    p.statement(node.stmt)
    return p.lines[0].strip()


@main.command()
@click.argument("files", nargs=-1, required=True, type=click.Path())
@click.option("--safe-list", type=click.Path(exists=True), help="file of API names assumed non-divergent")
@click.option("--min-instructions", default=30, show_default=True)
@click.option("--no-accessor-filter", is_flag=True, help="keep getters/setters in the percentages")
@click.option("--swamp-test", type=click.Choice(["pre", "post"]), default="pre", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
@click.option("--nested-loops", type=click.Choice([BASIC, SUMMARY]), default=BASIC, show_default=True)
@click.option("--dump-cfg", is_flag=True)
@click.option("--dump-callgraph", is_flag=True)
@click.option("--dump-phi", is_flag=True)
@click.option("--dump-summaries", is_flag=True)
def analyze(
    files,
    safe_list,
    min_instructions,
    no_accessor_filter,
    swamp_test,
    fmt,
    nested_loops,
    dump_cfg,
    dump_callgraph,
    dump_phi,
    dump_summaries,
):
    """Classify every method of FILES as sub-Turing island or swamp."""
    program = _load_program(files)
    try:
        symbols = check_program(program)
    except CaribError as e:
        raise click.ClickException(e.format())
    try:
        safe = load_safe_list(safe_list) if safe_list else frozenset()
    except OSError as e:
        raise click.ClickException(f"{safe_list}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise click.ClickException(f"{safe_list}: not UTF-8: {e}")
    config = ReportConfig(
        safe_list=safe,
        min_instructions=min_instructions,
        exclude_accessors=not no_accessor_filter,
        swamp_test=swamp_test,
        format=fmt,
        nested_policy=nested_loops,
    )

    if dump_cfg or dump_callgraph or dump_phi or dump_summaries:
        model = ProgramModel(
            program, symbols, safe_list=config.safe_list, nested_policy=nested_loops
        )
        if dump_cfg:
            for mid, mm in model.methods.items():
                click.echo(cfgmod.to_dot(mm.cfg, _describe_node))
        if dump_callgraph:
            click.echo(callgraph_dot(model.callgraph))
        if dump_phi:
            click.echo(pretty(rewrite_program(model)), nl=False)
        if dump_summaries:
            for mid, mm in model.methods.items():
                for lm in mm.loops:
                    line = lm.stmt.loc.line if lm.stmt else "?"
                    click.echo(f"{mid} loop@{line}: {lm.verdict.render()}")
                    if lm.summary is not None:
                        for row in lm.summary.render().splitlines():
                            click.echo(f"  {row}")
                    elif lm.df is not None:
                        click.echo(f"  {lm.df.render()}")

    report = analyze_sources(program, symbols, config)
    click.echo(report.to_json() if fmt == "json" else report.to_text())


def _is_int64(v) -> bool:
    return type(v) is int and ast.INT64_MIN <= v <= ast.INT64_MAX


def _argument(v, formal: ast.Param, part: int):
    """The interpreter value of JSON argument `v` for `formal`: a 64-bit int
    for an int, a list of them or null for an int array, null for any other
    reference; anything else is an error."""
    if formal.type == ast.INT:
        if _is_int64(v):
            return v
    elif v is None:
        return None
    elif formal.type == ast.INT + "[]" and isinstance(v, list) and all(map(_is_int64, v)):
        return ArrVal(ast.INT, list(v), part)
    raise click.ClickException(
        f"bad --args: {formal.name}: {formal.type} cannot be {json.dumps(v)}"
    )


@main.command()
@click.argument("file", type=click.Path(exists=True))
@click.option("--entry", required=True, help="method to run (owner.name or name)")
@click.option("--args", "args_json", default="[]", show_default=True, help="JSON list of arguments (ints, null, int arrays)")
@click.option("--fuel", default=DEFAULT_FUEL, show_default=True)
def run(file, entry, args_json, fuel):
    """Execute a method concretely under a fuel budget."""
    program = _load_program((file,))
    try:
        symbols = check_program(program)
    except CaribError as e:
        raise click.ClickException(e.format())
    aliases = AliasAnalysis(program, symbols)
    method = symbols.methods.get(entry)
    if method is None:
        raise click.ClickException(f"no method {entry!r}")
    try:
        raw = json.loads(args_json)
    except json.JSONDecodeError as e:
        raise click.ClickException(f"bad --args: {e}")
    if not isinstance(raw, list):
        raise click.ClickException("--args must be a JSON list")
    if len(raw) != len(method.formals):
        raise click.ClickException(
            f"{entry!r} expects {len(method.formals)} arguments, got {len(raw)}"
        )
    values = [
        _argument(v, p, aliases.partition_of(entry, p.name) if ast.is_array_type(p.type) else 0)
        for v, p in zip(raw, method.formals)
    ]
    out = run_concrete(program, symbols, aliases, entry, values, fuel=fuel)
    if out.kind == Outcome.FINISHED:
        value = out.value
        if hasattr(value, "cells"):
            value = value.cells
        click.echo(f"finished in {out.steps} steps: {value}")
    elif out.kind == Outcome.FUEL_EXHAUSTED:
        click.echo(f"fuel exhausted after {out.steps} steps", err=True)
        sys.exit(4)
    else:
        click.echo(
            f"fault: {out.fault_kind} at {out.fault_loc.line}:{out.fault_loc.col}", err=True
        )
        sys.exit(3)


@main.command()
@click.option("--seed", default=0, show_default=True)
@click.option("--methods", default=10, show_default=True)
@click.option("--classes", default=2, show_default=True)
@click.option("--loop", default=0.2, show_default=True)
@click.option("--opaque-loop", default=0.05, show_default=True)
@click.option("--recursion", default=0.03, show_default=True)
@click.option("--extern", default=0.08, show_default=True)
@click.option("--call", default=0.3, show_default=True)
@click.option("--out", type=click.Path(), help="write to a file instead of stdout")
def gen(seed, methods, classes, loop, opaque_loop, recursion, extern, call, out):
    """Generate a random well-formed program."""
    params = GenParams(
        methods=methods,
        classes=classes,
        loop=loop,
        opaque_loop=opaque_loop,
        recursion=recursion,
        extern=extern,
        call=call,
    )
    program = generate_program(seed, params, normalize=False)
    text = pretty(program)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        click.echo(f"wrote {methods} methods to {out}")
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
