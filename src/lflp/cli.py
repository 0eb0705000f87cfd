"""Command-line driver.

Four subcommands cover the pipeline: `check` runs the signature
checker, `translate` emits the lambdaProlog program of the whole
signature, `solve` runs an inhabitation query end to end (translate
the type families the query can reach, search, invert answers back to
LF and have the kernel check each solution once), and `strictness`
reports the per-binder analysis that powers the optimized translation.

Exit codes: 0 on success (for solve: at least one solution), 1 when a
check fails or no solution is found, 2 for usage or I/O problems and
for a found answer that cannot be inverted to LF or fails the kernel's
re-check.  The `lflp` command (`run`) also exits 2, with one `error:`
line on stderr instead of a traceback, for an input nested past
Python's recursion limit or a normalization past its step budget, and
with nothing more printed when the reader of its stdout closes it
early; `main` lets those exceptions reach an in-process caller.  The
argument parser is built on the first call to `main` and reused by
later calls in the same process.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import Optional

from . import lf_syntax as lf
from .engine import Limits, Solution, solve
from .inverter import FreeVars, InversionError, invert
from .lf_kernel import (
    LFFuelError, LFTypeError, beta_normalize, check_object, check_signature,
    check_type, instantiate_normal, normal_classifier, substitute,
)
from .strictness import explain_strictness
from .translator import (
    TranslationError, emit_lambdaprolog, emit_split, reachable_signature,
    translate_query, translate_signature,
)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use rather than at import, so importing the module
    # stays as cheap as before
    parser = argparse.ArgumentParser(
        prog="lflp",
        description="Check LF signatures, translate them to hereditary "
                    "Harrop programs, and run inhabitation queries.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="type-check a signature file")
    p_check.add_argument("file")

    p_tr = sub.add_parser("translate", help="emit a lambdaProlog program")
    p_tr.add_argument("file")
    mode = p_tr.add_mutually_exclusive_group()
    mode.add_argument("--naive", action="store_true",
                      help="one typing premise per binder")
    mode.add_argument("--optimized", action="store_true",
                      help="drop premises for strict binders (default)")
    p_tr.add_argument("--no-simplify", action="store_true",
                      help="print true => for each binder without a premise")
    p_tr.add_argument("--split-sig-mod", action="store_true",
                      help="write separate .sig and .mod files")
    p_tr.add_argument("-o", "--out", default=None)

    p_solve = sub.add_parser("solve", help="run an inhabitation query")
    p_solve.add_argument("file")
    p_solve.add_argument("query")
    p_solve.add_argument("--depth", type=int, default=32,
                         help="backchain bound (default 32)")
    p_solve.add_argument("-n", type=int, default=1, dest="count",
                         help="solutions to report; 0 means all (default 1)")
    p_solve.add_argument("--naive", action="store_true",
                         help="search over the naive translation")

    p_str = sub.add_parser("strictness",
                           help="report strict binders per constant")
    p_str.add_argument("file")
    p_str.add_argument("--explain-strictness", action="store_true",
                       dest="explain", help="show the justifying rule chain")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.command == "solve":
        if args.depth < 1:
            print("error: --depth must be at least 1", file=sys.stderr)
            return 2
        if args.count < 0:
            print("error: -n must be at least 0", file=sys.stderr)
            return 2

    try:
        sig = lf.parse_signature(text)
        check_signature(sig)
    except (lf.LFSyntaxError, LFTypeError) as err:
        # `check` and `strictness` report errors on stdout, with results
        print(f"error: {err}", file=sys.stderr
              if args.command in ("translate", "solve") else sys.stdout)
        return 1

    if args.command == "check":
        return cmd_check(sig)
    if args.command == "translate":
        return cmd_translate(sig, args.file,
                             "naive" if args.naive else "optimized",
                             args.no_simplify, args.split_sig_mod, args.out)
    if args.command == "solve":
        return cmd_solve(sig, args.query,
                         "naive" if args.naive else "optimized",
                         Limits(depth=args.depth, max_solutions=args.count))
    return cmd_strictness(sig, args.explain)


def cmd_check(sig: lf.Signature) -> int:
    print(f"ok: {len(sig.decls)} declarations")
    return 0


def cmd_translate(sig: lf.Signature, path: str, mode: str, literal: bool,
                  split: bool, out: Optional[str]) -> int:
    program = translate_signature(sig, mode)
    if not (split or out):
        sys.stdout.write(emit_lambdaprolog(program, literal))
        return 0
    stem = Path(out or path).with_suffix("")
    files = (zip((f"{stem}.sig", f"{stem}.mod"),
                 emit_split(program, stem.name, literal)) if split
             else [(out, emit_lambdaprolog(program, literal))])
    try:
        for name, text in files:
            Path(name).write_text(text, encoding="utf-8")
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if split:
        print(f"wrote {stem}.sig and {stem}.mod")
    return 0


def cmd_solve(sig: lf.Signature, query: str, mode: str,
              limits: Limits) -> int:
    try:
        free, fam = lf.parse_query(query, sig)
        qt = translate_query(sig, free, fam)
    except (lf.LFSyntaxError, TranslationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    # only the families the query reaches: the same search, less to build
    program = translate_signature(reachable_signature(sig, qt.goal, mode),
                                  mode)
    qvars = tuple(v for _, v in qt.var_lvars) + (qt.subject,)
    run = solve(program, qt.goal, limits, query_vars=qvars)
    if not run.solutions:
        print("depth exhausted" if run.status == "exhausted" else run.status)
        return 1
    for i, sol in enumerate(run.solutions):
        try:
            lines = _solution_lines(sig, qt, sol)
        except InversionError as err:
            print(f"error: answer cannot be inverted: {err}", file=sys.stderr)
            return 2
        except LFTypeError as err:
            print(f"error: inverted answer fails to re-check: {err}",
                  file=sys.stderr)
            return 2
        if i:
            print()
        if limits.max_solutions != 1:
            print(f"% solution {i + 1}")
        print("\n".join(lines))
    return 0


def _solution_lines(sig: lf.Signature, qt, sol: Solution) -> list[str]:
    """`sol` inverted to LF: a `% free:` line per unsolved logic variable,
    each type checked in the context of those before it, then each query
    variable's value and the inhabitant.  One kernel check judges the
    rest: the inhabitant at the query type as parsed, instantiated by the
    values, whose own check meets each value where the query holds it,
    inside a redex, at an application's head or unapplied.  Inversion and
    checks follow the answer's sharing, so both grow with its distinct
    subterms; only the printing grows with its size."""
    frees = FreeVars(name for name, _ in qt.var_lvars)
    sub: dict[str, lf.Obj] = {}
    for name, v in qt.var_lvars:
        ty = instantiate_normal(qt.var_types[name], free=sub)
        sub[name] = invert(sig, (), sol.value(v), ty, frees)
    expected = substitute(qt.fam, free=sub)
    inhabitant = invert(sig, (), sol.value(qt.subject),
                        beta_normalize(expected), frees)
    ctx: lf.Context = {}
    for name, fam in frees.types.values():
        check_type(sig, ctx, fam)
        ctx[name] = fam
    check_object(sig, ctx, inhabitant, expected)
    return ([f"% free: {name} : {lf.print_lf(fam)}"
             for name, fam in ctx.items()]
            + [f"{name} = {lf.print_lf(obj)}" for name, obj in sub.items()]
            + [f"inhabitant: {lf.print_lf(inhabitant)}"])


def cmd_strictness(sig: lf.Signature, explain: bool) -> int:
    for d in sig.decls:
        if isinstance(d, lf.KindDecl):
            continue
        report = explain_strictness(normal_classifier(sig, d.name))
        if not report:
            print(f"{d.name}: no binders")
            continue
        print(f"{d.name}:")
        for name, verdict, why in report:
            line = f"  {name}: {'strict' if verdict else 'not strict'}"
            if explain:
                line += f"  [{why}]"
            print(line)
    return 0


def run(argv: Optional[list[str]] = None) -> None:
    """Entry point of the `lflp` command: `main`, with a resource limit
    reported as one `error:` line and exit status 2.  A reader that
    closes stdout early, such as `head`, also ends it with status 2,
    silently."""
    try:
        code = main(argv)
        sys.stdout.flush()
    except RecursionError:
        print("error: input nested too deeply (Python's recursion limit "
              "was reached)", file=sys.stderr)
        code = 2
    except LFFuelError as err:
        print(f"error: {err}", file=sys.stderr)
        code = 2
    except BrokenPipeError:
        # what is left in stdout's buffer goes nowhere, so the flush at
        # exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    run()
