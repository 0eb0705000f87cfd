import contextlib
import io
import os
import pathlib
import re
import shlex
import subprocess
import sys
import threading
import time

import pytest

from lflp import cli, inverter, lf_kernel, lf_syntax as lf
from lflp.cli import main
from lflp.engine import Limits, Solution, SolveRun, solve
from lflp.lf_kernel import LFFuelError, check_object
from lflp.translator import encode, translate_query, translate_signature

import oracles

DATA = pathlib.Path(__file__).parent / "data"
APPEND = str(DATA / "append.elf")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# --- check ----------------------------------------------------------------

def test_check_ok(capsys):
    code, out, _ = run_cli(capsys, "check", APPEND)
    assert code == 0
    assert out.startswith("ok: 9 declarations")


def test_check_duplicate_declaration(capsys, tmp_path):
    bad = tmp_path / "dup.elf"
    bad.write_text("nat : type.\nz : nat.\nz : nat.\n")
    code, out, _ = run_cli(capsys, "check", str(bad))
    assert code == 1
    assert "duplicate" in out


def test_check_type_error(capsys, tmp_path):
    bad = tmp_path / "ill.elf"
    bad.write_text("nat : type.\nplus : nat -> nat -> nat -> type.\n"
                   "plusZ : {x:nat} plus z x.\n")
    code, out, _ = run_cli(capsys, "check", str(bad))
    assert code == 1
    assert "error" in out


_VEC = "nat : type.\nz : nat.\nvec : nat -> type.\n"


@pytest.mark.parametrize("decl, message", [
    ("c : vec.", "[type-sig] classifier of 'c' has kind nat -> type, "
                 "not type (in declaration 'c')"),
    ("d : vec -> nat.", "[pi-fam] Pi domain vec has kind nat -> type, "
                        "not type (in declaration 'd')"),
    ("k : vec -> type.", "[pi-kind] Pi domain vec has kind nat -> type, "
                         "not type (in declaration 'k')"),
    ("e : vec (([x:vec] z) z).", "[abs-obj] binder type vec has kind "
                                 "nat -> type, not type (in declaration 'e')"),
    ("e : vec nat.", "[var-obj] type constant 'nat' used as an object "
                     "(in declaration 'e')"),
    ("f : {x:nat} x.", "4:13: bound variable 'x' used as a type"),
])
def test_check_error_texts_pinned(capsys, tmp_path, decl, message):
    # the binder rules' domain checks and the category errors, each on
    # stdout with the rule, the text and the declaration it is found in
    bad = tmp_path / "bad.elf"
    bad.write_text(_VEC + decl + "\n")
    code, out, err = run_cli(capsys, "check", str(bad))
    assert (code, out, err) == (1, f"error: {message}\n", "")


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "check", "/nonexistent/sig.elf")
    assert code == 2
    assert "error" in err


def test_unknown_subcommand(capsys):
    code, _, _ = run_cli(capsys, "frobnicate", APPEND)
    assert code == 2


# --- translate ------------------------------------------------------------

def test_translate_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "translate", "--naive", APPEND)
    code2, out2, _ = run_cli(capsys, "translate", "--naive", APPEND)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "hastype" in out1


def test_translate_modes_differ(capsys):
    _, naive, _ = run_cli(capsys, "translate", "--naive", APPEND)
    _, opt, _ = run_cli(capsys, "translate", "--optimized", APPEND)
    assert naive != opt
    assert len(opt) < len(naive)  # premises were dropped


def test_translate_to_file(capsys, tmp_path):
    out_path = tmp_path / "prog.lp"
    code, out, _ = run_cli(capsys, "translate", APPEND, "-o", str(out_path))
    assert code == 0
    assert out == ""
    assert "hastype" in out_path.read_text()


def test_translate_split_files(capsys, tmp_path):
    stem = tmp_path / "apx"
    code, out, _ = run_cli(capsys, "translate", APPEND,
                           "--split-sig-mod", "-o", str(stem))
    assert code == 0
    assert (tmp_path / "apx.sig").read_text().startswith("sig apx.")
    assert (tmp_path / "apx.mod").read_text().startswith("module apx.")


@pytest.mark.parametrize("argv, missing", [
    (["-o", "nodir/prog.lp"], "nodir/prog.lp"),
    (["--split-sig-mod", "-o", "nodir/prog"], "nodir/prog.sig"),
])
def test_translate_to_a_missing_directory_exits_2(capsys, tmp_path, argv,
                                                 missing):
    argv = [str(tmp_path / a) if a.startswith("nodir") else a for a in argv]
    code, out, err = run_cli(capsys, "translate", APPEND, *argv)
    assert (code, out) == (2, "")
    assert err == (f"error: [Errno 2] No such file or directory: "
                   f"'{tmp_path / missing}'\n")


def test_translate_no_simplify_keeps_true(capsys):
    _, raw, _ = run_cli(capsys, "translate", "--no-simplify", APPEND)
    assert "true =>" in raw
    _, cooked, _ = run_cli(capsys, "translate", APPEND)
    assert "true" not in cooked


def test_translate_names_a_quoted_binder_x(capsys, tmp_path):
    # a binder spelled with a leading quote makes no lambdaProlog variable
    # when capitalized, so it becomes X; the arrow's binder, which the
    # parser names x, then takes X1
    quoted = tmp_path / "quoted.elf"
    quoted.write_text("nat : type. z : nat. f : {'x:nat} nat -> nat.\n")
    code, out, _ = run_cli(capsys, "translate", "--naive", str(quoted))
    assert code == 0
    assert out.splitlines()[-1] == (
        "pi X\\ (hastype X nat => pi X1\\ (hastype X1 nat => "
        "hastype (f X X1) nat)).")


# --- solve ----------------------------------------------------------------

def test_solve_ground_query(capsys):
    code, out, _ = run_cli(capsys, "solve", APPEND,
                           "append (cons z nil) nil (cons z nil)")
    assert code == 0
    assert "inhabitant: appCons z nil nil nil (appNil nil)" in out


def test_solve_binds_output_variable(capsys):
    code, out, _ = run_cli(capsys, "solve", APPEND,
                           "append (cons (s z) nil) (cons z nil) L")
    assert code == 0
    assert "L = cons (s z) (cons z nil)" in out
    assert ("inhabitant: appCons (s z) nil (cons z nil) (cons z nil) "
            "(appNil (cons z nil))") in out


def test_solve_no_solution(capsys):
    code, out, _ = run_cli(capsys, "solve", APPEND,
                           "append nil nil (cons z nil)")
    assert code == 1
    assert out.strip() == "no"


def test_solve_depth_exhausted(capsys):
    code, out, _ = run_cli(capsys, "solve", APPEND,
                           "append (cons z nil) nil (cons z nil)",
                           "--depth", "1")
    assert code == 1
    assert out.strip() == "depth exhausted"


def test_solve_enumerates_solutions(capsys):
    code, out, _ = run_cli(capsys, "solve", str(DATA / "fy.elf"), "bar z",
                           "--depth", "4", "-n", "0")
    assert code == 0
    assert "% solution 1" in out and "% solution 2" in out
    assert "inhabitant: foo z" in out


def test_solve_names_lambdas_after_their_pi_binders(capsys):
    # the same query in one process prints the same answers, each lambda
    # named after the binder of F : nat -> nat
    runs = [run_cli(capsys, "solve", str(DATA / "fy.elf"), "bar z",
                    "-n", "0", "--depth", "4") for _ in range(2)]
    assert runs[0] == runs[1]
    code, out, _ = runs[0]
    assert code == 0
    assert "inhabitant: foo z ([x:nat] z)" in out
    assert "inhabitant: foo z ([x:nat] x)" in out


def test_solve_free_variable_reported(capsys):
    code, out, _ = run_cli(capsys, "solve", str(DATA / "foo2.elf"), "bar Y")
    assert (code, out) == (0, "% free: A : i\nY = A\ninhabitant: foo A\n")


def test_solve_open_answer_is_inverted_and_rechecked(capsys, monkeypatch):
    # An unsolved variable is a free LF variable, declared on a `% free:`
    # line and named apart from the query's variables; the kernel checks
    # its type, then the inhabitant once, at the query's type instantiated
    # by the values, in the context those lines spell out.
    checked, typed = [], []
    real_object, real_type = cli.check_object, cli.check_type
    monkeypatch.setattr(cli, "check_object", lambda sig, ctx, m, ty: (
        checked.append((list(ctx.items()), ty)), real_object(sig, ctx, m, ty))[1])
    monkeypatch.setattr(cli, "check_type", lambda sig, ctx, a: (
        typed.append((list(ctx.items()), a)), real_type(sig, ctx, a))[1])
    runs = [run_cli(capsys, "solve", str(DATA / "stlc.elf"),
                    "of (lam T ([x:tm] x)) U") for _ in range(2)]
    assert runs[0] == runs[1] == (0, (
        "% free: A : tp\n"
        "T = A\n"
        "U = arr A A\n"
        "inhabitant: of_lam A A ([x1:tm] x1) ([x:tm] [x2:of x A] x2)\n"),
        "")
    assert typed == [([], lf.FConst("tp"))] * 2
    sig = lf.parse_signature((DATA / "stlc.elf").read_text())
    _, want = lf.parse_query("of (lam A ([x:tm] x)) (arr A A)", sig)
    assert len(checked) == 2
    for ctx, ty in checked:
        assert ctx == [("A", lf.FConst("tp"))]
        assert lf.alpha_eq(ty, want)


@pytest.mark.parametrize("mode, names", [
    ("optimized", ["plus", "plusZ", "plusS"]),
    ("naive", ["nat", "z", "s", "plus", "plusZ", "plusS"]),
])
def test_solve_translates_only_the_families_the_query_reaches(
        capsys, monkeypatch, mode, names):
    # The benchmark's tracer wraps `cli.translate_signature` and pairs the
    # object declarations of its first argument with the clauses.
    calls = []
    real = cli.translate_signature
    monkeypatch.setattr(cli, "translate_signature", lambda *args, **kw: (
        calls.append((args, kw)), real(*args, **kw))[1])
    argv = ["solve", str(DATA / "appendplus.elf"), "plus (s z) (s z) N"]
    code, out, _ = run_cli(capsys, *argv, *(["--naive"] if mode == "naive"
                                             else []))
    assert (code, out) == (0, "N = s (s z)\n"
                              "inhabitant: plusS z (s z) (s z) (plusZ (s z))\n")
    [((view, got_mode), kw)] = calls
    assert (got_mode, kw) == (mode, {})
    assert [d.name for d in view] == names


def test_solve_answer_that_cannot_be_inverted_exits_2(capsys, monkeypatch):
    def refuse(*_):
        raise cli.InversionError("free F is not applied to distinct bound "
                                 "variables")

    monkeypatch.setattr(cli, "invert", refuse)
    code, out, err = run_cli(capsys, "solve", str(DATA / "foo2.elf"), "bar Y")
    assert (code, out) == (2, "")
    assert err == ("error: answer cannot be inverted: free F is not applied "
                   "to distinct bound variables\n")


def test_solve_types_query_variable_under_object_binder(capsys):
    # F occurs only under [x:tm]; its type is the body's, tm
    code, out, err = run_cli(capsys, "solve", str(DATA / "stlc.elf"),
                             "eval E (lam o ([x:tm] F))")
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "% free: A : tm"


def test_solve_rejects_bad_query(capsys):
    code, _, err = run_cli(capsys, "solve", APPEND, "mystery z")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("query, message", [
    ("append z z z z", "too many arguments to append"),
    ("append foo nil L", "unknown object constant foo"),
    ("append", "query type is not fully applied"),
    ("append (cons z nil) nil ([x:nat] L)",
     "cannot infer a type for query variable L"),
])
def test_solve_query_error_texts_pinned(capsys, query, message):
    code, out, err = run_cli(capsys, "solve", APPEND, query)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("query, message", [
    # `parse_query` refuses a query that is not a base type
    ("{x:tm} of x T", "query must be a base type"),
    ("of (lam T ([x:tm] F x)) U",
     "cannot infer a type for F: free query variables may not be applied"),
])
def test_solve_stlc_query_error_texts_pinned(capsys, query, message):
    code, out, err = run_cli(capsys, "solve", str(DATA / "stlc.elf"), query)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_solve_rejects_bad_depth(capsys):
    code, _, err = run_cli(capsys, "solve", APPEND, "append nil nil nil",
                           "--depth", "0")
    assert code == 2
    assert "--depth" in err


def test_solve_rejects_negative_count(capsys):
    code, out, err = run_cli(capsys, "solve", APPEND, "append nil nil nil",
                             "-n", "-1")
    assert code == 2
    assert out == ""
    assert err.strip() == "error: -n must be at least 0"


def test_solve_rechecks_inverted_answers(capsys, monkeypatch):
    import lflp.cli
    # z : nat can inhabit neither the list variable nor the append type.
    monkeypatch.setattr(lflp.cli, "invert", lambda *args: lf.OConst("z"))
    code, out, err = run_cli(capsys, "solve", APPEND,
                             "append (cons (s z) nil) (cons z nil) L")
    assert code == 2
    assert err.startswith("error: ")
    assert "L = " not in out and "inhabitant" not in out


@pytest.mark.parametrize("value", [
    "cons z (cons nil nil)",  # ill-typed: nil is no nat
    "nil",                    # well-typed, but not what the derivation shows
])
def test_solve_rechecks_a_wrong_value_through_the_inhabitant(
        capsys, monkeypatch, value):
    # The search's own derivation of the inhabitant is kept and only L's
    # value is replaced.  The inverter builds what it is given; the one
    # kernel check, of the inhabitant at the query's type instantiated by
    # the values, refuses it.
    sig = lf.parse_signature(pathlib.Path(APPEND).read_text())
    wrong = encode(sig, lf.parse_object(value), {})
    real = cli.solve

    def solve_with_wrong_value(program, goal, limits, query_vars):
        run = real(program, goal, limits, query_vars=query_vars)
        lvar = query_vars[0]
        return SolveRun(run.status, tuple(
            Solution(tuple((v, wrong if v == lvar else t)
                           for v, t in sol.bindings), sol.backchains)
            for sol in run.solutions))

    monkeypatch.setattr(cli, "solve", solve_with_wrong_value)
    code, out, err = run_cli(capsys, "solve", APPEND,
                             "append (cons z nil) nil L")
    assert (code, out) == (2, "")
    assert err.startswith("error: inverted answer fails to re-check: ")
    assert err.count("\n") == 1


def test_readme_python_round_trip_runs():
    # the README's library example, run as written from the repo root
    root = DATA.parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    [code] = re.findall(r"```python\n(.*?)```", readme, re.S)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ("L = cons z nil\n"
                           "inhabitant: appCons z nil nil nil (appNil nil)\n")


def test_solve_too_deep_input_ends_without_traceback():
    # A 600-element list passes the parser's recursion limit, which is
    # about 490 nested parentheses under Python's default (two frames
    # each); the user of the command sees one error line, not a Python
    # traceback.
    items = "nil"
    for _ in range(600):
        items = f"(cons z {items})"
    proc = subprocess.run(
        [sys.executable, "-m", "lflp.cli", "solve", APPEND,
         f"append {items} nil X"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ,
             "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])})
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (2, "", "error: input nested too deeply (Python's recursion limit "
                "was reached)\n")


# The read end of the child's stdout is closed before the child starts,
# so its first write fails whatever the timing: solve's answers (about
# 5 kB) overflow the pipe's 4 kB buffer inside a print, check's one
# line fails at the flush before exit.
@pytest.mark.parametrize("argv", [
    ["solve", APPEND, "append L M N", "-n", "0", "--depth", "10"],
    ["check", APPEND],
])
def test_closed_stdout_ends_with_status_2_and_nothing_on_stderr(argv):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lflp.cli", *argv], stdout=write,
            stderr=subprocess.PIPE, text=True, timeout=60,
            env={**os.environ,
                 "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])})
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (2, "")


@pytest.mark.parametrize("exc, message", [
    (RecursionError("maximum recursion depth exceeded"),
     "error: input nested too deeply (Python's recursion limit was "
     "reached)\n"),
    (LFFuelError("normalization fuel exhausted"),
     "error: normalization fuel exhausted\n"),
])
def test_resource_limits_are_one_error_line(capsys, monkeypatch, exc,
                                            message):
    # `run`, the command's entry point, reports the limit; `main` lets
    # the exception reach an in-process caller.
    def fail(sig):
        raise exc

    monkeypatch.setattr(cli, "check_signature", fail)
    for argv in (["check", APPEND], ["translate", APPEND],
                 ["solve", APPEND, "append nil nil L"],
                 ["strictness", APPEND]):
        with pytest.raises(SystemExit) as stop:
            cli.run(argv)
        out, err = capsys.readouterr()
        assert (stop.value.code, out, err) == (2, "", message), argv
        with pytest.raises(type(exc)):
            main(argv)


def _run(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        cli.run(argv)
    out, err = capsys.readouterr()
    return stop.value.code, out, err


def _nested_redex(levels):
    # ([y:t] y) d inside `levels` nested ([x:t] c x x x x) (...): well
    # typed, with a normal form (4^(levels+1) - 1) / 3 beta steps away
    m = "([y:t] y) d"
    for _ in range(levels):
        m = f"([x:t] c x x x x) ({m})"
    return m


def test_a_well_typed_term_can_exhaust_the_fuel(capsys, monkeypatch,
                                                tmp_path):
    # the fuel bounds what normalizing a well-typed term may cost: at 1000
    # steps 4 levels (341 steps) pass and 5 (1365 steps) do not; at the
    # default 100000, 8 levels pass and 9 do not
    monkeypatch.setattr(lf_kernel, "_FUEL", 1000)
    decls = "t : type. d : t. c : t -> t -> t -> t -> t. p : t -> type.\n"
    for levels, want in [
            (4, (0, "ok: 5 declarations\n", "")),
            (5, (2, "", "error: normalization fuel exhausted\n"))]:
        path = tmp_path / f"nested{levels}.elf"
        path.write_text(decls + f"q : p ({_nested_redex(levels)}).\n")
        assert _run(capsys, ["check", str(path)]) == want


def test_an_ill_typed_term_never_reaches_the_fuel(capsys, tmp_path):
    # the kernel refuses an ill-typed term before normalizing it; a query
    # is normalized before the kernel checks it, so a diverging one meets
    # Python's recursion limit long before the fuel runs out
    omega = "([x:t] x x) ([x:t] x x)"
    path = tmp_path / "omega.elf"
    path.write_text("t : type. p : t -> type.\n")
    assert _run(capsys, ["solve", str(path), f"p ({omega})"]) == (
        2, "", "error: input nested too deeply (Python's recursion limit "
               "was reached)\n")
    path.write_text(f"t : type. p : t -> type. q : p ({omega}).\n")
    assert _run(capsys, ["check", str(path)]) == (
        1, "error: [app-obj] x of type t applied to an argument "
           "(in declaration 'q')\n", "")


def test_solve_naive_mode(capsys):
    code, out, _ = run_cli(capsys, "solve", "--naive", APPEND,
                           "append (cons z nil) nil (cons z nil)",
                           "--depth", "24")
    assert code == 0
    assert "inhabitant: appCons z nil nil nil (appNil nil)" in out


@pytest.mark.parametrize("mode", [[], ["--naive"]])
def test_solve_inverts_eta_short_answers(capsys, mode):
    # c's argument is the bare constant s at nat -> nat; d's is expanded
    code, out, _ = run_cli(capsys, "solve", *mode, str(DATA / "eta.elf"),
                           "foo F", "-n", "0")
    assert code == 0
    assert "F = [x:nat] s x" in out
    assert "inhabitant: c" in out.splitlines()
    assert "inhabitant: d" in out.splitlines()
    assert "% free:" not in out


# --- strictness -----------------------------------------------------------

def test_strictness_report(capsys):
    code, out, _ = run_cli(capsys, "strictness", APPEND)
    assert code == 0
    assert "appNil:" in out and "  l: strict" in out
    # appCons's derivation premise is an anonymous arrow binder
    assert "  x1: not strict" in out
    assert "z: no binders" in out


def test_strictness_explain(capsys):
    code, out, _ = run_cli(capsys, "strictness", APPEND,
                           "--explain-strictness")
    assert code == 0
    assert "APP_t" in out and "INIT_o" in out


# --- end to end -----------------------------------------------------------

def test_reported_inhabitant_type_checks(capsys):
    code, out, _ = run_cli(capsys, "solve", APPEND,
                           "append (cons (s z) nil) (cons z nil) L")
    assert code == 0
    sig = oracles.load_signature("append.elf")
    witness = next(line.split(": ", 1)[1] for line in out.splitlines()
                   if line.startswith("inhabitant: "))
    bound = next(line.split(" = ", 1)[1] for line in out.splitlines()
                 if line.startswith("L = "))
    obj = lf.parse_object(witness)
    ty = oracles.parse_type(
        sig, f"append (cons (s z) nil) (cons z nil) ({bound})")
    check_object(sig, {}, obj, ty)


def _captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_parser_built_once_reads_each_call_afresh():
    # `main` builds its argument parser on the first call and reuses it;
    # no option of one call may leak into the next.
    calls = [["solve", "--naive", "-n", "0", "--depth", "12", APPEND,
              "append L M (cons z nil)"],
             ["solve", APPEND, "append (cons z nil) nil L"],
             ["translate", "--no-simplify", APPEND],
             ["translate", APPEND],
             ["solve", APPEND],
             ["--help"]]
    cli._parser.cache_clear()
    reused = [_captured(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(_captured(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 2, 0]


# --- scale ----------------------------------------------------------------
# The largest inputs of the benchmark's deep and compile workloads, through
# the CLI: a 250-element ground list, and 40 renamed copies of append and
# plus.  The time bound only catches a front end that stops being
# proportional to its input; both take tens of milliseconds.

_FAMILY = ["nat", "z", "s", "list", "nil", "cons", "append", "appNil",
           "appCons", "plus", "plusZ", "plusS"]


def _ground_list(n):
    text = "nil"
    for i in reversed(range(n)):
        text = f"cons {'z' if i % 2 else '(s z)'} ({text})"
    return text


def _long_fact_signature(n=250):
    items = _ground_list(n)
    return ((DATA / "appendplus.elf").read_text()
            + f"\nfact : append nil ({items}) ({items}).\n")


def _copies_signature():
    text = (DATA / "appendplus.elf").read_text()
    names = re.compile(r"(?<![\w'])(" + "|".join(_FAMILY) + r")(?![\w'])")
    return "\n".join(names.sub(lambda m: f"{m.group(1)}_{j}", text)
                     for j in range(40))


def _timed_cli(capsys, *argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    return code, out, err


def _program_shape(out):
    """(clauses, premises, type lines) of an emitted program; the inputs
    are first order, so every `=>` is one premise."""
    lines = out.splitlines()
    clauses = [l for l in lines if l and not l.startswith(("kind ", "type "))]
    return (len(clauses), out.count(" => "),
            sum(l.startswith("type ") for l in lines))


@pytest.mark.parametrize("make, decls, optimized, naive", [
    (_long_fact_signature, 13, (9, 5, 14), (9, 14, 14)),
    (_copies_signature, 480, (320, 200, 481), (320, 560, 481)),
])
def test_front_end_scales_to_benchmark_inputs(capsys, tmp_path, make, decls,
                                              optimized, naive):
    path = tmp_path / "big.elf"
    path.write_text(make())
    assert _timed_cli(capsys, "check", str(path)) == (
        0, f"ok: {decls} declarations\n", "")
    code, out, _ = _timed_cli(capsys, "translate", str(path))
    assert code == 0 and _program_shape(out) == optimized
    code, out, _ = _timed_cli(capsys, "translate", "--naive", str(path))
    assert code == 0 and _program_shape(out) == naive


# --- work counts ----------------------------------------------------------
# Exporting an answer follows its sharing.  An LF proof such as
# `appCons X L M N D` repeats its index lists at every level, so the
# printed inhabitant of `append <n> <n> L` grows as n^2.  The engine
# resolves the answer through one memo, the inverter inverts each
# distinct subterm once and the kernel synthesizes each distinct argument
# once, so their calls grow as n, 2x per doubling (96 / 192 / 384
# `_synth_obj` and 58 / 114 / 226 `invert` calls for n = 8 / 16 / 32),
# where walking every occurrence grows about 4x.  Each spine is also
# typed in one loop, so the substitution work grows with the printed
# inhabitant, not faster: typed one argument at a time (the rule
# `oracles.ref_check_object` keeps), the 8+8 export made 3449 `_subst`
# calls and the 16+16 one 11353.

def _lf_nodes(m):
    match m:
        case lf.OLam(_, _, body):
            return 1 + _lf_nodes(body)
        case lf.OApp(fn, arg):
            return 1 + _lf_nodes(fn) + _lf_nodes(arg)
    return 1


# the functions `_export_work` counts calls of, recursive calls included;
# `cli` holds its own reference to `invert`
_EXPORT_COUNTED = [(lf_kernel, "_subst"), (lf_kernel, "_synth_obj"),
                   (inverter, "invert"), (cli, "invert")]


def _export_work(monkeypatch, n):
    """(calls of each function in `_EXPORT_COUNTED` by name, LF nodes of
    the inhabitant) for the optimized answer to `append <n> <n> L`."""
    sig = oracles.load_signature("append.elf")
    items = _ground_list(n)
    free, fam = lf.parse_query(f"append ({items}) ({items}) L", sig)
    qt = translate_query(sig, free, fam)
    run = solve(translate_signature(sig, "optimized"), qt.goal,
                Limits(depth=2 * n + 2),
                query_vars=(qt.var_lvars[0][1], qt.subject))
    calls = dict.fromkeys((name for _, name in _EXPORT_COUNTED), 0)
    for module, name in _EXPORT_COUNTED:
        def counted(*args, fn=getattr(module, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, counted)
    lines = cli._solution_lines(sig, qt, run.solutions[0])
    monkeypatch.undo()
    inhabitant = lines[-1].split(": ", 1)[1]
    return calls, _lf_nodes(lf.parse_object(inhabitant))


def test_export_substitutions_grow_with_the_printed_inhabitant(monkeypatch):
    (calls8, nodes8), (calls16, nodes16), (calls32, _) = (
        _export_work(monkeypatch, n) for n in (8, 16, 32))
    assert calls8["_subst"] <= 1300
    assert calls16["_subst"] / nodes16 <= calls8["_subst"] / nodes8
    for name in ("_synth_obj", "invert"):
        assert calls16[name] <= 2.2 * calls8[name], (name, calls8, calls16)
        assert calls32[name] <= 2.2 * calls16[name], (name, calls16, calls32)


def test_check_reads_a_480_element_fact_in_process(tmp_path):
    # Two Python frames per nested argument in the parser and in the
    # kernel keep 480 levels under the default recursion limit.  The
    # check runs on a fresh thread, whose stack holds none of pytest's
    # frames.
    path = tmp_path / "long.elf"
    path.write_text(_long_fact_signature(480))
    result = []
    out = io.StringIO()

    def check():
        with contextlib.redirect_stdout(out):
            result.append(main(["check", str(path)]))

    worker = threading.Thread(target=check)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert (result, out.getvalue()) == ([0], "ok: 13 declarations\n")


def test_solve_exports_a_320_element_answer_in_process():
    # A 320-element answer through the whole solve path, export included,
    # on a fresh thread as above.  The export's sharing tables are
    # arguments, not Python frames, so the inverter (one frame per level)
    # and the kernel (two) keep the 321-level inhabitant under the default
    # recursion limit.  At 330 elements the engine's `Subst._walk`
    # overflows first.
    items = _ground_list(320)
    result = []
    out = io.StringIO()

    def export():
        with contextlib.redirect_stdout(out):
            result.append(main(["solve", str(DATA / "appendplus.elf"),
                                f"append ({items}) nil L", "--depth", "325"]))

    worker = threading.Thread(target=export)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert result == [0]
    sig = oracles.load_signature("appendplus.elf")
    value = out.getvalue().splitlines()[0]
    assert value == f"L = {lf.print_lf(lf.parse_object(items))}"


# --- transcript -----------------------------------------------------------
# check, translate and strictness in every mode on the signatures below,
# plus a set of solve queries, against a recorded transcript of stdout,
# stderr and exit codes.
# A change that alters any CLI text shows up here as a diff.  After an
# intended output change, regenerate the file with
#     PYTHONPATH=src python tests/test_cli.py

TRANSCRIPT = DATA / "cli_transcript.txt"

_TRANSCRIPT_FILES = ["append.elf", "appendplus.elf", "clash.elf", "eta.elf",
                     "foo1.elf", "foo2.elf", "fy.elf", "pivot.elf",
                     "shadow.elf", "strict_f.elf", "stlc.elf"]

_TRANSCRIPT_SOLVES = [
    ["append.elf", "append (cons (s z) nil) (cons z nil) L"],
    ["append.elf", "append L M (cons z (cons (s z) nil))", "-n", "0",
     "--depth", "12"],
    ["append.elf", "append nil nil (cons z nil)"],
    ["append.elf", "append (cons z nil) nil (cons z nil)", "--depth", "1"],
    ["append.elf", "mystery z"],
    ["appendplus.elf", "plus (s z) (s z) N", "--naive"],
    ["foo1.elf", "bar z", "-n", "2"],
    ["foo2.elf", "bar Y"],
    ["fy.elf", "bar z", "-n", "0", "--depth", "4"],
    ["fy.elf", "bar (s z)", "-n", "3", "--naive", "--depth", "5"],
    ["stlc.elf", "of (lam o ([x:tm] x)) T"],
    ["stlc.elf", "of (lam (arr o o) ([f:tm] lam o ([y:tm] app f y))) T"],
    ["stlc.elf", "of E (arr o o)", "-n", "3"],
    ["stlc.elf", "eval (app (lam o ([x:tm] x)) (lam o ([y:tm] y))) V"],
    ["stlc.elf", "of (lam o ([x:tm] x)) o"],
    ["stlc.elf", "of (lam o ([x:tm] x)) T", "--naive"],
    ["stlc.elf", "of (lam T ([x:tm] x)) U"],
    ["stlc.elf", "eval (lam T F) V"],
]


def _transcript_runs():
    for name in _TRANSCRIPT_FILES:
        yield ["check", name]
        for flags in ([], ["--naive"], ["--no-simplify"],
                      ["--naive", "--no-simplify"]):
            yield ["translate", *flags, name]
        yield ["strictness", name]
        yield ["strictness", name, "--explain-strictness"]
    for name, *rest in _TRANSCRIPT_SOLVES:
        yield ["solve", name, *rest]


def _transcript():
    chunks = []
    for argv in _transcript_runs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(DATA / a) if a.endswith(".elf") else a
                         for a in argv])
        chunks.append(f"$ lflp {shlex.join(argv)}\n"
                      f"--- exit {code}\n--- stdout\n{out.getvalue()}"
                      f"--- stderr\n{err.getvalue()}")
    return "".join(chunks)


def test_cli_transcript_unchanged():
    start = time.perf_counter()
    text = _transcript()
    assert time.perf_counter() - start < 5.0
    assert text == TRANSCRIPT.read_text(encoding="utf-8")


if __name__ == "__main__":
    TRANSCRIPT.write_text(_transcript(), encoding="utf-8")
