import pathlib

import pytest

from lflp import lf_syntax as lf
from lflp.cli import main
from lflp.lf_kernel import check_object

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


def test_translate_no_simplify_keeps_true(capsys):
    _, raw, _ = run_cli(capsys, "translate", "--no-simplify", APPEND)
    assert "true =>" in raw
    _, cooked, _ = run_cli(capsys, "translate", APPEND)
    assert "true" not in cooked


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


def test_solve_free_variable_reported(capsys):
    code, out, _ = run_cli(capsys, "solve", str(DATA / "foo2.elf"), "bar Y")
    assert code == 0
    assert "Y = _A  (not inverted)" in out
    assert "inhabitant: foo _A  (not inverted)" in out


def test_solve_rejects_bad_query(capsys):
    code, _, err = run_cli(capsys, "solve", APPEND, "mystery z")
    assert code == 2
    assert "error" in err


def test_solve_rejects_bad_depth(capsys):
    code, _, err = run_cli(capsys, "solve", APPEND, "append nil nil nil",
                           "--depth", "0")
    assert code == 2
    assert "--depth" in err


def test_solve_rechecks_inverted_answers(capsys, monkeypatch):
    import lflp.cli
    # z : nat can inhabit neither the list variable nor the append type.
    monkeypatch.setattr(lflp.cli, "invert", lambda goal: lf.OConst("z"))
    code, out, err = run_cli(capsys, "solve", APPEND,
                             "append (cons (s z) nil) (cons z nil) L")
    assert code == 2
    assert err.startswith("error: ")
    assert "L = " not in out and "inhabitant" not in out


def test_solve_naive_mode(capsys):
    code, out, _ = run_cli(capsys, "solve", "--naive", APPEND,
                           "append (cons z nil) nil (cons z nil)",
                           "--depth", "24")
    assert code == 0
    assert "inhabitant: appCons z nil nil nil (appNil nil)" in out


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
    obj = lf.parse_object(witness, sig)
    ty = oracles.parse_type(
        sig, f"append (cons (s z) nil) (cons z nil) ({bound})")
    check_object(sig, lf.Context(), obj, ty)
