"""The four benchmark workloads, each a seeded stream of `lflp` CLI
operations with an independent reference for every output.

A workload is a list of cells.  One cycle runs one operation from every
cell, in a seeded order; the runner measures whole cycles, so every run
weights the cells alike and seeds differ only in the inputs drawn inside
each cell.  Every operation renames the signature's constants with a
fresh suffix, so no two operations of a run are the same input.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from lftext import (
    append_inhabitant, canonical, clauses, lst, nat, par, plus_inhabitant,
    premises, rename, type_lines,
)

APPENDPLUS = ["nat", "z", "s", "plus", "plusZ", "plusS", "list", "nil",
              "cons", "append", "appNil", "appCons"]
STRICT_F = ["nat", "b", "c", "d", "f"]
CHAIN = ["el", "r", "g", "ch"]

# Clauses of the plus family, derived by hand from the two translations:
# naive gives every binder a typing premise; optimized drops those of
# l, m, n (strict in the target) and of x in plusZ.
PLUS_NAIVE = [
    "pi X\\ (hastype X nat => hastype (plusZ X) (plus z X X))",
    "pi L\\ (hastype L nat => pi M\\ (hastype M nat => pi N\\ (hastype N nat "
    "=> pi X\\ (hastype X (plus L M N) => hastype (plusS L M N X) "
    "(plus (s L) M (s N))))))",
]
PLUS_OPT = [
    "pi X\\ (hastype (plusZ X) (plus z X X))",
    "pi L\\ (pi M\\ (pi N\\ (pi X\\ (hastype X (plus L M N) => "
    "hastype (plusS L M N X) (plus (s L) M (s N))))))",
]
# f of strict_f.elf: both binders strict (x only through y's type).
F_OPT = "pi X\\ (pi Y\\ (hastype (f X Y) (d (y1\\ y1) (w\\ y2\\ X (w y2)) Y)))"

Check = Callable[[int, str, "Op"], Optional[str]]


@dataclass
class Op:
    command: str
    sig: str
    extra: tuple[str, ...]
    check: Check        # returns None when the output is right, else why not
    size: int           # input elements, for goodput
    props: dict
    premises: Optional[int] = None  # set by translate checks

    def argv(self, path: str) -> list[str]:
        return [self.command, path, *self.extra]


class Data:
    """The repository's signature files and golden programs."""

    FILES = ("appendplus.elf", "append.elf", "strict_f.elf",
             "append_naive_golden.lp", "append_optimized_golden.lp")

    def __init__(self, root: Path):
        d = root / "tests" / "data"
        self.text = {f: (d / f).read_text(encoding="utf-8") for f in self.FILES}
        self.golden = {m: clauses(self.text[f"append_{m}_golden.lp"])
                       for m in ("naive", "optimized")}


def exact(expected: str) -> Check:
    def check(rc: int, out: str, op: Op) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        if out == expected:
            return None
        got, want = out.splitlines(), expected.splitlines()
        for i, (g, w) in enumerate(zip(got, want)):
            if g != w:
                return f"line {i + 1}: got {g[:80]!r}, want {w[:80]!r}"
        return f"got {len(got)} lines, want {len(want)}"
    return check


class Workload:
    name = ""

    def __init__(self, seed: int, data: Data):
        self.rng = random.Random(f"{self.name}/{seed}")
        self.data = data
        self.count = 0

    def suffix(self) -> str:
        """A fresh constant suffix: unique within the run, seeded."""
        self.count += 1
        return f"_{self.count:x}{self.rng.choice('abcdefghjkmnpqrstuvwxyz')}"

    def cells(self) -> list:
        raise NotImplementedError

    def make(self, cell) -> list[Op]:
        raise NotImplementedError

    def cycle(self) -> list[Op]:
        cells = self.cells()
        self.rng.shuffle(cells)
        return [op for cell in cells for op in self.make(cell)]

    def premise_ops(self) -> list[Op]:
        """Translations of the workload's base signature in both modes,
        run once before measuring, for `premise_ratio`."""
        sfx = self.suffix()
        sig = rename(self.data.text["appendplus.elf"], APPENDPLUS, sfx)
        return [Op("translate", sig, extra, translate_check(
                    family_clauses(self.data, mode, sfx, APPENDPLUS_ORDER), 12),
                   0, {"command": "translate", "mode": mode})
                for mode, extra in (("optimized", ()), ("naive", ("--naive",)))]


# ---------------------------------------------------------------------------
# solve-opt and solve-naive

def solve_text(blocks: list[list[str]], headers: bool) -> str:
    parts = []
    for i, lines in enumerate(blocks):
        head = [f"% solution {i + 1}"] if headers else []
        parts.append("\n".join(head + lines) + "\n")
    return "\n".join(parts)


class _Solve(Workload):
    naive = False

    def elems(self, k: int) -> list[int]:
        """k list elements s^j z, j <= max_elem: a fixed multiset in seeded
        order, so a cell's cost does not swing with the draw."""
        xs = [i % (self.max_elem + 1) for i in range(k)]
        self.rng.shuffle(xs)
        return xs

    def op(self, query: str, extra: tuple[str, ...], blocks, headers: bool,
           size: int, props: dict) -> Op:
        sfx = self.suffix()
        sig = rename(self.data.text["appendplus.elf"], APPENDPLUS, sfx)
        blocks = [[line.format(s=sfx) for line in b] for b in blocks]
        extra = (query.format(s=sfx),) + extra + (("--naive",) if self.naive else ())
        props = dict(props, mode="naive" if self.naive else "optimized")
        return Op("solve", sig, extra, exact(solve_text(blocks, headers)),
                  size, props)

    # Query shapes.  Templates carry `{s}` where the constant suffix goes.

    def append_fwd(self, a: list[int], b: list[int]) -> Op:
        q = f"append{{s}} {par(lst(a, '{s}'))} {par(lst(b, '{s}'))} L"
        block = [f"L = {lst(a + b, '{s}')}",
                 f"inhabitant: {append_inhabitant(a, b, '{s}')}"]
        return self.op(q, (), [block], False, len(a) + len(b),
                       {"shape": "append", "len_a": len(a), "len_b": len(b),
                        "max_elem": max(a + b, default=0)})

    def split(self, xs: list[int], all_solutions: bool) -> Op:
        q = f"append{{s}} X Y {par(lst(xs, '{s}'))}"
        ks = range(len(xs) + 1) if all_solutions else [0]
        blocks = [[f"X = {lst(xs[:k], '{s}')}", f"Y = {lst(xs[k:], '{s}')}",
                   f"inhabitant: {append_inhabitant(xs[:k], xs[k:], '{s}')}"]
                  for k in ks]
        extra = ("-n", "0") if all_solutions else ()
        return self.op(q, extra, blocks, all_solutions, len(xs),
                       {"shape": "split", "len": len(xs),
                        "max_elem": max(xs, default=0)})

    def append_prefix(self, xs: list[int]) -> Op:
        q = f"append{{s}} X nil{{s}} {par(lst(xs, '{s}'))}"
        block = [f"X = {lst(xs, '{s}')}",
                 f"inhabitant: {append_inhabitant(xs, [], '{s}')}"]
        return self.op(q, (), [block], False, len(xs),
                       {"shape": "prefix", "len": len(xs),
                        "max_elem": max(xs, default=0)})

    def plus_fwd(self, a: int, b: int) -> Op:
        q = f"plus{{s}} {par(nat(a, '{s}'))} {par(nat(b, '{s}'))} N"
        block = [f"N = {nat(a + b, '{s}')}",
                 f"inhabitant: {plus_inhabitant(a, b, '{s}')}"]
        return self.op(q, (), [block], False, a + b,
                       {"shape": "plus", "a": a, "b": b})

    def plus_back(self, a: int, b: int) -> Op:
        q = f"plus{{s}} X {par(nat(b, '{s}'))} {par(nat(a + b, '{s}'))}"
        block = [f"X = {nat(a, '{s}')}",
                 f"inhabitant: {plus_inhabitant(a, b, '{s}')}"]
        return self.op(q, (), [block], False, a + b,
                       {"shape": "minus", "a": a, "b": b})

    def plus_split(self, c: int) -> Op:
        q = f"plus{{s}} X Y {par(nat(c, '{s}'))}"
        block = [f"X = z{{s}}", f"Y = {nat(c, '{s}')}",
                 f"inhabitant: {plus_inhabitant(0, c, '{s}')}"]
        return self.op(q, (), [block], False, c,
                       {"shape": "plus-split", "c": c})


class SolveOpt(_Solve):
    """Optimized search over appendplus.elf at the default depth.  Each
    cell fixes the sizes that set an operation's cost; the seed draws the
    list elements and the order of the cells.  The cell count is odd, so
    the median operation falls inside one cell's cluster of times rather
    than on the gap between two."""

    name = "solve-opt"
    max_elem = 3

    def cells(self):
        return ([("append", a, b) for a, b in ((0, 3), (1, 2), (2, 4), (3, 3), (4, 2))]
                + [("split", k, 0) for k in range(1, 5)]
                + [("plus", a, b) for a, b in ((0, 6), (2, 3), (4, 4), (5, 2))]
                + [("minus", a, b) for a, b in ((2, 6), (4, 3), (5, 5), (6, 2))])

    def make(self, cell):
        shape, a, b = cell
        if shape == "append":
            return [self.append_fwd(self.elems(a), self.elems(b))]
        if shape == "split":
            return [self.split(self.elems(a), all_solutions=True)]
        if shape == "plus":
            return [self.plus_fwd(a, b)]
        return [self.plus_back(a, b)]


class SolveNaive(_Solve):
    """Naive search, first solution only, combined query size at most 4."""

    name = "solve-naive"
    naive = True
    max_elem = 1

    def cells(self):
        return [("append", 0, 2), ("append", 0, 3), ("append", 1, 0), ("pair", 1, 1),
                ("plus", 1, 1), ("plus", 1, 3), ("plus", 0, 4), ("split", 2, 0),
                ("split0", 3, 0), ("prefix", 1, 0), ("minus", 1, 0), ("minus", 1, 1),
                ("minus", 1, 2), ("plus-split", 3, 0), ("plus-split", 4, 0)]

    def make(self, cell):
        shape, a, b = cell
        if shape == "append":
            return [self.append_fwd(self.elems(a), self.elems(b))]
        if shape == "pair":
            return [self.append_fwd([0], [0])]
        if shape == "plus":
            return [self.plus_fwd(a, b)]
        if shape == "split":
            return [self.split(self.elems(a), all_solutions=False)]
        if shape == "split0":
            return [self.split([0] * a, all_solutions=False)]
        if shape == "prefix":
            return [self.append_prefix(self.elems(a))]
        if shape == "minus":
            return [self.plus_back(a, b)]
        return [self.plus_split(a)]

    @staticmethod
    def optimized(op: Op) -> Op:
        """The same query in optimized mode; the paper row compares them."""
        extra = tuple(a for a in op.extra if a != "--naive")
        return Op(op.command, op.sig, extra, op.check, op.size,
                  dict(op.props, mode="optimized"))


# ---------------------------------------------------------------------------
# compile

FAMILY = ["z", "s", "nil", "cons", "appNil", "appCons", "plusZ", "plusS"]
APPENDPLUS_ORDER = ["z", "s", "plusZ", "plusS", "nil", "cons", "appNil", "appCons"]


def family_clauses(data: Data, mode: str, sfx: str,
                   order: list[str] = FAMILY) -> list[tuple[Optional[str], int]]:
    """Expected (clause, premises) of the nat/list/append/plus family:
    the golden append programs plus the hand-derived plus clauses."""
    texts = data.golden[mode] + (PLUS_NAIVE if mode == "naive" else PLUS_OPT)
    by_decl = dict(zip(FAMILY, texts))
    return [(rename(by_decl[d], APPENDPLUS, sfx), premises(by_decl[d])) for d in order]


def chain_binders(n: int, interleaved: bool) -> list[tuple[str, str]]:
    """Binders of a chain classifier over x1..xn: (name, LF type)."""
    xs = [(f"x{i}", "el") for i in range(1, n + 1)]
    hs = [(f"h{i}", f"r x{i} x{i + 1}") for i in range(1, n)]
    if not interleaved:
        return xs + hs
    return xs[:1] + [b for i in range(1, n) for b in (xs[i], hs[i - 1])]


def chain_clause(n: int, interleaved: bool, mode: str) -> str:
    """Hand-derived translation: every binder but xn keeps its premise in
    optimized mode, since xn is the only strict one."""
    binders = chain_binders(n, interleaved)
    names = [b.upper() for b, _ in binders]
    body = f"hastype (ch {' '.join(names)}) (g X{n})"
    for (b, ty), name in reversed(list(zip(binders, names))):
        ty = " ".join(w.upper() if w[0] in "xh" else w for w in ty.split())
        ty = f"({ty})" if " " in ty else ty
        if mode == "optimized" and b == f"x{n}":
            body = f"pi {name}\\ ({body})"
        else:
            body = f"pi {name}\\ (hastype {name} {ty} => {body})"
    return body


def translate_check(expected: list[tuple[Optional[str], int]], decls: int) -> Callable:
    """Compare emitted clauses up to renaming of bound variables, and
    every clause's premise count; a clause given as None is checked by
    its count alone."""
    want = [(canonical(c) if c is not None else None, n) for c, n in expected]

    def check(rc: int, out: str, op: Op) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        got = clauses(out)
        if len(got) != len(want):
            return f"{len(got)} clauses, want {len(want)}"
        if type_lines(out) != decls + 1:
            return f"{type_lines(out)} type lines, want {decls + 1}"
        total = 0
        for i, (c, (w, n)) in enumerate(zip(got, want)):
            k = premises(c)
            if k != n:
                return f"clause {i + 1}: {k} premises, want {n}"
            if w is not None and canonical(c) != w:
                return f"clause {i + 1}: got {c[:80]!r}"
            total += k
        op.premises = total
        return None
    return check


_VERDICT = {"strict": True, "not strict": False}


def strictness_check(expected: list[tuple[str, Optional[list]]]) -> Callable:
    """`expected` lists (declaration, binders) with binders a list of
    (name or None, strict?), or None for "no binders"."""

    def check(rc: int, out: str, op: Op) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        lines = out.splitlines()
        i = 0
        for decl, binders in expected:
            if i >= len(lines):
                return f"output ends before {decl}"
            if binders is None:
                if lines[i] != f"{decl}: no binders":
                    return f"got {lines[i]!r}, want {decl}: no binders"
                i += 1
                continue
            if lines[i] != f"{decl}:":
                return f"got {lines[i]!r}, want {decl}:"
            i += 1
            for name, strict in binders:
                line = lines[i] if i < len(lines) else ""
                head, _, why = line.partition("  [")
                bname, _, verdict = head.strip().partition(": ")
                if (_VERDICT.get(verdict) is not strict or not why.endswith("]")
                        or (name is not None and bname != name)):
                    return f"{decl}: got {line!r}"
                i += 1
        return None if i == len(lines) else f"{len(lines) - i} extra lines"
    return check


COPY_STRICTNESS = [
    ("z", None), ("s", [(None, False)]), ("nil", None),
    ("cons", [(None, False), (None, False)]), ("appNil", [("l", True)]),
    ("appCons", [("x", True), ("l", True), ("m", True), ("n", True), (None, False)]),
    ("plusZ", [("x", True)]),
    ("plusS", [("l", True), ("m", True), ("n", True), (None, False)]),
]

PLUS_DECLS = """
plus : nat -> nat -> nat -> type.
plusZ : {x:nat} plus z x x.
plusS : {l:nat}{m:nat}{n:nat} plus l m n -> plus (s l) m (s n).
"""


class Compile(Workload):
    """Generated signatures through translate, translate --naive and
    strictness --explain-strictness; the engine never runs."""

    name = "compile"
    # Cells: (interleaved, chain length, copies).  Copies spread over
    # 1-40, each value fixed to one chain, so every cycle has the same
    # costs and its slowest operation is always the interleaved 7-binder
    # chain; seven cells (21 operations) put the median inside one cell's
    # cluster.  The seed draws names, 0-2 extra copies and the order.
    CELLS = [(False, 2, 2), (False, 3, 8), (False, 4, 14), (True, 2, 20),
             (True, 3, 26), (True, 4, 32), (False, 3, 38)]

    def cells(self):
        return list(self.CELLS)

    def make(self, cell) -> list[Op]:
        interleaved, n, base = cell
        k = base + self.rng.randint(0, 2)
        sfx = self.suffix()
        copy = self.data.text["append.elf"] + PLUS_DECLS
        parts = [rename(copy, APPENDPLUS, f"{sfx}{j}") for j in range(k)]
        parts.append(rename(self.data.text["strict_f.elf"], STRICT_F, sfx))
        binders = "".join(f"{{{b}:{ty}}}" for b, ty in chain_binders(n, interleaved))
        parts.append(rename(
            f"el : type.\nr : el -> el -> type.\ng : el -> type.\n"
            f"ch : {binders} g x{n}.\n", CHAIN, sfx))
        sig = "\n".join(parts)
        decls = 12 * k + 5 + 4
        props = {"copies": k, "binders": 2 * n - 1, "interleaved": interleaved,
                 "decls": decls}
        ops = []
        for mode in ("optimized", "naive"):
            expected = []
            for j in range(k):
                expected += family_clauses(self.data, mode, f"{sfx}{j}")
            expected.append((rename(F_OPT, STRICT_F, sfx) if mode == "optimized"
                             else None, 0 if mode == "optimized" else 2))
            expected.append((rename(chain_clause(n, interleaved, mode), CHAIN, sfx),
                             2 * n - 1 - (mode == "optimized")))
            extra = ("--naive",) if mode == "naive" else ()
            ops.append(Op("translate", sig, extra, translate_check(expected, decls),
                          decls, dict(props, command="translate", mode=mode)))
        strict = []
        for j in range(k):
            strict += [(d + f"{sfx}{j}", b) for d, b in COPY_STRICTNESS]
        strict.append((f"f{sfx}", [("x", True), ("y", True)]))
        strict.append((f"ch{sfx}", [(b, b == f"x{n}") for b, _ in chain_binders(n, interleaved)]))
        ops.append(Op("strictness", sig, ("--explain-strictness",),
                      strictness_check(strict), decls,
                      dict(props, command="strictness")))
        return ops

    def premise_ops(self) -> list[Op]:
        return []  # the measured translations carry their own counts

    def probe(self) -> Op:
        """A 9-binder chain: the strictness search dominates it."""
        return self.make((False, 5, 1))[0]


# ---------------------------------------------------------------------------
# deep

class Deep(Workload):
    """appendplus.elf plus one ground fact over an n-element list, with n
    log-uniform on [20, 250] in 20 strata; check and translate alternate.
    Lists of about 328 elements or more make the parser raise
    RecursionError, so the measured sizes stay below that and the longer
    ones are the probe of the traced run."""

    name = "deep"
    STRATA = 20
    N_MIN, N_MAX = 20, 250
    PROBE_SIZES = (300, 400, 1000, 3000, 10_000)

    def cycle(self) -> list[Op]:
        # keep check and translate alternating, shuffle the strata
        strata = list(range(self.STRATA))
        self.rng.shuffle(strata)
        return [op for j in strata for cmd in ("check", "translate")
                for op in self.make((cmd, j))]

    def make(self, cell) -> list[Op]:
        cmd, j = cell
        lo, hi = math.log10(self.N_MIN), math.log10(self.N_MAX)
        n = int(10 ** (lo + (hi - lo) * (j + self.rng.random()) / self.STRATA))
        return [self.op(cmd, n, {"command": cmd, "n": n, "stratum": j})]

    def probe_ops(self) -> list[Op]:
        return [self.op(cmd, n, {"command": cmd, "n": n, "probe": True})
                for n in self.PROBE_SIZES for cmd in ("check", "translate")]

    def op(self, cmd: str, n: int, props: dict) -> Op:
        xs = [self.rng.randint(0, 3) for _ in range(n)]
        sfx = self.suffix()
        sig = rename(self.data.text["appendplus.elf"], APPENDPLUS, sfx)
        items = lst(xs, sfx)
        sig += f"\nfact{sfx} : append{sfx} nil{sfx} ({items}) ({items}).\n"
        if cmd == "check":
            return Op(cmd, sig, (), exact("ok: 13 declarations\n"), n, props)
        expected = family_clauses(self.data, "optimized", sfx, APPENDPLUS_ORDER)
        expected.append((f"hastype fact{sfx} (append{sfx} nil{sfx} ({items}) ({items}))", 0))
        return Op(cmd, sig, (), translate_check(expected, 13), n, props)
