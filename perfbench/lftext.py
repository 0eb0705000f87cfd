"""Text helpers shared by the workloads: LF terms as `lflp` prints them,
and two readers for the lambdaProlog clauses that `lflp translate` emits.

None of this calls into `lflp`; the references the benchmark checks
outputs against are built here, by string operations alone.
"""

from __future__ import annotations

import re


def par(t: str) -> str:
    """Parenthesize a printed term when it stands as an argument."""
    return f"({t})" if " " in t else t


def nat(k: int, sfx: str = "") -> str:
    """The numeral s^k z."""
    t = f"z{sfx}"
    for _ in range(k):
        t = f"s{sfx} {par(t)}"
    return t


def lst(xs: list[int], sfx: str = "") -> str:
    """The list of numerals xs, built in one pass (lists reach 10k)."""
    if not xs:
        return f"nil{sfx}"
    heads = [f"cons{sfx} {par(nat(x, sfx))} " for x in xs]
    return heads[0] + "".join("(" + h for h in heads[1:]) + f"nil{sfx}" + ")" * (len(xs) - 1)


def append_inhabitant(a: list[int], b: list[int], sfx: str = "") -> str:
    """The unique derivation of `append a b (a ++ b)`."""
    if not a:
        return f"appNil{sfx} {par(lst(b, sfx))}"
    rest = a[1:]
    return (f"appCons{sfx} {par(nat(a[0], sfx))} {par(lst(rest, sfx))} "
            f"{par(lst(b, sfx))} {par(lst(rest + b, sfx))} "
            f"({append_inhabitant(rest, b, sfx)})")


def plus_inhabitant(a: int, b: int, sfx: str = "") -> str:
    """The unique derivation of `plus a b (a + b)`."""
    if a == 0:
        return f"plusZ{sfx} {par(nat(b, sfx))}"
    return (f"plusS{sfx} {par(nat(a - 1, sfx))} {par(nat(b, sfx))} "
            f"{par(nat(a - 1 + b, sfx))} ({plus_inhabitant(a - 1, b, sfx)})")


def rename(text: str, names: list[str], sfx: str) -> str:
    """Append `sfx` to every whole-word occurrence of the given constants."""
    pat = re.compile(r"(?<![\w'])(" + "|".join(names) + r")(?![\w'])")
    return pat.sub(lambda m: m.group(1) + sfx, text)


# ---------------------------------------------------------------------------
# Reading emitted clauses

_TOKEN = re.compile(r"[A-Za-z_][\w']*|=>|\\|\(|\)|\S")


def canonical(clause: str) -> str:
    """The clause with every bound variable renamed by binding order, so
    that two alpha-equivalent clauses compare equal as strings.  A binder
    `V\\` scopes to the end of its enclosing parenthesis group."""
    toks = _TOKEN.findall(clause)
    out: list[str] = []
    env: list[tuple[str, str, int]] = []  # (name, canonical name, depth)
    depth = 0
    fresh = 0
    for i, tok in enumerate(toks):
        if tok == "(":
            depth += 1
        elif tok == ")":
            while env and env[-1][2] == depth:
                env.pop()
            depth -= 1
        elif i + 1 < len(toks) and toks[i + 1] == "\\":
            env.append((tok, f"_{fresh}", depth))
            fresh += 1
            out.append(f"_{fresh - 1}")
            continue
        else:
            for name, canon, _ in reversed(env):
                if name == tok:
                    tok = canon
                    break
        out.append(tok)
    return " ".join(out)


def _strip_parens(t: str) -> str:
    while t.startswith("(") and _close(t, 0) == len(t) - 1:
        t = t[1:-1].strip()
    return t


def _close(t: str, i: int) -> int:
    depth = 0
    for j in range(i, len(t)):
        if t[j] == "(":
            depth += 1
        elif t[j] == ")":
            depth -= 1
            if depth == 0:
                return j
    return -1


def _top_level(t: str, needle: str) -> int:
    depth = 0
    for j, c in enumerate(t):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif depth == 0 and t.startswith(needle, j):
            return j
    return -1


_PI = re.compile(r"pi\s+[\w']+\\\s*")


def premises(clause: str) -> int:
    """Number of premises along the clause's positive spine: the `=>`
    reached through `pi X\\ (...)` and the right side of `=>` only."""
    t = clause.strip().rstrip(".").strip()
    n = 0
    while True:
        t = _strip_parens(t)
        m = _PI.match(t)
        if m:
            t = t[m.end():]
            continue
        j = _top_level(t, " => ")
        if j < 0:
            return n
        n += 1
        t = t[j + 4:]


def clauses(program: str) -> list[str]:
    """The clause lines of an emitted program, without the final dot."""
    out = []
    for line in program.splitlines():
        line = line.strip()
        if not line or line.startswith(("%", "kind ", "type ")):
            continue
        out.append(line[:-1] if line.endswith(".") else line)
    return out


def type_lines(program: str) -> int:
    return sum(1 for line in program.splitlines() if line.startswith("type "))
