"""Outside-in tracing of `lflp`: spans and counts recorded by wrapping the
package's public functions at the names their callers look them up by.

Nothing under `src/` knows about this.  `Tracer.install` replaces each
target attribute with a wrapper and `Tracer.remove` puts the original
back, so only the operations run in between are traced.  A target that
no longer exists is listed in `missing` and the metrics drawn from it
are left out of the result, never reported as zero.

A span is (name, start, end, parent span, operation id).  Only the
outermost call of a re-entrant function opens one.  Spans stay in
memory, in flat arrays, until the run writes them out.
"""

from __future__ import annotations

import gzip
import importlib
import json
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional


def _tokens(tr: "Tracer", res, args, kwargs) -> None:
    tr.count("lf_syntax.tokens", len(res))


def _unify(tr: "Tracer", res, args, kwargs) -> None:
    tr.count(f"unify.{res.status}")


def _solve(tr: "Tracer", res, args, kwargs) -> None:
    tr.count("engine.backchains", sum(s.backchains for s in res.solutions))
    tr.count("engine.solutions", len(res.solutions))


def _translate(tr: "Tracer", res, args, kwargs) -> None:
    mode = args[1] if len(args) > 1 else kwargs.get("mode", "optimized")
    tr.programs.append((tr.op_id, mode, args[0], res))  # counted after the op


def _refused(tr: "Tracer", exc: BaseException) -> None:
    if type(exc).__name__ == "InversionError":
        tr.count("inverter.refused")


# (module, attribute, span name or None for a count-only hook,
#  hook on return, hook on raise)
TARGETS = [
    ("lflp.lf_syntax", "parse_signature", "lf_syntax.parse", None, None),
    ("lflp.lf_syntax", "parse_query", "lf_syntax.parse", None, None),
    ("lflp.lf_syntax", "tokenize", None, _tokens, None),
    ("lflp.cli", "check_signature", "lf_kernel.check", None, None),
    ("lflp.translator", "strict_in_type", "strictness", None, None),
    ("lflp.cli", "explain_strictness", "strictness", None, None),
    ("lflp.strictness", "strict_binders", "strictness", None, None),
    ("lflp.cli", "translate_signature", "translator.translate", _translate, None),
    ("lflp.cli", "translate_query", "translator.query", None, None),
    ("lflp.cli", "emit_lambdaprolog", "translator.emit", None, None),
    ("lflp.cli", "solve", "engine.solve", _solve, None),
    ("lflp.engine", "unify", "unify", _unify, None),
    ("lflp.unify", "Subst.extend", "unify.extend", None, None),
    ("lflp.engine", "subst_formula", "hterms.clause_inst", None, None),
    ("lflp.cli", "invert", "inverter.invert", None, _refused),
]

# Per-layer metric: (unit, span or count it is drawn from, kind)
LAYER_METRICS = {
    "lf_syntax.parse_s": ("s", "lf_syntax.parse", "self"),
    "lf_syntax.tokens": ("count", "lflp.lf_syntax.tokenize", "lf_syntax.tokens"),
    "lf_kernel.check_s": ("s", "lf_kernel.check", "self"),
    "strictness.s": ("s", "strictness", "self"),
    "strictness.calls": ("count", "strictness", "calls"),
    "translator.translate_s": ("s", "translator.translate", "self"),
    "translator.query_s": ("s", "translator.query", "self"),
    "translator.emit_s": ("s", "translator.emit", "self"),
    "translator.premises": ("count", "translator.translate", "translator.premises"),
    "translator.clauses": ("count", "translator.translate", "translator.clauses"),
    "engine.solve_s": ("s", "engine.solve", "self"),
    "engine.backchains": ("count", "engine.solve", "engine.backchains"),
    "engine.solutions": ("count", "engine.solve", "engine.solutions"),
    "unify.calls": ("count", "unify", "calls"),
    "unify.ok": ("count", "unify", "unify.ok"),
    "unify.residual": ("count", "unify", "unify.residual"),
    "unify.fail": ("count", "unify", "unify.fail"),
    "unify.useful_ratio": ("ratio", "unify", "useful"),
    "unify.s": ("s", "unify", "self"),
    "unify.extend_calls": ("count", "unify.extend", "calls"),
    "unify.extend_s": ("s", "unify.extend", "self"),
    "hterms.clause_inst_calls": ("count", "hterms.clause_inst", "calls"),
    "hterms.clause_inst_s": ("s", "hterms.clause_inst", "self"),
    "inverter.invert_s": ("s", "inverter.invert", "self"),
    "inverter.invert_calls": ("count", "inverter.invert", "calls"),
    "inverter.refused": ("count", "inverter.invert", "inverter.refused"),
    "cli.self_s": ("s", "cli", "self"),
}

ROOT_SPAN = "cli"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.programs: list = []       # (op, mode, signature, Program)
        self.decl_premises: dict[int, tuple[str, list]] = {}
        self.missing: list[str] = []
        self._found: set[str] = {ROOT_SPAN}
        self._undo: list[Callable[[], None]] = []

    # -- spans and counts --------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        """Close span i, and any span a timeout left open inside it."""
        now = perf_counter()
        while self.stack:
            j = self.stack.pop()
            self.end[j] = now
            if j == i:
                break

    def count(self, key: str, n: int = 1) -> None:
        self.counts[self.op_id][key] += n

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, span: Optional[str], on_return, on_raise):
        tracer = self
        nid = self.name_id(span) if span else -1
        calls = f"{span}.calls"
        active = [0]

        def wrapper(*args, **kwargs):
            if nid < 0 or active[0]:
                res = fn(*args, **kwargs)
                if nid < 0 and on_return:
                    on_return(tracer, res, args, kwargs)
                return res
            active[0] += 1
            i = tracer.begin(nid)
            try:
                res = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.finish(i)
                tracer.count(calls)
                if on_raise:
                    on_raise(tracer, exc)
                raise
            finally:
                active[0] -= 1
            tracer.finish(i)
            tracer.count(calls)
            if on_return:
                on_return(tracer, res, args, kwargs)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module, attr, span, on_return, on_raise in TARGETS:
            target = f"{module}.{attr}"
            try:
                owner = importlib.import_module(module)
            except ImportError:
                owner = None
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or not callable(getattr(owner, leaf, None)):
                if target not in self.missing:
                    self.missing.append(target)
                continue
            orig = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            setattr(owner, leaf, self._wrap(orig, span, on_return, on_raise))
            self._undo.append(lambda o=owner, a=leaf, f=orig: setattr(o, a, f))
            self._found.add(span or target)

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    def settle(self) -> None:
        """Count premises of the programs the last operation translated."""
        from lflp import hterms, lf_syntax
        for op, mode, sig, program in self.programs:
            names = [d.name for d in sig.decls if not isinstance(d, lf_syntax.KindDecl)]
            per_decl = [_premises(c, hterms) for c in program.clauses]
            self.counts[op]["translator.premises"] += sum(per_decl)
            self.counts[op]["translator.clauses"] += len(program.clauses)
            self.decl_premises[op] = (mode, list(zip(names, per_decl)))
        self.programs.clear()

    # -- results -----------------------------------------------------------

    def totals(self, ops: set[int]) -> tuple[dict[str, float], Counter]:
        """Self time per span name, and summed counts, over `ops`."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s: dict[str, float] = defaultdict(float)
        for i in range(n):
            if self.op[i] in ops:
                self_s[self.names[self.name[i]]] += self.end[i] - self.start[i] - child[i]
        counts: Counter = Counter()
        for op in ops:
            counts.update(self.counts.get(op, {}))
        return self_s, counts

    def layer_metrics(self, ops: set[int]) -> dict[str, tuple[float, str]]:
        self_s, counts = self.totals(ops)
        out = {}
        for metric, (unit, source, kind) in LAYER_METRICS.items():
            if source not in self._found:
                continue  # target missing: report nothing rather than 0
            if kind == "self":
                value = self_s.get(source, 0.0)
            elif kind == "calls":
                value = counts[f"{source}.calls"]
            elif kind == "useful":
                calls = counts["unify.calls"]
                value = (counts["unify.ok"] + counts["unify.residual"]) / calls if calls else 0.0
            else:
                value = counts[kind]
            out[metric] = (value, unit)
        return out

    def dropped(self) -> list[str]:
        return [m for m, (_, source, _) in LAYER_METRICS.items() if source not in self._found]

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump({"names": self.names, "start": self.start.tolist(),
                       "end": self.end.tolist(), "name": self.name.tolist(),
                       "parent": self.parent.tolist(), "op": self.op.tolist()}, f)


def _premises(clause, hterms) -> int:
    """Premises along a clause's positive spine, `true` not counted."""
    n = 0
    while True:
        if isinstance(clause, hterms.ForAll):
            clause = clause.body
        elif isinstance(clause, hterms.Imp):
            n += not isinstance(clause.left, hterms.Top)
            clause = clause.right
        else:
            return n
