"""Reference implementations the tests check the package against.

Each oracle recomputes a result by a different route than the code under
test: normalization by single leftmost-outermost steps, substitution by
rename-everything-then-replace, hohh and LF substitution and beta
normalization over named bound variables with capture-avoiding renaming
(`named_subst`, `named_beta_norm`, `named_lf_subst`, `named_lf_norm`,
compared up to alpha by `named_lf_alpha_eq`) instead of de Bruijn
indices, typed term enumeration instead of proof
search, forward chaining instead of backchaining, brute-force
substitution search instead of unification, path-blocked depth-first
search over every pivot instead of one backward pass over the binders
for strictness, instantiate-then-unify backchaining, with every
deepening round restarted from the root, instead of matching compiled
clause heads and resuming each round from the last round's frontier,
eager folding of every binding instead of a
triangular substitution, a loop over characters instead of a regular
expression for the lexer, a tree of pre-terms walked a second time
instead of one pass over the tokens for the parser
(`two_pass_parse_signature` and its siblings), application typed one
argument at a time (`ref_check_object`, `ref_check_type`) instead of one
loop over the spine, typed eta-long canonical forms (`canonicalize`)
instead of untyped eta-short ones for conversion, and a scan of the
normalized query (`infer_query_var_types`) instead of the kernel's check
of the query as parsed for typing a query's free variables.  The LF
references run over named terms: they take and return the package's
indexed terms, converted at the boundary by `lf_to_named` and
`lf_to_indexed`.  Shared plumbing (AST types, conversion of two normal
forms) comes from the package; the decision procedures do not.

The last section holds helpers only the tests use (alpha equivalence of
hohh terms and formulas, `evars_of`, `fresh_lvar`, `unify_one`,
`fam_app`, `validate_solution`), and `tests/lpreader.py` holds
`parse_lambdaprolog`, the reader for the lambdaProlog text the emitter
prints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import (
    AbstractSet, Iterable, Iterator, NamedTuple, Optional, Sequence, Union,
)

from lflp import lf_syntax as lf
from lflp.lf_syntax import (
    Context, Decl, Expr, FApp, FConst, FPi, Fam, Kind, KindDecl, KPi, KType,
    LFSyntaxError, OApp, OConst, OLam, OVar, ObjDecl, Obj, Signature,
    fresh_name, obj_app, spine, split_fam_pis,
)
from lflp.lf_kernel import (
    LFTypeError, beta_normalize, check_signature, convertible,
    normal_classifier, print_brief,
)
from lflp.engine import (
    Limits, Solution, SolveRun, _extract, _key, _root_universe,
)
from lflp.hterms import (
    App, Atom, BVar, Const, EVar, Formula, ForAll, Imp, LVar, Lam, Program,
    SimpleType, Term, Top, beta_norm, fresh_evar, fresh_level, fresh_lvar_at,
    mk_app, split_arrow, subst_formula, term_leaves, term_spine,
)
from lflp.strictness import _why_obj
from lflp.translator import TranslationError
from lflp.unify import Eq, Subst, UnifyResult, unify

DATA = Path(__file__).parent / "data"

_counter = itertools.count(1)


def load_signature(name: str) -> lf.Signature:
    sig = lf.parse_signature((DATA / name).read_text())
    check_signature(sig)
    return sig


def print_signature(sig: lf.Signature) -> str:
    """The declarations of `sig` in concrete syntax, one a line; parsed
    again, they declare the same constants at alpha-equal classifiers."""
    return "\n".join(
        f"{d.name} : "
        f"{lf.print_lf(d.kind if isinstance(d, KindDecl) else d.fam)}."
        for d in sig.decls)


# ---------------------------------------------------------------------------
# Substitution by brute force: rename every binder on the way down, then
# replace free occurrences.  Capture is impossible by construction.

def naive_substitute(e: lf.Expr, bindings: dict[str, lf.Obj]) -> lf.Expr:
    def go(e, env):
        match e:
            case lf.KType():
                return e
            case lf.KPi(var, dom, body):
                nv = f"{var}~{next(_counter)}"
                return lf.KPi(nv, go(dom, env), go(body, {**env, var: lf.OVar(nv)}))
            case lf.FConst():
                return e
            case lf.FPi(var, dom, body):
                nv = f"{var}~{next(_counter)}"
                return lf.FPi(nv, go(dom, env), go(body, {**env, var: lf.OVar(nv)}))
            case lf.FApp(fn, arg):
                return lf.FApp(go(fn, env), go(arg, env))
            case lf.OConst():
                return e
            case lf.OVar(name):
                return env.get(name, e)
            case lf.OLam(var, dom, body):
                nv = f"{var}~{next(_counter)}"
                return lf.OLam(nv, go(dom, env), go(body, {**env, var: lf.OVar(nv)}))
            case lf.OApp(fn, arg):
                return lf.OApp(go(fn, env), go(arg, env))
        raise AssertionError(e)

    return go(e, dict(bindings))


# ---------------------------------------------------------------------------
# Named hohh terms: the reference for the package's de Bruijn indices.  A
# bound variable is an `NVar` spelled like its binder, so substitution
# must rename a binder that would capture a free name of a value.
# `to_indexed` and `to_named` convert between the two spellings.

@dataclass(frozen=True)
class NVar:
    name: str
    ty: SimpleType


def named_free_vars(t) -> frozenset[str]:
    match t:
        case NVar(name, _):
            return frozenset([name])
        case Lam(var, _, body):
            return named_free_vars(body) - {var}
        case App(fn, arg):
            return named_free_vars(fn) | named_free_vars(arg)
    return frozenset()


def named_subst(t, m: dict):
    """Replace free NVar occurrences; capture-avoiding."""
    if not m:
        return t
    match t:
        case NVar(name, _):
            return m.get(name, t)
        case App(fn, arg):
            return App(named_subst(fn, m), named_subst(arg, m))
        case Lam(var, ty, body):
            inner = {k: v for k, v in m.items()
                     if k != var and k in named_free_vars(body)}
            if not inner:
                return t
            clash = frozenset().union(*[named_free_vars(v)
                                        for v in inner.values()])
            var, body = named_rename_apart(var, ty, body, clash)
            return Lam(var, ty, named_subst(body, inner))
    return t


def named_rename_apart(var: str, ty: SimpleType, body, avoid) -> tuple:
    """The binder `var` : `ty` of `body`, renamed when `avoid` holds its
    name: the new name is neither in `avoid` nor free in `body`."""
    if var in avoid:
        var2 = fresh_name(var, avoid | named_free_vars(body))
        return var2, named_subst(body, {var: NVar(var2, ty)})
    return var, body


def named_beta_norm(t):
    match t:
        case App(fn, arg):
            fn = named_beta_norm(fn)
            if isinstance(fn, Lam):
                return named_beta_norm(named_subst(fn.body, {fn.var: arg}))
            return App(fn, named_beta_norm(arg))
        case Lam(var, ty, body):
            return Lam(var, ty, named_beta_norm(body))
    return t


def to_indexed(x, scope: tuple[str, ...] = ()):
    """The named term or formula `x` with each `NVar` replaced by the
    index of the nearest binder of its name; `scope` names the binders
    around `x`, innermost last."""
    match x:
        case NVar(name, ty):
            return BVar(scope[::-1].index(name), ty)
        case App(fn, arg):
            return App(to_indexed(fn, scope), to_indexed(arg, scope))
        case Lam(var, ty, body):
            return Lam(var, ty, to_indexed(body, scope + (var,)))
        case Atom(pred, args):
            return Atom(pred, tuple(to_indexed(a, scope) for a in args))
        case Imp(left, right):
            return Imp(to_indexed(left, scope), to_indexed(right, scope))
        case ForAll(var, ty, body):
            return ForAll(var, ty, to_indexed(body, scope + (var,)))
    return x


def to_named(x, scope: tuple[str, ...] = ()):
    """The indexed term or formula `x` spelled with names: each binder
    takes its hint, renamed apart from the names in `scope`, which names
    the binders around `x`, innermost last."""
    match x:
        case BVar(index, ty):
            return NVar(scope[-1 - index], ty)
        case App(fn, arg):
            return App(to_named(fn, scope), to_named(arg, scope))
        case Lam(var, ty, body) | ForAll(var, ty, body):
            var = fresh_name(var, scope)
            return type(x)(var, ty, to_named(body, scope + (var,)))
        case Atom(pred, args):
            return Atom(pred, tuple(to_named(a, scope) for a in args))
        case Imp(left, right):
            return Imp(to_named(left, scope), to_named(right, scope))
    return x


# ---------------------------------------------------------------------------
# Named LF terms: the reference for the package's de Bruijn indices.  A
# bound variable is an `OVar` spelled like its binder, so substitution
# must rename a binder that would capture a free name of a value, and
# equality is alpha-equivalence over two name environments.
# `lf_to_indexed` and `lf_to_named` convert between the two spellings.

def lf_to_indexed(e: Expr, scope: tuple[str, ...] = ()) -> Expr:
    """The named LF expression `e` with each variable bound in it, or by
    `scope`, the binders around `e` innermost last, replaced by the
    index of the nearest binder of its name."""
    match e:
        case OVar(name) if name in scope:
            return lf.OBVar(scope[::-1].index(name))
        case OApp(fn, arg) | FApp(fn, arg):
            return type(e)(lf_to_indexed(fn, scope), lf_to_indexed(arg, scope))
        case OLam(var, dom, body) | FPi(var, dom, body) | KPi(var, dom, body):
            return type(e)(var, lf_to_indexed(dom, scope),
                           lf_to_indexed(body, scope + (var,)))
    return e


def lf_to_named(e: Expr, scope: tuple[str, ...] = ()) -> Expr:
    """The indexed LF expression `e` spelled with names: `scope` names
    the binders around `e`, innermost last, and each binder of `e` takes
    its hint unless its body mentions that name from outside it, a free
    variable or an outer binder, which the hint would capture; then it
    takes the first fresh variant of the hint."""
    match e:
        case lf.OBVar(index):
            return OVar(scope[-1 - index])
        case OApp(fn, arg) | FApp(fn, arg):
            return type(e)(lf_to_named(fn, scope), lf_to_named(arg, scope))
        case OLam(var, dom, body) | FPi(var, dom, body) | KPi(var, dom, body):
            outside = lf.free_vars(body) | {
                scope[-i] for i in _loose_indices(body) if i}
            if var in outside:
                var = fresh_name(var, outside | set(scope))
            return type(e)(var, lf_to_named(dom, scope),
                           lf_to_named(body, scope + (var,)))
    return e


def _loose_indices(e: Expr, depth: int = 0) -> set[int]:
    """The loose indices of `e`, counted from outside `depth` of its own
    binders."""
    match e:
        case lf.OBVar(index):
            return {index - depth} if index >= depth else set()
        case OApp(fn, arg) | FApp(fn, arg):
            return _loose_indices(fn, depth) | _loose_indices(arg, depth)
        case OLam(_, dom, body) | FPi(_, dom, body) | KPi(_, dom, body):
            return _loose_indices(dom, depth) | _loose_indices(body, depth + 1)
    return set()


def named_lf_free_vars(e: Expr) -> frozenset[str]:
    """Free variable names of a named LF expression."""
    match e:
        case OApp(fn, arg) | FApp(fn, arg):
            return named_lf_free_vars(fn) | named_lf_free_vars(arg)
        case OVar(name):
            return frozenset((name,))
        case OLam(var, dom, body) | FPi(var, dom, body) | KPi(var, dom, body):
            return named_lf_free_vars(dom) | (named_lf_free_vars(body) - {var})
    return frozenset()


def named_lf_alpha_eq(a: Expr, b: Expr) -> bool:
    """Equality of named LF expressions up to renaming of bound
    variables."""
    return _named_aeq(a, b, (), ())


def _named_aeq(a: Expr, b: Expr, ea: tuple[str, ...],
               eb: tuple[str, ...]) -> bool:
    if type(a) is not type(b):
        return False
    match a:
        case OApp() | FApp():
            return (_named_aeq(a.fn, b.fn, ea, eb)
                    and _named_aeq(a.arg, b.arg, ea, eb))
        case OConst() | FConst():
            return a.name == b.name
        case OVar():
            ia = _rindex(ea, a.name)
            ib = _rindex(eb, b.name)
            if ia is None and ib is None:
                return a.name == b.name
            return ia == ib
        case OLam() | FPi() | KPi():
            return (_named_aeq(a.dom, b.dom, ea, eb)
                    and _named_aeq(a.body, b.body, ea + (a.var,), eb + (b.var,)))
    return isinstance(a, KType)


def _rindex(env: tuple[str, ...], name: str) -> Optional[int]:
    for i in range(len(env) - 1, -1, -1):
        if env[i] == name:
            return i
    return None


def named_lf_subst(e: Expr, bindings: dict[str, Obj]) -> Expr:
    """Capture-avoiding simultaneous substitution of objects for the
    free variables of a named LF expression."""
    if not bindings:
        return e
    match e:
        case OApp(fn, arg) | FApp(fn, arg):
            return type(e)(named_lf_subst(fn, bindings),
                           named_lf_subst(arg, bindings))
        case OVar(name):
            return bindings.get(name, e)
        case OLam(var, dom, body) | FPi(var, dom, body) | KPi(var, dom, body):
            dom2 = named_lf_subst(dom, bindings)
            inner = {k: v for k, v in bindings.items()
                     if k != var and k in named_lf_free_vars(body)}
            if any(var in named_lf_free_vars(v) for v in inner.values()):
                # the binder would capture a free name of a value
                var, body = named_lf_rename_apart(var, body, set(inner).union(
                    *map(named_lf_free_vars, inner.values())))
            return type(e)(var, dom2, named_lf_subst(body, inner))
    return e


def named_lf_rename_apart(var: str, body: Expr,
                          avoid: AbstractSet[str]) -> tuple[str, Expr]:
    """The binder `var` of the named `body`, renamed when `avoid` holds
    its name: the new name is neither in `avoid` nor free in `body`."""
    if var in avoid:
        var2 = fresh_name(var, avoid | named_lf_free_vars(body))
        return var2, named_lf_subst(body, {var: OVar(var2)})
    return var, body


def named_lf_norm(e: Expr) -> Expr:
    """The beta-normal form of a named LF expression, by `named_lf_subst`."""
    match e:
        case OApp(fn, arg) | FApp(fn, arg):
            fn = named_lf_norm(fn)
            if isinstance(fn, OLam):
                return named_lf_norm(named_lf_subst(fn.body, {fn.var: arg}))
            return type(e)(fn, named_lf_norm(arg))
        case OLam(var, dom, body) | FPi(var, dom, body) | KPi(var, dom, body):
            return type(e)(var, named_lf_norm(dom), named_lf_norm(body))
    return e


def named_classifier(sig: Signature, name: str) -> Optional[Expr]:
    """The package's normal classifier of `name`, spelled with names."""
    a = normal_classifier(sig, name)
    return None if a is None else lf_to_named(a)


def named_convertible(a: Expr, b: Expr) -> bool:
    """The package's conversion of two named LF expressions."""
    return convertible(lf_to_indexed(a), lf_to_indexed(b))


def show(e: Expr) -> str:
    """A named LF expression in concrete syntax."""
    return lf.print_lf(lf_to_indexed(e))


# ---------------------------------------------------------------------------
# Small-step beta reduction: contract exactly one leftmost-outermost redex.

def step_beta(e: lf.Expr) -> Optional[lf.Expr]:
    match e:
        case lf.OApp(lf.OLam(var, _, body), arg):
            return naive_substitute(body, {var: arg})
        case lf.KPi(var, dom, body):
            d = step_beta(dom)
            if d is not None:
                return lf.KPi(var, d, body)
            b = step_beta(body)
            return None if b is None else lf.KPi(var, dom, b)
        case lf.FPi(var, dom, body):
            d = step_beta(dom)
            if d is not None:
                return lf.FPi(var, d, body)
            b = step_beta(body)
            return None if b is None else lf.FPi(var, dom, b)
        case lf.FApp(fn, arg):
            f = step_beta(fn)
            if f is not None:
                return lf.FApp(f, arg)
            a = step_beta(arg)
            return None if a is None else lf.FApp(fn, a)
        case lf.OLam(var, dom, body):
            d = step_beta(dom)
            if d is not None:
                return lf.OLam(var, d, body)
            b = step_beta(body)
            return None if b is None else lf.OLam(var, dom, b)
        case lf.OApp(fn, arg):
            f = step_beta(fn)
            if f is not None:
                return lf.OApp(f, arg)
            a = step_beta(arg)
            return None if a is None else lf.OApp(fn, a)
    return None


def normalize_by_steps(e: lf.Expr, fuel: int = 5000) -> lf.Expr:
    for _ in range(fuel):
        nxt = step_beta(e)
        if nxt is None:
            return e
        e = nxt
    raise RuntimeError("small-step oracle ran out of fuel")


# ---------------------------------------------------------------------------
# Bounded enumeration of well-typed canonical objects.  Size counts
# constant, variable and lambda nodes; applications are free.

def obj_size(m: lf.Obj) -> int:
    match m:
        case lf.OConst() | lf.OVar() | lf.OBVar():
            return 1
        case lf.OLam(_, _, body):
            return 1 + obj_size(body)
        case lf.OApp(fn, arg):
            return obj_size(fn) + obj_size(arg)
    raise AssertionError(m)


def enumerate_objects(sig: lf.Signature, ctx: lf.Context, ty: lf.Fam,
                      budget: int) -> Iterator[lf.Obj]:
    """The canonical objects of `ty` in `ctx` up to size `budget`, each
    built with names and returned indexed."""
    named = {name: lf_to_named(a) for name, a in ctx.items()}
    for m in _enumerate(sig, named, lf_to_named(ty), budget):
        yield lf_to_indexed(m)


def _enumerate(sig: lf.Signature, ctx: lf.Context, ty: lf.Fam,
               budget: int) -> Iterator[lf.Obj]:
    if budget <= 0:
        return
    ty = named_lf_norm(ty)
    if isinstance(ty, lf.FPi):
        var = ty.var
        taken = ctx.keys() | {d.name for d in sig.decls}
        if var in taken:
            var = lf.fresh_name(var, taken)
        body_ty = named_lf_norm(named_lf_subst(ty.body, {ty.var: lf.OVar(var)}))
        for body in _enumerate(sig, {**ctx, var: ty.dom}, body_ty, budget - 1):
            yield lf.OLam(var, ty.dom, body)
        return
    heads: list[tuple[lf.Obj, lf.Fam]] = []
    for name, fam in ctx.items():
        heads.append((lf.OVar(name), fam))
    for decl in sig.decls:
        if isinstance(decl, lf.ObjDecl):
            heads.append((lf.OConst(decl.name), lf_to_named(decl.fam)))
    for head, fam in heads:
        binders, target = lf.split_fam_pis(named_lf_norm(fam))
        yield from _apps(sig, ctx, head, binders, target, {}, budget - 1, ty)


def _apps(sig, ctx, acc, binders, target, sub, remaining, want):
    if not binders:
        inst = named_lf_norm(named_lf_subst(target, sub))
        if named_lf_alpha_eq(inst, want):
            yield acc
        return
    if remaining < len(binders):
        return
    (var, dom), rest = binders[0], binders[1:]
    dom_inst = named_lf_norm(named_lf_subst(dom, sub))
    for arg in _enumerate(sig, ctx, dom_inst, remaining - len(rest)):
        yield from _apps(sig, ctx, lf.OApp(acc, arg), rest, target,
                         {**sub, var: arg}, remaining - obj_size(arg), want)


# Closed types over the nat/list signature used by the round-trip and
# injectivity suites; at budget 6 these yield 248 objects in total.
ROUND_TRIP_TYPES = [
    "nat", "list", "{x:nat} nat", "{x:nat} list", "{l:list} list",
    "{x:nat} {y:nat} nat", "{f:nat -> nat} nat", "{f:nat -> nat} list",
    "{f:nat -> nat} {x:nat} nat", "{x:nat} {f:nat -> nat} nat",
    "{f:nat -> nat} {g:nat -> nat} nat", "{x:nat} {l:list} list",
    "{l:list} {k:list} list", "{f:nat -> list} list",
    "{f:list -> nat} nat", "{x:nat} {y:nat} list",
]


def parse_type(sig: lf.Signature, text: str) -> lf.Fam:
    """Parse a closed type expression, Pi types included."""
    if text.lstrip().startswith("{"):
        ext = lf.parse_signature(print_signature(sig) + "\n_q : " + text + ".")
        return ext.lookup("_q")
    _, fam = lf.parse_query(text, sig)
    return fam


def corpus_cases(sig: lf.Signature, type_texts: list[str],
                 budget: int = 6) -> list[tuple[lf.Obj, lf.Fam]]:
    """All (object, type) pairs for the given type expressions."""
    cases = []
    for text in type_texts:
        fam = beta_normalize(parse_type(sig, text))
        for m in enumerate_objects(sig, {}, fam, budget):
            cases.append((m, fam))
    return cases


# ---------------------------------------------------------------------------
# Forward-chaining derivation enumeration for translated programs.  Facts
# are ground atoms; the cost of a fact is the number of clause selections
# in its cheapest derivation, the same metric the engine's iterative
# deepening uses.  First-order instantiation only, which covers the
# append/plus corpus.

def _clause_triple(clause: Formula):
    lvars: list[LVar] = []
    premises: list[Formula] = []
    f = clause
    while True:
        match f:
            case ForAll(var, ty, body):
                v = LVar(f"{var}#{next(_counter)}", 0, ty)
                lvars.append(v)
                f = subst_formula(body, (v,))
                continue
            case Imp(g, d):
                premises.append(g)
                f = d
                continue
            case Atom():
                return lvars, premises, f
            case _:
                return None


def match_term(pat: Term, ground: Term, binding: dict[LVar, Term]) -> bool:
    match pat:
        case LVar():
            if pat in binding:
                return binding[pat] == ground
            binding[pat] = ground
            return True
        case Const(name, _):
            return isinstance(ground, Const) and ground.name == name
        case App(fn, arg):
            return (isinstance(ground, App)
                    and match_term(fn, ground.fn, binding)
                    and match_term(arg, ground.arg, binding))
        case Lam():
            return pat == ground
        case _:
            return pat == ground


def _ground(t: Term) -> bool:
    match t:
        case LVar():
            return False
        case App(fn, arg):
            return _ground(fn) and _ground(arg)
        case Lam(_, _, body):
            return _ground(body)
        case _:
            return True


def _apply_binding(t: Term, binding: dict[LVar, Term]) -> Term:
    match t:
        case LVar() if t in binding:
            return binding[t]
        case App(fn, arg):
            return App(_apply_binding(fn, binding), _apply_binding(arg, binding))
        case Lam(var, ty, body):
            return Lam(var, ty, _apply_binding(body, binding))
        case _:
            return t


def _subterms(t: Term) -> Iterator[Term]:
    yield t
    match t:
        case App():
            head, args = term_spine(t)
            for a in args:
                yield from _subterms(a)
        case _:
            return


def derive_all(clauses: list[Formula], seeds: list[Term],
               max_cost: int) -> dict[Atom, int]:
    """Minimal backchain cost of every ground atom derivable within
    `max_cost`.  Clause variables not fixed by premise matching are
    instantiated from the subterm closure of `seeds`; for the append and
    plus corpus every derivation relevant to a query only ever needs
    subterms of that query, so this is exhaustive there."""
    triples = [t for t in (_clause_triple(c) for c in clauses) if t]
    universe: dict[object, set[Term]] = {}

    def add_term(t: Term):
        for s in _subterms(t):
            if _ground(s):
                universe.setdefault(_key_ty(s), set()).add(s)

    def _key_ty(t: Term):
        from lflp.hterms import type_of
        return str(type_of(t))

    for s in seeds:
        add_term(s)
    sorted_pools = {k: sorted(v, key=str) for k, v in universe.items()}
    facts: dict[Atom, int] = {}
    fresh: Optional[set[Atom]] = None  # None = first round, everything fires
    while True:
        snapshot: dict[object, list[tuple[Atom, int]]] = {}
        for fact, cost in facts.items():
            snapshot.setdefault(_atom_key(fact), []).append((fact, cost))
        gained: dict[Atom, int] = {}
        for lvars, premises, head in triples:
            if not premises and fresh is not None:
                continue  # zero-premise conclusions all fire in round one
            for binding, cost in _match_premises(premises, snapshot, fresh,
                                                 {}, 0, max_cost - 1, False):
                free = [v for v in lvars if v not in binding]
                pools = [sorted_pools.get(str(v.ty), []) for v in free]
                for combo in itertools.product(*pools):
                    b2 = dict(binding)
                    b2.update(dict(zip(free, combo)))
                    atom = Atom(head.pred,
                                tuple(_apply_binding(a, b2) for a in head.args))
                    if not all(_ground(a) for a in atom.args):
                        continue
                    total = cost + 1
                    if total > max_cost:
                        continue
                    old = facts.get(atom)
                    if old is None or total < old:
                        facts[atom] = total
                        gained[atom] = total
        if not gained:
            return facts
        fresh = set(gained)


def _atom_key(atom: Atom):
    # Bucket atoms by predicate and the head constant of their final
    # argument (the encoded type), which is always rigid on this corpus.
    last = atom.args[-1] if atom.args else None
    head, _ = term_spine(last) if last is not None else (None, None)
    name = head.name if isinstance(head, Const) else None
    return atom.pred, len(atom.args), name


def _match_premises(premises, by_key, fresh, binding, cost, budget,
                    used_fresh):
    if cost > budget:
        return
    if not premises:
        # Semi-naive restriction: after round one, at least one premise
        # must rest on a fact derived or improved in the previous round.
        if fresh is None or used_fresh:
            yield binding, cost
        return
    first = premises[0]
    if isinstance(first, Top):
        yield from _match_premises(premises[1:], by_key, fresh, binding, cost,
                                   budget, used_fresh)
        return
    if not isinstance(first, Atom):
        return
    key = _atom_key(Atom(first.pred, tuple(_apply_binding(a, binding)
                                           for a in first.args)))
    if key[2] is None:
        candidates = [fc for k2, b in by_key.items()
                      if k2[0] == key[0] and k2[1] == key[1] for fc in b]
    else:
        candidates = by_key.get(key, [])
    for fact, fcost in candidates:
        b2 = dict(binding)
        ok = True
        for p, g in zip(first.args, fact.args):
            if not match_term(_apply_binding(p, b2), g, b2):
                ok = False
                break
        if ok:
            yield from _match_premises(premises[1:], by_key, fresh, b2,
                                       cost + fcost, budget,
                                       used_fresh or (fresh is not None
                                                      and fact in fresh))


def reference_solutions(facts: dict[Atom, int], goal: Atom,
                        qvars: tuple[LVar, ...],
                        depth: int) -> set[tuple[str, ...]]:
    """All instantiations of `qvars` whose goal instance has a derivation
    within `depth` backchains, rendered to strings for set comparison."""
    out = set()
    for fact, cost in facts.items():
        if cost > depth:
            continue
        if fact.pred != goal.pred or len(fact.args) != len(goal.args):
            continue
        binding: dict[LVar, Term] = {}
        if all(match_term(a, g, binding) for a, g in zip(goal.args, fact.args)):
            out.add(tuple(str(beta_norm(binding.get(v, v))) for v in qvars))
    return out


def reference_min_cost(facts: dict[Atom, int], goal: Atom,
                       qvars: tuple[LVar, ...]) -> dict[tuple[str, ...], int]:
    best: dict[tuple[str, ...], int] = {}
    for fact, cost in facts.items():
        if fact.pred != goal.pred or len(fact.args) != len(goal.args):
            continue
        binding: dict[LVar, Term] = {}
        if all(match_term(a, g, binding) for a, g in zip(goal.args, fact.args)):
            key = tuple(str(beta_norm(binding.get(v, v))) for v in qvars)
            if key not in best or cost < best[key]:
                best[key] = cost
    return best


# ---------------------------------------------------------------------------
# Instantiate-then-unify proof search: each candidate clause is copied in
# full, its quantifiers replaced by fresh logic variables, and its head is
# unified with the unresolved goal in one call, and every deepening round
# searches again from the root.  The engine matches a compiled head
# against the resolved goal instead, and resumes each round from the
# paths the last one stopped; clause order and budgets are the same, so
# both find the same solutions in the same order with the same backchain
# counts.

class _RefClause(NamedTuple):
    formula: Formula
    pred: Optional[str]
    keys: tuple[Optional[str], ...]


def _ref_compile(clause: Formula) -> _RefClause:
    f = clause
    while isinstance(f, (ForAll, Imp)):
        f = f.body if isinstance(f, ForAll) else f.right
    if not isinstance(f, Atom):
        return _RefClause(clause, None, ())
    return _RefClause(clause, f.pred, tuple(_key(term_spine(a)[0])
                                            for a in f.args))


class _State:
    __slots__ = ("cut", "susp")

    def __init__(self):
        self.cut = False
        self.susp = False


def reference_solve(program: Program, goal: Formula,
                    limits: Limits = Limits(),
                    query_vars: Optional[tuple[LVar, ...]] = None) -> SolveRun:
    if query_vars is None:
        query_vars = tuple(lvars_in_order([goal]))
    clauses = [_ref_compile(c) for c in program.clauses]
    solutions: list[Solution] = []
    susp_ever = False
    last_round_cut = False
    univ = _root_universe(goal)
    for bound in range(limits.depth + 1):
        state = _State()
        for sigma, residuals, left in _ref_prove(goal, clauses, univ,
                                                 Subst(), (), bound, state):
            if left != 0:
                continue
            if residuals:
                state.susp = True
                continue
            solutions.append(_extract(sigma, query_vars, bound))
            if limits.max_solutions and len(solutions) >= limits.max_solutions:
                return SolveRun("ok", tuple(solutions))
        susp_ever = susp_ever or state.susp
        last_round_cut = state.cut
        if not state.cut:
            break
    if solutions:
        return SolveRun("ok", tuple(solutions))
    if last_round_cut:
        return SolveRun("exhausted", ())
    if susp_ever:
        return SolveRun("suspended", ())
    return SolveRun("no", ())


def _ref_prove(goal, clauses, univ, sigma, residuals, budget, state):
    match goal:
        case Top():
            yield sigma, residuals, budget
        case Imp(d, g):
            yield from _ref_prove(g, clauses + [_ref_compile(d)], univ, sigma,
                                  residuals, budget, state)
        case ForAll(var, ty, body):
            e = fresh_evar(var, ty)
            yield from _ref_prove(subst_formula(body, (e,)), clauses,
                                  e.level + 1, sigma, residuals, budget, state)
        case Atom() as atom:
            yield from _ref_backchain(atom, clauses, univ, sigma, residuals,
                                      budget, state)
        case _:
            raise TypeError(f"not a goal formula: {goal!r}")


def _clause_parts(clause: Formula, univ: int) -> tuple[Atom, list[Formula]]:
    """Instantiate a definite clause's quantifiers with fresh logic
    variables of universe `univ`; return its head and its premises in
    order."""
    premises: list[Formula] = []
    f = clause
    while True:
        match f:
            case ForAll(var, ty, body):
                f = subst_formula(body, (fresh_lvar_at(
                    var.upper() if var else "X", ty, univ),))
            case Imp(g, d):
                premises.append(g)
                f = d
            case _:
                return f, premises


def _ref_backchain(atom, clauses, univ, sigma, residuals, budget, state):
    # A clause is instantiated only when no head argument has a rigid
    # head that differs from the goal's: any such pair fails to unify.
    # Out of budget, the loop only finds out whether some clause could
    # still engage, so exhaustion is distinguishable from finite failure.
    arity = len(atom.args)
    keys = [_key(term_spine(a)[0]) for a in sigma.apply_all(atom.args)]
    for clause in clauses:
        if clause.pred != atom.pred or len(clause.keys) != arity:
            continue
        if any(k is not None and g is not None and k != g
               for k, g in zip(clause.keys, keys)):
            continue
        head, premises = _clause_parts(clause.formula, univ)
        res = unify([Eq(a, b) for a, b in zip(atom.args, head.args)]
                    + list(residuals), sigma)
        if res.status == "fail":
            continue
        if budget <= 0:
            state.cut = True
            return
        yield from _ref_conj(premises, clauses, univ, res.subst,
                             res.residuals, budget - 1, state)


def _ref_conj(goals, clauses, univ, sigma, residuals, budget, state):
    if not goals:
        yield sigma, residuals, budget
        return
    for sigma2, residuals2, left in _ref_prove(goals[0], clauses, univ, sigma,
                                               residuals, budget, state):
        yield from _ref_conj(goals[1:], clauses, univ, sigma2, residuals2,
                             left, state)


# ---------------------------------------------------------------------------
# Brute-force unifier search over a small typed term universe.

def gen_terms(ty, heads: list[Term], depth: int) -> list[Term]:
    """All terms of simple type `ty` using only `heads`, with application
    nesting at most `depth`."""
    return [to_indexed(t) for t in _gen_named(ty, heads, depth)]


def _gen_named(ty, heads: list, depth: int) -> list:
    doms, _ = split_arrow(ty)
    if doms:
        v = NVar(f"u{next(_counter)}", doms[0])
        return [Lam(v.name, v.ty, body)
                for body in _gen_named(ty.cod, heads + [v], depth)]
    results = []
    for h in heads:
        hdoms, hcod = split_arrow(_ty_of_head(h))
        if str(hcod) != str(ty):
            continue
        if not hdoms:
            results.append(h)
        elif depth > 0:
            arg_choices = [_gen_named(d, heads, depth - 1) for d in hdoms]
            for combo in itertools.product(*arg_choices):
                results.append(mk_app(h, combo))
    return results


def _ty_of_head(h: Term):
    return h.ty


def has_unifier_bruteforce(lhs: Term, rhs: Term, heads: list[Term],
                           depth: int = 2) -> bool:
    lvars = sorted(lvars_in_order([lhs, rhs]), key=lambda v: v.name)
    pools = [gen_terms(v.ty, heads, depth) for v in lvars]
    for combo in itertools.product(*pools):
        sub = Subst(dict(zip(lvars, combo)))
        if alpha_eq_term(*sub.apply_all((lhs, rhs))):
            return True
    return False


# ---------------------------------------------------------------------------
# Strictness by depth-first search: CTX_t explored pivot by pivot, refusing
# to revisit a judgment already open on the current path.  Every binder of
# a judgment, the one asked about included, stays a candidate.  Exponential
# in the number of binders, so only for small classifiers.

_Gamma = tuple[tuple[str, Fam], ...]


def strict_in_object(candidates: Iterable[str], delta: Iterable[str],
                     x: str, m: Obj) -> bool:
    """True iff x occurs strictly in the named beta-normal object `m`,
    by the object-level rules of `lflp.strictness`: `candidates` are the
    problem's binders and `delta` the local variables, innermost last;
    any other free name is rigid.  `m` is indexed under them, x just
    above the locals."""
    delta = tuple(delta)
    scope = (*(c for c in candidates if c != x), x, *delta)
    return _why_obj(len(delta), len(delta), len(scope),
                    lf_to_indexed(m, scope)) is not None


def named_why_obj(candidates: frozenset[str], delta: frozenset[str],
                  x: str, m: Obj) -> Optional[str]:
    """The object-level judgment over names: `candidates` are the
    problem's binders, `delta` the local variables, `x` the one tracked."""
    if isinstance(m, OLam):
        var, body = m.var, m.body
        if var in candidates or var == x:
            var = fresh_name(var, candidates | delta | {x}
                             | named_lf_free_vars(body))
            body = named_lf_subst(body, {m.var: OVar(var)})
        inner = named_why_obj(candidates, delta | {var}, x, body)
        return None if inner is None else f"ABS_o; {inner}"
    head, args = spine(m)
    if isinstance(head, OVar) and head.name == x:
        names = [a.name for a in args if isinstance(a, OVar)]
        if (len(names) == len(args) and len(set(names)) == len(names)
                and all(n in delta for n in names)):
            return "INIT_o"
        return None
    if isinstance(head, OVar) and head.name in candidates:
        return None
    for i, arg in enumerate(args):
        inner = named_why_obj(candidates, delta, x, arg)
        if inner is not None:
            return f"APP_o(arg {i + 1}); {inner}"
    return None


def dfs_strict_binders(a: Fam) -> frozenset[int]:
    """Indices of the Pi binders of `a` that occur strictly."""
    return frozenset(i for i, (_, strict, _) in
                     enumerate(dfs_explain_strictness(a)) if strict)


def dfs_explain_strictness(a: Fam) -> list[tuple[str, bool, str]]:
    """Per binder: (name, strict?, justifying rule chain or reason)."""
    names = [name for name, _ in split_fam_pis(a)[0]]
    gamma, base = dfs_peel((), lf_to_named(a))
    pi = f"PI_t^{len(names) - 1}; " if len(names) > 1 else ""
    report = []
    for name, (x, _) in zip(names, gamma):
        why = _why_base(gamma, x, base, frozenset())
        if why is None:
            report.append((name, False, "no strict occurrence"))
        else:
            report.append((name, True, pi + why))
    return report


def dfs_peel(gamma: _Gamma, a: Fam) -> tuple[_Gamma, Fam]:
    """Move the Pi binders of the named `a` onto gamma, each renamed
    apart from every name bound in gamma or free in a type of gamma or
    anywhere in `a`."""
    taken = {n for n, _ in gamma} | named_lf_free_vars(a)
    for _, b in gamma:
        taken |= named_lf_free_vars(b)
    while isinstance(a, FPi):
        var, body = a.var, a.body
        if var in taken:
            var = fresh_name(var, taken | named_lf_free_vars(body))
            body = named_lf_subst(body, {a.var: OVar(var)})
        gamma = gamma + ((var, a.dom),)
        taken.add(var)
        a = body
    return gamma, a


def _why_type(gamma: _Gamma, x: str, a: Fam,
              blocked: frozenset) -> Optional[str]:
    inner, base = dfs_peel(gamma, a)
    why = _why_base(inner, x, base, blocked)
    steps = len(inner) - len(gamma)
    if why is None:
        return None
    return f"PI_t^{steps}; {why}" if steps else why


def _why_base(gamma: _Gamma, x: str, base: Fam,
              blocked: frozenset) -> Optional[str]:
    key = (gamma, x, base)
    if key in blocked:
        return None
    blocked = blocked | {key}
    head, args = spine(base)
    if isinstance(head, FConst):
        candidates = frozenset(n for n, _ in gamma)
        for i, arg in enumerate(args):
            inner = named_why_obj(candidates, frozenset(), x, arg)
            if inner is not None:
                return f"APP_t(arg {i + 1}); {inner}"
    for j, (y, b) in enumerate(gamma):
        if y == x:
            continue
        pivot = _why_base(gamma, y, base, blocked)
        if pivot is None:
            continue
        through = _why_type(gamma[:j], x, b, blocked)
        if through is None:
            continue
        return (f"CTX_t(pivot {y}) {{{y} in target: {pivot}}} "
                f"{{{x} in type of {y}: {through}}}")
    return None


# ---------------------------------------------------------------------------
# Substitution by eager folding: every extension applies the map to the new
# range and refolds the new binding through every old range, so the map is
# idempotent and `apply` is a single walk.  Quadratic in the bindings.

class EagerSubst:
    """Idempotent map from logic variables to closed terms."""

    __slots__ = ("_m",)

    def __init__(self, m: Optional[dict[LVar, Term]] = None):
        self._m = m or {}

    def __len__(self):
        return len(self._m)

    def apply(self, t: Term) -> Term:
        if not self._m:
            return t
        return beta_norm(self._walk(t))

    def _walk(self, t: Term) -> Term:
        match t:
            case LVar():
                return self._m.get(t, t)
            case App(fn, arg):
                return App(self._walk(fn), self._walk(arg))
            case Lam(var, ty, body):
                return Lam(var, ty, self._walk(body))
            case _:
                return t

    def extend(self, v: LVar, t: Term) -> "EagerSubst":
        t = self.apply(t)
        one = EagerSubst({v: t})
        m = {k: beta_norm(one._walk(r)) for k, r in self._m.items()}
        m[v] = t
        return EagerSubst(m)


# ---------------------------------------------------------------------------
# Lexing one character at a time: each character class is tested with the
# str predicates directly, and line and column are counted as it goes.

class _Token(NamedTuple):
    """A token and its position: counted by the character loop, or asked
    of the package's tokens by `package_tokens`."""
    kind: str
    text: str
    line: int
    col: int


def _ident_char(c: str) -> bool:
    return c.isalnum() or c in ("_", "'")


def char_tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("->", i):
            toks.append(_Token("->", "->", line, col))
            i += 2
            col += 2
            continue
        if c in "{}[]():.":
            toks.append(_Token(c, c, line, col))
            i += 1
            col += 1
            continue
        if _ident_char(c) and not c.isdigit():
            j = i
            while j < n and _ident_char(text[j]):
                j += 1
            word = text[i:j]
            kind = "type" if word == "type" else "ident"
            toks.append(_Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        raise LFSyntaxError(f"unexpected character {c!r}", line, col)
    toks.append(_Token("eof", "", line, col))
    return toks


def package_tokens(text: str) -> list[_Token]:
    """The package's tokens of `text`, each with the line and column its
    `position` finds."""
    toks = lf.tokenize(text)
    return [_Token(kind, word, *toks.position(i))
            for i, (kind, word) in enumerate(zip(toks.kinds, toks.texts))]


# ---------------------------------------------------------------------------
# Parsing in two passes: tokens to a tree of untyped pre-terms, then a walk
# of that tree that classifies each node as a kind, type or object.  The
# package reads the tokens in one pass instead.

@dataclass(frozen=True)
class _PName:
    name: str
    line: int
    col: int


@dataclass(frozen=True)
class _PType:
    line: int
    col: int


@dataclass(frozen=True)
class _PPi:
    var: str
    dom: "_PTerm"
    body: "_PTerm"
    line: int
    col: int


@dataclass(frozen=True)
class _PLam:
    var: str
    dom: "_PTerm"
    body: "_PTerm"
    line: int
    col: int


@dataclass(frozen=True)
class _PArrow:
    dom: "_PTerm"
    cod: "_PTerm"
    line: int
    col: int


@dataclass(frozen=True)
class _PApp:
    fn: "_PTerm"
    arg: "_PTerm"
    line: int
    col: int


_PTerm = Union[_PName, _PType, _PPi, _PLam, _PArrow, _PApp]


class _Parser:
    def __init__(self, toks: Sequence[_Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def names_since(self, start: int) -> set[str]:
        """Every identifier among the tokens read since `start`: the binder
        names and name occurrences of the pre-term parsed from them."""
        toks = [self.toks[i] for i in range(start, self.pos)]
        return {t.text for t in toks if t.kind == "ident"}

    def expect(self, kind: str) -> _Token:
        t = self.peek()
        if t.kind != kind:
            shown = t.text if t.kind != "eof" else "end of input"
            raise LFSyntaxError(f"expected {kind!r}, found {shown!r}", t.line, t.col)
        return self.next()

    def expr(self) -> _PTerm:
        t = self.peek()
        if t.kind in ("{", "["):
            open_kind = self.next()
            name = self.expect("ident")
            self.expect(":")
            dom = self.expr()
            self.expect("}" if open_kind.kind == "{" else "]")
            body = self.expr()
            cls = _PPi if open_kind.kind == "{" else _PLam
            return cls(name.text, dom, body, open_kind.line, open_kind.col)
        left = self.app()
        if self.peek().kind == "->":
            arrow = self.next()
            right = self.expr()
            return _PArrow(left, right, arrow.line, arrow.col)
        return left

    def app(self) -> _PTerm:
        t = self.peek()
        e = self.atom()
        while self.peek().kind in ("ident", "type", "(", "{", "["):
            # binders may appear as the final argument position in
            # parentheses only; a bare `{`/`[` here is a syntax error
            nxt = self.peek()
            if nxt.kind in ("{", "["):
                raise LFSyntaxError("binder must be parenthesized in argument position",
                                    nxt.line, nxt.col)
            a = self.atom()
            e = _PApp(e, a, t.line, t.col)
        return e

    def atom(self) -> _PTerm:
        t = self.next()
        if t.kind == "ident":
            return _PName(t.text, t.line, t.col)
        if t.kind == "type":
            return _PType(t.line, t.col)
        if t.kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        shown = t.text if t.kind != "eof" else "end of input"
        raise LFSyntaxError(f"expected an expression, found {shown!r}", t.line, t.col)


def _tail_is_type(e: _PTerm) -> bool:
    while True:
        match e:
            case _PType():
                return True
            case _PPi(_, _, body, _, _) | _PArrow(_, body, _, _):
                e = body
            case _:
                return False


class _Elab:
    """Turns pre-terms into named Kind/Fam/Obj, resolving scope.

    `env` maps a source binder name to its possibly renamed form; `used`
    accumulates every name in the declaration so freshening cannot collide.
    Query free variables are recognized here when `free_ok` holds.
    """

    def __init__(self, used: set[str], sig: Optional[Signature] = None,
                 free_ok: bool = False):
        self.used = used
        self.sig = sig
        self.free_ok = free_ok
        self.free_order: list[str] = []

    def bind(self, var: str, env: dict[str, str]) -> tuple[str, dict[str, str]]:
        new = var
        if var in env:
            new = fresh_name(var, self.used)
        self.used.add(new)
        env2 = dict(env)
        env2[var] = new
        return new, env2

    def kind(self, e: _PTerm, env: dict[str, str]) -> Kind:
        match e:
            case _PType():
                return KType()
            case _PPi(var, dom, body, _, _):
                d = self.fam(dom, env)
                v, env2 = self.bind(var, env)
                return KPi(v, d, self.kind(body, env2))
            case _PArrow(dom, cod, _, _):
                d = self.fam(dom, env)
                v, env2 = self.bind(fresh_name("x", self.used), env)
                return KPi(v, d, self.kind(cod, env2))
        raise LFSyntaxError("expected a kind", _line(e), _col(e))

    def fam(self, e: _PTerm, env: dict[str, str]) -> Fam:
        match e:
            case _PPi(var, dom, body, _, _):
                d = self.fam(dom, env)
                v, env2 = self.bind(var, env)
                return FPi(v, d, self.fam(body, env2))
            case _PArrow(dom, cod, _, _):
                d = self.fam(dom, env)
                v, env2 = self.bind(fresh_name("x", self.used), env)
                return FPi(v, d, self.fam(cod, env2))
            case _PName(name, line, col):
                if name in env:
                    raise LFSyntaxError(
                        f"bound variable {name!r} used as a type", line, col)
                return FConst(name)
            case _PApp(fn, arg, _, _):
                return FApp(self.fam(fn, env), self.obj(arg, env))
            case _PType(line, col):
                raise LFSyntaxError("'type' cannot appear inside a type", line, col)
        raise LFSyntaxError("expected a type", _line(e), _col(e))

    def obj(self, e: _PTerm, env: dict[str, str]) -> Obj:
        match e:
            case _PName(name, line, col):
                if name in env:
                    return OVar(env[name])
                if self.free_ok and name[0].isupper() and (
                        self.sig is None or self.sig.lookup(name) is None):
                    if name not in self.free_order:
                        self.free_order.append(name)
                    return OVar(name)
                return OConst(name)
            case _PLam(var, dom, body, _, _):
                d = self.fam(dom, env)
                v, env2 = self.bind(var, env)
                return OLam(v, d, self.obj(body, env2))
            case _PApp(fn, arg, _, _):
                return OApp(self.obj(fn, env), self.obj(arg, env))
        raise LFSyntaxError("expected an object", _line(e), _col(e))


def _line(e: _PTerm) -> int:
    return getattr(e, "line", 0)


def _col(e: _PTerm) -> int:
    return getattr(e, "col", 0)


def two_pass_parse_signature(text: str) -> Signature:
    """Parse a sequence of ``name : expr.`` declarations in source order."""
    parser = _Parser(package_tokens(text))
    decls: list[Decl] = []
    seen: set[str] = set()
    while parser.peek().kind != "eof":
        name_tok = parser.expect("ident")
        parser.expect(":")
        start = parser.pos
        body = parser.expr()
        parser.expect(".")
        if name_tok.text in seen:
            raise LFSyntaxError(f"duplicate declaration of {name_tok.text!r}",
                                name_tok.line, name_tok.col)
        seen.add(name_tok.text)
        elab = _Elab(parser.names_since(start) | {name_tok.text})
        if _tail_is_type(body):
            decls.append(KindDecl(name_tok.text,
                                  lf_to_indexed(elab.kind(body, {}))))
        else:
            decls.append(ObjDecl(name_tok.text,
                                 lf_to_indexed(elab.fam(body, {}))))
    return Signature(tuple(decls))


def two_pass_parse_query(text: str, sig: Optional[Signature] = None) -> tuple[tuple[str, ...], Fam]:
    """Parse a query type.

    Capitalized identifiers not declared in `sig` are collected as free
    (existential) variables, returned in first-use order.  The body must be
    a base type; when `sig` is given its head must be a declared type
    constant.
    """
    parser = _Parser(package_tokens(text))
    body = parser.expr()
    if parser.peek().kind == ".":
        parser.next()
    tok = parser.peek()
    if tok.kind != "eof":
        raise LFSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)
    elab = _Elab(parser.names_since(0), sig=sig, free_ok=True)
    fam = elab.fam(body, {})
    head, _ = spine(fam)
    if not isinstance(head, FConst):
        raise LFSyntaxError("query must be a base type")
    if sig is not None and not isinstance(sig.lookup(head.name), (KType, KPi)):
        raise LFSyntaxError(f"query head {head.name!r} is not a declared type constant")
    return tuple(elab.free_order), lf_to_indexed(fam)


def two_pass_parse_object(text: str, sig: Optional[Signature] = None) -> Obj:
    """Parse a single object term.  Identifiers bound by an enclosing
    lambda are variables; everything else is read as a constant."""
    parser = _Parser(package_tokens(text))
    body = parser.expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise LFSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)
    elab = _Elab(parser.names_since(0), sig=sig)
    return lf_to_indexed(elab.obj(body, {}))


# ---------------------------------------------------------------------------
# The application rules one argument at a time: `c M1 ... Mn` is typed by
# instantiating the whole remaining Pi body with each Mi in turn.  The
# kernel types a spine in one loop under one simultaneous map instead.
# The rules run over named terms, and a binder that shadows the context
# is renamed apart from it, as a context of names needs; a message prints
# those names, which the kernel prints for its binders too.

def ref_check_type(sig: Signature, ctx: Context, a: Fam) -> Kind:
    """The kind of `a`, or LFTypeError, by the one-at-a-time rules."""
    return lf_to_indexed(_ref_check_type(sig, _named_ctx(ctx), lf_to_named(a)))


def ref_check_object(sig: Signature, ctx: Context, m: Obj,
                     expected: Optional[Fam] = None) -> Fam:
    """The type of `m`, compared to `expected` if given, or LFTypeError,
    by the one-at-a-time rules."""
    return lf_to_indexed(_ref_check_object(
        sig, _named_ctx(ctx), lf_to_named(m),
        None if expected is None else lf_to_named(expected)))


def _named_ctx(ctx: Context) -> Context:
    return {name: lf_to_named(a) for name, a in ctx.items()}


def _ref_check_type(sig: Signature, ctx: Context, a: Fam) -> Kind:
    match a:
        case FConst(name):
            k = named_classifier(sig, name)
            if k is None:
                raise LFTypeError(f"unknown type constant {name!r}", rule="var-fam")
            if not isinstance(k, (KType, KPi)):
                raise LFTypeError(f"object constant {name!r} used as a type",
                                  rule="var-fam")
            return k
        case FPi(var, dom, body):
            dk = _ref_check_type(sig, ctx, dom)
            if not isinstance(dk, KType):
                raise LFTypeError(f"Pi domain {show(dom)} has kind {show(dk)}, "
                                  "not type", rule="pi-fam")
            var, body = named_lf_rename_apart(var, body, ctx.keys())
            bk = _ref_check_type(sig, {**ctx, var: named_lf_norm(dom)}, body)
            if not isinstance(bk, KType):
                raise LFTypeError(f"Pi body {show(body)} has kind {show(bk)}, "
                                  "not type", rule="pi-fam")
            return KType()
        case FApp(fn, arg):
            k = _ref_check_type(sig, ctx, fn)
            if not isinstance(k, KPi):
                head, _ = spine(fn)
                name = head.name if isinstance(head, FConst) else show(head)
                raise LFTypeError(f"too many arguments to {name!r}", rule="app-fam")
            _ref_check_object(sig, ctx, arg, expected=k.dom, rule="app-fam")
            return _ref_instantiate(k, arg)
    raise TypeError(f"not a type family: {a!r}")


def _ref_check_object(sig: Signature, ctx: Context, m: Obj,
                      expected: Optional[Fam] = None,
                      rule: str = "app-obj") -> Fam:
    t = _ref_synth_obj(sig, ctx, m)
    if expected is not None and t != expected:
        want = named_lf_norm(expected)
        if not named_convertible(t, want):
            raise LFTypeError(f"{print_brief(lf_to_indexed(m))} has type "
                              f"{show(t)}, expected {show(want)}", rule=rule)
    return t


def _ref_synth_obj(sig: Signature, ctx: Context, m: Obj) -> Fam:
    match m:
        case OConst(name):
            a = named_classifier(sig, name)
            if a is None:
                raise LFTypeError(f"unknown constant {name!r}", rule="var-obj")
            if not isinstance(a, (FConst, FPi, FApp)):
                raise LFTypeError(f"type constant {name!r} used as an object",
                                  rule="var-obj")
            return a
        case OVar(name):
            a = ctx.get(name)
            if a is None:
                raise LFTypeError(f"unbound variable {name!r}", rule="var-obj")
            return named_lf_norm(a)
        case OLam(var, dom, body):
            dk = _ref_check_type(sig, ctx, dom)
            if not isinstance(dk, KType):
                raise LFTypeError(f"binder type {show(dom)} has kind {show(dk)}, "
                                  "not type", rule="abs-obj")
            dom_n = named_lf_norm(dom)
            var, body = named_lf_rename_apart(var, body, ctx.keys())
            return FPi(var, dom_n,
                       _ref_synth_obj(sig, {**ctx, var: dom_n}, body))
        case OApp(fn, arg):
            ft = _ref_synth_obj(sig, ctx, fn)
            if not isinstance(ft, FPi):
                raise LFTypeError(f"{print_brief(lf_to_indexed(fn))} of type "
                                  f"{show(ft)} applied to an argument",
                                  rule="app-obj")
            _ref_check_object(sig, ctx, arg, expected=ft.dom)
            return _ref_instantiate(ft, arg)
    raise TypeError(f"not an object: {m!r}")


def _ref_instantiate(pi: Union[KPi, FPi], arg: Obj) -> Union[Kind, Fam]:
    if pi.var not in named_lf_free_vars(pi.body):
        return pi.body
    return named_lf_norm(named_lf_subst(pi.body, {pi.var: arg}))


# ---------------------------------------------------------------------------
# Query variables typed by a scan of the normalized query, then checked:
# the kernel types them in its one spine check instead.

def infer_query_var_types(sig: lf.Signature, free: tuple[str, ...],
                          a: lf.Fam) -> dict[str, lf.Fam]:
    """Assign each free query variable the LF type of its first argument
    position, scanning the query with names."""
    types: dict[str, lf.Fam] = {}

    def scan_args(name: str, pi: Union[lf.Kind, lf.Fam], args: list[lf.Obj]):
        # each argument at its Pi binder's domain, instantiated by the
        # arguments before it
        sub: dict[str, lf.Obj] = {}
        for arg in args:
            if not isinstance(pi, (lf.KPi, lf.FPi)):
                raise TranslationError(f"too many arguments to {name}")
            scan_obj(arg, named_lf_norm(named_lf_subst(pi.dom, sub)))
            sub[pi.var] = arg
            pi = pi.body

    def scan_obj(m: lf.Obj, expected: lf.Fam):
        if isinstance(m, lf.OLam):
            # the body at the Pi's codomain, the binder renamed apart
            if isinstance(expected, lf.FPi):
                var = lf.OVar(lf.fresh_name(m.var, {
                    *free, *named_lf_free_vars(m),
                    *named_lf_free_vars(expected)}))
                scan_obj(named_lf_norm(named_lf_subst(m.body, {m.var: var})),
                         named_lf_norm(named_lf_subst(expected.body,
                                                      {expected.var: var})))
            return
        ohead, oargs = lf.spine(m)
        if isinstance(ohead, lf.OVar) and ohead.name in free:
            if oargs:
                raise TranslationError(
                    f"cannot infer a type for {ohead.name}: "
                    "free query variables may not be applied")
            if ohead.name not in types:
                types[ohead.name] = expected
            return
        if isinstance(ohead, lf.OConst):
            fam = named_classifier(sig, ohead.name)
            if fam is None or isinstance(fam, (lf.KType, lf.KPi)):
                raise TranslationError(f"unknown object constant {ohead.name}")
            scan_args(ohead.name, fam, oargs)

    head, args = lf.spine(lf_to_named(a))
    scan_args(head.name, named_classifier(sig, head.name), args)
    missing = [n for n in free if n not in types]
    if missing:
        raise TranslationError(
            f"cannot infer a type for query variable {missing[0]}")
    return {name: lf_to_indexed(t) for name, t in types.items()}


# ---------------------------------------------------------------------------
# Conversion through typed eta-long canonical forms: each object is
# expanded at the type its position dictates, then forms are compared up
# to alpha.  The kernel compares eta-short forms without types instead.

def canonicalize(sig: Signature, ctx: Context, e: Expr,
                 classifier: Optional[Expr] = None) -> Expr:
    """Eta-long form of a beta-normal, well-typed expression, built with
    names.

    Objects need their classifying type family; families and kinds carry
    enough structure on their own.  Idempotent.
    """
    ctx, e = _named_ctx(ctx), lf_to_named(e)
    if isinstance(e, (OConst, OVar, OLam, OApp)):
        if not isinstance(classifier, (FConst, FPi, FApp)):
            raise LFTypeError("canonicalize needs the classifying type of an object")
        return lf_to_indexed(_canon_obj(sig, ctx, e, lf_to_named(classifier)))
    if isinstance(e, (FConst, FPi, FApp)):
        return lf_to_indexed(_canon_fam(sig, ctx, e))
    if isinstance(e, (KType, KPi)):
        return lf_to_indexed(_canon_kind(sig, ctx, e))
    raise TypeError(f"not an LF expression: {e!r}")


def _canon_obj(sig: Signature, ctx: Context, m: Obj, t: Fam) -> Obj:
    if isinstance(t, FPi):
        dom_c = _canon_fam(sig, ctx, t.dom)
        if isinstance(m, OLam):
            var = m.var
            body = m.body
            if var in ctx:
                var = fresh_name(var, ctx.keys() | named_lf_free_vars(body)
                                 | named_lf_free_vars(t.body))
                body = named_lf_subst(body, {m.var: OVar(var)})
        else:
            var = fresh_name("x", ctx.keys() | named_lf_free_vars(m)
                             | named_lf_free_vars(t.body))
            body = OApp(m, OVar(var))
        rest = named_lf_norm(named_lf_subst(t.body, {t.var: OVar(var)}))
        inner = _canon_obj(sig, {**ctx, var: t.dom}, body, rest)
        return OLam(var, dom_c, inner)
    head, args = spine(m)
    if isinstance(head, OLam):
        raise LFTypeError("abstraction at base type", rule="abs-obj")
    if isinstance(head, OConst):
        rest = named_classifier(sig, head.name)
        if not isinstance(rest, (FConst, FPi, FApp)):
            raise LFTypeError(f"unknown object constant {head.name!r}", rule="var-obj")
    else:
        classifier = ctx.get(head.name)
        if classifier is None:
            raise LFTypeError(f"unbound variable {head.name!r}", rule="var-obj")
        rest = named_lf_norm(classifier)
    out: list[Obj] = []
    sub: dict[str, Obj] = {}
    for a in args:
        if not isinstance(rest, FPi):
            raise LFTypeError(f"too many arguments to {head.name!r}", rule="app-obj")
        expected = named_lf_norm(named_lf_subst(rest.dom, sub))
        out.append(_canon_obj(sig, ctx, a, expected))
        sub[rest.var] = a
        rest = rest.body
    return obj_app(head, out)


def _canon_fam(sig: Signature, ctx: Context, a: Fam) -> Fam:
    if isinstance(a, FPi):
        dom_c = _canon_fam(sig, ctx, a.dom)
        return FPi(a.var, dom_c, _canon_fam(sig, {**ctx, a.var: a.dom}, a.body))
    head, args = spine(a)
    if not isinstance(head, FConst):
        raise LFTypeError("application head must be a type constant", rule="app-fam")
    rest = named_classifier(sig, head.name)
    if not isinstance(rest, (KType, KPi)):
        raise LFTypeError(f"unknown type constant {head.name!r}", rule="var-fam")
    out: list[Obj] = []
    sub: dict[str, Obj] = {}
    for m in args:
        if not isinstance(rest, KPi):
            raise LFTypeError(f"too many arguments to {head.name!r}", rule="app-fam")
        expected = named_lf_norm(named_lf_subst(rest.dom, sub))
        out.append(_canon_obj(sig, ctx, m, expected))
        sub[rest.var] = m
        rest = rest.body
    return fam_app(head, out)


def _canon_kind(sig: Signature, ctx: Context, k: Kind) -> Kind:
    if isinstance(k, KPi):
        dom_c = _canon_fam(sig, ctx, k.dom)
        return KPi(k.var, dom_c, _canon_kind(sig, {**ctx, k.var: k.dom}, k.body))
    return k


# ---------------------------------------------------------------------------
# Test-only helpers the package itself does not need: alpha equivalence
# of hohh terms and formulas, a solution's values as one string, the
# eigenvariables of a term, one-equation unification, type-family
# application, and replaying a reported solution through the engine.

def alpha_eq_term(a: Term, b: Term) -> bool:
    """Equality of indexed terms up to their binders' hints."""
    match (a, b):
        case (Lam(_, ta, ba), Lam(_, tb, bb)):
            return ta == tb and alpha_eq_term(ba, bb)
        case (App(fa, xa), App(fb, xb)):
            return alpha_eq_term(fa, fb) and alpha_eq_term(xa, xb)
    return a == b


def canon_key(sol: Solution) -> str:
    """`sol`'s values as one string, equal for two solutions exactly when
    their values are alpha-equal up to a renaming of logic variables:
    binders print without their hints, and logic variables are numbered
    in order of first occurrence."""
    lnames: dict[str, int] = {}

    def render(t: Term) -> str:
        match t:
            case Const(name, _):
                return name
            case EVar(name, _, _):
                return f"!{name}"
            case LVar(name, _, _):
                if name not in lnames:
                    lnames[name] = len(lnames)
                return f"?{lnames[name]}"
            case BVar(index, _):
                return f"#{index}"
            case Lam(_, _, body):
                return f"(\\ {render(body)})"
            case App():
                head, args = term_spine(t)
                inner = " ".join(render(x) for x in [head] + args)
                return f"({inner})"
        raise TypeError

    return ";".join(f"{v.name}={render(t)}" for v, t in sol.bindings)


def fresh_lvar(prefix: str, ty: SimpleType) -> LVar:
    """A fresh logic variable levelled by the clock: it may mention every
    eigenvariable made before it."""
    n = fresh_level()
    return LVar(f"{prefix}_{n}", n, ty)


def lvars_in_order(items: Iterable[Union[Term, Formula, None]]
                   ) -> dict[LVar, int]:
    """The logic variables of `items`, terms or formulas read left to
    right, each numbered by its first appearance.  None items are skipped."""
    order: dict[LVar, int] = {}
    for x in term_leaves(items):
        if isinstance(x, LVar):
            order.setdefault(x, len(order))
    return order


def evars_of(t: Term) -> frozenset[EVar]:
    match t:
        case EVar():
            return frozenset([t])
        case Lam(_, _, body):
            return evars_of(body)
        case App(fn, arg):
            return evars_of(fn) | evars_of(arg)
        case _:
            return frozenset()


def alpha_eq_formula(a: Formula, b: Formula) -> bool:
    return _faeq(a, b)


def _faeq(a, b) -> bool:
    match (a, b):
        case (Top(), Top()):
            return True
        case (Atom(pa, xa), Atom(pb, xb)):
            return (pa == pb and len(xa) == len(xb)
                    and all(alpha_eq_term(s, t) for s, t in zip(xa, xb)))
        case (Imp(la, ra), Imp(lb, rb)):
            return _faeq(la, lb) and _faeq(ra, rb)
        case (ForAll(_, ta, ba), ForAll(_, tb, bb)):
            return ta == tb and _faeq(ba, bb)
        case _:
            return False


def unify_one(lhs: Term, rhs: Term, subst: Optional[Subst] = None) -> UnifyResult:
    return unify([Eq(lhs, rhs)], subst)


def fam_app(head: Fam, args: list[Obj]) -> Fam:
    for x in args:
        head = FApp(head, x)
    return head


def map_formula_terms(f: Formula, fn) -> Formula:
    match f:
        case Top():
            return f
        case Atom(pred, args):
            return Atom(pred, tuple(fn(a) for a in args))
        case Imp(left, right):
            return Imp(map_formula_terms(left, fn), map_formula_terms(right, fn))
        case ForAll(var, ty, body):
            return ForAll(var, ty, map_formula_terms(body, fn))
    raise TypeError(f"not a formula: {f!r}")


def validate_solution(program: Program, goal: Formula, sol: Solution,
                      extra_depth: int = 0) -> bool:
    """Replay a reported solution: instantiate the goal with its
    bindings, freeze leftover logic variables, and re-derive within the
    reported backchain count by the reference search."""
    # An unbound query variable comes back bound to itself; as a map
    # entry that binding would be a cycle.
    binding = Subst({v: t for v, t in sol.bindings if t != v})
    frozen = {v: fresh_evar(v.name, v.ty)
              for v in lvars_in_order(t for _, t in sol.bindings)}

    def inst(t: Term) -> Term:
        t = binding.apply_all((t,))[0]
        return Subst(dict(frozen)).apply_all((t,))[0] if frozen else t

    g = map_formula_terms(goal, inst)
    bound = sol.backchains + extra_depth
    run = reference_solve(program, g, Limits(depth=bound), query_vars=())
    return run.status == "ok"
