"""Translation of LF signatures into hereditary Harrop programs.

The bridge works at three levels:

* ``phi`` flattens dependent classifiers to simple types: every base
  type collapses to ``lf_obj``, every kind to ``lf_type``, and Pi
  becomes arrow.
* ``encode`` erases types from objects and base type families, keeping
  shape: constants stay themselves (retyped by phi), abstraction
  annotations become simple types.
* ``translate_judgment`` maps a classifier A and a subject term M to a
  formula asserting M inhabits A.  Each Pi binder of A gets a typing
  premise, the translation of its type with the polarity flipped: the
  clause's own binders sit at positive positions, the binders of their
  types at negative ones, and so on down.  The naive mode keeps every
  premise.  The optimized mode runs the strictness analysis once per
  positive position: a binder that occurs strictly in the rest of its
  type gets no premise, because any well-typed use already pins its
  instantiation.

``translate_signature`` packages a signature, or a view of one, as a
Program with one clause per object declaration, in declaration order.
Kind declarations contribute only signature entries, never clauses.
Each constant's clause is translated once per signature and mode and
kept in the signature's ``clauses`` table.  ``reachable_signature``
picks the view a query needs: the type families its translated clauses
can reach from the query's family, so ``lflp solve`` translates and
compiles only those, while ``lflp translate`` packages the whole
signature.

The emitter prints a Program in lambdaProlog concrete syntax; its
literal mode shows each binder without a premise as ``pi X\\ (true => D)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union

from . import lf_syntax as lf
from . import strictness
from .hterms import (
    LF_OBJ, LF_TYPE, PROP, App, Atom, BVar, Const, Formula, ForAll, Imp,
    Lam, LVar, Program, SimpleType, TArrow, Term,
    fresh_lvar_at, term_spine,
)
from .lf_kernel import (
    LFTypeError, beta_normalize, check_type, instantiate_normal,
    normal_classifier,
)


class TranslationError(lf.LFError):
    pass


HASTYPE = "hastype"
HASTYPE_TY = TArrow(LF_OBJ, TArrow(LF_TYPE, PROP))


# ---------------------------------------------------------------------------
# phi and the term encoding

def phi(e: Union[lf.Kind, lf.Fam]) -> SimpleType:
    match e:
        case lf.KType():
            return LF_TYPE
        case lf.KPi(_, dom, body) | lf.FPi(_, dom, body):
            return TArrow(phi(dom), phi(body))
        case lf.FConst() | lf.FApp():
            return LF_OBJ
    raise TranslationError(f"no simple type for {e!r}")


def _const_type(sig: lf.Signature, name: str) -> SimpleType:
    """phi of a constant's classifier, from the signature's table."""
    ty = sig.simple_types.get(name)
    if ty is None:
        classifier = sig.lookup(name)
        if classifier is None:
            raise TranslationError(f"undeclared constant {name}")
        ty = sig.simple_types[name] = phi(classifier)
    return ty


def encode(sig: lf.Signature, e: Union[lf.Obj, lf.Fam],
           env: dict[str, Term]) -> Term:
    """The term of an object or a base type family; `env` maps the LF
    variables in scope to their terms."""
    match e:  # the commonest nodes first: bound variables, applications
        case lf.OVar(name):
            if name not in env:
                raise TranslationError(f"unbound variable {name}")
            return env[name]
        case lf.FApp(fn, arg) | lf.OApp(fn, arg):
            return App(encode(sig, fn, env), encode(sig, arg, env))
        case lf.OConst(name) | lf.FConst(name):
            return Const(name, _const_type(sig, name))
        case lf.OLam(var, dom, body):
            ty = phi(dom)
            inner = dict(env)
            inner[var] = BVar(var, ty)
            return Lam(var, ty, encode(sig, body, inner))
        case lf.FPi():
            raise TranslationError("only base types have term encodings")
    raise TranslationError(f"cannot encode {e!r}")


# ---------------------------------------------------------------------------
# Judgment translations

def translate_judgment(sig: lf.Signature, a: lf.Fam, subject: Term,
                       mode: str = "optimized", positive: bool = True,
                       env: Optional[dict[str, Term]] = None) -> Formula:
    """The formula asserting that `subject` inhabits `a`.

    Each Pi binder gets a premise: the translation of its type at the
    opposite polarity.  In optimized mode a positive position first runs
    the strictness analysis, and its strict binders get no premise.
    The subject is a constant or a bound variable, applied here only to
    bound variables, so no redex arises and nothing is normalized.
    """
    env = dict(env or {})
    binders, base = lf.split_fam_pis(a)
    strict = (strictness.strict_binders(a) if mode == "optimized" and positive
              else frozenset())
    prefix = []
    for i, (var, dom) in enumerate(binders):
        ty = phi(dom)
        x = BVar(var, ty)
        env[var] = x
        prefix.append((var, ty, None if i in strict else translate_judgment(
            sig, dom, x, mode, not positive, env)))
        subject = App(subject, x)
    f: Formula = Atom(HASTYPE, (subject, encode(sig, base, env)))
    for var, ty, premise in reversed(prefix):
        f = ForAll(var, ty, f if premise is None else Imp(premise, f))
    return f


def translate_signature(sig: lf.Signature, mode: str = "optimized") -> Program:
    """The program of `sig`, a signature or a view of one: one clause per
    object declaration it iterates, in order.  Mode is "naive" or
    "optimized"."""
    if mode not in ("naive", "optimized"):
        raise TranslationError(f"unknown mode {mode!r}")
    xi: list[tuple[str, SimpleType]] = [(HASTYPE, HASTYPE_TY)]
    clauses: list[Formula] = []
    for d in sig.decls:
        xi.append((d.name, _const_type(sig, d.name)))
        if isinstance(d, lf.ObjDecl):
            clauses.append(_clause(sig, d.name, mode))
    return Program(tuple(xi), tuple(clauses))


def _clause(sig: lf.Signature, name: str, mode: str) -> Formula:
    """The clause of object constant `name`, from the signature's table:
    each constant is translated at most once per signature and mode."""
    clause = sig.clauses.get((name, mode))
    if clause is None:
        clause = sig.clauses[name, mode] = translate_judgment(
            sig, normal_classifier(sig, name),
            Const(name, _const_type(sig, name)), mode)
    return clause


def reachable_signature(sig: lf.Signature, goal: Formula,
                        mode: str) -> lf.Signature:
    """The view of `sig` that a search for `goal` over its `mode`
    translation can use: the type families the goal reaches and the
    object constants whose target they are, in source order.

    A family is reached when it heads the type argument of a ``hastype``
    atom of `goal`, or of a translated clause of a family already
    reached.  The view translates to the same search as the whole
    signature.  Every goal of the search is an instance of an atom of
    `goal`, or of a clause or hypothesis of a reached family, since
    backchaining proves a clause's premises and an implication assumes
    a subformula of the goal it is part of.  LF families are
    constant-headed, so such an atom's type argument, and every instance
    of it, has a family constant as its last key, and the engine's
    candidates for a goal are the clauses filed under that key, in
    program order.  The view keeps every clause of a reached family, in
    order, so each goal has the same candidates, and backchains and
    solutions are unchanged."""
    families = [d.name if isinstance(d, lf.KindDecl)
                else lf.spine(lf.split_fam_pis(d.fam)[1])[0].name
                for d in sig.decls]
    by_family: dict[str, list[str]] = {}
    for d, family in zip(sig.decls, families):
        if isinstance(d, lf.ObjDecl):
            by_family.setdefault(family, []).append(d.name)
    reached: set[str] = set()
    todo = [goal]
    while todo:
        for family in _atom_families(todo.pop()):
            if family not in reached:
                reached.add(family)
                todo += (_clause(sig, name, mode)
                         for name in by_family.get(family, ()))
    return sig.view(tuple(
        d for d, family in zip(sig.decls, families) if family in reached))


def _atom_families(f: Formula) -> Iterator[str]:
    """The family constants heading the type arguments of the ``hastype``
    atoms of `f`."""
    stack = [f]
    while stack:
        match stack.pop():
            case Atom(pred, (_, ty)) if pred == HASTYPE:
                yield term_spine(ty)[0].name
            case Imp(left, right):
                stack += (left, right)
            case ForAll(_, _, body):
                stack.append(body)


# ---------------------------------------------------------------------------
# Query translation

def infer_query_var_types(sig: lf.Signature, free: tuple[str, ...],
                          a: lf.Fam) -> dict[str, lf.Fam]:
    """Assign each free query variable the LF type of its first argument
    position; verify consistency at later occurrences via the kernel."""
    types: dict[str, lf.Fam] = {}

    def scan_args(name: str, pi: Union[lf.Kind, lf.Fam], args: list[lf.Obj]):
        # each argument at its Pi binder's domain, instantiated by the
        # arguments before it
        sub: dict[str, lf.Obj] = {}
        for arg in args:
            if not isinstance(pi, (lf.KPi, lf.FPi)):
                raise TranslationError(f"too many arguments to {name}")
            scan_obj(arg, instantiate_normal(pi.dom, sub) if sub else pi.dom)
            sub[pi.var] = arg
            pi = pi.body

    def scan_obj(m: lf.Obj, expected: lf.Fam):
        if isinstance(m, lf.OLam):
            # the body at the Pi's codomain, the binder renamed apart
            if isinstance(expected, lf.FPi):
                var = lf.OVar(lf.fresh_name(m.var, {
                    *free, *lf.free_vars(m), *lf.free_vars(expected)}))
                scan_obj(instantiate_normal(m.body, {m.var: var}),
                         instantiate_normal(expected.body, {expected.var: var}))
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
            fam = normal_classifier(sig, ohead.name)
            if fam is None or isinstance(fam, (lf.KType, lf.KPi)):
                raise TranslationError(f"unknown object constant {ohead.name}")
            scan_args(ohead.name, fam, oargs)

    head, args = lf.spine(a)
    scan_args(head.name, normal_classifier(sig, head.name), args)
    missing = [n for n in free if n not in types]
    if missing:
        raise TranslationError(
            f"cannot infer a type for query variable {missing[0]}")
    return types


@dataclass(frozen=True)
class QueryTranslation:
    goal: Formula
    subject: LVar
    var_lvars: tuple[tuple[str, LVar], ...]
    var_types: dict[str, lf.Fam]
    fam: lf.Fam


def translate_query(sig: lf.Signature, free: tuple[str, ...],
                    a: lf.Fam) -> QueryTranslation:
    """The goal of the query type `a` with the free variables `free`, as
    `parse_query(text, sig)` returns them: `a` is a base type headed by
    a type constant of `sig`."""
    a = beta_normalize(a)
    var_types = infer_query_var_types(sig, free, a)
    # the query's variables live in the outermost universe, 0
    var_lvars = tuple((n, fresh_lvar_at(n, phi(var_types[n]), 0))
                      for n in free)
    env: dict[str, Term] = {n: v for n, v in var_lvars}
    try:
        # the inferred types are beta-normal: they are the query's context
        k = check_type(sig, var_types, a)
    except LFTypeError as err:
        raise TranslationError(f"ill-formed query type: {err}") from None
    if not isinstance(k, lf.KType):
        raise TranslationError("query type is not fully applied")
    subject = fresh_lvar_at("M", LF_OBJ, 0)
    # a base type has no binders, so either mode gives the one atom
    goal = translate_judgment(sig, a, subject, "naive", env=env)
    return QueryTranslation(goal, subject, var_lvars, var_types, a)


# ---------------------------------------------------------------------------
# lambdaProlog emission

_KEYWORDS = {"pi", "sigma", "type", "kind", "true", "o", "module", "sig"}


def _render_term(t: Term, env: dict[str, str],
                 rename: Callable[[str], str]) -> str:
    """`t` in lambdaProlog syntax.  `env` maps bound names to their
    printed names; `rename` names each lambda binder, outermost first."""
    match t:
        case BVar(name, _):
            return env.get(name, name)
        case Const(name, _):
            return name
        case Lam():
            env = dict(env)
            binders = []
            while isinstance(t, Lam):
                env[t.var] = name = rename(t.var)
                binders.append(name)
                t = t.body
            return "\\ ".join(binders) + "\\ " + _render_term(t, env, rename)
        case App():
            head, args = term_spine(t)
            return " ".join([_render_term(head, env, rename)]
                            + [_render_arg(a, env, rename) for a in args])
    raise TranslationError(f"cannot emit {t!r}")


def _render_arg(t: Term, env: dict[str, str],
                rename: Callable[[str], str]) -> str:
    s = _render_term(t, env, rename)
    return f"({s})" if isinstance(t, (App, Lam)) else s


def _render_clause(f: Formula, names: dict[str, bool],
                   literal: bool) -> str:
    """`f` in lambdaProlog syntax.  Quantifier binders are uppercased, and
    binders are renamed where needed to stay distinct from constants,
    keywords, and every term-level binder in the clause.  In literal
    mode a quantifier whose body is not an implication prints its body
    as ``true => D``: in a translated clause that is exactly a binder
    left without a premise, since every other binder has one.

    `names` is the emitter's two sets of names in one map, grown in
    place.  Its keys are the names taken: the forbidden ones (constants
    and keywords), the clause's quantifier names, and every lambda
    binder's own name, collected first so no quantifier takes one bound
    later in the clause.  The forbidden and quantifier names map to
    True: a lambda binder keeps clear of them.  Names are picked in
    print order, and the clause's names, each a new key, are popped
    again on return (a dict pops its newest key first)."""
    size = len(names)
    stack: list = [f]
    while stack:
        match stack.pop():
            case Imp(l, r) | App(l, r):
                stack += (l, r)
            case ForAll(_, _, body):
                stack.append(body)
            case Atom(_, args):
                stack.extend(args)
            case Lam(var, _, body):
                names.setdefault(var, False)
                stack.append(body)

    def pick(base: str) -> str:
        cand = base[0].upper() + base[1:] if base and base[0].islower() else base
        if not cand or not (cand[0].isalpha() or cand[0] == "_"):
            cand = "X"
        name = lf.fresh_name(cand, names)
        names[name] = True
        return name

    def pick_lam(base: str) -> str:
        if names[base]:
            base = lf.fresh_name(base, names)
            names[base] = False
        return base

    def go(g: Formula, env: dict[str, str]) -> str:
        match g:
            case Atom(pred, args):
                return " ".join([pred] + [_render_arg(a, env, pick_lam)
                                          for a in args])
            case Imp(left, right):
                ls = go(left, env)
                if isinstance(left, (Imp, ForAll)):
                    ls = f"({ls})"
                return f"{ls} => {go(right, env)}"
            case ForAll(var, _, body):
                name = pick(var)
                inner = go(body, {**env, var: name})
                if literal and not isinstance(body, Imp):
                    inner = f"true => {inner}"
                return f"pi {name}\\ ({inner})"
        raise TranslationError(f"cannot emit {g!r}")
    text = go(f, {})
    while len(names) > size:
        names.popitem()
    return text


def _emit_lines(p: Program, literal: bool) -> tuple[list[str], list[str]]:
    """The kind and type declarations and the clauses of `p`, one line
    each."""
    names = dict.fromkeys([n for n, _ in p.xi] + list(_KEYWORDS), True)
    decls = ["kind lf_obj type.", "kind lf_type type.", ""]
    decls += [f"type {name} {ty}." for name, ty in p.xi]
    clauses = [_render_clause(c, names, literal) + "." for c in p.clauses]
    return decls, clauses


def emit_lambdaprolog(p: Program, literal: bool = False) -> str:
    decls, clauses = _emit_lines(p, literal)
    return "\n".join(decls + [""] + clauses) + "\n"


def emit_split(p: Program, module: str = "lftrans",
               literal: bool = False) -> tuple[str, str]:
    """Separate declaration and clause files for Teyjus-style loaders."""
    decls, clauses = _emit_lines(p, literal)
    return ("\n".join([f"sig {module}.", ""] + decls) + "\n",
            "\n".join([f"module {module}.", ""] + clauses) + "\n")
