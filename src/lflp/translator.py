"""Translation of LF signatures into hereditary Harrop programs.

The bridge works at three levels:

* ``phi`` flattens dependent classifiers to simple types: every base
  type collapses to ``lf_obj``, every kind to ``lf_type``, and Pi
  becomes arrow.
* ``encode`` erases types from objects and base type families, keeping
  shape: constants stay themselves (retyped by phi), abstraction
  annotations become simple types, and an LF index is the same hohh
  index.  Each distinct subterm is encoded once, so the term shares
  what the LF term shares.
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
Program with one clause per object declaration, in declaration order,
each translated once per signature and mode (the signature's
``clauses`` table).  ``reachable_signature`` picks the view a query
needs, the type families its clauses can reach from the query's
family, so ``lflp solve`` compiles only those.  ``translate_query``
makes a query's goal; the kernel's `check_query` types its variables.

The emitter prints a Program in lambdaProlog concrete syntax; its
literal mode shows each binder without a premise as ``pi X\\ (true => D)``.
One renderer, `_render_term`, prints every term, an index by the stack
of printed binder names, at one frame of Python's stack per nested
argument, so a clause nests as deep as the parser reads.
"""

from __future__ import annotations

from typing import (
    Callable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union,
)

from . import lf_syntax as lf
from . import strictness
from .hterms import (
    LF_OBJ, LF_TYPE, PROP, App, Atom, BVar, Const, Formula, ForAll, Imp,
    Lam, LVar, Program, SimpleType, TArrow, Term,
    fresh_lvar_at, subst_term, term_spine,
)
from .lf_kernel import (
    LFTypeError, beta_normalize, check_query, normal_classifier, substitute,
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
           free: Mapping[str, Term], types: Sequence[SimpleType] = (),
           memo: Optional[dict[int, Term]] = None) -> Term:
    """The term of an object or a base type family under binders of the
    simple types `types`, innermost last: LF index i is hohh index i, of
    type ``types[-1 - i]``, and `free` maps each free LF variable to its
    closed term.  `memo` maps each subterm encoded under `types`, by
    identity, to its term, so the term shares what `e` shares."""
    if memo is None:
        types, memo = list(types), {}
    t = memo.get(id(e))
    if t is not None:
        return t
    match e:  # the commonest nodes first: bound variables, applications
        case lf.OBVar(index):
            t = BVar(index, types[-1 - index])
        case lf.FApp(fn, arg) | lf.OApp(fn, arg):
            t = App(encode(sig, fn, free, types, memo),
                    encode(sig, arg, free, types, memo))
        case lf.OConst(name) | lf.FConst(name):
            t = Const(name, _const_type(sig, name))
        case lf.OVar(name):
            t = free.get(name)
            if t is None:
                raise TranslationError(f"unbound variable {name}")
        case lf.OLam(var, dom, body):
            ty = phi(dom)
            types.append(ty)
            t = Lam(var, ty, encode(sig, body, free, types, {}))
            types.pop()
        case _:
            raise TranslationError(f"cannot encode {e!r}")
    memo[id(e)] = t
    return t


# ---------------------------------------------------------------------------
# Judgment translations

def translate_judgment(sig: lf.Signature, a: lf.Fam, subject: Term,
                       mode: str = "optimized", positive: bool = True,
                       free: Optional[Mapping[str, Term]] = None,
                       types: Sequence[SimpleType] = ()) -> Formula:
    """The formula asserting that `subject` inhabits `a`, both under
    binders of the simple types `types`, with `free` as `encode` reads
    it.  Each Pi binder gets a premise: the translation of its type at
    the opposite polarity, lifted over the binder's own quantifier.  In
    optimized mode a positive position first runs the strictness
    analysis, and its strict binders get no premise.  The subject is a
    constant or a bound variable, applied here only to bound variables,
    so no redex arises and nothing is normalized."""
    free = free or {}
    types = list(types)
    binders, base = lf.split_fam_pis(a)
    strict = (strictness.strict_binders(a) if mode == "optimized" and positive
              else frozenset())
    prefix = []
    n = len(binders)
    subject = subst_term(subject, (), n)
    for i, (var, dom) in enumerate(binders):
        ty = phi(dom)
        types.append(ty)
        prefix.append((var, ty, None if i in strict else translate_judgment(
            sig, substitute(dom, (), 1), BVar(0, ty), mode, not positive,
            free, types)))
        subject = App(subject, BVar(n - 1 - i, ty))
    f: Formula = Atom(HASTYPE, (subject, encode(sig, base, free, types)))
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

class QueryTranslation(NamedTuple):
    goal: Formula
    subject: LVar
    var_lvars: tuple[tuple[str, LVar], ...]
    var_types: dict[str, lf.Fam]
    fam: lf.Fam


def translate_query(sig: lf.Signature, free: tuple[str, ...],
                    a: lf.Fam) -> QueryTranslation:
    """The goal of the query type `a` with the free variables `free`, as
    `parse_query(text, sig)` returns them: `a` is a base type headed by
    a type constant of `sig`.  Too many arguments to it, or one holding a
    constant that is no object constant (the first in the kernel's
    order), is refused in the translator's words.  The goal is built
    from the normal form of `a`; `fam` keeps `a` as parsed."""
    head, args = lf.spine(a)
    arity = len(lf.pi_dependencies(sig.lookup(head.name)))
    for arg in args[:arity]:
        for c, _ in lf.leaves(arg):
            if type(c) is lf.OConst and not isinstance(
                    sig.lookup(c.name), (lf.FConst, lf.FApp, lf.FPi)):
                raise TranslationError(f"unknown object constant {c.name}")
    if len(args) > arity:
        raise TranslationError(f"too many arguments to {head.name}")
    try:
        k, normal, var_types = check_query(sig, free, a)
    except LFTypeError as err:
        raise TranslationError(f"ill-formed query type: {err}" if err.rule
                               else err.message) from None
    if not isinstance(k, lf.KType):
        raise TranslationError("query type is not fully applied")
    # the query's variables live in the outermost universe, 0
    var_lvars = tuple((n, fresh_lvar_at(n, phi(var_types[n]), 0))
                      for n in free)
    subject = fresh_lvar_at("M", LF_OBJ, 0)
    # a base type has no binders, so either mode gives the one atom
    goal = translate_judgment(sig, a if normal else beta_normalize(a),
                              subject, "naive", free=dict(var_lvars))
    return QueryTranslation(goal, subject, var_lvars, var_types, a)


# ---------------------------------------------------------------------------
# lambdaProlog emission

_KEYWORDS = {"pi", "sigma", "type", "kind", "true", "o", "module", "sig"}


def _render_term(t: Term, env: tuple[str, ...],
                 rename: Callable[[str], str], arg: bool = False) -> str:
    """`t` in lambdaProlog syntax, parenthesized when it is an argument
    (`arg`) and an application or a lambda.  `env` holds the printed
    names of the binders above `t`, innermost last, so index i prints as
    ``env[-1 - i]``; `rename` names each lambda binder, outermost first.
    Each nested argument costs one frame of Python's stack."""
    match t:
        case BVar(index, _):
            return env[-1 - index]
        case Const(name, _):
            return name
        case Lam():
            binders = []
            while isinstance(t, Lam):
                binders.append(rename(t.var))
                t = t.body
            s = ("\\ ".join(binders) + "\\ "
                 + _render_term(t, env + tuple(binders), rename))
        case App():
            head, args = term_spine(t)
            parts = [_render_term(head, env, rename)]
            for a in args:
                parts.append(_render_term(a, env, rename, True))
            s = " ".join(parts)
        case _:
            raise TranslationError(f"cannot emit {t!r}")
    return f"({s})" if arg else s


def _render_clause(f: Formula, names: dict[str, bool],
                   literal: bool) -> str:
    """`f` in lambdaProlog syntax.  Quantifier binders are uppercased, and
    binders are renamed where needed to stay distinct from constants,
    keywords, and every term-level binder in the clause.  In literal
    mode a quantifier whose body is not an implication, in a translated
    clause a binder without a premise, prints its body as ``true => D``.

    `names` maps each name taken to whether a lambda binder must keep
    clear of it: True for the constants, keywords and quantifier names,
    False for the clause's lambda names, collected first (in one walk
    that visits a shared subterm once) so no quantifier takes one bound
    later.  The clause's names, each a new key, are popped on return
    (a dict pops its newest key first)."""
    size = len(names)
    stack: list = [f]
    seen: set[int] = set()
    while stack:
        g = stack.pop()
        if id(g) in seen:
            # a shared subterm binds the same lambda names wherever it
            # occurs
            continue
        seen.add(id(g))
        match g:
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

    def go(g: Formula, env: tuple[str, ...]) -> str:
        match g:
            case Atom(pred, args):
                return " ".join([pred] + [_render_term(a, env, pick_lam, True)
                                          for a in args])
            case Imp(left, right):
                ls = go(left, env)
                if isinstance(left, (Imp, ForAll)):
                    ls = f"({ls})"
                return f"{ls} => {go(right, env)}"
            case ForAll(var, _, body):
                name = pick(var)
                inner = go(body, env + (name,))
                if literal and not isinstance(body, Imp):
                    inner = f"true => {inner}"
                return f"pi {name}\\ ({inner})"
        raise TranslationError(f"cannot emit {g!r}")
    text = go(f, ())
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
