"""Translation of LF signatures into hereditary Harrop programs.

The bridge works at three levels:

* ``phi`` flattens dependent classifiers to simple types: every base
  type collapses to ``lf_obj``, every kind to ``lf_type``, and Pi
  becomes arrow.
* ``encode_obj``/``encode_fam`` erase types from terms, keeping shape:
  constants stay themselves (retyped by phi), abstraction annotations
  become simple types.
* ``translate_judgment`` maps a classifier A and a subject term M to a
  formula asserting M inhabits A.  Each Pi binder of A gets a typing
  premise, the translation of its type with the polarity flipped: the
  clause's own binders sit at positive positions, the binders of their
  types at negative ones, and so on down.  The naive mode keeps every
  premise.  The optimized mode runs the strictness analysis once per
  positive position: a binder that occurs strictly in the rest of its
  type gets the trivial premise ``true`` instead, because any well-typed
  use already pins its instantiation.

``translate_signature`` packages a whole signature as a Program whose
clause order is declaration order.  Kind declarations contribute only
signature entries, never clauses.

The emitter prints a Program in lambdaProlog concrete syntax, and
``parse_lambdaprolog`` reads that same subset back (with simple-type
inference for quantifier binders), so tests can compare emitted text
with a golden file structurally instead of byte-by-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from . import lf_syntax as lf
from . import strictness
from .hterms import (
    LF_OBJ, LF_TYPE, PROP, App, Atom, BVar, Const, Formula, ForAll, Imp,
    Lam, LVar, Program, SimpleType, TArrow, TBase, Term, Top, beta_norm,
    term_spine,
)
from .lf_kernel import (
    LFTypeError, beta_normalize, check_type, normal_classifier, substitute,
)


class TranslationError(Exception):
    pass


HASTYPE = "hastype"
HASTYPE_TY = TArrow(LF_OBJ, TArrow(LF_TYPE, PROP))


# ---------------------------------------------------------------------------
# phi and the term encoding

def phi(e: Union[lf.Kind, lf.Fam]) -> SimpleType:
    match e:
        case lf.KType():
            return LF_TYPE
        case lf.KPi(_, dom, body):
            return TArrow(phi(dom), phi(body))
        case lf.FPi(_, dom, body):
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


def encode_obj(sig: lf.Signature, m: lf.Obj, env: dict[str, Term]) -> Term:
    match m:
        case lf.OConst(name):
            return Const(name, _const_type(sig, name))
        case lf.OVar(name):
            if name not in env:
                raise TranslationError(f"unbound variable {name}")
            return env[name]
        case lf.OLam(var, dom, body):
            ty = phi(dom)
            inner = dict(env)
            inner[var] = BVar(var, ty)
            return Lam(var, ty, encode_obj(sig, body, inner))
        case lf.OApp(fn, arg):
            return App(encode_obj(sig, fn, env), encode_obj(sig, arg, env))
    raise TranslationError(f"cannot encode {m!r}")


def encode_fam(sig: lf.Signature, a: lf.Fam, env: dict[str, Term]) -> Term:
    match a:
        case lf.FConst(name):
            return Const(name, _const_type(sig, name))
        case lf.FApp(fam, arg):
            return App(encode_fam(sig, fam, env), encode_obj(sig, arg, env))
        case lf.FPi():
            raise TranslationError("only base types have term encodings")
    raise TranslationError(f"cannot encode {a!r}")


# ---------------------------------------------------------------------------
# Judgment translations

def translate_judgment(sig: lf.Signature, a: lf.Fam, subject: Term,
                       mode: str = "optimized", positive: bool = True,
                       env: Optional[dict[str, Term]] = None) -> Formula:
    """The formula asserting that `subject` inhabits `a`.

    Each Pi binder gets a premise: the translation of its type at the
    opposite polarity.  In optimized mode a positive position first runs
    the strictness analysis, and its strict binders get ``true`` instead.
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
        if i in strict:
            premise: Formula = Top()
        else:
            premise = translate_judgment(sig, dom, x, mode, not positive, env)
        prefix.append((var, ty, premise))
        subject = beta_norm(App(subject, x))
    f: Formula = Atom(HASTYPE, (beta_norm(subject), encode_fam(sig, base, env)))
    for var, ty, premise in reversed(prefix):
        f = ForAll(var, ty, Imp(premise, f))
    return f


def translate_signature(sig: lf.Signature, mode: str = "optimized",
                        simplify: bool = True) -> Program:
    """Whole-signature translation; mode is "naive" or "optimized"."""
    if mode not in ("naive", "optimized"):
        raise TranslationError(f"unknown mode {mode!r}")
    xi: list[tuple[str, SimpleType]] = [(HASTYPE, HASTYPE_TY)]
    clauses: list[Formula] = []
    for d in sig.decls:
        ty = _const_type(sig, d.name)
        xi.append((d.name, ty))
        if isinstance(d, lf.ObjDecl):
            a = normal_classifier(sig, d.name)
            clauses.append(translate_judgment(sig, a, Const(d.name, ty), mode))
    program = Program(tuple(xi), tuple(clauses))
    return simplify_program(program) if simplify else program


def simplify_top(f: Formula) -> Formula:
    """Drop `true =>` premise wrappers; provability is unchanged."""
    match f:
        case Imp(Top(), right):
            return simplify_top(right)
        case Imp(left, right):
            return Imp(simplify_top(left), simplify_top(right))
        case ForAll(var, ty, body):
            return ForAll(var, ty, simplify_top(body))
        case _:
            return f


def simplify_program(p: Program) -> Program:
    return Program(p.xi, tuple(simplify_top(c) for c in p.clauses))


# ---------------------------------------------------------------------------
# Query translation

def infer_query_var_types(sig: lf.Signature, free: tuple[str, ...],
                          a: lf.Fam) -> dict[str, lf.Fam]:
    """Assign each free query variable the LF type of its first argument
    position; verify consistency at later occurrences via the kernel."""
    types: dict[str, lf.Fam] = {}

    def scan(fam: lf.Fam):
        head, args = lf.fam_spine(fam)
        if not isinstance(head, lf.FConst):
            raise TranslationError("query type must be constant-headed")
        kind = normal_classifier(sig, head.name)
        if not isinstance(kind, (lf.KType, lf.KPi)):
            raise TranslationError(f"{head.name} is not a type constant")
        sub: dict[str, lf.Obj] = {}
        for arg in args:
            if not isinstance(kind, lf.KPi):
                raise TranslationError(f"too many arguments to {head.name}")
            expected = beta_normalize(substitute(kind.dom, sub))
            scan_obj(arg, expected)
            sub = dict(sub)
            sub[kind.var] = arg
            kind = kind.body

    def scan_obj(m: lf.Obj, expected: lf.Fam):
        ohead, oargs = lf.obj_spine(m)
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
            sub: dict[str, lf.Obj] = {}
            for arg in oargs:
                if not isinstance(fam, lf.FPi):
                    raise TranslationError(f"too many arguments to {ohead.name}")
                scan_obj(arg, beta_normalize(substitute(fam.dom, sub)))
                sub = dict(sub)
                sub[fam.var] = arg
                fam = fam.body

    scan(a)
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
    from .hterms import fresh_lvar
    a = beta_normalize(a)
    var_types = infer_query_var_types(sig, free, a)
    var_lvars = tuple((n, fresh_lvar(n, phi(var_types[n]))) for n in free)
    env: dict[str, Term] = {n: v for n, v in var_lvars}
    ctx = lf.Context(tuple((n, var_types[n]) for n in free))
    try:
        k = check_type(sig, ctx, a)
    except LFTypeError as err:
        raise TranslationError(f"ill-formed query type: {err}") from None
    if not isinstance(k, lf.KType):
        raise TranslationError("query type is not fully applied")
    subject = fresh_lvar("M", LF_OBJ)
    goal = Atom(HASTYPE, (subject, encode_fam(sig, a, env)))
    return QueryTranslation(goal, subject, var_lvars, var_types, a)


# ---------------------------------------------------------------------------
# lambdaProlog emission

_KEYWORDS = {"pi", "sigma", "type", "kind", "true", "o", "module", "sig"}


def _render_term(t: Term) -> str:
    match t:
        case Const(name, _) | BVar(name, _):
            return name
        case Lam():
            binders = []
            while isinstance(t, Lam):
                binders.append(t.var)
                t = t.body
            inner = _render_term(t)
            return "\\ ".join(binders) + "\\ " + inner
        case App():
            head, args = term_spine(t)
            out = [_render_term(head)]
            for a in args:
                s = _render_term(a)
                out.append(f"({s})" if isinstance(a, (App, Lam)) else s)
            return " ".join(out)
    raise TranslationError(f"cannot emit {t!r}")


def _render_formula(f: Formula) -> str:
    match f:
        case Top():
            return "true"
        case Atom(pred, args):
            out = [pred]
            for a in args:
                s = _render_term(a)
                out.append(f"({s})" if isinstance(a, (App, Lam)) else s)
            return " ".join(out)
        case Imp(left, right):
            ls = _render_formula(left)
            if isinstance(left, (Imp, ForAll)):
                ls = f"({ls})"
            return f"{ls} => {_render_formula(right)}"
        case ForAll(var, _, body):
            return f"pi {var}\\ ({_render_formula(body)})"
    raise TranslationError(f"cannot emit {f!r}")


def _rename_clause(f: Formula, forbidden: frozenset[str]) -> Formula:
    """Uppercase quantifier binders for emission, keeping names distinct
    from constants, keywords, and every term-level binder in the clause."""
    lam_names: set[str] = set()
    upper_taken: set[str] = set()

    def collect(g: Formula):
        match g:
            case Imp(l, r):
                collect(l)
                collect(r)
            case ForAll(_, _, b):
                collect(b)
            case Atom(_, args):
                for a in args:
                    collect_term(a)
            case _:
                pass

    def collect_term(t: Term):
        match t:
            case Lam(var, _, body):
                lam_names.add(var)
                collect_term(body)
            case App(fn, arg):
                collect_term(fn)
                collect_term(arg)
            case _:
                pass

    collect(f)

    def pick(base: str) -> str:
        cand = base[0].upper() + base[1:] if base and base[0].islower() else base
        if not cand or not (cand[0].isalpha() or cand[0] == "_"):
            cand = "X"
        name = cand
        i = 1
        while name in upper_taken or name in forbidden or name in lam_names:
            name = f"{cand}{i}"
            i += 1
        upper_taken.add(name)
        return name

    def pick_lam(base: str) -> str:
        if base not in forbidden and base not in upper_taken:
            return base
        name = base
        i = 1
        while name in forbidden or name in upper_taken or name in lam_names:
            name = f"{base}{i}"
            i += 1
        lam_names.add(name)
        return name

    def go(g: Formula, env: dict[str, str]) -> Formula:
        match g:
            case Top():
                return g
            case Atom(pred, args):
                return Atom(pred, tuple(go_term(a, env) for a in args))
            case Imp(l, r):
                return Imp(go(l, env), go(r, env))
            case ForAll(var, ty, body):
                nv = pick(var)
                inner = dict(env)
                inner[var] = nv
                return ForAll(nv, ty, go(body, inner))
        raise TranslationError(f"cannot rename {g!r}")

    def go_term(t: Term, env: dict[str, str]) -> Term:
        match t:
            case BVar(name, ty):
                return BVar(env.get(name, name), ty)
            case Lam(var, ty, body):
                nv = pick_lam(var)
                inner = dict(env)
                inner[var] = nv
                return Lam(nv, ty, go_term(body, inner))
            case App(fn, arg):
                return App(go_term(fn, env), go_term(arg, env))
            case _:
                return t
    return go(f, {})


def _emit_lines(p: Program) -> tuple[list[str], list[str]]:
    """The kind and type declarations and the clauses of `p`, one line
    each."""
    forbidden = frozenset(n for n, _ in p.xi) | frozenset(_KEYWORDS)
    decls = ["kind lf_obj type.", "kind lf_type type.", ""]
    decls += [f"type {name} {ty}." for name, ty in p.xi]
    clauses = [_render_formula(_rename_clause(c, forbidden)) + "."
               for c in p.clauses]
    return decls, clauses


def emit_lambdaprolog(p: Program) -> str:
    decls, clauses = _emit_lines(p)
    return "\n".join(decls + [""] + clauses) + "\n"


def emit_split(p: Program, module: str = "lftrans") -> tuple[str, str]:
    """Separate declaration and clause files for Teyjus-style loaders."""
    decls, clauses = _emit_lines(p)
    return ("\n".join([f"sig {module}.", ""] + decls) + "\n",
            "\n".join([f"module {module}.", ""] + clauses) + "\n")


# ---------------------------------------------------------------------------
# Reading the emitted subset back

class LPSyntaxError(Exception):
    pass


@dataclass
class _RName:
    name: str


@dataclass
class _RApp:
    fn: "._RAst"
    arg: "._RAst"


@dataclass
class _RLam:
    var: str
    body: "._RAst"


@dataclass
class _RImp:
    left: "._RAst"
    right: "._RAst"


_RAst = Union[_RName, _RApp, _RLam, _RImp]


def _lp_tokens(text: str) -> list[str]:
    toks: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
        elif c == "%":
            while i < n and text[i] != "\n":
                i += 1
        elif text.startswith("->", i):
            toks.append("->")
            i += 2
        elif text.startswith("=>", i):
            toks.append("=>")
            i += 2
        elif c in "().\\":
            toks.append(c)
            i += 1
        elif c.isalnum() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            toks.append(text[i:j])
            i = j
        else:
            raise LPSyntaxError(f"unexpected character {c!r}")
    return toks


class _LPReader:
    def __init__(self, toks: list[str]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> str:
        t = self.peek()
        if t is None:
            raise LPSyntaxError("unexpected end of input")
        self.pos += 1
        return t

    def expect(self, t: str):
        got = self.next()
        if got != t:
            raise LPSyntaxError(f"expected {t!r}, found {got!r}")

    def parse_ty(self) -> SimpleType:
        left = self.parse_ty_atom()
        if self.peek() == "->":
            self.next()
            return TArrow(left, self.parse_ty())
        return left

    def parse_ty_atom(self) -> SimpleType:
        t = self.next()
        if t == "(":
            ty = self.parse_ty()
            self.expect(")")
            return ty
        if not (t[0].isalpha() or t[0] == "_"):
            raise LPSyntaxError(f"bad type token {t!r}")
        return TBase(t)

    def parse_expr(self) -> _RAst:
        left = self.parse_app()
        if self.peek() == "=>":
            self.next()
            return _RImp(left, self.parse_expr())
        return left

    def parse_app(self) -> _RAst:
        out = self.parse_atom_or_lam()
        while True:
            nxt = self.peek()
            if nxt in (None, ")", ".", "=>"):
                return out
            out = _RApp(out, self.parse_atom_or_lam())

    def parse_atom_or_lam(self) -> _RAst:
        t = self.peek()
        if t == "(":
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        name = self.next()
        if not (name[0].isalpha() or name[0] == "_"):
            raise LPSyntaxError(f"unexpected token {name!r}")
        if self.peek() == "\\":
            self.next()
            return _RLam(name, self.parse_expr())
        return _RName(name)


class _TyMeta:
    __slots__ = ("link",)

    def __init__(self):
        self.link: Optional[object] = None


def _ty_resolve(ty):
    while isinstance(ty, _TyMeta) and ty.link is not None:
        ty = ty.link
    return ty


def _ty_unify(a, b):
    a, b = _ty_resolve(a), _ty_resolve(b)
    if a is b:
        return
    if isinstance(a, _TyMeta):
        a.link = b
        return
    if isinstance(b, _TyMeta):
        b.link = a
        return
    if isinstance(a, TBase) and isinstance(b, TBase) and a.name == b.name:
        return
    if isinstance(a, TArrow) and isinstance(b, TArrow):
        _ty_unify(a.dom, b.dom)
        _ty_unify(a.cod, b.cod)
        return
    raise LPSyntaxError(f"type mismatch: {a} vs {b}")


def _ty_final(ty) -> SimpleType:
    ty = _ty_resolve(ty)
    if isinstance(ty, _TyMeta):
        raise LPSyntaxError("could not infer a binder type")
    if isinstance(ty, TArrow):
        return TArrow(_ty_final(ty.dom), _ty_final(ty.cod))
    return ty


def _formulize(ast: _RAst, xi: dict[str, SimpleType]) -> Formula:
    binder_tys: dict[int, object] = {}

    def infer(a: _RAst, env: dict[str, object]):
        match a:
            case _RName(name):
                if name in env:
                    return env[name]
                if name == "true":
                    return PROP
                if name in xi:
                    return xi[name]
                raise LPSyntaxError(f"unknown identifier {name!r}")
            case _RImp(l, r):
                _ty_unify(infer(l, env), PROP)
                _ty_unify(infer(r, env), PROP)
                return PROP
            case _RApp(_RName("pi"), _RLam(var, body)) if "pi" not in env:
                tv = _TyMeta()
                binder_tys[id(a)] = tv
                inner = dict(env)
                inner[var] = tv
                _ty_unify(infer(body, inner), PROP)
                return PROP
            case _RApp(fn, arg):
                tf = infer(fn, env)
                ta = infer(arg, env)
                tr = _TyMeta()
                _ty_unify(tf, TArrow(ta, tr))
                return tr
            case _RLam(var, body):
                tv = _TyMeta()
                binder_tys[id(a)] = tv
                inner = dict(env)
                inner[var] = tv
                return TArrow(tv, infer(body, inner))
        raise LPSyntaxError(f"cannot type {a!r}")

    top_ty = infer(ast, {})
    _ty_unify(top_ty, PROP)

    def build_formula(a: _RAst, env: dict[str, SimpleType]) -> Formula:
        match a:
            case _RName("true"):
                return Top()
            case _RImp(l, r):
                return Imp(build_formula(l, env), build_formula(r, env))
            case _RApp(_RName("pi"), _RLam(var, body) as lam) if "pi" not in env:
                ty = _ty_final(binder_tys[id(a)])
                inner = dict(env)
                inner[var] = ty
                return ForAll(var, ty, build_formula(body, inner))
            case _:
                head, args = _rast_spine(a)
                if not isinstance(head, _RName) or head.name in env:
                    raise LPSyntaxError(f"bad atomic formula head: {a!r}")
                return Atom(head.name,
                            tuple(build_term(x, env) for x in args))

    def build_term(a: _RAst, env: dict[str, SimpleType]) -> Term:
        match a:
            case _RName(name):
                if name in env:
                    return BVar(name, env[name])
                return Const(name, xi[name])
            case _RApp(fn, arg):
                return App(build_term(fn, env), build_term(arg, env))
            case _RLam(var, body) as lam:
                ty = _ty_final(binder_tys[id(lam)])
                inner = dict(env)
                inner[var] = ty
                return Lam(var, ty, build_term(body, inner))
        raise LPSyntaxError(f"cannot build term from {a!r}")

    return build_formula(ast, {})


def _rast_spine(a: _RAst):
    args = []
    while isinstance(a, _RApp):
        args.append(a.arg)
        a = a.fn
    args.reverse()
    return a, args


def parse_lambdaprolog(text: str) -> Program:
    """Read the subset of lambdaProlog this module emits."""
    reader = _LPReader(_lp_tokens(text))
    xi: list[tuple[str, SimpleType]] = []
    xi_map: dict[str, SimpleType] = {"o": PROP}
    clauses: list[Formula] = []
    while reader.peek() is not None:
        tok = reader.peek()
        if tok == "kind":
            reader.next()
            reader.next()  # sort name
            reader.expect("type")
            reader.expect(".")
        elif tok == "type":
            reader.next()
            name = reader.next()
            ty = reader.parse_ty()
            reader.expect(".")
            xi.append((name, ty))
            xi_map[name] = ty
        elif tok in ("sig", "module"):
            reader.next()
            reader.next()
            reader.expect(".")
        else:
            ast = reader.parse_expr()
            reader.expect(".")
            clauses.append(_formulize(ast, xi_map))
    return Program(tuple(xi), tuple(clauses))
