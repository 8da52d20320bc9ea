"""Algorithmic term typing.

Synthesis-only: subsumption is confined to explicit ascriptions and the
compatibility checks inside application, assignment, and annotation
enforcement. Every rejection carries exactly one primary error code.
`synth` dispatches through one rule table, `_SYNTH`. λ and Λ share their
rules, since `tfn f[X^x <: T^q]` is an abstraction whose parameter is
X^x: `_abstraction` serves T-Abs and T-TAbs, `_application` T-App and
T-TApp. Running out of subtyping fuel is never a rejection:
`FuelExhausted` reaches the caller as it is. `Retyper` types the
successive terms of a machine run as `check_program` does, reusing what
it synthesized for a closed λ or Λ that a step left as it was.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .errors import CheckError, InternalError
from .qualifiers import overlap, qual_sub
from .subtyping import DEFAULT_FUEL, type_sub
from .surface import pretty as _pretty
from .syntax import (
    EMPTY_SUBSTITUTION, Abs, All, App, Ascribe, Assign, Const, Deref, Fun,
    INT, Let, LocTerm, LocAtom, QualifiedType, Qualifier, RefAlloc, RefT,
    StoreTyping, TAbs, TApp, TermBind, Term, Top, TypeBind, TypeEnv, UNIT,
    UnitLit, Var, VarAtom, free_atoms_qtype, free_atoms_type, free_term_atoms,
    telescope_ok, value_qualifier, well_scoped_qtype,
)

# Error codes
UNBOUND_VAR = "UnboundVar"
UNOBSERVABLE = "Unobservable"
FRESHNESS_VIOLATION = "FreshnessViolation"
OVERLAP_VIOLATION = "OverlapViolation"
QUALIFIER_MISMATCH = "QualifierMismatch"
TYPE_MISMATCH = "TypeMismatch"
REF_CONTENT_FRESH = "RefContentFresh"
DEPENDENCY_VIOLATION = "DependencyViolation"
SCOPE_ERROR = "ScopeError"

# What the application rule calls its trace entry, the argument, the
# parameter it is checked against and the applied abstraction.
_APP = ("t-app", "argument", "parameter", "function")
_TAPP = ("t-tapp", "type argument", "bound", "abstraction")


@dataclass
class TypingResult:
    qtype: QualifiedType
    trace: List[str] = field(default_factory=list)


class _Checker:
    def __init__(self, store: StoreTyping, fuel: int = DEFAULT_FUEL):
        self.store = store
        self.fuel = fuel
        self.trace: List[str] = []

    # -- helpers ----------------------------------------------------------

    def _sub_qtype(self, env: TypeEnv, have: QualifiedType,
                   want: QualifiedType, what: str):
        """Enforce have <: want, mapping failures to error codes."""
        if not qual_sub(env, self.store, have.q, want.q):
            raise CheckError(
                QUALIFIER_MISMATCH,
                f"{what}: qualifier {_pretty(have.q)} is not below "
                f"{_pretty(want.q)}")
        if not type_sub(env, self.store, have.ty, want.ty, self.fuel):
            raise CheckError(
                TYPE_MISMATCH,
                f"{what}: type {_pretty(have.ty)} is not a subtype of "
                f"{_pretty(want.ty)}")

    def _require_scoped(self, env: TypeEnv, qty: QualifiedType, what: str):
        if not well_scoped_qtype(qty, env, self.store):
            raise CheckError(SCOPE_ERROR,
                             f"{what} mentions names not in scope: {_pretty(qty)}")

    def _observable(self, q: Qualifier, phi: frozenset, what: str,
                    extra: frozenset = frozenset()):
        missing = q.atoms - phi - extra
        if missing:
            missing = ", ".join(sorted(a.render() for a in missing))
            raise CheckError(UNOBSERVABLE, f"{what}: {missing} not observable")

    # -- the rules λ and Λ share ------------------------------------------

    def _abstraction(self, env: TypeEnv, phi: frozenset, t, param: str,
                     binding, self_type, what: str):
        """T-Abs and T-TAbs: an observable capture (the free variables,
        or a non-fresh annotation, which fails in the body if it omits a
        used one); the body typed under the self-reference, of type
        `self_type(stub)`, and `binding`. Returns (capture, body
        environment, body type)."""
        if t.capture is not None and t.capture.fresh:
            raise CheckError(
                FRESHNESS_VIOLATION,
                f"{what} capture annotation {_pretty(t.capture)} "
                f"may not be fresh")
        capture = value_qualifier(t)
        self._observable(capture, phi, f"{what} capture qualifier")
        f_atom, x_atom = VarAtom(t.self_name), VarAtom(param)
        # recursion needs an annotation; Top here is a safe stub
        stub = QualifiedType(Top(), Qualifier(True, frozenset({f_atom, x_atom})))
        inner_env = (env
                     .extended(TermBind(t.self_name,
                                        QualifiedType(self_type(stub), capture)))
                     .extended(binding))
        body_q = self.synth(inner_env, capture.atoms | {f_atom, x_atom}, t.body)
        return capture, inner_env, body_q

    def _application(self, env: TypeEnv, phi: frozenset, qf: Qualifier,
                     arg: QualifiedType, dom: QualifiedType,
                     cod: QualifiedType, param: str, self_name: str, nouns):
        """T-App and T-TApp after their preludes: the argument (or type
        argument) against the domain (or bound), freshness or overlap, no
        fresh parameter or self name in the result type, and an
        observable result qualifier."""
        rule, what, domain, callee = nouns
        if not type_sub(env, self.store, arg.ty, dom.ty, self.fuel):
            raise CheckError(
                TYPE_MISMATCH,
                f"{what} type {_pretty(arg.ty)} does not match "
                f"{domain} type {_pretty(dom.ty)}")
        d, pa = dom.q, arg.q
        # always holds for a synthesized argument; a type argument is checked
        self._observable(pa, phi, f"{what} qualifier")
        if not d.fresh:
            if pa.fresh:
                raise CheckError(
                    FRESHNESS_VIOLATION,
                    f"fresh {what} {_pretty(pa)} passed to non-fresh "
                    f"{domain} {_pretty(d)}")
            if not qual_sub(env, self.store, pa, d):
                raise CheckError(
                    QUALIFIER_MISMATCH,
                    f"{what} qualifier {_pretty(pa)} is not below "
                    f"{domain} qualifier {_pretty(d)}")
            self.trace.append(rule)
        else:
            ov = overlap(env, self.store, pa, qf)
            if not qual_sub(env, self.store, ov, d):
                raise CheckError(
                    OVERLAP_VIOLATION,
                    f"observable overlap {_pretty(ov)} of {what} "
                    f"{_pretty(pa)} and {callee} {_pretty(qf)} exceeds "
                    f"{domain} qualifier {_pretty(d)}")
            self.trace.append(f"{rule}-fresh overlap check")
        if pa.fresh or qf.fresh:
            fv_u = free_atoms_type(cod.ty)
            for fresh, name, noun in ((pa.fresh, param, what),
                                      (qf.fresh, self_name, callee)):
                if fresh and VarAtom(name) in fv_u:
                    raise CheckError(
                        DEPENDENCY_VIOLATION,
                        f"result type depends on {name} but the {noun} is fresh")
        self._observable(cod.q, phi, "result qualifier",
                         frozenset({VarAtom(param), VarAtom(self_name)}))

    # -- synthesis --------------------------------------------------------

    def synth(self, env: TypeEnv, phi: frozenset, t: Term) -> QualifiedType:
        rule = _SYNTH.get(type(t))
        if rule is None:
            raise CheckError(TYPE_MISMATCH, f"cannot type {t!r}")
        return rule(self, env, phi, t)

    def _cst(self, env: TypeEnv, phi: frozenset, t) -> QualifiedType:
        self.trace.append("t-cst")
        return QualifiedType(INT if type(t) is Const else UNIT, Qualifier())

    def _var(self, env: TypeEnv, phi: frozenset, t: Var) -> QualifiedType:
        bound = env.lookup_term(t.name)
        if bound is None:
            raise CheckError(UNBOUND_VAR, f"variable {t.name} is not bound")
        if VarAtom(t.name) not in phi:
            raise CheckError(UNOBSERVABLE,
                             f"variable {t.name} is not observable here")
        self.trace.append(f"t-var {t.name}")
        return QualifiedType(bound.ty,
                             Qualifier(False, frozenset({VarAtom(t.name)})))

    def _loc(self, env: TypeEnv, phi: frozenset, t: LocTerm) -> QualifiedType:
        entry = self.store.get(t.loc)
        if entry is None:
            raise CheckError(UNBOUND_VAR, f"location @{t.loc} is not typed")
        if free_atoms_qtype(entry) - self.store.dom():
            raise CheckError(SCOPE_ERROR,
                             f"store entry for @{t.loc} is not closed")
        q = entry.q.with_atoms([LocAtom(t.loc)])
        self._observable(q, phi, f"location @{t.loc}")
        self.trace.append(f"t-loc @{t.loc}")
        return QualifiedType(RefT(entry), q)

    def _abs(self, env: TypeEnv, phi: frozenset, t: Abs) -> QualifiedType:
        self._require_scoped(env, t.dom, "parameter annotation")
        capture, inner_env, body_q = self._abstraction(
            env, phi, t, t.param, TermBind(t.param, t.dom),
            lambda stub: Fun(t.self_name, t.param, t.dom,
                             stub if t.cod is None else t.cod),
            "function")
        cod = body_q
        if t.cod is not None:
            self._require_scoped(inner_env, t.cod, "codomain annotation")
            self._sub_qtype(inner_env, body_q, t.cod, "codomain annotation")
            cod = t.cod
        self.trace.append(f"t-abs {t.self_name}")
        return QualifiedType(Fun(t.self_name, t.param, t.dom, cod), capture)

    def _tabs(self, env: TypeEnv, phi: frozenset, t: TAbs) -> QualifiedType:
        self._require_scoped(env, t.bound, "bound annotation")
        capture, _, body_q = self._abstraction(
            env, phi, t, t.qvar, TypeBind(t.tvar, t.qvar, t.bound),
            lambda stub: All(t.self_name, t.tvar, t.qvar, t.bound, stub),
            "type abstraction")
        self.trace.append(f"t-tabs {t.self_name}")
        return QualifiedType(
            All(t.self_name, t.tvar, t.qvar, t.bound, body_q), capture)

    def _app(self, env: TypeEnv, phi: frozenset, t: App) -> QualifiedType:
        fn_q = self.synth(env, phi, t.fn)
        if not isinstance(fn_q.ty, Fun):
            raise CheckError(TYPE_MISMATCH,
                             f"applied a non-function of type {_pretty(fn_q.ty)}")
        fun, qf = fn_q.ty, fn_q.q
        arg_q = self.synth(env, phi, t.arg)
        self._application(env, phi, qf, arg_q, fun.dom, fun.cod,
                          fun.param, fun.self_name, _APP)
        # U[p/x, q_f/f] at once: the parameter wins a shared name
        return (EMPTY_SUBSTITUTION.with_qual(fun.self_name, qf)
                .with_qual(fun.param, arg_q.q)(fun.cod))

    def _tapp(self, env: TypeEnv, phi: frozenset, t: TApp) -> QualifiedType:
        fn_q = self.synth(env, phi, t.fn)
        if not isinstance(fn_q.ty, All):
            raise CheckError(
                TYPE_MISMATCH,
                f"type-applied a non-universal of type {_pretty(fn_q.ty)}")
        univ, qf = fn_q.ty, fn_q.q
        self._require_scoped(env, t.arg, "type argument")
        self._application(env, phi, qf, t.arg, univ.bound, univ.body,
                          univ.qvar, univ.self_name, _TAPP)
        return (EMPTY_SUBSTITUTION.with_qual(univ.self_name, qf)
                .with_type(univ.tvar, univ.qvar, t.arg)(univ.body))

    def _ref(self, env: TypeEnv, phi: frozenset, t: RefAlloc) -> QualifiedType:
        init_q = self.synth(env, phi, t.init)
        if init_q.q.fresh:
            raise CheckError(
                REF_CONTENT_FRESH,
                f"reference content has fresh qualifier {_pretty(init_q.q)}")
        self.trace.append("t-ref")
        return QualifiedType(RefT(init_q), Qualifier(True, init_q.q.atoms))

    def _deref(self, env: TypeEnv, phi: frozenset, t: Deref) -> QualifiedType:
        ref_q = self.synth(env, phi, t.ref)
        if not isinstance(ref_q.ty, RefT):
            raise CheckError(TYPE_MISMATCH,
                             f"dereferenced a non-reference of type {_pretty(ref_q.ty)}")
        content = ref_q.ty.content
        if content.q.fresh:
            raise CheckError(FRESHNESS_VIOLATION,
                             "dereferenced content with a fresh qualifier")
        self._observable(content.q, phi, "dereferenced content")
        self.trace.append("t-deref")
        return content

    def _assign(self, env: TypeEnv, phi: frozenset, t: Assign) -> QualifiedType:
        lhs_q = self.synth(env, phi, t.lhs)
        if not isinstance(lhs_q.ty, RefT):
            raise CheckError(TYPE_MISMATCH,
                             f"assigned to a non-reference of type {_pretty(lhs_q.ty)}")
        content = lhs_q.ty.content
        if content.q.fresh:
            raise CheckError(FRESHNESS_VIOLATION,
                             "assigned through a fresh content qualifier")
        rhs_q = self.synth(env, phi, t.rhs)
        # the assigned value checks against the content's exact
        # qualified type (subsumption applies to the value only)
        if not qual_sub(env, self.store, rhs_q.q, content.q):
            raise CheckError(
                QUALIFIER_MISMATCH,
                f"assigned value qualifier {_pretty(rhs_q.q)} is not below "
                f"content qualifier {_pretty(content.q)}")
        if not type_sub(env, self.store, rhs_q.ty, content.ty, self.fuel):
            raise CheckError(
                TYPE_MISMATCH,
                f"assigned value type {_pretty(rhs_q.ty)} is not below "
                f"content type {_pretty(content.ty)}")
        self.trace.append("t-assgn")
        return QualifiedType(UNIT, Qualifier())

    def _ascribe(self, env: TypeEnv, phi: frozenset, t: Ascribe) -> QualifiedType:
        self._require_scoped(env, t.qtype, "ascription")
        got = self.synth(env, phi, t.term)
        self._observable(t.qtype.q, phi, "ascription qualifier")
        self._sub_qtype(env, got, t.qtype, "ascription")
        self.trace.append("t-sub")
        return t.qtype

    def _let(self, env: TypeEnv, phi: frozenset, t: Let) -> QualifiedType:
        # a loop down the spine of nested lets, not a recursion, so the
        # number of top-level `val`s is not bounded by the recursion limit
        spine = []
        while type(t) is Let:
            rhs_q = self.synth(env, phi, t.rhs)
            spine.append((t.name, rhs_q))
            env = env.extended(TermBind(t.name, rhs_q))
            phi = phi | {VarAtom(t.name)}
            t = t.body
        body_q = self.synth(env, phi, t)
        for name, rhs_q in reversed(spine):
            if rhs_q.q.fresh and VarAtom(name) in free_atoms_type(body_q.ty):
                raise CheckError(
                    DEPENDENCY_VIOLATION,
                    f"result type depends on {name} whose binding is fresh")
            self.trace.append(f"t-let {name}")
            # one substitution per binding: rhs_q.q may mention earlier names
            body_q = EMPTY_SUBSTITUTION.with_qual(name, rhs_q.q)(body_q)
        return body_q


# The typing rule of each term constructor.
_SYNTH = {
    Const: _Checker._cst, UnitLit: _Checker._cst, Var: _Checker._var,
    LocTerm: _Checker._loc, Abs: _Checker._abs, TAbs: _Checker._tabs,
    App: _Checker._app, TApp: _Checker._tapp, RefAlloc: _Checker._ref,
    Deref: _Checker._deref, Assign: _Checker._assign,
    Ascribe: _Checker._ascribe, Let: _Checker._let,
}


def synthesize(env: TypeEnv, store: StoreTyping, phi: frozenset, t: Term,
               fuel: int = DEFAULT_FUEL) -> TypingResult:
    """Synthesize a qualified type; raises CheckError on rejection and
    FuelExhausted when subtyping runs out of fuel."""
    checker = _Checker(store, fuel)
    qty = checker.synth(env, frozenset(phi), t)
    return TypingResult(qty, checker.trace)


def check_program(env: TypeEnv, store: StoreTyping, t: Term,
                  fuel: int = DEFAULT_FUEL) -> TypingResult:
    """Top-level driver: observation is everything bound or stored."""
    if not telescope_ok(env, store):
        raise CheckError(SCOPE_ERROR, "environment is not a telescope")
    phi = env.dom() | store.dom()
    result = synthesize(env, store, phi, t, fuel)
    if not result.qtype.q.atoms <= phi:
        raise InternalError("synthesized an unobservable qualifier")
    return result


class Retyper(_Checker):
    """`check_program(TypeEnv(), store, t).qtype` for the successive
    terms of one run, reusing the typing of each closed λ and Λ that a
    step left as it was.

    A λ or Λ met again as the same object under the same store typing
    object is given the qualified type synthesized for it before, once
    it is found closed (no free variable atom, annotations included), if
    that type's qualifier, its capture, is in φ. That is exact. Every
    lookup of a name stops at the innermost binder of the name
    (`TypeEnv.binder`), so a closed value is typed the same in every
    environment. φ enters its typing only where its capture must be
    observable, since the body is typed under capture ∪ {self, param}.
    A store typing is never changed once built. Every other node is
    synthesized again, so every step is checked as before; the machine's
    harnesses make one `Retyper` per call, so the memo dies with it.
    The memo holds the λs and Λs met in the last two calls, each as
    (node, store typing, closed or None while not asked, qualified
    type) under the node's id; an entry holds its node, so the id names
    no other object while the entry lives."""

    def __init__(self):
        super().__init__(StoreTyping())
        self._seen: dict = {}
        self._last: dict = {}

    def __call__(self, store: StoreTyping, t: Term) -> QualifiedType:
        self.store, self.trace = store, []
        self._last, self._seen = self._seen, {}
        phi = store.dom()
        qty = self.synth(TypeEnv(), phi, t)
        if not qty.q.atoms <= phi:
            raise InternalError("synthesized an unobservable qualifier")
        return qty

    def synth(self, env: TypeEnv, phi: frozenset, t: Term) -> QualifiedType:
        if type(t) is not Abs and type(t) is not TAbs:
            return _Checker.synth(self, env, phi, t)
        known = self._seen.get(id(t)) or self._last.get(id(t))
        closed = None
        if known is not None:
            _, store, closed, qty = known
            if closed is None:
                # asked on a second sighting only, so a node that plug
                # rebuilds on every step is never walked
                closed = not any(type(a) is VarAtom for a in
                                 free_term_atoms(t, annotations=True))
            if closed and store is self.store and qty.q.atoms <= phi:
                self._seen[id(t)] = (t, store, True, qty)
                return qty
        qty = _Checker.synth(self, env, phi, t)
        self._seen[id(t)] = (t, self.store, closed, qty)
        return qty
