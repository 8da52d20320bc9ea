"""Algorithmic term typing.

Synthesis-only: subsumption is confined to explicit ascriptions and the
compatibility checks inside application, assignment, and annotation
enforcement. Every rejection carries exactly one primary error code.
`synth` dispatches through one rule table, `_SYNTH`. λ and Λ share their
rules, since `tfn f[X^x <: T^q]` is an abstraction whose parameter is
X^x: `_abstraction` serves T-Abs and T-TAbs, `_application` T-App and
T-TApp. T-Let grows Γ and φ by one binder: Γ by `TypeEnv.extended`, φ
in place, in a copy made once per let spine. Running out of subtyping
fuel is never a rejection: `FuelExhausted` reaches the caller as it
is. `Retyper` types the
successive terms of a machine run as `check_program` does, reusing what
it synthesized for a closed λ or Λ, or a binding of the root let spine,
that a step left as it was.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, List

from .errors import CheckError, InternalError
from .qualifiers import overlap, qual_sub
from .subtyping import DEFAULT_FUEL, type_sub
from .surface import pretty as _pretty
from .syntax import (
    EMPTY_ENV, EMPTY_SUBSTITUTION, Abs, All, App, Ascribe, Assign, Const,
    Deref, EMPTY, Fun, INT, Let, LocTerm, LocAtom, QualifiedType, Qualifier,
    RefAlloc, RefT, StoreTyping, TAbs, TApp, TermBind, Term, Top, TypeBind,
    TypeEnv, UNIT, UnitLit, Var, VarAtom, free_atoms_qtype, free_atoms_type,
    free_term_atoms, telescope_ok, value_qualifier, well_scoped_qtype,
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

# the types of constants and assignments, shared, so that checking a long
# program keeps no object of its own for each of them
_INT = QualifiedType(INT, EMPTY)
_UNIT = QualifiedType(UNIT, EMPTY)


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

    def _observable(self, q: Qualifier, phi: AbstractSet, what: str,
                    extra: frozenset = frozenset()):
        missing = q.atoms - phi - extra
        if missing:
            missing = ", ".join(sorted(a.render() for a in missing))
            raise CheckError(UNOBSERVABLE, f"{what}: {missing} not observable")

    # -- the rules λ and Λ share ------------------------------------------

    def _abstraction(self, env: TypeEnv, phi: AbstractSet, t, param: str,
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

    def _application(self, env: TypeEnv, phi: AbstractSet, qf: Qualifier,
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

    def synth(self, env: TypeEnv, phi: AbstractSet, t: Term) -> QualifiedType:
        rule = _SYNTH.get(type(t))
        if rule is None:
            raise CheckError(TYPE_MISMATCH, f"cannot type {t!r}")
        return rule(self, env, phi, t)

    def _cst(self, env: TypeEnv, phi: AbstractSet, t) -> QualifiedType:
        self.trace.append("t-cst")
        return _INT if type(t) is Const else _UNIT

    def _var(self, env: TypeEnv, phi: AbstractSet, t: Var) -> QualifiedType:
        bound = env.lookup_term(t.name)
        if bound is None:
            raise CheckError(UNBOUND_VAR, f"variable {t.name} is not bound")
        if VarAtom(t.name) not in phi:
            raise CheckError(UNOBSERVABLE,
                             f"variable {t.name} is not observable here")
        self.trace.append(f"t-var {t.name}")
        return QualifiedType(bound.ty,
                             Qualifier(False, frozenset({VarAtom(t.name)})))

    def _loc(self, env: TypeEnv, phi: AbstractSet, t: LocTerm) -> QualifiedType:
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

    def _abs(self, env: TypeEnv, phi: AbstractSet, t: Abs) -> QualifiedType:
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

    def _tabs(self, env: TypeEnv, phi: AbstractSet, t: TAbs) -> QualifiedType:
        self._require_scoped(env, t.bound, "bound annotation")
        capture, _, body_q = self._abstraction(
            env, phi, t, t.qvar, TypeBind(t.tvar, t.qvar, t.bound),
            lambda stub: All(t.self_name, t.tvar, t.qvar, t.bound, stub),
            "type abstraction")
        self.trace.append(f"t-tabs {t.self_name}")
        return QualifiedType(
            All(t.self_name, t.tvar, t.qvar, t.bound, body_q), capture)

    def _app(self, env: TypeEnv, phi: AbstractSet, t: App) -> QualifiedType:
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

    def _tapp(self, env: TypeEnv, phi: AbstractSet, t: TApp) -> QualifiedType:
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

    def _ref(self, env: TypeEnv, phi: AbstractSet, t: RefAlloc) -> QualifiedType:
        init_q = self.synth(env, phi, t.init)
        if init_q.q.fresh:
            raise CheckError(
                REF_CONTENT_FRESH,
                f"reference content has fresh qualifier {_pretty(init_q.q)}")
        self.trace.append("t-ref")
        return QualifiedType(RefT(init_q), Qualifier(True, init_q.q.atoms))

    def _deref(self, env: TypeEnv, phi: AbstractSet, t: Deref) -> QualifiedType:
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

    def _assign(self, env: TypeEnv, phi: AbstractSet, t: Assign) -> QualifiedType:
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
        return _UNIT

    def _ascribe(self, env: TypeEnv, phi: AbstractSet, t: Ascribe) -> QualifiedType:
        self._require_scoped(env, t.qtype, "ascription")
        got = self.synth(env, phi, t.term)
        self._observable(t.qtype.q, phi, "ascription qualifier")
        self._sub_qtype(env, got, t.qtype, "ascription")
        self.trace.append("t-sub")
        return t.qtype

    def _let(self, env: TypeEnv, phi: AbstractSet, t: Let) -> QualifiedType:
        """T-Let down a spine of nested lets: a loop, not a recursion, so
        the number of top-level `val`s is not bounded by the recursion
        limit. φ is copied once, here, and grown in place by each binder,
        so extending Γ and φ costs O(1) per binding, and a spine in a
        right-hand side never changes its caller's φ."""
        phi = set(phi)
        names, types = [], []
        while type(t) is Let:
            rhs_q = self.synth(env, phi, t.rhs)
            names.append(t.name)
            types.append(rhs_q)
            env = env.extended(TermBind(t.name, rhs_q))
            phi.add(VarAtom(t.name))
            t = t.body
        return self._unbind(names, types, self.synth(env, phi, t))

    def _unbind(self, names: list, types: list,
                body_q: QualifiedType) -> QualifiedType:
        """T-Let's conclusion for a spine binding each name to the type
        at its index, innermost first: no fresh binding in the result
        type, and each name replaced by its binding's qualifier. The
        replacement is skipped where it returns body_q itself: the name
        is not free in it, and the qualifier has no variable, so no
        binder of body_q is renamed apart."""
        in_ty = in_q = None    # the names free in body_q's type, qualifier
        for i in range(len(names) - 1, -1, -1):
            name, q = names[i], types[i].q
            renames = False
            for a in q.atoms:
                if type(a) is VarAtom:
                    renames = True
                    break
            if in_ty is None and (q.fresh or not renames):
                in_ty = {a.name for a in free_atoms_type(body_q.ty)
                         if type(a) is VarAtom}
                in_q = {a.name for a in body_q.q.atoms if type(a) is VarAtom}
            if q.fresh and name in in_ty:
                raise CheckError(
                    DEPENDENCY_VIOLATION,
                    f"result type depends on {name} whose binding is fresh")
            self.trace.append(f"t-let {name}")
            if renames or name in in_ty or name in in_q:
                # q may mention earlier names: one substitution each
                body_q = EMPTY_SUBSTITUTION.with_qual(name, q)(body_q)
                in_ty = None
        return body_q


# The typing rule of each term constructor.
_SYNTH = {
    Const: _Checker._cst, UnitLit: _Checker._cst, Var: _Checker._var,
    LocTerm: _Checker._loc, Abs: _Checker._abs, TAbs: _Checker._tabs,
    App: _Checker._app, TApp: _Checker._tapp, RefAlloc: _Checker._ref,
    Deref: _Checker._deref, Assign: _Checker._assign,
    Ascribe: _Checker._ascribe, Let: _Checker._let,
}


def synthesize(env: TypeEnv, store: StoreTyping, phi: AbstractSet, t: Term,
               fuel: int = DEFAULT_FUEL) -> TypingResult:
    """Synthesize a qualified type; raises CheckError on rejection and
    FuelExhausted when subtyping runs out of fuel. φ is read, never kept
    or changed, so a caller may grow one set between calls."""
    checker = _Checker(store, fuel)
    qty = checker.synth(env, phi, t)
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
    step left as it was, and of each binding of the root let spine that
    the step left as it was while nothing its typing can consult changed.

    A λ or Λ met again as the same object under the same store typing
    object is given the qualified type synthesized for it before, once
    it is found closed (no free variable atom, annotations included), if
    that type's qualifier, its capture, is in φ. That is exact. Every
    lookup of a name stops at the innermost binder of the name
    (`TypeEnv.binder`), so a closed value is typed the same in every
    environment. φ enters its typing only where its capture must be
    observable, since the body is typed under capture ∪ {self, param}.
    A store typing is never changed once built.

    The let spine at the root, which the machine's steps rewrite at its
    first binding, is walked here instead of by `_let`. Its binding j is
    typed under the types of bindings 0..j-1, φ = dom(Σ) ∪ {x_0..x_{j-1}}
    and Σ; as in `_let`, the walk extends Γ by each binding and grows one
    copy of φ in place, O(1) per binding, up to the last binding it types
    again. The checker reads these at named atoms only: the
    environment through the innermost binder of a name, φ by
    membership, Σ by `get` (`dom` is membership too; `type_sub` tests a
    `Ref` content atom the same way). Every type and qualifier the
    typing of the rhs forms is built from the rhs, from the entries of
    atoms it already holds, or from names the rhs or a type binds. So
    the atoms whose entries it can read are D: the free atoms of the rhs
    (annotations included), closed through their environment entries
    and their Σ entries. A variable of D is in φ exactly when the spine
    binds it before j, and a location exactly when Σ has it, so D's
    entries fix φ on D too. A rhs met again as the same object, at the
    same position or one further on (a let-β drops the first binding),
    is given the qualified type of the last call if each atom of D, as
    the last call's entries close it, has the same entry object now, or
    none in both: then the typing reads what it read, and D is the same
    set. Only spines that bind no name twice are compared, so a name's
    entry is its binder's at every later binding; the answer for each
    atom is kept for the rest of the call (`_Spine.clean`), so a chain
    of aliases is followed once per call, not once per binding. A
    freshly synthesized type equal to the last call's for its name is
    replaced by that object, so entries are compared by identity. Σ
    only grows and `StoreTyping.extended` keeps the entry objects, so
    this survives a `ref` step, where the λ memo does not. λ and Λ
    right-hand sides stay with the λ memo: a step that substitutes into
    an open one rebuilds it, and comparing its type with the last
    call's costs about what typing it again does. Every other node, and
    every binding whose rhs or D the step changed, is synthesized
    again, so every step is checked as before.

    The machine's harnesses make one `Retyper` per call, so the memos
    die with it. The λ memo holds the λs and Λs met in the last two
    calls, each as (node, store typing, closed or None while not asked,
    qualified type) under the node's id; an entry holds its node, so
    the id names no other object while the entry lives. The spine memo
    is the last call's `_Spine`."""

    def __init__(self):
        super().__init__(StoreTyping())
        self._seen: dict = {}
        self._last: dict = {}
        self._store_atoms: dict = {}
        self._spine = _NO_SPINE

    def __call__(self, store: StoreTyping, t: Term) -> QualifiedType:
        self.store, self.trace = store, []
        self._last, self._seen = self._seen, {}
        if type(t) is Let:
            qty = self._retype_spine(t)
        else:
            # a step rebuilds the root, so a term that is not a spine of
            # lets is never met again
            qty = self.synth(EMPTY_ENV, store.dom(), t)
        if not qty.q.atoms <= store.dom():
            raise InternalError("synthesized an unobservable qualifier")
        return qty

    def _retype_spine(self, t: Let) -> QualifiedType:
        """`_let` on the root spine, growing Γ and φ as `_let` does. The
        record of each binding, and of the body, is the last call's
        record of the same rhs, at the same position or one further on (a
        let-β drops the first binding), if nothing its typing can consult
        changed (see the class docstring); else the rhs is synthesized
        again."""
        then = self._spine
        spine = self._spine = _Spine(self.store, self._store_atoms)
        names, bound, old = spine.names, spine.bound, then.bound
        n, j, k = len(old), 0, 0
        # the environment and φ of bindings 0..k-1, grown as `_let` grows
        # them, up to the current binding when a rhs is synthesized
        env, phi = EMPTY_ENV, set(self.store.dom())
        while True:
            rhs = t.rhs if type(t) is Let else t
            value = type(rhs) is Abs or type(rhs) is TAbs
            b = free = None
            if j < n and not value:
                at = j if old[j].rhs is rhs else j + 1
                if at < n and old[at].rhs is rhs:
                    b = old[at]
                    if b.free is None:
                        # walked on a second sighting only, as the λ
                        # memo asks `closed`, so a rhs every step
                        # rebuilds is not
                        b.free = free_term_atoms(rhs, annotations=True)
                    if not spine.unchanged(b.free, then, at):
                        b, free = None, b.free
            if b is None:
                while k < j:
                    env = env.extended(TermBind(names[k], bound[k].qtype))
                    phi.add(VarAtom(names[k]))
                    k += 1
                b = _Bound(rhs, self.synth(env, phi, rhs), free)
                p = then.index.get(t.name) if type(t) is Let else None
                if p is not None and not value and b.qtype == old[p].qtype:
                    # the last call's object for an equal type, so that
                    # `unchanged` compares entries by identity
                    b.qtype, b.atoms = old[p].qtype, old[p].atoms
            bound.append(b)
            if type(t) is not Let:
                break
            if t.name in spine.index:
                spine.unique = False
            spine.index[t.name] = j
            names.append(t.name)
            j += 1
            t = t.body
        return self._unbind(names, [b.qtype for b in bound], bound[-1].qtype)

    def synth(self, env: TypeEnv, phi: AbstractSet, t: Term) -> QualifiedType:
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


class _Bound:
    """A right-hand side of a root spine and the qualified type it was
    given, with its free atoms (annotations included) and the free atoms
    of the type, each None until asked. A record found unchanged is
    shared by the spines of both calls."""

    __slots__ = ("rhs", "qtype", "free", "atoms")

    def __init__(self, rhs: Term, qtype: QualifiedType, free):
        self.rhs, self.qtype, self.free, self.atoms = rhs, qtype, free, None


class _Spine:
    """The let spine at the root of one `Retyper` call, as far as it is
    walked: the names bound, a record per binding (and, once walked, one
    for the body), the position of each name's binder, whether no name
    is bound twice, and Σ; with, for this call, which atoms are known
    `clean` against the last call's spine."""

    __slots__ = ("names", "bound", "index", "unique", "store",
                 "store_atoms", "memo")

    def __init__(self, store: StoreTyping, store_atoms: dict):
        self.names, self.bound, self.index = [], [], {}
        self.unique, self.store, self.store_atoms = True, store, store_atoms
        self.memo: dict = {}

    def atoms_of(self, entry) -> frozenset:
        """The free atoms of an entry: a record's type, or a Σ entry
        (kept under its id with the entry, for the `Retyper`'s life)."""
        if type(entry) is _Bound:
            if entry.atoms is None:
                entry.atoms = free_atoms_qtype(entry.qtype)
            return entry.atoms
        known = self.store_atoms.get(id(entry))
        if known is None:
            known = self.store_atoms[id(entry)] = (
                entry, free_atoms_qtype(entry))
        return known[1]

    def unchanged(self, free: frozenset, then: "_Spine", at: int) -> bool:
        """Whether each atom of D of binding `at` of `then` (see
        `Retyper`: the atoms of free, closed through their entries
        there) has the same entry after the spine so far: for a
        variable the type of its binder, for a location its Σ entry, or
        none in both. Only spines that bind no name twice are compared,
        so a name's entry is its binder's wherever it is bound."""
        if not (self.unique and then.unique):
            return False
        old_index, index = then.index, self.index
        memo = self.memo
        for a in free:
            if type(a) is VarAtom:
                p, q = old_index.get(a.name), index.get(a.name)
                if p is None or q is None:
                    if p is not q:
                        return False
                    continue
                if p >= at:
                    return False
            known = memo.get(a)
            if not (self.clean(a, then) if known is None else known):
                return False
        return True

    def clean(self, root, then: "_Spine") -> bool:
        """Whether root, a location or a variable both spines bind, has
        the same entry in both, and so has every atom its entry reaches.
        A variable's entry may only reach variables bound before it in
        both spines, and locations; a Σ entry only smaller locations. So
        the search meets no atom twice on one path, and each answer holds
        for the rest of the call (what it reads is bound before it): it
        is kept in `memo` under the atom, which the caller reads first."""
        memo = self.memo
        stack = [(root, self._reaches(root, then))]
        while stack:
            a, kids = stack[-1]
            if kids:
                z = kids.pop()
                known = memo.get(z)
                if known is None:
                    stack.append((z, self._reaches(z, then)))
                    continue
                if known:
                    continue
            elif kids is not None:
                stack.pop()
                memo[a] = True
                continue
            # a changed, or reaches what changed: so does every atom on
            # the stack
            for a, _ in stack:
                memo[a] = False
            return False
        return True

    def _reaches(self, a, then: "_Spine"):
        """The atoms a's entry reaches, to be found clean in turn; None
        if the entry changed or reaches what it may not."""
        if type(a) is LocAtom:
            old = then.store.mapping.get(a.loc)
            if old is not self.store.mapping.get(a.loc):
                return None
            kids = [] if old is None else list(self.atoms_of(old))
            for z in kids:
                if type(z) is VarAtom or z.loc >= a.loc:
                    return None
            return kids
        p, q = then.index[a.name], self.index[a.name]
        old = then.bound[p]
        if old.qtype is not self.bound[q].qtype:
            return None
        kids = []
        for z in self.atoms_of(old):
            if type(z) is VarAtom:
                pz, qz = then.index.get(z.name), self.index.get(z.name)
                if pz is None and qz is None:
                    continue
                if pz is None or qz is None or pz >= p or qz >= q:
                    return None
            kids.append(z)
        return kids


# the last spine before a `Retyper`'s first call: it binds nothing, and
# nothing is ever written to it
_NO_SPINE = _Spine(StoreTyping(), {})
