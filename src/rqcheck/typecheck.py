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
is. `Retyper` types each configuration of a machine run as
`check_program` types the term it plugs to: one record per let spine at
any depth notes the parts of Γ entries each binding read, type or
qualifier, so a step types again only what read a changed part, and a
change stops where a conclusion comes back the same (early cutoff).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import AbstractSet, List

from .errors import CheckError, InternalError
from .qualifiers import forget as forget_qual_table, overlap, qual_sub
from .subtyping import DEFAULT_FUEL, type_sub
from .surface import pretty as _pretty
from .syntax import (
    EMPTY_ENV, EMPTY_SUBSTITUTION, Abs, All, App, Ascribe, Assign, Const,
    Deref, EMPTY, Fun, INT, Let, LocTerm, LocAtom, QualifiedType, Qualifier,
    RefAlloc, RefT, StoreTyping, TAbs, TApp, TermBind, Term, Top, TypeBind,
    TypeEnv, UNIT, UnitLit, Var, VarAtom, filled, free_atoms_qtype,
    free_atoms_type, free_term_atoms, telescope_ok, value_qualifier,
    well_scoped_qtype,
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

    def _substituted(self, key: tuple, make) -> QualifiedType:
        """The result of a typing rule's substitution whose inputs are
        key: `make()`, which `Retyper` looks up in a table first."""
        return make()

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
        e = env.term_entry(t.name)
        if e is None:
            raise CheckError(UNBOUND_VAR, f"variable {t.name} is not bound")
        if VarAtom(t.name) not in phi:
            raise CheckError(UNOBSERVABLE,
                             f"variable {t.name} is not observable here")
        self.trace.append(f"t-var {t.name}")
        return QualifiedType(e.ty, Qualifier(False, free_term_atoms(t)))

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
        return self._substituted(
            (fun, qf, arg_q.q),
            lambda: EMPTY_SUBSTITUTION.with_qual(fun.self_name, qf)
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
        return self._substituted(
            (univ, qf, t.arg),
            lambda: EMPTY_SUBSTITUTION.with_qual(univ.self_name, qf)
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
        body_q = self.synth(env, phi, t)
        for i in range(len(names) - 1, -1, -1):
            body_q = self._unbind(names[i], types[i].q, body_q)
        return body_q

    def _unbind(self, name: str, q: Qualifier,
                body_q: QualifiedType) -> QualifiedType:
        """T-Let's conclusion for one binding of name, at qualifier q,
        around a body of type body_q: no fresh binding in the result
        type, and the name replaced by q. Where the name is not free in
        body_q the substitution would give body_q itself, so it is not
        looked up."""
        x = VarAtom(name)
        in_type = x in free_atoms_type(body_q.ty)
        if q.fresh and in_type:
            raise CheckError(
                DEPENDENCY_VIOLATION,
                f"result type depends on {name} whose binding is fresh")
        self.trace.append(f"t-let {name}")
        if in_type or x in body_q.q.atoms:
            # q may mention earlier names: one substitution each
            return self._substituted(
                (name, q, body_q),
                lambda: EMPTY_SUBSTITUTION.with_qual(name, q)(body_q))
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


# the hole of a frame's template; no program names a variable ""
_HOLE = Var("")


class Retyper(_Checker):
    """`check_program(TypeEnv(), store, c.plug()).qtype` for the
    configurations c of one run, stepped in place between calls, without
    plugging them: each level of c, a frame or the focus, keeps a
    `_Spine` record, and a call types again what the step changed.

    Levels sit under no binder, so each is typed under Γ = ∅ and φ =
    dom(Σ), around the level below as its hole (`_HOLE` in a frame). A
    call types the focus's level, then each frame's, until one kept from
    the last call finds its hole's conclusion the same object as before:
    it and all above keep theirs, as a rule reads the hole only through
    its conclusion, and Σ only grew (a changed entry drops every record),
    which changes no closed typing.

    In a level's let spine x_0 = rhs_0; ...; body (position n), position
    p is sub(rhs_p), sub the pending substitution, typed under Γ =
    x_0..x_{p-1} and φ = dom(Σ) ∪ {x_0..x_{p-1}}; in a frame, x_j's entry
    is the hole's conclusion. The checker reads Γ at names, an entry's
    type part or its qualifier part at a time, and builds types from the
    term, the parts it reads and names it binds, so p's conclusion is a
    function of its term, Σ and the entry parts it read. Γ is built
    once, of `_Read` entries: x_k's gives a part of x_k's conclusion as
    it is now and notes the position being typed as a reader of that
    part. T-Var reads the type part only (its qualifier {x_k} comes from
    the term); `self_closure` reads the type part, and the qualifier
    part only of a `Fun` or `All`; `one_step`, in the chases of `qual_sub`
    past plain inclusion, `saturate` and `overlap`, and S-Ref's scope test
    read the qualifier part. None is hidden: a λ or Λ the memo gives is
    closed, and a row of `qual_sub`'s table answers only under the Γ it
    was found under, so one under p's was found, its reads noted, while
    typing p; as it may hold an entry's old part, the table is dropped
    before p is typed again. p is typed again, in order, so that the
    first rejection is `check_program`'s, when its term changed (a let-β
    of x_j, for the terms naming x_j) or a part it read at some typing
    did. A position not typed again read nothing that changed: each
    part it read is the same object as when it read it. A `ref` step
    changes only its binding's qualifier part (`Ref[T]^{*}` becomes
    `Ref[T]^{@ℓ}`, the type part one interned object), so what used the
    cell at its type alone keeps its conclusion. A conclusion that comes
    back as the same object (types are interned) goes no further: early
    cutoff, as in self-adjusting computation (Acar 2005; Hammer et al.,
    "Adapton", 2014). T-Let's conclusion, a
    fold of `_unbind` from the body down, is redone from each change
    while it changes. Γ keeps x_0..x_{j-1}, which a let-β took out: an
    entry mentions x_i only if its typing named x_i or read an entry
    that does, so once the terms naming x_i are typed again no typing
    reads it, and a name Γ still binds only renames what S-Fun and S-All
    compare. A spine that binds a name twice, or one sub binds, is typed
    whole, as is one binding, whose record would spare next to nothing.

    One memo, keyed by the interned node (`_closed`), holds the
    conclusion of each closed term typed under the current Σ: a focus
    with no record (a loop's comes back as a node met before) and each λ
    or Λ with no free name. Closed, its typing reads no Γ entry, so its conclusion is
    a function of the term, Σ and φ, and of φ only through the test
    `q.atoms <= φ`, which each hit redoes. A focus is first looked up by
    its closure, the node and the values its free names map to, which
    fix the term a pending substitution with no type makes (its other
    qualifiers are values'), under φ = dom(Σ), fixed while the memo
    lives: a loop's lap substitutes nothing. A new Σ object drops the
    memo: one `is` test needs no argument about what a grown Σ keeps,
    and keeping entries while Σ grew saved no time. It holds one entry
    per node met, which its intern table keeps anyway, so it adds dict
    slots, not objects. The table of the rules' substitutions
    (`_substituted`) is keyed by syntax alone, and kept for good."""

    def __init__(self):
        super().__init__(StoreTyping())
        self._memo, self._subs = {}, {}     # node -> conclusion; substitutions
        self._levels, self._hole_q = [], None

    def __call__(self, store: StoreTyping, c) -> QualifiedType:
        if store is not self.store:
            old = self.store.mapping
            if any(store.mapping.get(loc) is not e for loc, e in old.items()):
                self._levels = []
            for rec in self._levels:
                if rec.phi is not None:
                    rec.phi.update(LocAtom(l) for l in store.mapping if l not in old)
            self.store, self._memo = store, {}
        self.trace = []
        try:
            qty = self._configuration(c)
        except BaseException:
            # a record may be half updated: start again from the term
            self._levels = []
            raise
        if not qty.q.atoms <= store.dom():
            raise InternalError("synthesized an unobservable qualifier")
        return qty

    def _configuration(self, c) -> QualifiedType:
        """Follow or make each level's record, outermost first; then type
        the levels from the focus up while a conclusion changes."""
        frames, recs, store = c.frames, self._levels, self.store
        nf = len(frames)
        depth = nf + (type(c.focus) is Let)
        kept = k = 0
        while k < len(recs) and k < depth:
            rec = recs[k]
            if k < nf and frames[k] is rec.frame:      # the same frame
                if len(frames[k][2]) != rec.nvals:
                    break
                k = kept = k + 1
                continue
            if (rec.follow(c.focus, c.sub, None) if k == nf else
                    rec.follow(frames[k][0], frames[k][1], frames[k])):
                k += 1
            break
        del recs[k:]
        for f in frames[k:]:
            recs.append(_Spine(f[0], f[1], f, store))
        phi, q = store.dom(), None
        if len(recs) < depth and type(c.focus.body) is Let:
            recs.append(_Spine(c.focus, c.sub, None, store))
        elif len(recs) == nf:
            q = self._focus(c.focus, c.sub, phi)
        for i in range(len(recs) - 1, -1, -1):
            rec = recs[i]
            before = rec.qtype
            if rec.lets:
                q = rec.conclude(self, q)
            elif before is None or q is not rec.hole_q:
                rec.hole_q = self._hole_q = q
                q = rec.qtype = _Checker.synth(self, EMPTY_ENV, phi, rec.template)
            else:
                q = before
            if q is before and i <= kept:
                return recs[0].qtype
        return q

    def synth(self, env: TypeEnv, phi: AbstractSet, t: Term) -> QualifiedType:
        if t is _HOLE:
            return self._hole_q
        if type(t) is not Abs and type(t) is not TAbs:
            return _Checker.synth(self, env, phi, t)
        return self._closed(t, env, phi)

    def _focus(self, t: Term, sub, phi: AbstractSet) -> QualifiedType:
        """sub.term(t)'s conclusion, by t's closure if sub has no type."""
        if sub.types:
            return self._closed(sub.term(t), EMPTY_ENV, phi)
        key = (t, *[sub.values.get(a.name) for a in
                    free_term_atoms(t, annotations=True) if type(a) is VarAtom])
        qty = self._memo.get(key)
        if qty is None:
            qty = self._memo[key] = self._closed(sub.term(t), EMPTY_ENV, phi)
        return qty

    def _closed(self, t: Term, env: TypeEnv, phi: AbstractSet) -> QualifiedType:
        """t's conclusion from the memo, if it holds t with a qualifier in
        φ; else t typed, kept if closed."""
        qty = self._memo.get(t)
        if qty is not None and qty.q.atoms <= phi:
            return qty
        qty = _Checker.synth(self, env, phi, t)
        if env is EMPTY_ENV or not any(type(a) is VarAtom for a in
                                       free_term_atoms(t, annotations=True)):
            self._memo[t] = qty
        return qty

    def _substituted(self, key: tuple, make) -> QualifiedType:
        out = self._subs.get(key)
        if out is None:
            out = self._subs[key] = make()
        return out


class _Read:
    """x_k's entry in a spine's Γ: x_k's conclusion as it is now, read by
    component. Reading its type part `ty` adds the position being typed,
    `at[0]`, to the readers of x_k's type part; reading `q` adds it to
    the readers of its qualifier part. Its ==, hash and repr are
    object's, so comparing, hashing or printing Γ notes no reader."""

    __slots__ = ("name", "_read")

    def __init__(self, name: str, k: int, types: list, by_ty: set, by_q: set,
                 at: list):
        self.name, self._read = name, (k, types, by_ty, by_q, at)

    @property
    def ty(self):
        k, types, by_ty, _, at = self._read
        by_ty.add(at[0])
        return types[k].ty

    @property
    def q(self) -> Qualifier:
        k, types, _, by_q, at = self._read
        by_q.add(at[0])
        return types[k].q


class _Spine:
    """A level's record (see `Retyper`): its let spine `lets` around
    `body` under `sub`, from x_j on; per position its conclusion and
    T-Let's (`folds`); the positions that read each entry's type part and
    its qualifier part (`readers`, a pair of sets per entry) or whose term
    names each name (`named`), and what to retype (`queue`)."""

    __slots__ = ("frame", "nvals", "lets", "names", "body", "template", "sub",
                 "j", "named", "types", "folds", "readers", "envs", "phi", "h",
                 "vars", "at", "queue", "hole_q", "qtype")

    def __init__(self, node: Term, sub, frame, store: StoreTyping):
        self.frame, self.nvals = frame, 0 if frame is None else len(frame[2])
        self.lets, self.body, self.sub, self.j = (), node, sub, 0
        self.template = self.hole_q = self.qtype = self.phi = None
        lets, t = [], node
        while type(t) is Let:
            lets.append(t)
            t = t.body
        n, names = len(lets), [let.name for let in lets]
        if n < 2 or len(set(names)) < n or not sub.names.isdisjoint(names):
            # typed whole, a frame around the hole
            self.template = sub.term(filled(node, frame[2] + [_HOLE]) if frame else node)
            return
        self.lets, self.names, self.body, self.named = lets, names, t, {}
        for p, term in enumerate([let.rhs for let in lets] + [t]):
            for a in free_term_atoms(term, annotations=True):
                if type(a) is VarAtom:
                    self.named.setdefault(a.name, []).append(p)
        self.types, self.folds = [None] * (n + 1), [None] * (n + 1)
        self.readers, self.at, self.envs, self.h = [], [0], [EMPTY_ENV], 0
        self.queue, self.phi = list(range(n + 1)), set(store.dom())
        self.vars = [VarAtom(x) for x in names]

    def follow(self, node: Term, sub, frame) -> bool:
        """Whether this is the spine record of the level now holding node
        under sub in frame (None for the focus), moved on with it: to
        x_{j+1} after a let-β, or from focus to frame. A λ applied again
        meets its spine under a new sub."""
        lets, j = self.lets, self.j
        if j + 1 < len(lets) and node is lets[j + 1] and self.names[j] in sub.names:
            self.j, self.sub = j + 1, sub
            for p in self.named.get(self.names[j], ()):
                heappush(self.queue, p)
        elif not lets or frame is None or node is not lets[j] or sub is not self.sub:
            return False
        self.frame, self.nvals = frame, 0
        return True

    def conclude(self, checker: Retyper, hole_q) -> QualifiedType:
        """The spine's conclusion around a hole of conclusion hole_q: the
        queued positions typed again in order, then T-Let's conclusion
        from the highest change down, while it changes."""
        j, lets, types, queue = self.j, self.lets, self.types, self.queue
        if self.frame is not None and hole_q is not types[j]:
            heappush(queue, j)
        if not queue:
            self.qtype = self.folds[j]
            return self.qtype
        n, readers, at, marks, last = len(lets), self.readers, self.at, set(), -1
        while queue:
            p = heappop(queue)
            if p == last or p < j:
                continue
            last = p
            if p == j and self.frame is not None:
                q = hole_q
            else:
                env, phi = self._scope(p)
                at[0] = p
                if types[p] is not None:    # see `Retyper`
                    forget_qual_table(env)
                term = lets[p].rhs if p < n else self.body
                q = checker.synth(env, phi, self.sub.term(term))
            old = types[p]
            if q is not old:    # x_p's entry changed: queue who read the part that did
                types[p] = q
                marks.add(p)
                if p < len(readers):    # read, so typed, before
                    by_ty, by_q = readers[p]
                    for r in (by_ty if q.ty is not old.ty else ()):
                        heappush(queue, r)
                    for r in (by_q if q.q is not old.q else ()):
                        heappush(queue, r)
        folds, carry = self.folds, False
        for p in range(max(marks, default=j - 1), j - 1, -1):
            if carry or p in marks:
                new = (types[n] if p == n else
                       checker._unbind(self.names[p], types[p].q, folds[p + 1]))
                carry = new is not folds[p]
                if carry:
                    folds[p] = new
        self.qtype = folds[j]
        return self.qtype

    def _scope(self, p: int):
        """Γ and φ for position p: x_0 ... x_{p-1}."""
        envs, names, types, readers = self.envs, self.names, self.types, self.readers
        while len(envs) <= p:
            k = len(envs) - 1
            readers.append((set(), set()))
            envs.append(envs[k].extended(_Read(names[k], k, types, *readers[k], self.at)))
        phi, h, atoms = self.phi, self.h, self.vars
        while h < p:
            phi.add(atoms[h])
            h += 1
        while h > p:
            h -= 1
            phi.discard(atoms[h])
        self.h = h
        return envs[p], phi
