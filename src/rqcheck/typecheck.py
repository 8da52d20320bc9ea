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
`check_program` types the term it plugs to, keeping a typing record per
frame and per binding of the root let spine, so a step costs the typing
of what it changed; it also looks the substitutions of T-App, T-TApp and
T-Let up by their interned inputs before it builds one (`_substituted`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import AbstractSet, List

from .errors import CheckError, InternalError
from .qualifiers import overlap, qual_sub
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
        bound = env.lookup_term(t.name)
        if bound is None:
            raise CheckError(UNBOUND_VAR, f"variable {t.name} is not bound")
        if VarAtom(t.name) not in phi:
            raise CheckError(UNOBSERVABLE,
                             f"variable {t.name} is not observable here")
        self.trace.append(f"t-var {t.name}")
        return QualifiedType(bound.ty, Qualifier(False, free_term_atoms(t)))

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
        type, and the name replaced by q. The replacement is skipped
        where it returns body_q itself: the name is not free in it, and q
        has no variable, so no binder of body_q is renamed apart."""
        x = VarAtom(name)
        in_type = x in free_atoms_type(body_q.ty)
        if q.fresh and in_type:
            raise CheckError(
                DEPENDENCY_VIOLATION,
                f"result type depends on {name} whose binding is fresh")
        self.trace.append(f"t-let {name}")
        if in_type or x in body_q.q.atoms or any(type(a) is VarAtom
                                                 for a in q.atoms):
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
    configurations c of one run, which the machine steps in place between
    calls, without plugging them: each part keeps a typing record, and a
    call types again what the step made stale.

    Frames and the focus sit at evaluation positions, under no binder,
    so each is typed closed, under Γ = ∅ and φ = dom(Σ). A frame above
    the root spine keeps a `_Frame`. A call types the focus, then each
    frame above it, innermost first, until one met as the same frame
    with as many values finds its hole's conclusion equal to the last:
    it and all below keep theirs. That is exact: a rule reads the hole
    only through `synth`, which gives the hole's conclusion; the other
    parts are the same closed terms; and Σ only grew (a changed entry
    drops every record), which changes no closed typing, as it reads Σ
    and φ at the locations the term holds or reaches, never a new one.

    The root let spine keeps a `_Root`. Its binding p, x_p = rhs_p (the
    body is position n), is typed as rhs_p under the pending
    substitution, Γ = x_j..x_{p-1} and φ = dom(Σ) ∪ {x_j..x_{p-1}}, a
    let-β having taken x_0..x_{j-1} out. The checker reads Γ, φ and Σ at
    named atoms only (a name's innermost binder, membership, `get`), and
    forms every type or qualifier from the term, from the entries of
    atoms it holds, or from names the term or a type binds. So binding p
    reads the entries of D_p, its rhs's free atoms (annotations
    included) closed through their entries, and its record holds while
    none of those changed. A let-β changes x_j's entry, and a conclusion
    unequal to the last x_p's. The positions whose D holds a changed x
    are those whose rhs names x (`readers`) or whose type mentions x
    (`mentions`), and, through their names, the positions they reach.
    They are typed again in order, as `_let` types them, so the first
    rejection is `check_program`'s; T-Let's conclusion, a fold of
    `_unbind` from the body down, is redone from each change while it
    changes. Γ and φ keep x_0..x_{j-1}, which no D reaches once each
    position that read one is typed again. A spine that binds a name
    twice, or one the substitution binds, is typed whole.

    Terms are interned, so a term met again is the same node, and a
    memo keyed by the node (`_closed`) holds conclusions of closed terms
    under the store typing Σ they were typed under. A term typed at the
    top of `_levels`, the focus or a frame's plugged term, is typed under
    Γ = ∅ and φ = dom(Σ), the same for every such term: typed, it is
    closed (T-Var and the scope checks reject a free name under Γ = ∅),
    so its conclusion is a function of the node and Σ, and is given again
    while Σ is the same object. A λ or Λ typed anywhere else is kept only
    when closed (no free variable atom, annotations included), and is
    given again, under the same Σ, where its qualifier, the capture, is
    in φ: a lookup stops at a name's innermost binder (`TypeEnv.binder`),
    so a closed value types the same anywhere, and φ enters only where
    its capture must be observable, as it does at the top, where φ holds
    every location a typed term can name. The memo holds the terms met in
    the last two calls: a call starts a new one and keeps the last call's
    as `_last`, whose hits it copies in, each with the entries of the
    memo's terms met while typing it (`_keep`), which a later step may
    meet without it, as β takes a value out of the λ that holds it.

    The table of T-App's, T-TApp's and T-Let's substitutions
    (`_substituted`) lives as long, `_subs` beside `_subs_before`. The
    inputs are interned, so equal inputs are one key, and a substitution
    is a function of them. So a step that types the same annotations
    again reuses their substitutions, the memory held is that of two
    calls, and no result passes from one run to another."""

    def __init__(self):
        super().__init__(StoreTyping())
        self._seen, self._last, self._inner = {}, {}, []    # the node memo
        self._subs, self._subs_before = {}, {}
        self._frames, self._root = [], None
        self._hole = self._hole_q = None

    def __call__(self, store: StoreTyping, c) -> QualifiedType:
        old = self.store.mapping
        if store is not self.store:
            if any(store.mapping.get(loc) is not e for loc, e in old.items()):
                self._root, self._frames = None, []
            elif self._root is not None:
                self._root.phi.update(LocAtom(loc) for loc in store.mapping
                                      if loc not in old)
            self.store = store
        self.trace = []
        self._last, self._seen, self._inner = self._seen, {}, []
        self._subs_before, self._subs = self._subs, {}
        try:
            qty = self._configuration(c)
        except BaseException:
            # a record may be half updated: start again from the term
            self._root, self._frames = None, []
            raise
        finally:
            self._hole = None
        if not qty.q.atoms <= store.dom():
            raise InternalError("synthesized an unobservable qualifier")
        return qty

    def _configuration(self, c) -> QualifiedType:
        frames = c.frames
        root, sub = (frames[0][0], frames[0][1]) if frames else (c.focus, c.sub)
        if type(root) is Let:
            spine = self._root
            if spine is None or not spine.follow(root, sub):
                spine = self._root = _Root(root, sub, self.store)
            if spine.unique:
                return spine.retype(self, self._levels(c, 1) if frames else None)
        return self._levels(c, 0)

    def _levels(self, c, start: int) -> QualifiedType:
        """The conclusion of frames[start:] plugged around the focus: the
        focus typed again, then the frames while a hole's conclusion changed."""
        frames, recs = c.frames, self._frames
        keep = 0
        while (keep < len(recs) and start + keep < len(frames)
               and recs[keep].frame is frames[start + keep]
               and len(recs[keep].vals) == len(frames[start + keep][2])):
            keep += 1
        del recs[keep:]
        recs.extend(_Frame(f) for f in frames[start + keep:])
        phi, term = self.store.dom(), c.sub.term(c.focus)
        q = self._closed(term, EMPTY_ENV, phi)
        for k in range(len(recs) - 1, -1, -1):
            rec = recs[k]
            if k < keep and q is rec.hole_q:
                q = recs[0].qtype
                break
            self._hole, self._hole_q = term, q
            term = rec.plugged(term)
            rec.hole_q = q
            rec.qtype = q = self._closed(term, EMPTY_ENV, phi)
        return q

    def synth(self, env: TypeEnv, phi: AbstractSet, t: Term) -> QualifiedType:
        if t is self._hole and env is EMPTY_ENV:
            return self._hole_q
        if type(t) is not Abs and type(t) is not TAbs:
            return _Checker.synth(self, env, phi, t)
        return self._closed(t, env, phi)

    def _closed(self, t: Term, env: TypeEnv, phi: AbstractSet) -> QualifiedType:
        """t's conclusion, from the memo if it holds t under this Σ with
        a qualifier in φ; else t typed, and kept if closed, with the
        memo's terms met directly within it."""
        known = self._seen.get(t) or self._last.get(t)
        if known is not None and known[0] is self.store and known[1].q.atoms <= phi:
            self._keep(t, known)
        else:
            outer, self._inner = self._inner, []
            qty = _Checker.synth(self, env, phi, t)
            inner, self._inner = self._inner, outer
            if env is not EMPTY_ENV and any(type(a) is VarAtom for a in
                                            free_term_atoms(t, annotations=True)):
                return qty
            known = self._seen[t] = (self.store, qty, tuple(inner))
        self._inner.append(t)
        return known[1]

    def _keep(self, t: Term, known: tuple):
        """Put t's entry in this call's memo, with those of the terms met
        within it that the last call's holds."""
        work = [(t, known)]
        while work:
            t, known = work.pop()
            self._seen[t] = known
            for u in known[2]:
                if u not in self._seen and u in self._last:
                    work.append((u, self._last[u]))

    def _substituted(self, key: tuple, make) -> QualifiedType:
        out = self._subs.get(key) or self._subs_before.get(key) or make()
        self._subs[key] = out
        return out


class _Frame:
    """A frame's record: its values, its node under its substitution with
    `_HOLE` where it is evaluated, the hole's last conclusion and its own."""

    __slots__ = ("frame", "vals", "template", "hole_q", "qtype")

    def __init__(self, frame):
        node, sub, vals, _ = frame
        self.frame, self.vals = frame, list(vals)
        self.template = sub.term(filled(node, self.vals + [_HOLE]))
        self.hole_q = self.qtype = None

    def plugged(self, term: Term) -> Term:
        return filled(self.template, self.vals + [term])


class _Root:
    """The records of the root let spine (see `Retyper`): per position
    its conclusion (`types`) and T-Let's from there on (`folds`); the
    positions that name each name (`readers`) or whose type mentions it
    (`mentions`); the environments and φ, and the positions to type
    again (`queue`, a heap)."""

    __slots__ = ("lets", "body", "names", "vars", "j", "sub", "unique",
                 "readers", "types", "atoms", "mentions", "folds", "envs",
                 "phi", "h", "queue", "touched")

    def __init__(self, root: Let, sub, store: StoreTyping):
        lets, t = [], root
        while type(t) is Let:
            lets.append(t)
            t = t.body
        n = len(lets)
        self.lets, self.body, self.j, self.sub = lets, t, 0, sub
        self.names = [let.name for let in lets]
        self.unique = (len(set(self.names)) == n
                       and sub.names.isdisjoint(self.names))
        self.readers, self.mentions, self.touched = {}, {}, set()
        for p in range(n + 1):
            for a in free_term_atoms(lets[p].rhs if p < n else t,
                                     annotations=True):
                if type(a) is VarAtom:
                    self.readers.setdefault(a.name, []).append(p)
        self.queue = list(range(n + 1))
        self.vars = [VarAtom(x) for x in self.names]
        self.types, self.folds = [None] * (n + 1), [None] * (n + 1)
        self.atoms, self.envs = [frozenset()] * n, [EMPTY_ENV]
        self.phi, self.h = set(store.dom()), 0

    def follow(self, root: Let, sub) -> bool:
        """Whether root is the spine's binding x_j, or x_{j+1} after a
        let-β (x_j's readers are then queued). Its lets are distinct
        nodes, each holding the next, and a spine met again from its
        start (the body of a λ applied again) has a new substitution."""
        j = self.j
        if root is self.lets[j]:
            return sub is self.sub
        if (j + 1 < len(self.lets) and root is self.lets[j + 1]
                and self.names[j] in sub.names):
            self.j, self.sub = j + 1, sub
            if self.unique:
                self._touch(self.names[j], j)
            return True
        return False

    def _touch(self, name: str, after: int):
        """Queue each position after `after` whose typing can read name's
        entry (see `Retyper`). A name touched before in this call, at a
        position not above this one, has its readers queued already."""
        work, queue, touched = [name], self.queue, self.touched
        while work:
            x = work.pop()
            if x in touched:
                continue
            touched.add(x)
            for p in self.readers.get(x, ()):
                if p > after:
                    heappush(queue, p)
            for p in self.mentions.get(x, ()):
                if p > after:
                    heappush(queue, p)
                    work.append(self.names[p])

    def retype(self, checker: Retyper, hole_q) -> QualifiedType:
        """T-Let's conclusion from x_j on, typing the queued positions
        again in order; x_j's conclusion is hole_q while its rhs is
        being evaluated."""
        j, n, types, queue = self.j, len(self.lets), self.types, self.queue
        changed = []
        if hole_q is not None and hole_q is not types[j]:
            self._set(j, hole_q)
            changed.append(j)
        last = -1
        while queue:
            p = heappop(queue)
            if p == last or p < j or (p == j and hole_q is not None):
                continue
            last = p
            env, phi = self._scope(p)
            term = self.lets[p].rhs if p < n else self.body
            q = checker.synth(env, phi, self.sub.term(term))
            if q is not types[p]:
                self._set(p, q)
                changed.append(p)
        self.touched.clear()
        if changed:
            self._fold(checker, set(changed))
        return self.folds[j]

    def _set(self, p: int, q: QualifiedType):
        """A new conclusion at p, which changes the entry of x_p."""
        first = self.types[p] is None
        self.types[p] = q
        del self.envs[p + 1:]
        if p == len(self.lets):
            return
        atoms = {a.name for a in free_atoms_qtype(q) if type(a) is VarAtom}
        for x in self.atoms[p] - atoms:
            self.mentions[x].discard(p)
        for x in atoms - self.atoms[p]:
            self.mentions.setdefault(x, set()).add(p)
        self.atoms[p] = atoms
        if not first:
            self._touch(self.names[p], p)

    def _scope(self, p: int):
        """Γ and φ for position p: x_0 ... x_{p-1}."""
        envs, names, types = self.envs, self.names, self.types
        while len(envs) <= p:
            k = len(envs) - 1
            envs.append(envs[k].extended(TermBind(names[k], types[k])))
        phi, h, atoms = self.phi, self.h, self.vars
        while h < p:
            phi.add(atoms[h])
            h += 1
        while h > p:
            h -= 1
            phi.discard(atoms[h])
        self.h = h
        return envs[p], phi

    def _fold(self, checker: Retyper, marks: set):
        """T-Let's conclusion at each position from the highest whose
        type changed (`marks`) down to the root, while it changes."""
        n, names, types, folds = len(self.lets), self.names, self.types, self.folds
        carry = False
        for p in range(max(marks), self.j - 1, -1):
            if not (carry or p in marks):
                continue
            new = (types[n] if p == n
                   else checker._unbind(names[p], types[p].q, folds[p + 1]))
            carry = new is not folds[p]
            if carry:
                folds[p] = new
