"""Algorithmic term typing.

Synthesis-only: subsumption is confined to explicit ascriptions and the
compatibility checks inside application, assignment, and annotation
enforcement. Every rejection carries exactly one primary error code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .errors import CheckError, FuelExhausted, InternalError
from .qualifiers import overlap, qual_sub
from .subtyping import DEFAULT_FUEL, type_sub
from .surface import pretty as _pretty
from .syntax import (
    Abs, All, App, Ascribe, Assign, Const, Deref, Fun, INT, Let,
    LocTerm, LocAtom, QualifiedType, Qualifier, RefAlloc, RefT, StoreTyping,
    TAbs, TApp, TermBind, Term, Top, TypeBind, TypeEnv, UNIT, UnitLit, Var,
    VarAtom, free_atoms_qtype, free_atoms_type, free_term_atoms,
    subst_qual_in_qtype, subst_tvar_in_qtype, telescope_ok, well_scoped_qtype,
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
FUEL_EXHAUSTED = "FuelExhausted"
SCOPE_ERROR = "ScopeError"


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
        try:
            if not qual_sub(env, self.store, have.q, want.q, self.trace):
                raise CheckError(
                    QUALIFIER_MISMATCH,
                    f"{what}: qualifier {_pretty(have.q)} is not below "
                    f"{_pretty(want.q)}")
            if not type_sub(env, self.store, have.ty, want.ty, self.fuel):
                raise CheckError(
                    TYPE_MISMATCH,
                    f"{what}: type {_pretty(have.ty)} is not a subtype of "
                    f"{_pretty(want.ty)}")
        except FuelExhausted:
            raise CheckError(FUEL_EXHAUSTED,
                             f"{what}: subtyping fuel exhausted") from None

    def _require_scoped(self, env: TypeEnv, qty: QualifiedType, what: str):
        if not well_scoped_qtype(qty, env, self.store):
            raise CheckError(SCOPE_ERROR,
                             f"{what} mentions names not in scope: {_pretty(qty)}")

    def _observable(self, q: Qualifier, phi: frozenset, what: str,
                    extra: frozenset = frozenset()):
        if not q.atoms <= (phi | extra):
            missing = ", ".join(sorted(a.render() for a in q.atoms - (phi | extra)))
            raise CheckError(UNOBSERVABLE, f"{what}: {missing} not observable")

    def _capture_qualifier(self, env: TypeEnv, phi: frozenset, t,
                           what: str) -> Qualifier:
        """Captured qualifier of an abstraction: the free variables by
        default, or the explicit annotation when one is given. The body
        is checked under the capture, so an annotation omitting a used
        variable fails there as unobservable."""
        if t.capture is None:
            capture = Qualifier(False, free_term_atoms(t))
        else:
            if t.capture.fresh:
                raise CheckError(
                    FRESHNESS_VIOLATION,
                    f"{what} capture annotation {_pretty(t.capture)} "
                    f"may not be fresh")
            capture = t.capture
        self._observable(capture, phi, f"{what} capture qualifier")
        return capture

    # -- synthesis --------------------------------------------------------

    def synth(self, env: TypeEnv, phi: frozenset, t: Term) -> QualifiedType:
        if isinstance(t, Const):
            self.trace.append("t-cst")
            return QualifiedType(INT, Qualifier())
        if isinstance(t, UnitLit):
            self.trace.append("t-cst")
            return QualifiedType(UNIT, Qualifier())

        if isinstance(t, Var):
            bound = env.lookup_term(t.name)
            if bound is None:
                raise CheckError(UNBOUND_VAR, f"variable {t.name} is not bound")
            if VarAtom(t.name) not in phi:
                raise CheckError(UNOBSERVABLE,
                                 f"variable {t.name} is not observable here")
            self.trace.append(f"t-var {t.name}")
            return QualifiedType(bound.ty,
                                 Qualifier(False, frozenset({VarAtom(t.name)})))

        if isinstance(t, LocTerm):
            entry = self.store.get(t.loc)
            if entry is None:
                raise CheckError(UNBOUND_VAR, f"location @{t.loc} is not typed")
            if free_atoms_qtype(entry) - self.store.dom():
                raise CheckError(SCOPE_ERROR,
                                 f"store entry for @{t.loc} is not closed")
            self._observable(entry.q.with_atoms([LocAtom(t.loc)]), phi,
                             f"location @{t.loc}")
            self.trace.append(f"t-loc @{t.loc}")
            return QualifiedType(RefT(entry),
                                 entry.q.with_atoms([LocAtom(t.loc)]))

        if isinstance(t, Abs):
            self._require_scoped(env, t.dom, "parameter annotation")
            capture = self._capture_qualifier(env, phi, t, "function")
            f_atom, x_atom = VarAtom(t.self_name), VarAtom(t.param)
            if t.cod is not None:
                self_ty = Fun(t.self_name, t.param, t.dom, t.cod)
            else:
                # recursion needs an annotation; Top here is a safe stub
                stub = QualifiedType(Top(), Qualifier(True, frozenset({f_atom, x_atom})))
                self_ty = Fun(t.self_name, t.param, t.dom, stub)
            inner_env = (env
                         .extended(TermBind(t.self_name, QualifiedType(self_ty, capture)))
                         .extended(TermBind(t.param, t.dom)))
            inner_phi = capture.atoms | {f_atom, x_atom}
            body_q = self.synth(inner_env, frozenset(inner_phi), t.body)
            if t.cod is not None:
                self._require_scoped(inner_env, t.cod, "codomain annotation")
                self._sub_qtype(inner_env, body_q, t.cod, "codomain annotation")
                cod = t.cod
            else:
                cod = body_q
            self.trace.append(f"t-abs {t.self_name}")
            return QualifiedType(Fun(t.self_name, t.param, t.dom, cod), capture)

        if isinstance(t, App):
            fn_q = self.synth(env, phi, t.fn)
            if not isinstance(fn_q.ty, Fun):
                raise CheckError(TYPE_MISMATCH,
                                 f"applied a non-function of type {_pretty(fn_q.ty)}")
            fun, qf = fn_q.ty, fn_q.q
            arg_q = self.synth(env, phi, t.arg)
            try:
                if not type_sub(env, self.store, arg_q.ty, fun.dom.ty, self.fuel):
                    raise CheckError(
                        TYPE_MISMATCH,
                        f"argument type {_pretty(arg_q.ty)} does not match "
                        f"parameter type {_pretty(fun.dom.ty)}")
            except FuelExhausted:
                raise CheckError(FUEL_EXHAUSTED,
                                 "argument subtyping fuel exhausted") from None
            d, pa = fun.dom.q, arg_q.q
            if not d.fresh:
                if pa.fresh:
                    raise CheckError(
                        FRESHNESS_VIOLATION,
                        f"fresh argument {_pretty(pa)} passed to non-fresh "
                        f"parameter {_pretty(d)}")
                if not qual_sub(env, self.store, pa, d, self.trace):
                    raise CheckError(
                        QUALIFIER_MISMATCH,
                        f"argument qualifier {_pretty(pa)} is not below "
                        f"parameter qualifier {_pretty(d)}")
                self.trace.append("t-app")
            else:
                ov = overlap(env, self.store, pa, qf)
                if not qual_sub(env, self.store, ov, d, self.trace):
                    raise CheckError(
                        OVERLAP_VIOLATION,
                        f"observable overlap {_pretty(ov)} of argument "
                        f"{_pretty(pa)} and function {_pretty(qf)} exceeds "
                        f"parameter qualifier {_pretty(d)}")
                self.trace.append("t-app-fresh overlap check")
            cod = fun.cod
            fv_u = free_atoms_type(cod.ty)
            if pa.fresh and VarAtom(fun.param) in fv_u:
                raise CheckError(
                    DEPENDENCY_VIOLATION,
                    f"result type depends on {fun.param} but the argument is fresh")
            if qf.fresh and VarAtom(fun.self_name) in fv_u:
                raise CheckError(
                    DEPENDENCY_VIOLATION,
                    f"result type depends on {fun.self_name} but the function is fresh")
            self._observable(cod.q, phi, "result qualifier",
                             frozenset({VarAtom(fun.param), VarAtom(fun.self_name)}))
            out = subst_qual_in_qtype(cod, VarAtom(fun.param), pa)
            out = subst_qual_in_qtype(out, VarAtom(fun.self_name), qf)
            return out

        if isinstance(t, RefAlloc):
            init_q = self.synth(env, phi, t.init)
            if init_q.q.fresh:
                raise CheckError(
                    REF_CONTENT_FRESH,
                    f"reference content has fresh qualifier {_pretty(init_q.q)}")
            self.trace.append("t-ref")
            return QualifiedType(RefT(init_q), Qualifier(True, init_q.q.atoms))

        if isinstance(t, Deref):
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

        if isinstance(t, Assign):
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
            if not qual_sub(env, self.store, rhs_q.q, content.q, self.trace):
                raise CheckError(
                    QUALIFIER_MISMATCH,
                    f"assigned value qualifier {_pretty(rhs_q.q)} is not below "
                    f"content qualifier {_pretty(content.q)}")
            try:
                ok = type_sub(env, self.store, rhs_q.ty, content.ty, self.fuel)
            except FuelExhausted:
                raise CheckError(FUEL_EXHAUSTED,
                                 "assignment subtyping fuel exhausted") from None
            if not ok:
                raise CheckError(
                    TYPE_MISMATCH,
                    f"assigned value type {_pretty(rhs_q.ty)} is not below "
                    f"content type {_pretty(content.ty)}")
            self.trace.append("t-assgn")
            return QualifiedType(UNIT, Qualifier())

        if isinstance(t, TAbs):
            self._require_scoped(env, t.bound, "bound annotation")
            capture = self._capture_qualifier(env, phi, t, "type abstraction")
            f_atom, x_atom = VarAtom(t.self_name), VarAtom(t.qvar)
            stub = QualifiedType(Top(), Qualifier(True, frozenset({f_atom, x_atom})))
            self_ty = All(t.self_name, t.tvar, t.qvar, t.bound, stub)
            inner_env = (env
                         .extended(TermBind(t.self_name, QualifiedType(self_ty, capture)))
                         .extended(TypeBind(t.tvar, t.qvar, t.bound)))
            inner_phi = capture.atoms | {f_atom, x_atom}
            body_q = self.synth(inner_env, frozenset(inner_phi), t.body)
            self.trace.append(f"t-tabs {t.self_name}")
            return QualifiedType(
                All(t.self_name, t.tvar, t.qvar, t.bound, body_q), capture)

        if isinstance(t, TApp):
            fn_q = self.synth(env, phi, t.fn)
            if not isinstance(fn_q.ty, All):
                raise CheckError(
                    TYPE_MISMATCH,
                    f"type-applied a non-universal of type {_pretty(fn_q.ty)}")
            univ, qf = fn_q.ty, fn_q.q
            self._require_scoped(env, t.arg, "type argument")
            try:
                if not type_sub(env, self.store, t.arg.ty, univ.bound.ty, self.fuel):
                    raise CheckError(
                        TYPE_MISMATCH,
                        f"type argument {_pretty(t.arg.ty)} is not below the "
                        f"bound {_pretty(univ.bound.ty)}")
            except FuelExhausted:
                raise CheckError(FUEL_EXHAUSTED,
                                 "bound subtyping fuel exhausted") from None
            d, p = univ.bound.q, t.arg.q
            self._observable(p, phi, "type argument qualifier")
            if not d.fresh:
                if p.fresh:
                    raise CheckError(
                        FRESHNESS_VIOLATION,
                        f"fresh qualifier argument {_pretty(p)} passed to "
                        f"non-fresh bound {_pretty(d)}")
                if not qual_sub(env, self.store, p, d, self.trace):
                    raise CheckError(
                        QUALIFIER_MISMATCH,
                        f"qualifier argument {_pretty(p)} is not below the "
                        f"bound qualifier {_pretty(d)}")
                self.trace.append("t-tapp")
            else:
                ov = overlap(env, self.store, p, qf)
                if not qual_sub(env, self.store, ov, d, self.trace):
                    raise CheckError(
                        OVERLAP_VIOLATION,
                        f"observable overlap {_pretty(ov)} of the qualifier "
                        f"argument and the abstraction exceeds the bound "
                        f"{_pretty(d)}")
                self.trace.append("t-tapp-fresh overlap check")
            cod = univ.body
            fv_u = free_atoms_type(cod.ty)
            if p.fresh and VarAtom(univ.qvar) in fv_u:
                raise CheckError(
                    DEPENDENCY_VIOLATION,
                    f"result type depends on {univ.qvar} but the qualifier "
                    f"argument is fresh")
            if qf.fresh and VarAtom(univ.self_name) in fv_u:
                raise CheckError(
                    DEPENDENCY_VIOLATION,
                    f"result type depends on {univ.self_name} but the "
                    f"abstraction is fresh")
            self._observable(cod.q, phi, "result qualifier",
                             frozenset({VarAtom(univ.qvar), VarAtom(univ.self_name)}))
            out = subst_tvar_in_qtype(cod, univ.tvar, univ.qvar, t.arg)
            out = subst_qual_in_qtype(out, VarAtom(univ.self_name), qf)
            return out

        if isinstance(t, Ascribe):
            self._require_scoped(env, t.qtype, "ascription")
            got = self.synth(env, phi, t.term)
            self._observable(t.qtype.q, phi, "ascription qualifier")
            self._sub_qtype(env, got, t.qtype, "ascription")
            self.trace.append("t-sub")
            return t.qtype

        if isinstance(t, Let):
            rhs_q = self.synth(env, phi, t.rhs)
            inner_env = env.extended(TermBind(t.name, rhs_q))
            body_q = self.synth(inner_env, phi | {VarAtom(t.name)}, t.body)
            if rhs_q.q.fresh and VarAtom(t.name) in free_atoms_type(body_q.ty):
                raise CheckError(
                    DEPENDENCY_VIOLATION,
                    f"result type depends on {t.name} whose binding is fresh")
            self.trace.append(f"t-let {t.name}")
            return subst_qual_in_qtype(body_q, VarAtom(t.name), rhs_q.q)

        raise CheckError(TYPE_MISMATCH, f"cannot type {t!r}")


def synthesize(env: TypeEnv, store: StoreTyping, phi: frozenset, t: Term,
               fuel: int = DEFAULT_FUEL) -> TypingResult:
    """Synthesize a qualified type; raises CheckError on rejection."""
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
