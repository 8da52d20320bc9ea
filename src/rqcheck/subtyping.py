"""Decision procedures for type and qualified-type subtyping.

Universal types use the full (contravariant-bound) rule, which is
undecidable in general, so every unfolding of a type variable or a
universal spends fuel; running out raises FuelExhausted rather than
returning a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FuelExhausted
from .qualifiers import qual_sub
from .syntax import (
    EMPTY_SUBSTITUTION, All, Base, FRESH, Fun, QualifiedType, RefT,
    StoreTyping, Top, TVar, TermBind, Type, TypeBind, TypeEnv, VarAtom, qual,
)

DEFAULT_FUEL = 512


@dataclass
class _Ctx:
    fuel: int
    counter: int = 0

    def spend(self):
        if self.fuel <= 0:
            raise FuelExhausted("subtyping fuel exhausted")
        self.fuel -= 1

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}%{self.counter}"


def _type_sub(env: TypeEnv, store: StoreTyping, s: Type, t: Type, ctx: _Ctx) -> bool:
    if isinstance(s, TVar) and isinstance(t, TVar) and s.name == t.name:
        return True
    if isinstance(t, Top):
        return True
    if isinstance(s, TVar):
        ctx.spend()
        bound = env.lookup_tvar(s.name)
        if bound is None:
            return False
        return _type_sub(env, store, bound.ty, t, ctx)
    if isinstance(s, Base) and isinstance(t, Base):
        return s.name == t.name
    if isinstance(s, RefT) and isinstance(t, RefT):
        # the rule annotates one shared content qualifier on both sides
        if s.content.q != t.content.q:
            return False
        # each atom bound: a variable as a term binder or a qualifier
        # variable (its innermost binder), a location in Σ
        for a in s.content.q.atoms:
            if (env.binding_qualifier(a) if type(a) is VarAtom
                    else store.get(a.loc)) is None:
                return False
        return (_type_sub(env, store, s.content.ty, t.content.ty, ctx)
                and _type_sub(env, store, t.content.ty, s.content.ty, ctx))
    if isinstance(s, Fun) and isinstance(t, Fun):
        if not _qtype_sub(env, store, t.dom, s.dom, ctx):
            return False
        f = ctx.fresh("f")
        x = ctx.fresh("x")
        fq, xq = qual(f), qual(x)
        scod = EMPTY_SUBSTITUTION.with_qual(s.self_name, fq).with_qual(s.param, xq)(s.cod)
        tcod = EMPTY_SUBSTITUTION.with_qual(t.self_name, fq).with_qual(t.param, xq)(t.cod)
        inner = (env
                 .extended(TermBind(f, QualifiedType(s, FRESH)))
                 .extended(TermBind(x, t.dom)))
        return _qtype_sub(inner, store, scod, tcod, ctx)
    if isinstance(s, All) and isinstance(t, All):
        ctx.spend()
        if not _qtype_sub(env, store, t.bound, s.bound, ctx):
            return False
        f = ctx.fresh("f")
        tv = ctx.fresh("X")
        qv = ctx.fresh("x")
        fq, payload = qual(f), QualifiedType(TVar(tv), qual(qv))
        sbody = EMPTY_SUBSTITUTION.with_qual(s.self_name, fq).with_type(
            s.tvar, s.qvar, payload)(s.body)
        tbody = EMPTY_SUBSTITUTION.with_qual(t.self_name, fq).with_type(
            t.tvar, t.qvar, payload)(t.body)
        inner = (env
                 .extended(TermBind(f, QualifiedType(s, FRESH)))
                 .extended(TypeBind(tv, qv, t.bound)))
        return _qtype_sub(inner, store, sbody, tbody, ctx)
    return False


def _qtype_sub(env: TypeEnv, store: StoreTyping, p: QualifiedType,
               q: QualifiedType, ctx: _Ctx) -> bool:
    # qualifier obligation first, for qualifier-level diagnostics
    if not qual_sub(env, store, p.q, q.q):
        return False
    return _type_sub(env, store, p.ty, q.ty, ctx)


def type_sub(env: TypeEnv, store: StoreTyping, s: Type, t: Type,
             fuel: int = DEFAULT_FUEL) -> bool:
    return _type_sub(env, store, s, t, _Ctx(fuel))


def qtype_sub(env: TypeEnv, store: StoreTyping, p: QualifiedType,
              q: QualifiedType, fuel: int = DEFAULT_FUEL) -> bool:
    return _qtype_sub(env, store, p, q, _Ctx(fuel))
