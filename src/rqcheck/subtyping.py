"""Decision procedures for type and qualified-type subtyping.

Universal types use the full (contravariant-bound) rule, which is
undecidable in general, so every unfolding of a type variable or a
universal spends fuel; running out raises FuelExhausted rather than
returning a verdict: one unit per `All` compared or type variable unfolded.
A type compared with itself (`s is t`; types are interned) is not walked
when its `Ref` content atoms are bound: the walk would return True, or
raise short of the fuel `_reflexive` counts, which is spent instead.

S-Fun and S-All compare the codomains (bodies) of two binders under one
set of names, bound in Γ for the comparison. They are the left type's
own binder names when those are pairwise distinct, bound in Γ by
nothing and free in neither type: renaming them to fresh names would
change nothing, so the left side is compared as it is and the right
side is renamed only when its names differ. Otherwise both sides are
renamed to fresh names (`_Ctx.fresh`), which no type mentions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FuelExhausted
from .qualifiers import qual_sub
from .syntax import (
    EMPTY_SUBSTITUTION, All, Base, FRESH, Fun, QualifiedType, RefT,
    StoreTyping, Top, TVar, TermBind, Type, TypeBind, TypeEnv, VarAtom,
    free_atoms_type, qual,
)

DEFAULT_FUEL = 512


@dataclass
class _Ctx:
    fuel: int
    counter: int = 0

    def spend(self, n: int = 1):     # as n calls spending one each
        if n and n > self.fuel:
            raise FuelExhausted("subtyping fuel exhausted")
        self.fuel -= n

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}%{self.counter}"


_COMPOUND, _LEAF = (RefT, Fun, All), (0, frozenset())


def _reflexive(ty: Type) -> tuple:
    """(fuel, atoms): what comparing ty with itself spends, and its `Ref`
    content atoms free in ty; kept on ty. The atoms are None (walk it) if
    one names an enclosing `All`'s type variable, which S-All binds with
    no qualifier only under the `All`'s own names, as `_names` decides."""
    if type(ty) not in _COMPOUND:
        return _LEAF
    r = ty._refl
    if r is None:
        if type(ty) is RefT:    # S-Ref compares the contents both ways
            n, atoms = _reflexive(ty.content.ty)
            r = (2 * n, None if atoms is None else atoms | ty.content.q.atoms)
        else:
            fun = type(ty) is Fun
            (n, outer), (m, inner) = (_reflexive(u.ty) for u in (
                (ty.dom, ty.cod) if fun else (ty.bound, ty.body)))
            own = {VarAtom(ty.self_name), VarAtom(ty.param if fun else ty.qvar)}
            r = (n + m + (not fun), None if outer is None or inner is None
                 or not fun and VarAtom(ty.tvar) in inner else outer | (inner - own))
        object.__setattr__(ty, "_refl", r)
    return r


def _bound(env: TypeEnv, store: StoreTyping, atoms) -> bool:
    """S-Ref's scope test: each atom bound, a variable as a term binder or
    a qualifier variable (its innermost binder), a location in Σ."""
    return all((env.binding_qualifier(a) if type(a) is VarAtom
                else store.get(a.loc)) is not None for a in atoms)


def _type_sub(env: TypeEnv, store: StoreTyping, s: Type, t: Type, ctx: _Ctx) -> bool:
    if s is t and type(s) in _COMPOUND:     # reflexivity (module docstring)
        n, atoms = _reflexive(s)
        if atoms is not None and _bound(env, store, atoms):
            ctx.spend(n)
            return True
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
        if not _bound(env, store, s.content.q.atoms):
            return False
        return (_type_sub(env, store, s.content.ty, t.content.ty, ctx)
                and _type_sub(env, store, t.content.ty, s.content.ty, ctx))
    if isinstance(s, Fun) and isinstance(t, Fun):
        if not _qtype_sub(env, store, t.dom, s.dom, ctx):
            return False
        f, x = _names(env, ctx, s, t, (s.self_name, s.param), "fx")
        scod, tcod = (
            u.cod if u.self_name == f and u.param == x
            else EMPTY_SUBSTITUTION.with_qual(u.self_name, qual(f)).with_qual(
                u.param, qual(x))(u.cod)
            for u in (s, t))
        inner = (env
                 .extended(TermBind(f, QualifiedType(s, FRESH)))
                 .extended(TermBind(x, t.dom)))
        return _qtype_sub(inner, store, scod, tcod, ctx)
    if isinstance(s, All) and isinstance(t, All):
        ctx.spend()
        if not _qtype_sub(env, store, t.bound, s.bound, ctx):
            return False
        f, tv, qv = _names(env, ctx, s, t, (s.self_name, s.tvar, s.qvar), "fXx")
        sbody, tbody = (
            u.body if u.self_name == f and u.tvar == tv and u.qvar == qv
            else EMPTY_SUBSTITUTION.with_qual(u.self_name, qual(f)).with_type(
                u.tvar, u.qvar, QualifiedType(TVar(tv), qual(qv)))(u.body)
            for u in (s, t))
        inner = (env
                 .extended(TermBind(f, QualifiedType(s, FRESH)))
                 .extended(TypeBind(tv, qv, t.bound)))
        return _qtype_sub(inner, store, sbody, tbody, ctx)
    return False


def _names(env: TypeEnv, ctx: _Ctx, s: Type, t: Type, own: tuple,
           bases: str) -> tuple:
    """The names to compare the binders of s and t under: s's own, when
    they are pairwise distinct, bound in Γ by nothing and free in neither
    type, as renaming them to fresh names would then change nothing;
    else fresh names, one per letter of bases."""
    if len(set(own)) == len(own):
        s_free, t_free = free_atoms_type(s), free_atoms_type(t)
        for name in own:
            a = VarAtom(name)
            if a in s_free or a in t_free or env.binder(name) is not None:
                break
        else:
            return own
    return tuple(ctx.fresh(b) for b in bases)


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
