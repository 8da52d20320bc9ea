"""Operations on reachability qualifiers.

Substitution, growth, one-step reachability, saturation, overlap, and the
decision procedure for qualifier subtyping. All functions are pure.
"""

from __future__ import annotations

from typing import Optional

from .errors import ScopeError
from .syntax import (
    All, Atom, Fun, LocAtom, Qualifier, StoreTyping, TypeEnv, VarAtom,
)


def q_subst(q: Qualifier, atom: Atom, p: Qualifier) -> Qualifier:
    """q with atom replaced by p; identity when the atom is absent.

    Freshness flags are or-ed on the union.
    """
    if atom not in q.atoms:
        return q
    return Qualifier(q.fresh or p.fresh, (q.atoms - {atom}) | p.atoms)


def q_grow(q: Qualifier, p: Qualifier) -> Qualifier:
    """Growth at the freshness marker: q ∪ p when q is fresh, else q.

    The marker is retained so the qualifier can keep growing.
    """
    if not q.fresh:
        return q
    return Qualifier(True, q.atoms | p.atoms)


def one_step(env: TypeEnv, store: StoreTyping, atom: Atom) -> Qualifier:
    """The qualifier the atom was bound at: its immediate reachability."""
    if isinstance(atom, VarAtom):
        b = env.binding_qualifier(atom)
        if b is None:
            raise ScopeError(f"unbound variable atom {atom.name}")
        return b
    entry = store.get(atom.loc)
    if entry is None:
        raise ScopeError(f"unbound location @{atom.loc}")
    return entry.q


def saturate(env: TypeEnv, store: StoreTyping, q: Qualifier) -> Qualifier:
    """Reflexive-transitive closure of one-step reachability.

    Freshness flags of chased binding qualifiers are absorbed; the atom
    part is what disjointness verdicts are computed from.
    """
    atoms = set(q.atoms)
    fresh = q.fresh
    work = list(atoms)
    while work:
        a = work.pop()
        b = one_step(env, store, a)
        fresh = fresh or b.fresh
        for x in b.atoms:
            if x not in atoms:
                atoms.add(x)
                work.append(x)
    return Qualifier(fresh, frozenset(atoms))


def overlap(env: TypeEnv, store: StoreTyping, p: Qualifier,
            q: Qualifier) -> Qualifier:
    """Intersection of the saturations; the freshness marker is always set."""
    sp = saturate(env, store, p)
    sq = saturate(env, store, q)
    return Qualifier(True, sp.atoms & sq.atoms)


def self_closure(env: TypeEnv, q: Qualifier) -> frozenset:
    """Atoms derivable below q by absorbing captures of self-references.

    A function- or universal-typed term variable in q stands for the
    closure itself, so its non-fresh capture qualifier sits below it.
    """
    atoms = set(q.atoms)
    changed = True
    while changed:
        changed = False
        for a in list(atoms):
            if not isinstance(a, VarAtom):
                continue
            b = env.lookup_term(a.name)
            if b is None or not isinstance(b.ty, (Fun, All)) or b.q.fresh:
                continue
            if not b.q.atoms <= atoms:
                atoms |= b.q.atoms
                changed = True
    return frozenset(atoms)


def qual_sub(env: TypeEnv, store: StoreTyping, p: Qualifier, q: Qualifier,
             notes: Optional[list] = None) -> bool:
    """Decide whether p is below q.

    Sound with respect to the declarative rules (plain inclusion,
    self-reference absorption, upcast of a variable to its binding
    qualifier, the analogous chase of a location through the store
    typing, and transitivity); may reject exotic transitive chains.
    """
    if p.fresh and not q.fresh:
        return False
    cover = self_closure(env, q)
    memo: dict = {}

    def covered(a: Atom, stack: frozenset) -> bool:
        if a in cover:
            return True
        if a in memo:
            return memo[a]
        if a in stack:
            return False
        b = one_step(env, store, a)
        if b.fresh:
            memo[a] = False
            return False
        inner = stack | {a}
        ok = all(covered(x, inner) for x in b.atoms)
        if ok:
            memo[a] = True
            if notes is not None and isinstance(a, LocAtom):
                notes.append(f"location @{a.loc} upcast through the store typing")
        return ok

    return all(covered(a, frozenset()) for a in p.atoms)
