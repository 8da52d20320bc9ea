"""Operations on reachability qualifiers.

Growth, one-step reachability, saturation, overlap, and the decision
procedure for qualifier subtyping. `q_subst` substitutes for one atom; the
checker and the machine substitute with `syntax._Substitution`, and the
tests compare the two. Atoms and qualifiers are interned (see
`syntax._Interned`), so the sets, dicts and table rows below hash and
compare their members by identity, without a call into Python.

Every function but `qual_sub` is pure. Past plain inclusion, `qual_sub`
keeps one table for the last (environment, store typing) pair, held by
identity: `TypeEnv` is frozen and a `StoreTyping` is never changed after
it is built. A call on any other pair replaces the table. For each
`q.atoms` asked about, the table holds the atoms proven below q, starting
from `self_closure(q)`, and the atoms proven not below q. Reusing them is
exact. An atom outside the closure has exactly one rule (every atom of
its binding qualifier is below q), so whether it is below q is the least
fixpoint of those rules, whatever was asked before. The search from a
top-level call computes it, so the table keeps what such a search
proves, the fresh bindings it meets and its top-level refutations, and
not a refutation made by cutting a cycle deeper down. The atoms of p are
still tried in their own order, so a query that reaches an unbound atom
still raises. `forget(env)` drops the table if it is env's, for a
caller that must see every entry of Γ a query under env reads
(`typecheck.Retyper`).
"""

from __future__ import annotations

from .errors import ScopeError
from .syntax import (
    All, Atom, Fun, Qualifier, StoreTyping, TypeEnv, VarAtom,
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
    One lookup per binding; its qualifier is read only for a `Fun` or `All`.
    """
    atoms = set(q.atoms)
    changed = True
    while changed:
        changed = False
        for a in list(atoms):
            if type(a) is not VarAtom:
                continue
            e = env.term_entry(a.name)
            if e is None or not isinstance(e.ty, (Fun, All)):
                continue
            b = e.q
            if not b.fresh and not b.atoms <= atoms:
                atoms |= b.atoms
                changed = True
    return frozenset(atoms)


# qual_sub's table: the (environment, store typing) pair it is for, and
# its rows, q.atoms -> (atoms proven below q, atoms refuted)
_table: tuple = (None, None, {})


def forget(env: TypeEnv):
    """Drop qual_sub's table if it is env's: its rows answer without
    reading Γ, so the next query under env chases what it needs again."""
    global _table
    if _table[0] is env:
        _table = (None, None, {})


def _covered(env: TypeEnv, store: StoreTyping, proven: set, refuted: set,
             a: Atom, stack: frozenset) -> bool:
    """Whether a is below the qualifier whose cover `proven` starts from,
    by chasing one-step reachability; adds each proof to `proven` and each
    fresh binding met to `refuted`."""
    if a in proven:
        return True
    if a in refuted or a in stack:
        return False
    b = one_step(env, store, a)
    if b.fresh:
        refuted.add(a)
        return False
    inner = stack | {a}
    if not all(_covered(env, store, proven, refuted, x, inner)
               for x in b.atoms):
        return False
    proven.add(a)
    return True


def qual_sub(env: TypeEnv, store: StoreTyping, p: Qualifier,
             q: Qualifier) -> bool:
    """Decide whether p is below q.

    Sound with respect to the declarative rules (plain inclusion,
    self-reference absorption, upcast of a variable to its binding
    qualifier, the analogous chase of a location through the store
    typing, and transitivity); may reject exotic transitive chains.
    Plain inclusion is True at once: the search finds p in self_closure(q)
    ⊇ q.atoms, which raises on no atom, so Γ need not be read.
    """
    global _table
    if p.fresh and not q.fresh:
        return False
    if p.atoms <= q.atoms:    # plain inclusion: no table, no Γ read
        return True
    last_env, last_store, rows = _table
    if env is not last_env or store is not last_store:
        rows = {}
        _table = (env, store, rows)
    row = rows.get(q.atoms)
    if row is None:
        row = rows[q.atoms] = (set(self_closure(env, q)), set())
    proven, refuted = row
    if p.atoms <= proven:
        return True
    for a in p.atoms:
        if a in proven:
            continue
        if a in refuted:
            return False
        if not _covered(env, store, proven, refuted, a, frozenset()):
            refuted.add(a)
            return False
    return True
