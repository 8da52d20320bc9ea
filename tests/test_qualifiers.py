"""Unit tests for the qualifier operators: substitution, growth,
one-step reachability, saturation, overlap, and qualifier subtyping."""

import pytest

from rqcheck.errors import ScopeError
from rqcheck.qualifiers import (
    one_step, overlap, q_grow, q_subst, qual_sub, saturate, self_closure,
)
from rqcheck.syntax import (
    Fun, INT, LocAtom, Qualifier, QualifiedType, RefT, StoreTyping, TermBind,
    TypeEnv, VarAtom, qt, qual,
)

EMPTY_ENV = TypeEnv()
EMPTY_STORE = StoreTyping()


def env_of(*bindings):
    env = TypeEnv()
    for name, qty in bindings:
        env = env.extended(TermBind(name, qty))
    return env


REF_INT_FRESH = qt(RefT(qt(INT)), qual(fresh=True))


# ---------------------------------------------------------------------------
# q_subst


def test_q_subst_replaces_present_atom():
    q = qual("x", "z")
    assert q_subst(q, VarAtom("x"), qual("a", "b")) == qual("z", "a", "b")


def test_q_subst_identity_when_absent():
    assert q_subst(qual("z"), VarAtom("x"), qual("a")) == qual("z")


def test_q_subst_to_empty():
    assert q_subst(qual("x"), VarAtom("x"), qual()) == qual()


def test_q_subst_ors_freshness():
    q = q_subst(qual("x"), VarAtom("x"), qual(fresh=True))
    assert q.fresh and not q.atoms


# ---------------------------------------------------------------------------
# q_grow


def test_q_grow_on_fresh_qualifier():
    grown = q_grow(qual("x", fresh=True), qual(locs=[1]))
    assert grown == Qualifier(True, frozenset({VarAtom("x"), LocAtom(1)}))


def test_q_grow_retains_marker():
    assert q_grow(qual(fresh=True), qual(locs=[0])).fresh


def test_q_grow_identity_without_marker():
    assert q_grow(qual("x"), qual(locs=[1])) == qual("x")


def test_q_grow_empty():
    assert q_grow(qual(), qual()) == qual()


# ---------------------------------------------------------------------------
# one_step


def test_one_step_variable_binding_qualifier():
    env = env_of(("x", qt(INT)), ("y", qt(INT, qual("x"))))
    assert one_step(env, EMPTY_STORE, VarAtom("y")) == qual("x")


def test_one_step_fresh_binding():
    env = env_of(("x", REF_INT_FRESH))
    assert one_step(env, EMPTY_STORE, VarAtom("x")) == qual(fresh=True)


def test_one_step_location():
    store = EMPTY_STORE.extended(0, qt(INT))
    assert one_step(EMPTY_ENV, store, LocAtom(0)) == qual()


def test_one_step_unbound_is_scope_error():
    with pytest.raises(ScopeError):
        one_step(EMPTY_ENV, EMPTY_STORE, VarAtom("ghost"))


# ---------------------------------------------------------------------------
# saturate


def test_saturate_empty():
    assert saturate(EMPTY_ENV, EMPTY_STORE, qual()) == qual()


def test_saturate_chases_bindings():
    env = env_of(("x", qt(INT)), ("y", qt(INT, qual("x"))))
    assert saturate(env, EMPTY_STORE, qual("y")) == qual("x", "y")


def test_saturate_absorbs_freshness():
    env = env_of(("c1", REF_INT_FRESH),
                 ("c2", qt(RefT(qt(INT)), qual("c1"))))
    assert saturate(env, EMPTY_STORE, qual("c2")) == qual("c1", "c2", fresh=True)


def test_saturate_through_store():
    store = (EMPTY_STORE.extended(0, qt(INT))
             .extended(1, qt(INT, qual(locs=[0]))))
    assert saturate(EMPTY_ENV, store, qual(locs=[1])) == qual(locs=[0, 1])


# ---------------------------------------------------------------------------
# overlap


def test_overlap_of_empties_is_just_the_marker():
    assert overlap(EMPTY_ENV, EMPTY_STORE, qual(), qual()) == qual(fresh=True)


def test_overlap_detects_aliasing_through_bindings():
    env = env_of(("c1", REF_INT_FRESH),
                 ("c2", qt(RefT(qt(INT)), qual("c1"))))
    assert overlap(env, EMPTY_STORE, qual("c2"), qual("c1")) == \
        qual("c1", fresh=True)


def test_overlap_of_untracked_is_disjoint():
    env = env_of(("x", qt(INT)), ("y", qt(INT)))
    assert overlap(env, EMPTY_STORE, qual("x"), qual("y")) == qual(fresh=True)


# ---------------------------------------------------------------------------
# qual_sub


def test_maybe_tracked_equivalence_with_empty():
    env = env_of(("x", qt(INT)))
    assert qual_sub(env, EMPTY_STORE, qual("x"), qual())
    assert qual_sub(env, EMPTY_STORE, qual(), qual("x"))


def test_fresh_binding_blocks_upcast():
    env = env_of(("y", qt(INT, qual(fresh=True))))
    assert not qual_sub(env, EMPTY_STORE, qual("y"), qual(fresh=True))


def test_self_reference_absorbs_capture():
    fun_ty = Fun("f", "u", qt(INT), qt(INT))
    env = env_of(("c", REF_INT_FRESH),
                 ("f", QualifiedType(fun_ty, qual("c"))))
    assert qual_sub(env, EMPTY_STORE, qual("c", "f"), qual("f"))


def test_marker_only_covered_by_marker():
    env = env_of(("x", qt(INT)))
    assert not qual_sub(env, EMPTY_STORE, qual(fresh=True), qual("x"))


def test_location_upcast_through_store():
    store = (EMPTY_STORE.extended(0, qt(INT))
             .extended(1, qt(INT, qual(locs=[0]))))
    assert qual_sub(EMPTY_ENV, store, qual(locs=[0]), qual(locs=[1]))


def test_self_closure_is_blocked_by_fresh_capture():
    fun_ty = Fun("f", "u", qt(INT), qt(INT))
    env = env_of(("c", REF_INT_FRESH),
                 ("f", QualifiedType(fun_ty, qual("c", fresh=True))))
    assert VarAtom("c") not in self_closure(env, qual("f"))
    assert not qual_sub(env, EMPTY_STORE, qual("c", "f"), qual("f"))
