"""Unit tests for type and qualified-type subtyping."""

import itertools

import pytest

from rqcheck.cli import check_source, corpus_text
from rqcheck.errors import FuelExhausted
from rqcheck.qualifiers import qual_sub
from rqcheck.subtyping import qtype_sub, type_sub
from rqcheck.surface import parse
from rqcheck.syntax import (
    All, Fun, INT, QualifiedType, Qualifier, RefT, StoreTyping, TermBind, Top,
    TVar, TypeBind, TypeEnv, UNIT, VarAtom, qt, qual,
)
from rqcheck.typecheck import synthesize

from helpers import corpus_entries

EMPTY_ENV = TypeEnv()
EMPTY_STORE = StoreTyping()
REF_INT = RefT(qt(INT))


def env_of(*entries):
    env = TypeEnv()
    for e in entries:
        env = env.extended(e)
    return env


# ---------------------------------------------------------------------------
# type_sub basics


def test_base_and_top():
    assert type_sub(EMPTY_ENV, EMPTY_STORE, INT, INT)
    assert type_sub(EMPTY_ENV, EMPTY_STORE, INT, Top())
    assert not type_sub(EMPTY_ENV, EMPTY_STORE, INT, UNIT)
    assert not type_sub(EMPTY_ENV, EMPTY_STORE, Top(), INT)


def test_ref_content_qualifier_is_invariant():
    env = env_of(TermBind("x", qt(INT)), TermBind("y", qt(INT)))
    assert type_sub(env, EMPTY_STORE, RefT(qt(INT, qual("x"))),
                    RefT(qt(INT, qual("x"))))
    assert not type_sub(env, EMPTY_STORE, RefT(qt(INT, qual("x"))),
                        RefT(qt(INT, qual("x", "y"))))


def test_ref_content_atoms_must_be_bound_by_their_innermost_binder():
    ref_x = RefT(qt(INT, qual("x")))
    ref_loc = RefT(qt(INT, qual(locs=[0])))
    # a term binder or a qualifier variable binds x; a type variable,
    # nothing, or an unstored location does not
    for env, bound in ((env_of(TermBind("x", qt(INT))), True),
                       (env_of(TypeBind("X", "x", qt(Top()))), True),
                       (env_of(TypeBind("x", "y", qt(Top()))), False),
                       (EMPTY_ENV, False)):
        assert type_sub(env, EMPTY_STORE, ref_x, ref_x) is bound
    assert not type_sub(EMPTY_ENV, EMPTY_STORE, ref_loc, ref_loc)
    assert type_sub(EMPTY_ENV, StoreTyping({0: qt(INT)}), ref_loc, ref_loc)
    # cross-kind shadowing: the type variable x hides the term binder x,
    # as it does from every other lookup, so x is not bound here (the
    # whole domain, `env.dom()`, would still count the outer term binder)
    shadowed = env_of(TermBind("x", qt(INT)), TypeBind("x", "y", qt(Top())))
    assert VarAtom("x") in shadowed.dom()
    assert not type_sub(shadowed, EMPTY_STORE, ref_x, ref_x)


def test_type_variable_chases_its_bound():
    env = env_of(TypeBind("X", "x", qt(Top(), qual(fresh=True))))
    assert type_sub(env, EMPTY_STORE, TVar("X"), Top())
    assert not type_sub(env, EMPTY_STORE, Top(), TVar("X"))


def test_function_domain_contravariant_codomain_covariant():
    env = env_of(TermBind("a", qt(INT)))
    wide = Fun("f", "x", qt(INT, qual("a")), qt(INT))
    narrow = Fun("f", "x", qt(INT), qt(INT, qual("a")))
    # {} <: {a} on the domain (maybe-tracked) and on the codomain
    assert type_sub(env, EMPTY_STORE, narrow, wide)


# ---------------------------------------------------------------------------
# qtype_sub


def test_qualified_base_upcast():
    env = env_of(TermBind("x", qt(INT)))
    assert qtype_sub(env, EMPTY_STORE, qt(INT), qt(INT, qual("x")))


def test_fresh_not_below_variable():
    env = env_of(TermBind("x", qt(REF_INT, qual(fresh=True))))
    assert not qtype_sub(env, EMPTY_STORE, qt(REF_INT, qual(fresh=True)),
                         qt(REF_INT, qual("x")))


def test_self_reference_chain_through_nested_binders():
    # h names a function capturing {x, y}; p names an abstraction
    # capturing {h}: both x and y sit below p by absorbing captures.
    fun = Fun("g", "k", qt(INT), qt(INT))
    forall = All("pr", "C", "c", qt(Top(), qual(fresh=True)), qt(INT))
    env = env_of(
        TermBind("x", qt(REF_INT, qual(fresh=True))),
        TermBind("y", qt(REF_INT, qual(fresh=True))),
        TermBind("h", QualifiedType(fun, qual("x", "y"))),
        TermBind("p", QualifiedType(forall, qual("h"))))
    assert qual_sub(env, EMPTY_STORE, qual("x", "y"), qual("h"))
    assert qual_sub(env, EMPTY_STORE, qual("h"), qual("p"))
    assert qual_sub(env, EMPTY_STORE, qual("x", "y"), qual("p"))


# ---------------------------------------------------------------------------
# Synthetic self-entries


def test_synthetic_self_entry_is_not_usable_by_absorption():
    """The self-entry s-fun pushes is bound at the freshness marker, so
    absorbing a capture into it must fail — unlike a real binding."""
    captured = Fun("f", "u", qt(UNIT), qt(REF_INT, qual("c")))
    self_typed = Fun("f", "u", qt(UNIT), qt(REF_INT, qual("f")))
    env = env_of(TermBind("c", qt(REF_INT, qual(fresh=True))))
    assert not type_sub(env, EMPTY_STORE, captured, self_typed)
    # the same coverage succeeds once f is a real non-fresh binding
    real = env.extended(TermBind("f", QualifiedType(captured, qual("c"))))
    assert qual_sub(real, EMPTY_STORE, qual("c"), qual("f"))


# ---------------------------------------------------------------------------
# Algebraic sanity


def _sample_qtypes():
    env = env_of(TermBind("x", qt(INT)),
                 TermBind("c", qt(REF_INT, qual(fresh=True))))
    return env, [
        qt(INT),
        qt(INT, qual("x")),
        qt(INT, qual("c")),
        qt(INT, qual("c", fresh=True)),
        qt(Top(), qual("c", fresh=True)),
        qt(REF_INT, qual("c")),
        QualifiedType(Fun("f", "y", qt(INT), qt(INT, qual("c"))), qual("c")),
    ]


def test_reflexivity_on_samples():
    env, qtys = _sample_qtypes()
    for q in qtys:
        assert qtype_sub(env, EMPTY_STORE, q, q)


def test_transitivity_on_sample_triples():
    env, qtys = _sample_qtypes()
    for p, q, r in itertools.product(qtys, repeat=3):
        if qtype_sub(env, EMPTY_STORE, p, q) and qtype_sub(env, EMPTY_STORE, q, r):
            assert qtype_sub(env, EMPTY_STORE, p, r)


def test_ref_subtyping_implies_content_equivalence():
    env, qtys = _sample_qtypes()
    for p, q in itertools.product(qtys, repeat=2):
        if type_sub(env, EMPTY_STORE, RefT(p), RefT(q)):
            assert qtype_sub(env, EMPTY_STORE, p, q)
            assert qtype_sub(env, EMPTY_STORE, q, p)


def test_reflexivity_on_corpus_types():
    for entry in corpus_entries("check"):
        if entry.expect.get("status") != "accepted":
            continue
        prog = parse(corpus_text(entry))
        env = TypeEnv()
        for decl in prog.decls:
            if decl[0] == "assume":
                env = env.extended(TermBind(decl[1], decl[2]))
            else:
                result = synthesize(env, EMPTY_STORE, env.dom(), decl[2])
                env = env.extended(TermBind(decl[1], result.qtype))
        qty = synthesize(env, EMPTY_STORE, env.dom(), prog.main).qtype
        assert qtype_sub(env, EMPTY_STORE, qty, qty), entry.name


# ---------------------------------------------------------------------------
# Fuel


def test_universal_unfolding_costs_fuel():
    bound = qt(Top(), qual(fresh=True))
    forall = All("f", "X", "x", bound, qt(TVar("X"), qual("x")))
    assert type_sub(EMPTY_ENV, EMPTY_STORE, forall, forall)
    with pytest.raises(FuelExhausted):
        type_sub(EMPTY_ENV, EMPTY_STORE, forall, forall, fuel=0)
