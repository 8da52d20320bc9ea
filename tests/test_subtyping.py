"""Unit tests for type and qualified-type subtyping."""

import importlib
import itertools

import pytest

from rqcheck import machine, subtyping, typecheck
from rqcheck.cli import check_source, corpus_text
from rqcheck.errors import FuelExhausted, RqError
from rqcheck.machine import check_preservation
from rqcheck.qualifiers import qual_sub
from rqcheck.subtyping import qtype_sub, type_sub
from rqcheck.surface import elaborate, parse
from rqcheck.syntax import (
    SHAPES, All, Fun, INT, QualifiedType, Qualifier, RefT, StoreTyping,
    TermBind, Top, TVar, TypeBind, TypeEnv, UNIT, VarAtom, free_atoms_type, qt,
    qual,
)
from rqcheck.typecheck import synthesize

from helpers import bench_families, corpus_entries, runnable_programs

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


# ---------------------------------------------------------------------------
# Binders compared under their own names


def _recorded_queries(monkeypatch) -> list:
    """Every type_sub query, as (Γ, Σ, s, t, fuel), made while checking
    the corpus and the families at n = 1..4, and while verifying the
    runnable corpus programs and the verify workload's family programs;
    a query asked again of the same Γ and Σ objects is kept once."""
    queries = {}

    def recording(env, store, s, t, fuel=subtyping.DEFAULT_FUEL):
        queries.setdefault((id(env), id(store), s, t, fuel), (env, store, s, t, fuel))
        return type_sub(env, store, s, t, fuel)

    monkeypatch.setattr(typecheck, "type_sub", recording)
    monkeypatch.setattr(machine, "type_sub", recording)
    families = bench_families()
    for entry in corpus_entries("check"):
        try:
            check_source(corpus_text(entry))
        except RqError:
            pass    # a rejected program makes queries too
    for make in families.FAMILIES.values():
        for n in range(1, 5):
            check_source(make(n).text)
    workloads = importlib.import_module("workloads")
    sizes = [("assign_ring", n) for n in workloads.LADDERS["verify"]]
    sizes += workloads.GRADES["verify"]
    terms = [t for _, t in runnable_programs()]
    terms += [elaborate(parse(families.FAMILIES[f](n).text)) for f, n in sizes]
    for term in terms:
        check_preservation(term, StoreTyping())
    monkeypatch.undo()
    return list(queries.values())


def _binder_names(ty, acc: set) -> set:
    """acc with every binder name of the type, at any depth."""
    shape = SHAPES[type(ty)]
    acc.update(getattr(ty, f) for f, _ in shape.binds)
    for f, _, _ in shape.parts:
        _binder_names(getattr(ty, f).ty, acc)
    return acc


def _verdict(env, store, s, t, fuel):
    try:
        return type_sub(env, store, s, t, fuel)
    except Exception as exc:
        return type(exc).__name__


def test_binders_under_their_own_names_agree_with_fresh_names(monkeypatch):
    # a dummy binding in Γ of each binder name of s and t (unless it is
    # free in them or already bound) makes S-Fun and S-All rename both
    # sides to fresh names at every depth, as they always did before
    queries = _recorded_queries(monkeypatch)
    assert len(queries) > 500, len(queries)
    minted = [0]
    fresh = subtyping._Ctx.fresh

    def counted(ctx, base):
        minted[0] += 1
        return fresh(ctx, base)

    monkeypatch.setattr(subtyping._Ctx, "fresh", counted)
    own_names = forced_names = 0
    for env, store, s, t, fuel in queries:
        minted[0] = 0
        want = _verdict(env, store, s, t, fuel)
        own_names += minted[0]
        free = {a.name for a in free_atoms_type(s) | free_atoms_type(t)
                if type(a) is VarAtom}
        forced = env
        for name in sorted(_binder_names(s, set()) | _binder_names(t, set())):
            if name not in free and env.binder(name) is None:
                forced = forced.extended(TermBind(name, qt(INT)))
        minted[0] = 0
        assert _verdict(forced, store, s, t, fuel) == want, (s, t)
        forced_names += minted[0]
    # the queries reach S-Fun and S-All, and only the forced replays
    # rename every binder to fresh names
    assert forced_names > 500 and 20 * own_names < forced_names


_FRESH_INT = qt(INT, Qualifier(fresh=True))


@pytest.mark.parametrize("s, t, want", [
    # alpha-equivalent: only the right side's differing param is renamed
    (Fun("f", "x", _FRESH_INT, qt(INT, qual("x"))),
     Fun("f", "y", _FRESH_INT, qt(INT, qual("y"))), True),
    (All("p", "X", "x", qt(Top(), qual(fresh=True)), qt(TVar("X"), qual("x"))),
     All("q", "Y", "y", qt(Top(), qual(fresh=True)), qt(TVar("Y"), qual("y"))),
     True),
    # s's names are not pairwise distinct: its param hides its self name,
    # and naming both of t's binders alike would merge them
    (Fun("a", "a", _FRESH_INT, qt(INT, qual("a"))),
     Fun("g", "y", _FRESH_INT, qt(INT, qual("g"))), False),
    # s's self name is free in t (an unbound name): comparing under it
    # would capture t's free a
    (Fun("a", "x", qt(INT), qt(RefT(qt(INT, qual("a"))))),
     Fun("g", "y", qt(INT), qt(RefT(qt(INT, qual("a"))))), False),
])
def test_binders_are_compared_under_own_names_only_when_that_renames_nothing(
        s, t, want):
    assert type_sub(EMPTY_ENV, EMPTY_STORE, s, t) is want
    # a binding of each binder name forces fresh names
    forced = EMPTY_ENV
    for name in sorted(_binder_names(s, set()) | _binder_names(t, set())):
        forced = forced.extended(TermBind(name, qt(INT)))
    assert type_sub(forced, EMPTY_STORE, s, t) is want
