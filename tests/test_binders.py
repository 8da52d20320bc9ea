"""Binder structure, one row per term constructor: which atoms are free,
what substituting a closed value for `x` gives, and which renamings
keep a term alpha-equivalent. Substitution must stop under a binder
that shadows the substituted name."""

import pytest

from rqcheck.syntax import (
    Abs, All, App, Ascribe, Assign, Const, Deref, Fun, INT, Let, LocAtom,
    LocTerm, RefAlloc, RefT, TAbs, TApp, TVar, UnitLit, Var, VarAtom,
    alpha_eq, free_term_atoms, qt, qual, subst_qtype_in_term,
    subst_qual_in_qtype, subst_term,
)

X, Y = VarAtom("x"), VarAtom("y")
V = LocTerm(0)                       # the closed value put in for x
REF_X = qt(RefT(qt(INT)), qual("x"))     # an annotation mentioning x
REF_V = qt(RefT(qt(INT)), qual(locs=[0]))  # ... after the substitution
INT_Q = qt(INT)

# (label, term, free atoms without annotations, with them,
#  the term with V put in for x)
ROWS = [
    ("Const", Const(1), set(), set(), Const(1)),
    ("UnitLit", UnitLit(), set(), set(), UnitLit()),
    ("Var", Var("x"), {X}, {X}, V),
    ("Var-other", Var("y"), {Y}, {Y}, Var("y")),
    ("LocTerm", LocTerm(3), {LocAtom(3)}, {LocAtom(3)}, LocTerm(3)),
    ("Abs",
     Abs("f", "z", REF_X, REF_X, App(Var("x"), Var("z")), qual("x")),
     {X}, {X},
     Abs("f", "z", REF_V, REF_V, App(V, Var("z")), qual(locs=[0]))),
    ("Abs-shadowed-by-param",
     Abs("f", "x", INT_Q, REF_X, Var("x")), set(), set(),
     Abs("f", "x", INT_Q, REF_X, Var("x"))),
    ("Abs-shadowed-by-self",
     Abs("x", "z", INT_Q, None, App(Var("x"), Var("z"))), set(), set(),
     Abs("x", "z", INT_Q, None, App(Var("x"), Var("z")))),
    ("App", App(Var("x"), Var("y")), {X, Y}, {X, Y}, App(V, Var("y"))),
    ("RefAlloc", RefAlloc(Var("x")), {X}, {X}, RefAlloc(V)),
    ("Deref", Deref(Var("x")), {X}, {X}, Deref(V)),
    ("Assign", Assign(Var("x"), Var("y")), {X, Y}, {X, Y}, Assign(V, Var("y"))),
    ("TAbs",
     TAbs("f", "T", "t", REF_X, Deref(Var("x")), qual("x")), {X}, {X},
     TAbs("f", "T", "t", REF_V, Deref(V), qual(locs=[0]))),
    ("TAbs-shadowed-by-self",
     TAbs("x", "T", "t", INT_Q, Var("x")), set(), set(),
     TAbs("x", "T", "t", INT_Q, Var("x"))),
    ("TAbs-shadowed-by-qvar",
     TAbs("f", "T", "x", INT_Q, Ascribe(Const(1), qt(INT, qual("x")))),
     set(), set(),
     TAbs("f", "T", "x", INT_Q, Ascribe(Const(1), qt(INT, qual("x"))))),
    ("TApp", TApp(Var("y"), REF_X), {Y}, {X, Y}, TApp(Var("y"), REF_V)),
    ("Ascribe", Ascribe(Var("y"), REF_X), {Y}, {X, Y}, Ascribe(Var("y"), REF_V)),
    ("Let",
     Let("z", Var("x"), App(Var("z"), Var("x"))), {X}, {X},
     Let("z", V, App(Var("z"), V))),
    ("Let-shadowed",
     Let("x", Var("x"), Deref(Var("x"))), {X}, {X},
     Let("x", V, Deref(Var("x")))),
]


@pytest.mark.parametrize("label,term,free,free_ann,substituted", ROWS,
                         ids=[r[0] for r in ROWS])
def test_binders_scope_over_their_parts(label, term, free, free_ann, substituted):
    assert free_term_atoms(term) == free
    assert free_term_atoms(term, annotations=True) == free_ann
    assert subst_term(term, "x", V) == substituted
    assert alpha_eq(term, term)


def test_every_term_constructor_has_a_row():
    covered = {type(r[1]) for r in ROWS}
    assert covered == {Const, UnitLit, Var, LocTerm, Abs, App, RefAlloc,
                       Deref, Assign, TAbs, TApp, Ascribe, Let}


# (binding term, the same with its binders renamed, the same with a
#  bound occurrence made free)
RENAMINGS = [
    (Abs("f", "y", INT_Q, qt(INT, qual("y")), App(Var("f"), Var("y"))),
     Abs("g", "z", INT_Q, qt(INT, qual("z")), App(Var("g"), Var("z"))),
     Abs("g", "z", INT_Q, qt(INT, qual("z")), App(Var("g"), Var("y")))),
    (TAbs("f", "T", "t", INT_Q, Ascribe(Var("f"), qt(TVar("T"), qual("t")))),
     TAbs("g", "S", "s", INT_Q, Ascribe(Var("g"), qt(TVar("S"), qual("s")))),
     TAbs("g", "S", "s", INT_Q, Ascribe(Var("g"), qt(TVar("T"), qual("s"))))),
    (Let("y", Const(1), Deref(Var("y"))),
     Let("z", Const(1), Deref(Var("z"))),
     Let("z", Const(1), Deref(Var("y")))),
]


@pytest.mark.parametrize("term,renamed,captured", RENAMINGS,
                         ids=["Abs", "TAbs", "Let"])
def test_alpha_equivalence_follows_the_binders(term, renamed, captured):
    assert alpha_eq(term, renamed)
    assert not alpha_eq(term, captured)


def test_type_substitution_stops_under_a_shadowing_type_abstraction():
    inner = TAbs("g", "T", "t", INT_Q, Ascribe(Const(1), qt(TVar("T"), qual("t"))))
    outer = TAbs("f", "S", "s", INT_Q, Ascribe(Const(2), qt(TVar("T"))))
    payload = qt(INT, qual(locs=[0]))
    assert subst_qtype_in_term(inner, "T", "t", payload) == inner
    assert subst_qtype_in_term(outer, "T", "t", payload) == TAbs(
        "f", "S", "s", INT_Q, Ascribe(Const(2), qt(INT)))


def test_qualifier_substitution_in_types_stops_under_a_shadowing_binder():
    # the domain is outside the binder x, the codomain inside it
    fun = qt(Fun("f", "x", qt(INT, qual("x")), qt(INT, qual("x"))))
    assert subst_qual_in_qtype(fun, X, qual(locs=[0])) == qt(
        Fun("f", "x", qt(INT, qual(locs=[0])), qt(INT, qual("x"))))
    univ = qt(All("g", "T", "x", qt(INT, qual("x")), qt(TVar("T"), qual("x"))))
    assert subst_qual_in_qtype(univ, X, qual(locs=[0])) == qt(
        All("g", "T", "x", qt(INT, qual(locs=[0])), qt(TVar("T"), qual("x"))))
