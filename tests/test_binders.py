"""Binder structure, one row per term constructor: which atoms are free,
what substituting a closed value for `x` gives, and which renamings
keep a term alpha-equivalent. Substitution must stop under a binder
that shadows the substituted name. The machine's pending substitution,
which puts closed values and type arguments in all at once, must agree
with a reference rewrite that puts them in one binding at a time."""

from collections import Counter

import pytest

from helpers import bench_families, corpus_entries, corpus_text, sep_pairs
from rqcheck.cli import check_source
from rqcheck.errors import RqError
from rqcheck import syntax
from rqcheck.machine import check_preservation, eval_term, separation_experiment
from rqcheck.qualifiers import q_subst
from rqcheck.surface import elaborate, parse
from rqcheck.syntax import (
    Abs, All, App, Ascribe, Assign, Const, Deref, Fun, INT, Let, LocAtom,
    LocTerm, Qualifier, RefAlloc, RefT, StoreTyping, TAbs, TApp, TVar,
    UnitLit, Var, VarAtom, alpha_eq, free_term_atoms, map_parts, qt, qual,
    subst_qtype_in_term, subst_term, value_qualifier,
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


def test_alpha_equivalence_is_symmetric_when_a_free_name_meets_a_bound_one():
    # Y is free in the first body and bound in the second: in either
    # order the two types differ
    free_y = qt(All("g", "Y2", "y2", qt(INT), qt(TVar("Y"))))
    bound_y = qt(All("g", "Y", "y", qt(INT), qt(TVar("Y"))))
    assert not alpha_eq(free_y, bound_y)
    assert not alpha_eq(bound_y, free_y)
    free_x = Abs("f", "x2", INT_Q, None, Var("x"))
    bound_x = Abs("f", "x", INT_Q, None, Var("x"))
    assert not alpha_eq(free_x, bound_x)
    assert not alpha_eq(bound_x, free_x)
    # the same holds for an atom of a qualifier
    free_q = qt(Fun("f", "a2", qt(INT), qt(INT, qual("a"))))
    bound_q = qt(Fun("f", "a", qt(INT), qt(INT, qual("a"))))
    assert not alpha_eq(free_q, bound_q)
    assert not alpha_eq(bound_q, free_q)
    assert alpha_eq(bound_q, qt(Fun("f", "b", qt(INT), qt(INT, qual("b")))))


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
    to_loc = syntax.EMPTY_SUBSTITUTION.with_qual("x", qual(locs=[0]))
    assert to_loc(fun) == qt(
        Fun("f", "x", qt(INT, qual(locs=[0])), qt(INT, qual("x"))))
    univ = qt(All("g", "T", "x", qt(INT, qual("x")), qt(TVar("T"), qual("x"))))
    assert to_loc(univ) == qt(
        All("g", "T", "x", qt(INT, qual(locs=[0])), qt(TVar("T"), qual("x"))))


def test_type_substitution_renames_a_binder_that_would_capture_the_payload():
    # the payload mentions Y^y; under a binder named Y (or y) the body's X
    # must still become the outer Y, not the bound one
    payload = qt(TVar("Y"), qual("y"))
    sub = syntax.EMPTY_SUBSTITUTION.with_type("X", "x", payload)

    def univ(tvar, qvar):
        body = qt(Fun("k", "a", qt(TVar("X"), qual("x")), qt(TVar(tvar), qual(qvar))))
        return qt(All("g", tvar, qvar, qt(INT), body))

    def expected(tvar, qvar):
        body = qt(Fun("k", "a", payload, qt(TVar(tvar), qual(qvar))))
        return qt(All("g", tvar, qvar, qt(INT), body))

    assert alpha_eq(sub(univ("Y", "y")), expected("W", "w"))
    assert sub(univ("Y", "y")) == expected("Y'", "y'")
    assert sub(univ("W", "w")) == expected("W", "w")


# ---------------------------------------------------------------------------
# The pending substitution against a one-binding-at-a-time reference

LET_SPINE = """
val a = ref 1;
val b = ref 0;
val c = ref 0;
val unused = 5;
val d = b := !a;
val e = c := !b;
!c
"""

CLOSURE_TOWER = """
val c = ref 7;
val f0 = fn f0(u: Unit^{}) { !c };
val f1 = fn f1(u: Unit^{}) { f0(u) };
val f2 = fn f2(u: Unit^{}) { f1(u) };
f2(unit)
"""


def _locations(t) -> frozenset:
    """The locations a term mentions outside its annotations, found by a
    walk that visits every node."""
    found = set()

    def visit(s):
        if type(s) is LocTerm:
            found.add(LocAtom(s.loc))
        return map_parts(s, term=visit)

    visit(t)
    return frozenset(found)


def _rewrite(t, name, value=None, ty=None, payload=None):
    """t with one name replaced wherever it is free: a variable by value,
    a type variable by ty and an atom by payload, each when given. Every
    node is visited."""
    names, atom = {name}, VarAtom(name)

    def qual_fn(q):
        return q if payload is None else q_subst(q, atom, payload)

    def qtype(q):
        if type(q.ty) is TVar and q.ty.name == name and ty is not None:
            return qt(ty, qual_fn(q.q))
        return qt(map_parts(q.ty, None, qtype, None, names), qual_fn(q.q))

    def term(s):
        if type(s) is Var and s.name == name and value is not None:
            return value
        return map_parts(s, term, qtype, qual_fn, names)

    return term(t)


def reference_subst_term(t, name, v):
    if isinstance(v, (Abs, TAbs)) and v.capture is not None:
        payload = Qualifier(False, v.capture.atoms)
    else:
        payload = Qualifier(False, _locations(v))  # v is closed
    assert value_qualifier(v) == payload
    return _rewrite(t, name, value=v, payload=payload)


def _differential_run(monkeypatch, term, fuel) -> Counter:
    """Evaluate term, and run the preservation harness on it, checking
    every non-empty pending substitution the machine and the re-typing
    apply against the reference, which puts
    its bindings in one at a time; counts (kind, whether it left t as
    is), the kind "types" when a type argument is among the bindings."""
    seen = Counter()
    applied = syntax._Substitution.term

    def pending(sub, t):
        out = applied(sub, t)
        if not sub.values and not sub.types:
            assert out is t
            return out
        expected = t
        for name, v in sub.values.items():
            expected = reference_subst_term(expected, name, v)
        for tvar, ty in sub.types.items():
            expected = _rewrite(expected, tvar, ty=ty)
        for name, q in sub.quals.items():
            if name not in sub.values:
                expected = _rewrite(expected, name, payload=q)
        assert out == expected
        free = free_term_atoms(t, annotations=True)
        unchanged = not any(VarAtom(n) in free for n in sub.names if n)
        if unchanged:
            assert out is t
        seen["types" if sub.types else "values", unchanged] += 1
        return out

    monkeypatch.setattr(syntax._Substitution, "term", pending)
    eval_term(term, fuel=fuel)
    check_preservation(term, StoreTyping(), fuel=fuel)
    return seen


DIFFERENTIAL = [(e.name, corpus_text(e)) for e in corpus_entries("eval")] + [
    ("let-spine", LET_SPINE), ("closure-tower", CLOSURE_TOWER)]


@pytest.mark.parametrize("name,text", DIFFERENTIAL, ids=[d[0] for d in DIFFERENTIAL])
def test_guarded_substitution_matches_the_unguarded_rewrite(monkeypatch, name, text):
    assert _differential_run(monkeypatch, elaborate(parse(text)), 300)


def test_the_differential_run_reaches_both_substitutions_and_both_outcomes(
        monkeypatch):
    seen = Counter()
    for _, text in DIFFERENTIAL:
        seen += _differential_run(monkeypatch, elaborate(parse(text)), 300)
    assert seen["values", True] and seen["values", False]
    assert seen["types", False]


# ---------------------------------------------------------------------------
# A λ, a Λ or a qualified type no substituted name is free in is skipped


def _key(sub, x) -> tuple:
    """sub's state and the input, hashable: the same key, the same walk."""
    return (x, frozenset(sub.values.items()), frozenset(sub.types.items()),
            frozenset(sub.quals.items()), frozenset(sub.names), sub.free)


def _replayed(key):
    """The substitution a key was taken from, as a new object."""
    x, values, types, quals, names, free = key
    sub = object.__new__(syntax._Substitution)
    sub.values, sub.types, sub.quals = dict(values), dict(types), dict(quals)
    sub.names, sub.free = set(names), free
    return sub, x


def _skippable_walks(monkeypatch) -> dict:
    """Every substitution of a λ or Λ (`_term`) and of a qualified type
    (`__call__`) that checking, running and verifying the corpus and the
    four families at n = 1..5 make, keyed by `_key`, with its result."""
    walks = {}
    term_of, qtype_of = syntax._Substitution._term, syntax._Substitution.__call__

    def walk_term(sub, t):
        key = _key(sub, t) if type(t) in (Abs, TAbs) else None
        out = term_of(sub, t)
        if key is not None:
            walks[key] = out
        return out

    def walk_qtype(sub, qty):
        key = _key(sub, qty)
        out = walks[key] = qtype_of(sub, qty)
        return out

    families = bench_families()
    programs = [corpus_text(e) for e in corpus_entries() if e.kind != "sep"] + [
        families.FAMILIES[f](n).text for f in sorted(families.FAMILIES)
        for n in range(1, 6)]
    with monkeypatch.context() as m:
        m.setattr(syntax._Substitution, "_term", walk_term)
        m.setattr(syntax._Substitution, "__call__", walk_qtype)
        for text in programs:
            try:
                check_source(text)
                term = elaborate(parse(text))
            except RqError:
                continue        # the corpus's rejected programs
            eval_term(term, fuel=300)
            check_preservation(term, StoreTyping(), fuel=300)
        for entry, t1, t2 in sep_pairs():
            separation_experiment(t1, t2, StoreTyping())
    return walks


def test_a_skipped_part_is_what_a_full_walk_returns(monkeypatch):
    walks = _skippable_walks(monkeypatch)
    skipped = {key: out for key, out in walks.items() if out is key[0]}
    monkeypatch.setattr(syntax._Substitution, "_misses", lambda sub, free: False)
    differ = [key for key, out in walks.items()
              if (syntax._Substitution._term if type(key[0]) in (Abs, TAbs)
                  else syntax._Substitution.__call__)(*_replayed(key)) is not out]
    assert not differ
    # the runs reach all three kinds, skipped and not
    kinds = Counter((type(key[0]).__name__, key in skipped) for key in walks)
    assert all(kinds[kind, hit] for kind in ("Abs", "TAbs", "QualifiedType")
               for hit in (True, False)), kinds


def test_a_skipped_type_keeps_the_binder_a_full_walk_renames_apart(monkeypatch):
    # the payload {f} names f, which fn's binder also names, but nothing
    # is put in under it: x is not free in fn. The full walk renames the
    # binder to f' anyway; the skip returns fn itself, alpha-equivalent
    fn = qt(Fun("f", "y", qt(INT), qt(INT, qual("f"))))
    sub = syntax.EMPTY_SUBSTITUTION.with_qual("x", qual("f"))
    assert sub(fn) is fn
    monkeypatch.setattr(syntax._Substitution, "_misses", lambda sub, free: False)
    walked = sub(fn)
    assert walked == qt(Fun("f'", "y", qt(INT), qt(INT, qual("f'"))))
    assert alpha_eq(walked, fn)


# ---------------------------------------------------------------------------
# Substitution with open payloads


def test_an_open_payload_leaves_no_memo_behind():
    open_fn = Abs("g", "z", INT_Q, None, Var("y"))    # y is free
    assert subst_term(Var("x"), "x", open_fn) is open_fn
    binder = Let("y", Const(1), App(open_fn, Const(2)))
    assert free_term_atoms(binder) == set()
    assert free_term_atoms(open_fn) == {Y}
    assert subst_term(binder, "y", V) is binder


def test_a_rebuilt_node_keeps_the_names_its_payload_brought():
    open_fn = Abs("g", "z", INT_Q, None, Deref(Var("y")))
    typed = TAbs("h", "T", "t", INT_Q, Ascribe(Var("x"), qt(TVar("S"), qual("x"))))
    once = subst_term(typed, "x", open_fn)            # brings y in
    assert subst_term(once, "y", V) == subst_term(
        TAbs("h", "T", "t", INT_Q, Ascribe(open_fn, qt(TVar("S"), qual("y")))), "y", V)
    assert subst_term(once, "y", V) != once
    poly = subst_qtype_in_term(once, "S", "s", qt(TVar("R"), qual("r")))
    assert subst_qtype_in_term(poly, "R", "r", qt(INT)) == TAbs(
        "h", "T", "t", INT_Q, Ascribe(open_fn, qt(INT, qual("y"))))


def test_a_rebound_variable_takes_its_new_value_qualifier():
    # a name bound again (a term built without the elaborator may shadow)
    # must not keep the qualifier computed for its old value
    sub = syntax.EMPTY_SUBSTITUTION.extended("x", LocTerm(0))
    assert sub.qual(qual("x")) == qual(locs=[0])      # computed on first use
    assert sub.extended("x", LocTerm(1)).qual(qual("x")) == qual(locs=[1])
