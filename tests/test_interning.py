"""Atoms, qualifiers, types, qualified types and terms are interned:
equal values are one object, and identity `==`, `hash` and set
membership agree with comparing keys."""

import copy
import pickle
import threading
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from rqcheck import syntax
from rqcheck.syntax import (
    EMPTY, FRESH, INT, SHAPES, Abs, All, App, Ascribe, Assign, Base, Const,
    Deref, Fun, Let, LocAtom, LocTerm, QualifiedType, Qualifier, RefAlloc, RefT,
    StoreTyping, TAbs, TApp, TermBind, Top, TVar, TypeBind, TypeEnv, UnitLit,
    Var, VarAtom, free_term_atoms, qt, qual,
)


def test_equal_values_are_one_object():
    assert VarAtom("x") is VarAtom("x")
    assert VarAtom(name="x") is VarAtom("x")
    assert LocAtom(3) is LocAtom(3)
    assert LocAtom(loc=3) is LocAtom(3)
    assert qual("x") is Qualifier(False, frozenset({VarAtom("x")}))
    assert Qualifier() is EMPTY
    assert Qualifier(fresh=True) is FRESH
    assert Qualifier(atoms=frozenset(), fresh=False) is EMPTY


def _types():
    """One value of each type class, each built afresh on every call, by
    position and by keyword."""
    ref = RefT(qt(INT, qual("r")))
    fun = Fun("f", "x", qt(INT), qt(ref, qual("x")))
    univ = All("g", "X", "x", qt(Top(), FRESH), qt(TVar("X"), qual("x")))
    by_position = [Base("Int"), Top(), TVar("X"), ref, fun, univ,
                   QualifiedType(fun, qual("r"))]
    by_keyword = [
        Base(name="Int"), Top(), TVar(name="X"),
        RefT(content=QualifiedType(ty=Base(name="Int"), q=qual("r"))),
        Fun(cod=QualifiedType(q=qual("x"), ty=ref), dom=qt(INT), param="x",
            self_name="f"),
        All("g", "X", qvar="x", body=qt(TVar("X"), qual("x")),
            bound=QualifiedType(Top(), FRESH)),
        QualifiedType(q=qual("r"), ty=fun),
    ]
    return by_position, by_keyword


TYPE_CLASSES = (Base, Top, TVar, RefT, Fun, All, QualifiedType)


def test_equal_types_are_one_object():
    first, by_keyword = _types()
    again, _ = _types()
    assert [type(t) for t in first] == list(TYPE_CLASSES)
    for a, b, c in zip(first, again, by_keyword):
        assert a is b and a is c and a == c and hash(a) == hash(c)
    assert INT is Base("Int") and Top() is Top()
    assert TVar("Int") is not Base("Int") and TVar("Int") != Base("Int")
    assert Fun("f", "x", qt(INT), qt(INT)) is not Fun("f", "y", qt(INT), qt(INT))
    assert qt(INT) is not qt(INT, FRESH)


def test_a_variable_and_a_location_differ():
    assert VarAtom("1") != LocAtom(1)
    assert VarAtom("1") is not LocAtom(1)
    assert len({VarAtom("1"), LocAtom(1)}) == 2


def test_the_key_is_normalized():
    x, y = VarAtom("x"), VarAtom("y")
    want = Qualifier(False, frozenset({x, y}))
    assert Qualifier(False, {x, y}) is want
    assert Qualifier(False, [y, x, y]) is want
    assert Qualifier(0, (x, y)) is want
    assert Qualifier(1, [x]) is Qualifier(True, frozenset({x}))
    assert Qualifier(1, [x]).fresh is True
    assert type(Qualifier(False, [x]).atoms) is frozenset


@pytest.mark.parametrize("value, field", [
    (VarAtom("x"), "name"),
    (LocAtom(3), "loc"),
    (qual("x", locs=[3]), "fresh"),
    (qual("x", locs=[3]), "atoms"),
    (Base("Int"), "name"),
    (TVar("X"), "name"),
    (RefT(qt(INT)), "content"),
    (Fun("f", "x", qt(INT), qt(INT)), "cod"),
    (All("g", "X", "x", qt(Top()), qt(TVar("X"))), "tvar"),
    (qt(INT), "ty"),
    (qt(INT), "q"),
    (qt(INT), "_free"),
])
def test_fields_cannot_be_assigned_or_deleted(value, field):
    with pytest.raises(FrozenInstanceError):
        setattr(value, field, None)
    with pytest.raises(FrozenInstanceError):
        delattr(value, field)
    with pytest.raises(FrozenInstanceError):
        value.other = 1


@pytest.mark.parametrize("value", [
    VarAtom("x"), LocAtom(3), EMPTY, FRESH, qual("x", "y", fresh=True, locs=[0, 3]),
    *_types()[0],
])
def test_copies_and_pickles_are_the_interned_object(value):
    assert copy.copy(value) is value
    assert copy.deepcopy(value) is value
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(value, protocol)) is value


def test_repr_is_the_dataclass_form():
    assert repr(VarAtom("x")) == "VarAtom(name='x')"
    assert repr(LocAtom(3)) == "LocAtom(loc=3)"
    assert repr(EMPTY) == "Qualifier(fresh=False, atoms=frozenset())"
    assert repr(qual("x", fresh=True)) == (
        "Qualifier(fresh=True, atoms=frozenset({VarAtom(name='x')}))")
    # pinned from the frozen dataclasses the types were before
    empty = "Qualifier(fresh=False, atoms=frozenset())"
    int_ = f"QualifiedType(ty=Base(name='Int'), q={empty})"
    x = "Qualifier(fresh=False, atoms=frozenset({VarAtom(name='x')}))"
    r = "Qualifier(fresh=False, atoms=frozenset({VarAtom(name='r')}))"
    ref = f"RefT(content=QualifiedType(ty=Base(name='Int'), q={r}))"
    fun = (f"Fun(self_name='f', param='x', dom={int_}, "
           f"cod=QualifiedType(ty={ref}, q={x}))")
    assert [repr(t) for t in _types()[0]] == [
        "Base(name='Int')",
        "Top()",
        "TVar(name='X')",
        ref,
        fun,
        "All(self_name='g', tvar='X', qvar='x', bound=QualifiedType(ty=Top(), "
        "q=Qualifier(fresh=True, atoms=frozenset())), "
        f"body=QualifiedType(ty=TVar(name='X'), q={x}))",
        f"QualifiedType(ty={fun}, q={r})",
    ]


def _terms():
    """One value of each term class, each built afresh on every call, by
    position (`capture` left to its default) and by keyword."""
    by_position = [
        Const(3), UnitLit(), Var("x"),
        Abs("f", "x", qt(INT), None, Var("x")),
        App(Var("x"), Const(1)), RefAlloc(Const(0)), Deref(Var("x")),
        Assign(Var("x"), UnitLit()), LocTerm(2),
        TAbs("g", "X", "y", qt(Top(), FRESH), Var("x"), qual("r")),
        TApp(Var("x"), qt(TVar("X"), qual("y"))), Ascribe(Var("x"), qt(INT)),
        Let("y", Const(1), Var("x")),
    ]
    by_keyword = [
        Const(value=3), UnitLit(), Var(name="x"),
        Abs(body=Var(name="x"), cod=None, dom=qt(INT), param="x",
            self_name="f", capture=None),
        App(arg=Const(1), fn=Var("x")), RefAlloc(init=Const(0)),
        Deref(ref=Var("x")), Assign(rhs=UnitLit(), lhs=Var("x")), LocTerm(loc=2),
        TAbs("g", "X", capture=qual("r"), body=Var("x"), qvar="y",
             bound=qt(Top(), FRESH)),
        TApp(Var("x"), arg=qt(TVar("X"), qual("y"))),
        Ascribe(qtype=qt(INT), term=Var("x")),
        Let(body=Var("x"), rhs=Const(1), name="y"),
    ]
    return by_position, by_keyword


TERM_CLASSES = (Const, UnitLit, Var, Abs, App, RefAlloc, Deref, Assign, LocTerm,
                TAbs, TApp, Ascribe, Let)


def test_equal_terms_are_one_object():
    first, by_keyword = _terms()
    again, _ = _terms()
    assert [type(t) for t in first] == list(TERM_CLASSES)
    for a, b, c in zip(first, again, by_keyword):
        assert a is b and a is c and a == c and hash(a) == hash(c)
    assert Abs("f", "x", qt(INT), None, Var("x")).capture is None
    assert TAbs("g", "X", "y", qt(Top()), Var("x")).capture is None
    assert Const(3) is not Const(4) and Var("x") is not Var("y")
    assert Let("y", Const(1), Var("y")) is not Let("z", Const(1), Var("y"))
    with pytest.raises(TypeError):
        Abs("f", "x", qt(INT))


@pytest.mark.parametrize("term", _terms()[0], ids=lambda t: type(t).__name__)
def test_term_fields_cannot_be_assigned_or_deleted(term):
    for field in SHAPES[type(term)].fields + ("_free", "_free_ann"):
        with pytest.raises(FrozenInstanceError):
            setattr(term, field, None)
        with pytest.raises(FrozenInstanceError):
            delattr(term, field)
    with pytest.raises(FrozenInstanceError):
        term.other = 1


@pytest.mark.parametrize("term", _terms()[0], ids=lambda t: type(t).__name__)
def test_term_copies_and_pickles_are_the_interned_object(term):
    assert copy.copy(term) is term
    assert copy.deepcopy(term) is term
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(term, protocol)) is term


def test_term_repr_and_fields_are_the_dataclass_forms():
    # pinned from the frozen dataclasses the terms were before
    int_ = "QualifiedType(ty=Base(name='Int'), q=Qualifier(fresh=False, atoms=frozenset()))"
    x = "Var(name='x')"
    assert [repr(t) for t in _terms()[0]] == [
        "Const(value=3)",
        "UnitLit()",
        x,
        f"Abs(self_name='f', param='x', dom={int_}, cod=None, body={x}, capture=None)",
        f"App(fn={x}, arg=Const(value=1))",
        "RefAlloc(init=Const(value=0))",
        f"Deref(ref={x})",
        f"Assign(lhs={x}, rhs=UnitLit())",
        "LocTerm(loc=2)",
        "TAbs(self_name='g', tvar='X', qvar='y', bound=QualifiedType(ty=Top(), "
        f"q=Qualifier(fresh=True, atoms=frozenset())), body={x}, "
        "capture=Qualifier(fresh=False, atoms=frozenset({VarAtom(name='r')})))",
        f"TApp(fn={x}, arg=QualifiedType(ty=TVar(name='X'), "
        "q=Qualifier(fresh=False, atoms=frozenset({VarAtom(name='y')}))))",
        f"Ascribe(term={x}, qtype={int_})",
        f"Let(name='y', rhs=Const(value=1), body={x})",
    ]
    assert {cls.__name__: SHAPES[cls].fields for cls in TERM_CLASSES} == {
        "Const": ("value",), "UnitLit": (), "Var": ("name",),
        "Abs": ("self_name", "param", "dom", "cod", "body", "capture"),
        "App": ("fn", "arg"), "RefAlloc": ("init",), "Deref": ("ref",),
        "Assign": ("lhs", "rhs"), "LocTerm": ("loc",),
        "TAbs": ("self_name", "tvar", "qvar", "bound", "body", "capture"),
        "TApp": ("fn", "arg"), "Ascribe": ("term", "qtype"),
        "Let": ("name", "rhs", "body"),
    }


def test_every_concrete_class_interns_and_no_base_builds_an_object():
    # each of the 23 concrete classes keeps its own table and interns what
    # it makes; the abstract bases have neither a table nor a constructor
    atoms = [VarAtom("x"), LocAtom(3), qual("x")]
    values = atoms + _types()[0] + _terms()[0]
    assert len({type(v) for v in values}) == len(values) == 23
    for v in values:
        cls = type(v)
        fields = tuple(getattr(v, f) for f in cls._fields)
        size = len(cls._table)
        assert cls(*fields) is v and len(cls._table) == size
        assert "_table" in vars(cls) and "__new__" in vars(cls)
        assert cls._table[fields[0] if len(fields) == 1 else fields] is v
    for base in (syntax._Interned, syntax._Keyed, syntax._Term):
        assert "_table" not in vars(base)
        with pytest.raises(TypeError, match="abstract base"):
            base()


def test_deep_terms_compare_hash_and_give_free_atoms_without_recursion():
    # built bottom-up in a loop; `==` and `hash` are identity's, and the
    # free atoms are found by a walk with an explicit stack
    depth = 100_000
    chain, spine = Var("deep"), Var("v0")
    for i in range(depth):
        chain = Deref(chain)
        spine = Let(f"v{i}", LocTerm(i % 7), spine)
    assert chain == chain and chain != spine and hash(chain) != hash(spine)
    assert {chain: 1, spine: 2}[chain] == 1
    assert free_term_atoms(chain) == {VarAtom("deep")}
    assert free_term_atoms(spine) == {LocAtom(i) for i in range(7)}
    assert free_term_atoms(spine, annotations=True) == free_term_atoms(spine)
    assert free_term_atoms(chain) is free_term_atoms(chain)


def test_environments_and_store_typings_compare_as_before():
    # entries hold interned types, so equal entries built apart are equal
    # and hash alike, and an environment or store typing still compares
    # and hashes by its entries, not by identity
    def env():
        return TypeEnv((TermBind("a", qt(RefT(qt(INT)), FRESH)),
                        TypeBind("X", "x", qt(Top(), FRESH)),
                        TermBind("b", qt(TVar("X"), qual("x", "a")))))

    assert env() is not env() and env() == env() and hash(env()) == hash(env())
    assert env() != env().extended(TermBind("c", qt(INT)))
    assert env().entries == env().entries
    sigma = StoreTyping({0: qt(INT)}).extended(1, qt(RefT(qt(INT)), qual(locs=[0])))
    other = StoreTyping({0: QualifiedType(Base("Int"), EMPTY)}).extended(
        1, QualifiedType(RefT(qt(INT)), qual(locs=[0])))
    # a StoreTyping compares by identity, as before; its entries are one
    assert sigma != other and sigma == sigma
    assert sigma.mapping == other.mapping
    assert all(sigma.get(l) is other.get(l) for l in (0, 1))


def test_threads_making_the_same_values_get_one_object():
    keys = [f"interning-thread-{i}" for i in range(200)]
    start = threading.Barrier(4)
    made = []

    def make():
        start.wait()
        made.append([Qualifier(False, {VarAtom(k)}) for k in keys])

    threads = [threading.Thread(target=make) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(made) == 4
    for row in made[1:]:
        assert all(a is b for a, b in zip(row, made[0]))


# an atom's key, ("var", name) or ("loc", number); names and numbers are
# few and overlap as text, so that equal and clashing keys are common
atom_keys = st.one_of(
    st.tuples(st.just("var"), st.text(alphabet="x1", max_size=2)),
    st.tuples(st.just("loc"), st.integers(0, 3)),
)
qual_keys = st.tuples(st.booleans(), st.frozensets(atom_keys, max_size=3))


def _atom(key):
    kind, v = key
    return VarAtom(v) if kind == "var" else LocAtom(v)


def _qual(key):
    fresh, atoms = key
    return Qualifier(fresh, [_atom(a) for a in atoms])


@settings(max_examples=300, deadline=None)
@given(st.lists(atom_keys, max_size=8), st.lists(atom_keys, max_size=4),
       st.lists(qual_keys, max_size=8), st.lists(qual_keys, max_size=4))
def test_identity_agrees_with_the_key_model(akeys, aprobes, qkeys, qprobes):
    for make, keys, probes in ((_atom, akeys, aprobes), (_qual, qkeys, qprobes)):
        values = [make(k) for k in keys]
        for k1, v1 in zip(keys, values):
            for k2, v2 in zip(keys, values):
                assert (v1 == v2) == (k1 == k2)
                assert (v1 is v2) == (k1 == k2)
        as_set = set(values)
        as_dict = {v: k for k, v in zip(keys, values)}
        assert len(as_set) == len(as_dict) == len(set(keys))
        for k in keys + probes:
            assert (make(k) in as_set) == (k in keys)
            if k in keys:
                assert as_dict[make(k)] == k
    for key, q in zip(qkeys, (_qual(k) for k in qkeys)):
        assert q.fresh is key[0]
        assert q.atoms == frozenset(_atom(a) for a in key[1])
