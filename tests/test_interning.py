"""Atoms and qualifiers are interned: equal values are one object, and
identity `==`, `hash` and set membership agree with comparing keys."""

import copy
import pickle
import threading
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from rqcheck.syntax import EMPTY, FRESH, LocAtom, Qualifier, VarAtom, qual


def test_equal_values_are_one_object():
    assert VarAtom("x") is VarAtom("x")
    assert VarAtom(name="x") is VarAtom("x")
    assert LocAtom(3) is LocAtom(3)
    assert LocAtom(loc=3) is LocAtom(3)
    assert qual("x") is Qualifier(False, frozenset({VarAtom("x")}))
    assert Qualifier() is EMPTY
    assert Qualifier(fresh=True) is FRESH
    assert Qualifier(atoms=frozenset(), fresh=False) is EMPTY


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
