"""The environment: every lookup in a `TypeEnv` returns what a reverse
scan of its entries returns, however the environments were grown; and
checking a program does environment work linear in its size."""

import inspect
import sys

import pytest
from hypothesis import given, settings, strategies as st

from helpers import bench_families
from rqcheck import syntax
from rqcheck.surface import elaborate, parse
from rqcheck.syntax import (
    INT, QualifiedType, Qualifier, StoreTyping, TermBind, TypeBind, TypeEnv,
    VarAtom,
)
from rqcheck.typecheck import check_program

NAMES = ("a", "b", "X", "x")   # few, so that binders of both kinds collide


def _scan(entries, name):
    """The reference: the innermost entry binding name, by a reverse scan."""
    for e in reversed(entries):
        if (e.name == name if type(e) is TermBind
                else name == e.tvar or name == e.qvar):
            return e
    return None


def _agrees(env: TypeEnv):
    entries = env.entries
    for name in NAMES:
        e = _scan(entries, name)
        assert env.binder(name) is e
        assert env.term_entry(name) is (e.qtype if type(e) is TermBind else None)
        assert env.lookup_tvar(name) == (
            e.bound if type(e) is TypeBind and e.tvar == name else None)
        want = None
        if type(e) is TermBind:
            want = e.qtype.q
        elif type(e) is TypeBind and e.qvar == name:
            want = e.bound.q
        assert env.binding_qualifier(VarAtom(name)) == want
    assert env.dom() == frozenset(
        VarAtom(e.name if type(e) is TermBind else e.qvar) for e in entries)


# an entry: ("term", name) or ("type", tvar, qvar); tvar may equal qvar
names = st.sampled_from(NAMES)
entry_specs = st.one_of(st.tuples(st.just("term"), names),
                        st.tuples(st.just("type"), names, names))
# an operation: extend environment i, or look up in environment i
operations = st.lists(st.tuples(st.booleans(), st.integers(0, 63), entry_specs),
                      max_size=60)


def _entry(spec, serial: int):
    # a qualifier unique to the entry, so each entry is told apart
    qty = QualifiedType(INT, Qualifier(False, frozenset({VarAtom(f"t{serial}")})))
    if spec[0] == "term":
        return TermBind(spec[1], qty)
    return TypeBind(spec[1], spec[2], qty)


@settings(max_examples=300, deadline=None)
@given(st.lists(entry_specs, max_size=5), operations)
def test_lookups_agree_with_a_reverse_scan(root_specs, ops):
    # environments built from a tuple, extended from any of the ones made
    # so far in any order (so branching), and looked up in any order
    root = TypeEnv(tuple(_entry(s, i) for i, s in enumerate(root_specs)))
    envs = [root]
    _agrees(root)
    for serial, (extend, i, spec) in enumerate(ops, len(root_specs)):
        parent = envs[i % len(envs)]
        if extend:
            child = parent.extended(_entry(spec, serial))
            assert child.entries == parent.entries + (child.entries[-1],)
            envs.append(child)
        else:
            _agrees(parent)
    for env in reversed(envs):
        _agrees(env)
        assert TypeEnv(env.entries) == env
        assert hash(TypeEnv(env.entries)) == hash(env)


def test_an_inner_binder_of_either_kind_hides_an_outer_one():
    int_q = QualifiedType(INT, Qualifier())
    outer = TermBind("x", int_q)
    base = TypeEnv((outer,))
    env = base.extended(TypeBind("X", "x", int_q))
    sibling = base.extended(TermBind("y", int_q))
    assert env.term_entry("x") is None and env.binder("X") is env.binder("x")
    assert sibling.term_entry("x").ty is INT
    assert env.term_entry("x") is None
    assert env.extended(TermBind("X", int_q)).lookup_tvar("X") is None
    assert env.lookup_tvar("X") is int_q
    assert base.term_entry("x").ty is INT
    assert repr(base) == f"TypeEnv(entries=({outer!r},))"


def test_a_move_cut_short_is_redone_from_the_root():
    # an exception between two steps of a move (Ctrl-C in a long-lived
    # process) must not leave a half-moved index behind: here the move
    # from base to deep is cut after it binds a and before it binds b
    int_q = QualifiedType(INT, Qualifier())
    base = TypeEnv((TermBind("x", int_q),))
    deep = base.extended(TermBind("a", int_q)).extended(TermBind("b", int_q))
    _agrees(base)
    code = TypeEnv._move_index.__code__
    lines, first = inspect.getsourcelines(TypeEnv._move_index)
    bind = first + next(i for i, line in enumerate(lines)
                        if line.strip() == "names[e.name] = e")
    binds = []

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line" and frame.f_lineno == bind:
            binds.append(frame.f_lineno)
            if len(binds) == 2:
                raise KeyboardInterrupt
        return tracer

    sys.settrace(tracer)
    try:
        with pytest.raises(KeyboardInterrupt):
            deep.binder("b")
    finally:
        sys.settrace(None)
    assert len(binds) == 2
    for env in (base, deep, base):
        _agrees(env)


def test_checking_does_environment_work_linear_in_the_program(monkeypatch):
    # each of the n assignments of assign_ring(n) looks its two cells up in
    # the environment of its binding; a reverse scan visits about n entries
    # per lookup (320,800 at n = 400), moving the shared index about 4n
    n = 400
    term = elaborate(parse(bench_families().assign_ring(n).text))
    lookups, moved = [], []
    binder, move = TypeEnv.binder, TypeEnv._move_index

    def counted_binder(env, name):
        lookups.append(name)
        return binder(env, name)

    def counted_move(env):
        # the distance from the environment the index holds to env
        a, b = syntax._INDEX.at, env
        while a is not b:
            if a._depth >= b._depth:
                a = a._parent
            else:
                b = b._parent
            moved.append(1)
        return move(env)

    TypeEnv().binder("x")   # the index starts at the root
    monkeypatch.setattr(TypeEnv, "binder", counted_binder)
    monkeypatch.setattr(TypeEnv, "_move_index", counted_move)
    check_program(TypeEnv(), StoreTyping(), term)
    assert len(lookups) == 2 * n + 1
    assert len(moved) <= 4 * n
