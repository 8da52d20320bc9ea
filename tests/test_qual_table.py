"""qual_sub keeps one table for the last (environment, store typing) pair
it was asked about. Its answers must be those of a search from scratch
on every call: the same verdict and the same ScopeError, whatever the
order of the queries and whichever pairs come between them.
The reference below is that per-call search, kept as it was before the
table."""

import random
from collections import Counter

import pytest

from helpers import (
    bench_families, random_qualifier, random_telescope, runnable_programs,
    sep_pairs, telescopes_exact,
)
from oracle import all_qualifiers
from rqcheck import machine, qualifiers, subtyping, typecheck
from rqcheck.errors import ScopeError
from rqcheck.machine import check_preservation, separation_experiment
from rqcheck.qualifiers import one_step, qual_sub, self_closure
from rqcheck.surface import elaborate, parse
from rqcheck.syntax import (
    Fun, INT, LocAtom, StoreTyping, TypeEnv, VarAtom, qt, qual,
)

EMPTY_STORE = StoreTyping()
GHOST = VarAtom("ghost")  # bound nowhere: a query that reaches it raises
TELESCOPES_4 = 16384      # telescopes with exactly four entries


def reference_qual_sub(env, store, p, q):
    """qual_sub as a depth-first search from q's closure with a memo of
    its own, started afresh on every call."""
    if p.fresh and not q.fresh:
        return False
    cover = self_closure(env, q)
    memo = {}

    def covered(a, stack):
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
        return ok

    return all(covered(a, frozenset()) for a in p.atoms)


def _outcome(decide, env, store, p, q):
    try:
        return "verdict", decide(env, store, p, q)
    except ScopeError as exc:
        return "ScopeError", str(exc)


def same_as_reference(env, store, p, q):
    """The outcome of qual_sub, (kind, verdict or message), after checking
    that the reference gives the same."""
    expected = _outcome(reference_qual_sub, env, store, p, q)
    got = _outcome(qual_sub, env, store, p, q)
    assert got == expected, (p, q)
    return got


def sampled_telescopes(seed, count):
    """count of the four-entry telescopes, chosen by seed."""
    wanted = set(random.Random(seed).sample(range(TELESCOPES_4), count))
    return [env for i, env in enumerate(telescopes_exact(4)) if i in wanted]


# ---------------------------------------------------------------------------
# Every pair of sampled telescopes, in three orders, with a second
# environment asked every few queries so that the table is replaced


ORDERS = ("row-major", "column-major", "shuffled")


@pytest.mark.parametrize("order", ORDERS)
def test_telescope_sweeps_match_the_reference(order):
    envs = sampled_telescopes(7, 20)
    quals = [list(all_qualifiers(env, EMPTY_STORE)) for env in envs]
    for qs in quals:  # a few that reach the unbound atom
        qs += [q.with_atoms([GHOST]) for q in qs[::8]]
    seen = Counter()
    rng = random.Random(order)
    for i, (env, qs) in enumerate(zip(envs, quals)):
        if order == "row-major":
            pairs = [(p, q) for p in qs for q in qs]
        elif order == "column-major":
            pairs = [(p, q) for q in qs for p in qs]
        else:
            pairs = [(p, q) for p in qs for q in qs]
            rng.shuffle(pairs)
        other, other_qs = envs[i - 1], quals[i - 1]
        for k, (p, q) in enumerate(pairs):
            if k % 5 == 0:
                same_as_reference(other, EMPTY_STORE, rng.choice(other_qs),
                                  rng.choice(other_qs))
            kind, value = same_as_reference(env, EMPTY_STORE, p, q)
            seen[kind, value if kind == "verdict" else None] += 1
    assert seen["verdict", True] and seen["verdict", False]
    assert seen["ScopeError", None]


# ---------------------------------------------------------------------------
# Store typings


def test_store_typing_queries_match_the_reference():
    """Each pair is asked twice, so the second answer is read from what
    the first call left in the table. Every few pairs the same environment
    is asked under another store typing."""
    upcasts = 0
    for seed in range(150):
        rng = random.Random(seed)
        env, store = random_telescope(rng, max_entries=4, max_locs=3)
        _, other = random_telescope(rng, max_entries=0, max_locs=3)
        qs = [random_qualifier(rng, env, store) for _ in range(10)]
        pairs = [(p, q) for p in qs for q in qs]
        rng.shuffle(pairs)
        for k, (p, q) in enumerate(pairs):
            if k % 7 == 0:
                same_as_reference(env, other, p, q)
            same_as_reference(env, store, p, q)
            if same_as_reference(env, store, p, q) == ("verdict", True):
                cover = self_closure(env, q)
                upcasts += any(isinstance(a, LocAtom) and a not in cover
                               for a in p.atoms)
    assert upcasts > 100


# ---------------------------------------------------------------------------
# Every query the preservation and separation harnesses make


HARNESS_FUEL = 300  # the divergent corpus program stops here


def _harness_inputs():
    """(programs to step, pairs to interleave): the corpus and the four
    families at n=1..5, each family paired with the next for separation."""
    programs = [term for _, term in runnable_programs()]
    pairs = [(t1, t2) for _, t1, t2 in sep_pairs()]
    families = bench_families()
    names = sorted(families.FAMILIES)
    for n in range(1, 6):
        terms = [elaborate(parse(families.FAMILIES[name](n).text)) for name in names]
        programs += terms
        pairs += list(zip(terms, terms[1:] + terms[:1]))
    return programs, pairs


def test_harness_queries_match_the_reference(monkeypatch):
    queries = 0

    def differential(env, store, p, q):
        nonlocal queries
        kind, value = same_as_reference(env, store, p, q)
        queries += 1
        if kind == "ScopeError":
            raise ScopeError(value)
        return value

    for module in (typecheck, subtyping, machine):
        monkeypatch.setattr(module, "qual_sub", differential)
    programs, pairs = _harness_inputs()
    for term in programs:
        check_preservation(term, EMPTY_STORE, fuel=HARNESS_FUEL)
    for t1, t2 in pairs:
        separation_experiment(t1, t2, EMPTY_STORE, fuel=HARNESS_FUEL)
    assert queries > 2000


def test_an_inclusion_reads_no_entry_of_its_environment():
    # p ⊆ q is answered before the table and Γ: under Γ made of the
    # Retyper's entries, which note each part read, it notes no reader;
    # a query the search answers notes what its closure reads
    types = [qt(INT), qt(Fun("f", "a", qt(INT), qt(INT)), qual("y"))]
    readers, at, env = [(set(), set()), (set(), set())], [2], TypeEnv()
    for k, name in enumerate(("y", "x")):
        env = env.extended(typecheck._Read(name, k, types, *readers[k], at))
    qualifiers.forget(env)
    assert qual_sub(env, EMPTY_STORE, qual("x"), qual("x", "y"))
    assert qual_sub(env, EMPTY_STORE, qual(fresh=True), qual("x", fresh=True))
    assert readers == [(set(), set()), (set(), set())]
    # x is a function captured at {y}: {y} is below {x} by absorption
    assert qual_sub(env, EMPTY_STORE, qual("y"), qual("x"))
    assert readers == [({2}, set()), ({2}, {2})]


# ---------------------------------------------------------------------------
# The amortization


def test_a_telescope_sweep_chases_each_atom_at_most_once_per_qualifier(
        monkeypatch):
    """All 1,024 queries of a four-entry telescope take at most one
    one-step chase per qualifier and atom (32 x 4); a search from scratch
    on every call takes hundreds more."""
    calls = Counter()

    def counted(env, store, atom):
        calls[id(env)] += 1
        return one_step(env, store, atom)

    monkeypatch.setattr(qualifiers, "one_step", counted)
    for env in sampled_telescopes(11, 40):
        qs = all_qualifiers(env, EMPTY_STORE)
        for p in qs:
            for q in qs:
                qual_sub(env, EMPTY_STORE, p, q)
        assert calls[id(env)] <= len(qs) * 4
