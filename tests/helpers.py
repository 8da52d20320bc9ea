"""Shared helpers for the test suite: corpus access, the benchmark's
generated program families, environment enumeration and randomization,
and store-typing reconstruction."""

from __future__ import annotations

import importlib
import itertools
import random
import sys
from functools import lru_cache
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from rqcheck.cli import CorpusEntry, check_source, corpus_path, load_corpus
from rqcheck.qualifiers import qual_sub, saturate
from rqcheck.surface import elaborate, parse, parse_pair
from rqcheck.syntax import (
    Fun, INT, LocAtom, QualifiedType, Qualifier, StoreTyping, TermBind, Term,
    TypeEnv, VarAtom, qt,
)
from rqcheck.typecheck import check_program

FUN = Fun("f", "a", qt(INT), qt(INT))


# ---------------------------------------------------------------------------
# Corpus access


def corpus_text(entry: CorpusEntry) -> str:
    return corpus_path(entry).read_text(encoding="utf-8")


def corpus_entries(kind: Optional[str] = None) -> List[CorpusEntry]:
    entries = load_corpus()
    return [e for e in entries if kind is None or e.kind == kind]


def runnable_programs() -> List[Tuple[CorpusEntry, Term]]:
    """Closed, accepted corpus programs as (entry, term), one per file."""
    seen, out = set(), []
    for e in corpus_entries():
        if e.kind == "sep" or e.file in seen:
            continue
        text = corpus_text(e)
        if "assume" in text:
            continue
        if e.kind == "check" and e.expect.get("status") != "accepted":
            continue
        seen.add(e.file)
        out.append((e, elaborate(parse(text))))
    return out


def sep_pairs() -> List[Tuple[CorpusEntry, Term, Term]]:
    out = []
    for e in corpus_entries("sep"):
        first, second = parse_pair(corpus_text(e))
        out.append((e, elaborate(first), elaborate(second)))
    return out


def store_typing_for(store: dict) -> StoreTyping:
    """Store typing rebuilt from a runtime store in allocation order,
    entries saturated as store well-formedness requires."""
    sigma = StoreTyping()
    for loc in sorted(store):
        result = check_program(TypeEnv(), sigma, store[loc])
        entry = QualifiedType(result.qtype.ty,
                              saturate(TypeEnv(), sigma, result.qtype.q))
        sigma = sigma.extended(loc, entry)
    return sigma


def bench_families():
    """bench/families.py, imported read-only."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    if bench not in sys.path:
        sys.path.append(bench)
    return importlib.import_module("families")


# ---------------------------------------------------------------------------
# Exhaustive small environments (shared by the oracle tests)


def telescopes_exact(n: int) -> Iterator[TypeEnv]:
    """All telescopes with exactly n entries named x0..x{n-1}, each
    qualifier ranging over the earlier names, types over Int and a
    function type (the distinction self-absorption cares about)."""
    if n == 0:
        yield TypeEnv()
        return
    for env in telescopes_exact(n - 1):
        prev = [VarAtom(f"x{i}") for i in range(n - 1)]
        for r in range(len(prev) + 1):
            for subset in itertools.combinations(prev, r):
                for fresh in (False, True):
                    for ty in (INT, FUN):
                        yield env.extended(TermBind(
                            f"x{n-1}",
                            QualifiedType(ty, Qualifier(fresh, frozenset(subset)))))


@lru_cache(maxsize=1)
def oracle_sweep(max_entries: int = 4) -> Tuple[int, int, int, int]:
    """Compare the algorithm against the declarative oracle on every
    telescope with at most max_entries entries.

    Returns (environments, pairs, unsound acceptances, completeness gaps).
    Cached so the dedicated test and the acceptance gate share one run.
    """
    from oracle import all_qualifiers, derivable_pairs

    store = StoreTyping()
    n_envs = n_pairs = unsound = gaps = 0
    for n in range(max_entries + 1):
        for env in telescopes_exact(n):
            n_envs += 1
            quals = all_qualifiers(env, store)
            derivable = derivable_pairs(env, store)
            for p in quals:
                for q in quals:
                    n_pairs += 1
                    algo = qual_sub(env, store, p, q)
                    decl = (p, q) in derivable
                    if algo and not decl:
                        unsound += 1
                    if decl and not algo:
                        gaps += 1
    return n_envs, n_pairs, unsound, gaps


# ---------------------------------------------------------------------------
# Randomized telescopes (shared by property tests and the acceptance gate)


def random_telescope(rng: random.Random, max_entries: int = 6,
                     max_locs: int = 2) -> Tuple[TypeEnv, StoreTyping]:
    """A random well-formed telescope plus a small saturated store typing."""
    store = StoreTyping()
    n_locs = rng.randint(0, max_locs)
    for i in range(n_locs):
        atoms = frozenset(LocAtom(j) for j in range(i) if rng.random() < 0.4)
        q = saturate(TypeEnv(), store, Qualifier(False, atoms))
        store = store.extended(i, qt(INT, q))
    env = TypeEnv()
    bound: List = [LocAtom(i) for i in range(n_locs)]
    for i in range(rng.randint(0, max_entries)):
        atoms = frozenset(a for a in bound if rng.random() < 0.35)
        fresh = rng.random() < 0.3
        ty = FUN if rng.random() < 0.5 else INT
        env = env.extended(TermBind(
            f"x{i}", QualifiedType(ty, Qualifier(fresh, atoms))))
        bound.append(VarAtom(f"x{i}"))
    return env, store


def random_qualifier(rng: random.Random, env: TypeEnv,
                     store: StoreTyping) -> Qualifier:
    universe = sorted(env.dom() | store.dom(), key=lambda a: a.render())
    atoms = frozenset(a for a in universe if rng.random() < 0.4)
    return Qualifier(rng.random() < 0.3, atoms)
