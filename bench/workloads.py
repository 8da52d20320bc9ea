"""The four workloads: their inputs, the operation each one times, and
the answer every verdict is checked against.

Inputs come from the seed alone. Expected answers come from the corpus
manifest, from the construction of the generated families
(`families.py`), or from the frozen brute-force oracle in
`tests/oracle.py`; never from the code under test. Every operation calls
the same public functions the `rq` commands call, through their module
attributes, so a traced run sees them.
"""

from __future__ import annotations

import json
import random
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from families import EVENT_RULES, FAMILIES, Program

import rqcheck.cli as cli
import rqcheck.machine as machine
import rqcheck.qualifiers as qualifiers
import rqcheck.surface as surface
import rqcheck.syntax as syntax
import rqcheck.typecheck as typecheck

# the manifest's fuel for the divergent program
DIVERGE_FUEL = 2000

# assign_ring sizes each workload fits its scaling exponent over
LADDERS = {
    "check": (12, 24, 48, 96),
    "eval": (12, 25, 50, 100),
    "verify": (4, 8, 12, 16),
}

# other family instances: (family, size), in addition to the ladder.
# A round holds 5 mod 10 operations, so that the median and the 90th
# percentile fall inside the samples of one operation rather than on
# the edge between two. On `check`, most corpus verdicts take well
# under a millisecond and the families several; eleven 20-line
# let_chain programs sit between them, so that the median falls on a
# plateau of like operations instead of a steep gap.
GRADES = {
    "check": (("let_chain", 20),) * 11 + (
        ("let_chain", 32), ("let_chain", 64), ("let_chain", 128),
        ("closure_tower", 16), ("closure_tower", 32), ("closure_tower", 64),
        ("closure_tower", 128),
        ("pair_tower", 2), ("pair_tower", 4), ("pair_tower", 8),
        ("pair_tower", 16)),
    "eval": (("let_chain", 12), ("let_chain", 25), ("let_chain", 50),
             ("let_chain", 100),
             ("closure_tower", 25), ("closure_tower", 50),
             ("closure_tower", 100),
             ("pair_tower", 2), ("pair_tower", 4), ("pair_tower", 8)),
    "verify": (("let_chain", 16), ("closure_tower", 16),
               ("pair_tower", 1), ("pair_tower", 2)),
}

# qual-sweep: 4-entry telescopes per round, and smaller ones for the
# ladder (entries -> how many)
SWEEP_TELESCOPES = 128
SWEEP_LADDER = {1: 4, 2: 8, 3: 8}


class Op:
    """One timed operation. `run` appends one latency (ns) per verdict
    to `lat` and returns (verdicts, failed, work units). `enter`, when
    given, wraps the timed call (a traced pass puts its root span there)."""

    label: str = ""
    ladder: Optional[int] = None  # x of the scaling fit, if on the ladder

    def run(self, lat: array, extra: Counter,
            enter: Optional[Callable] = None) -> Tuple[int, int, int]:
        raise NotImplementedError


class Single(Op):
    """A verdict from one call. `call` is timed; `judge` is not and
    returns (correct, work units)."""

    def __init__(self, label: str, call: Callable[[], object],
                 judge: Callable[[object], Tuple[bool, int]],
                 ladder: Optional[int] = None):
        self.label, self.call, self.judge, self.ladder = label, call, judge, ladder

    def run(self, lat, extra, enter=None):
        call = self.call if enter is None else enter(self.call)
        clock = time.perf_counter_ns
        t0 = clock()
        try:
            raw = call()
        except Exception as exc:  # a crash is a failed verdict, not the end
            lat.append(clock() - t0)
            extra[f"exception {type(exc).__name__} in {self.label}"] += 1
            return 1, 1, 0
        lat.append(clock() - t0)
        try:
            ok, work = self.judge(raw)
        except Exception as exc:  # a result of an unexpected shape
            extra[f"exception {type(exc).__name__} judging {self.label}"] += 1
            return 1, 1, 0
        if not ok:
            extra[f"wrong verdict in {self.label}: {raw!r:.200}"] += 1
        return 1, 0 if ok else 1, work


class Sweep(Op):
    """qual_sub on every qualifier pair of one telescope, one verdict
    per pair, against the oracle's derivable set."""

    def __init__(self, label: str, env, store, pairs: list, ladder: int):
        self.label, self.env, self.store = label, env, store
        self.pairs, self.ladder = pairs, ladder  # [(p, q, derivable)]

    def run(self, lat, extra, enter=None):
        qual_sub = qualifiers.qual_sub
        if enter is not None:
            qual_sub = enter(qual_sub)
        clock = time.perf_counter_ns
        env, store = self.env, self.store
        unsound = gaps = crashed = 0
        for p, q, derivable in self.pairs:
            t0 = clock()
            try:
                got = qual_sub(env, store, p, q)
            except Exception as exc:  # a crash is a failed verdict, not the end
                lat.append(clock() - t0)
                extra[f"exception {type(exc).__name__} in {self.label}"] += 1
                crashed += 1
                continue
            lat.append(clock() - t0)
            if got and not derivable:
                unsound += 1
            elif derivable and not got:
                gaps += 1
        extra["oracle.unsound"] += unsound
        extra["oracle.gaps"] += gaps
        n = len(self.pairs)
        return n, unsound + crashed, n - crashed


# ---------------------------------------------------------------------------
# Inputs


def corpus(root: Path) -> List[dict]:
    corpus = root / "src" / "rqcheck" / "corpus"
    entries = json.loads((corpus / "manifest.json").read_text(encoding="utf-8"))
    for e in entries:
        e["text"] = (corpus / e["file"]).read_text(encoding="utf-8")
    return entries


def _prefixes(rng: random.Random, count: int) -> List[str]:
    """Distinct two-letter binder prefixes; no keyword starts with q."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    pool = [f"q{a}{b}" for a in letters for b in letters]
    return rng.sample(pool, count)


def _in_fixed_order(ops: List[Op], workload: str) -> List[Op]:
    """Interleave large and small operations in an order that depends on
    the workload only, so every run times each operation after the same
    neighbours (what ran before moves a sub-millisecond verdict by a
    third through the caches)."""
    random.Random(f"order:{workload}").shuffle(ops)
    return ops


def _programs(workload: str, rng: random.Random) -> List[Program]:
    sizes = [("assign_ring", n) for n in LADDERS[workload]]
    sizes += list(GRADES[workload])
    return [FAMILIES[fam](n, prefix)
            for (fam, n), prefix in zip(sizes, _prefixes(rng, len(sizes)))]


# -- check ------------------------------------------------------------------


def check_verdict(text: str) -> tuple:
    """What `rq check` decides: the printed type, or the error kind."""
    try:
        result = cli.check_source(text)
    except surface.ParseError:
        return ("error", "ParseError")
    except surface.ScopeError:
        return ("rejected", "ScopeError")
    except typecheck.CheckError as exc:
        return ("rejected", exc.code)
    return ("accepted", surface.pretty(result.qtype))


def _expected_check(entry: dict) -> tuple:
    expect = entry["expect"]
    if expect["status"] == "accepted":
        return ("accepted", expect["type"])
    return (expect["status"], expect["error"])


def _check_op(label: str, text: str, want: tuple, ladder=None) -> Op:
    work = len(text.encode())
    return Single(label, lambda: check_verdict(text),
                  lambda got: (got == want, work), ladder)


def build_check(root: Path, rng: random.Random) -> List[Op]:
    ops = [_check_op(f"corpus:{e['name']}", e["text"], _expected_check(e))
           for e in corpus(root) if e["kind"] == "check"]
    for p in _programs("check", rng):
        ops.append(_check_op(p.name, p.text, ("accepted", p.qtype),
                             p.n if p.family == "assign_ring" else None))
    return _in_fixed_order(ops, "check")


# -- eval -------------------------------------------------------------------


def load_checked(text: str):
    """parse, elaborate and check a closed program, as `rq eval` does."""
    term = surface.elaborate(surface.parse(text))
    typecheck.check_program(syntax.TypeEnv(), syntax.StoreTyping(), term)
    return term


def eval_result(text: str, fuel: int):
    return machine.eval_term(load_checked(text), fuel=fuel)


def _judge_family_eval(p: Program):
    def judge(result) -> Tuple[bool, int]:
        events = Counter(e.rule for e in result.events)
        ok = (result.status == "value"
              and surface.pretty(result.term) == p.value
              and len(result.store) == p.store_size
              and result.steps == p.steps
              and all(events[r] == p.events[r] for r in EVENT_RULES))
        return ok, result.steps
    return judge


def _judge_diverge(result) -> Tuple[bool, int]:
    return result.status == "fuel" and result.steps == DIVERGE_FUEL, result.steps


def _corpus_entry(root: Path, name: str) -> dict:
    return next(e for e in corpus(root) if e["name"] == name)


def build_eval(root: Path, rng: random.Random) -> List[Op]:
    ops: List[Op] = []
    for p in _programs("eval", rng):
        ops.append(Single(p.name,
                          lambda t=p.text: eval_result(t, machine.DEFAULT_EVAL_FUEL),
                          _judge_family_eval(p),
                          p.n if p.family == "assign_ring" else None))
    diverge = _corpus_entry(root, "eval-diverge")
    if diverge["expect"] != {"status": "fuel", "fuel": DIVERGE_FUEL}:
        raise ValueError(f"unexpected manifest entry {diverge}")
    ops.append(Single("corpus:eval-diverge",
                      lambda t=diverge["text"]: eval_result(t, DIVERGE_FUEL),
                      _judge_diverge))
    return _in_fixed_order(ops, "eval")


# -- verify -----------------------------------------------------------------


def preservation_report(text: str, fuel: int):
    """`rq eval --verify-preservation`: re-check after every step."""
    return machine.check_preservation(load_checked(text), syntax.StoreTyping(),
                                      fuel=fuel)


def separation_report(text: str):
    """`rq sep`: check both programs, then interleave them."""
    first, second = surface.parse_pair(text)
    t1, t2 = surface.elaborate(first), surface.elaborate(second)
    typecheck.check_program(syntax.TypeEnv(), syntax.StoreTyping(), t1)
    typecheck.check_program(syntax.TypeEnv(), syntax.StoreTyping(), t2)
    return machine.separation_experiment(t1, t2, syntax.StoreTyping())


def _judge_preservation(status: str, steps: Optional[int], value: Optional[str]):
    def judge(report) -> Tuple[bool, int]:
        ok = report.ok and report.status == status
        ok = ok and all(s.ok for s in report.steps)
        if steps is not None:
            ok = ok and len(report.steps) == steps
        if value is not None:
            ok = ok and report.final_term is not None \
                and surface.pretty(report.final_term) == value
        return ok, len(report.steps)
    return judge


def _judge_separation(verdict: str):
    def judge(report) -> Tuple[bool, int]:
        got = "SEPARATE" if report.ok else "violation"
        return report.premise_ok and got == verdict, len(report.steps)
    return judge


def runnable_entries(entries: List[dict]) -> List[dict]:
    """Closed programs the corpus expects to run: every eval entry, and
    each accepted check entry whose file has no eval entry."""
    eval_files = {e["file"] for e in entries if e["kind"] == "eval"}
    out = [e for e in entries if e["kind"] == "eval"]
    out += [e for e in entries
            if e["kind"] == "check" and e["expect"]["status"] == "accepted"
            and e["file"] not in eval_files and "assume" not in e["text"]]
    return out


def build_verify(root: Path, rng: random.Random) -> List[Op]:
    ops: List[Op] = []
    entries = corpus(root)
    for e in runnable_entries(entries):
        expect = e["expect"]
        if expect.get("status") == "fuel":
            fuel, judge = expect["fuel"], _judge_preservation("fuel", expect["fuel"], None)
        else:
            # preservation holds on every accepted program (the theorem
            # the harness checks), and eval entries fix the final value
            fuel = machine.DEFAULT_EVAL_FUEL
            judge = _judge_preservation("value", None, expect.get("value"))
        ops.append(Single(f"corpus:{e['name']}",
                          lambda t=e["text"], f=fuel: preservation_report(t, f),
                          judge))
    for e in entries:
        if e["kind"] == "sep":
            ops.append(Single(f"corpus:{e['name']}",
                              lambda t=e["text"]: separation_report(t),
                              _judge_separation(e["expect"].get("verdict", "SEPARATE"))))
    for p in _programs("verify", rng):
        ops.append(Single(p.name,
                          lambda t=p.text: preservation_report(t, machine.DEFAULT_EVAL_FUEL),
                          _judge_preservation("value", p.steps, p.value),
                          p.n if p.family == "assign_ring" else None))
    return _in_fixed_order(ops, "verify")


# -- qual-sweep -------------------------------------------------------------


def build_qual_sweep(root: Path, rng: random.Random,
                     telescopes: int = SWEEP_TELESCOPES) -> List[Op]:
    import helpers  # tests/helpers.py: the telescope enumeration
    import oracle   # tests/oracle.py: frozen, imported read-only

    store = syntax.StoreTyping()
    chosen = []
    for entries, count in list(SWEEP_LADDER.items()) + [(4, telescopes)]:
        # walk the enumeration twice rather than hold all of it, so that
        # set-up does not raise the peak resident set above the sweep's
        total = sum(1 for _ in helpers.telescopes_exact(entries))
        wanted = set(rng.sample(range(total), count))
        chosen += [(entries, i, env)
                   for i, env in enumerate(helpers.telescopes_exact(entries))
                   if i in wanted]
    ops: List[Op] = []
    for entries, index, env in chosen:
        quals = oracle.all_qualifiers(env, store)
        derivable = oracle.derivable_pairs(env, store)
        pairs = [(p, q, (p, q) in derivable) for p in quals for q in quals]
        ops.append(Sweep(f"telescope{entries}:{index}", env, store, pairs,
                         ladder=len(pairs)))
    return _in_fixed_order(ops, "qual-sweep")


BUILDERS = {
    "check": build_check,
    "eval": build_eval,
    "verify": build_verify,
    "qual-sweep": build_qual_sweep,
}


def build(workload: str, root: Path, seed: int) -> List[Op]:
    return BUILDERS[workload](root, random.Random(f"{workload}:{seed}"))
