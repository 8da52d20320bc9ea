"""Unit tests for the small-step machine and its metatheory harnesses."""

import json
from pathlib import Path

from helpers import bench_families
from rqcheck import machine, syntax
from rqcheck.cli import corpus_text, load_corpus
from rqcheck.machine import (
    DEFAULT_EVAL_FUEL, Store, Stepped, Value, check_preservation,
    erase_ascriptions, eval_term, separation_experiment, step, store_wf,
)
from rqcheck.surface import elaborate, parse, parse_term, pretty
from rqcheck.syntax import (
    Assign, Const, Deref, INT, Let, LocAtom, LocTerm, RefAlloc, StoreTyping,
    Term, UnitLit, Var, alpha_eq, map_parts, qt, qual,
)

EMPTY_SIGMA = StoreTyping()


# ---------------------------------------------------------------------------
# Individual reduction rules


def test_beta_ignores_unused_self_name():
    out = step(parse_term("(fn f(x: Int^{}) { x })(5)"), Store.empty())
    assert isinstance(out, Stepped)
    assert out.term == Const(5)
    assert out.event.rule == "beta"


def test_allocation_appends_a_location():
    out = step(RefAlloc(Const(0)), Store.empty())
    assert out.term == LocTerm(0)
    assert out.store.get(0) == Const(0)
    assert (out.event.rule, out.event.loc) == ("ref", 0)


def test_dereference_reads_the_store():
    store = Store({0: Const(7)}, 1)
    out = step(Deref(LocTerm(0)), store)
    assert out.term == Const(7)
    assert out.store.cells == store.cells


def test_assignment_updates_in_place():
    store = Store({0: Const(7)}, 1)
    out = step(Assign(LocTerm(0), Const(9)), store)
    assert out.term == UnitLit()
    assert out.store.get(0) == Const(9)
    assert len(out.store) == 1


def test_type_application_substitutes_the_argument():
    t = parse_term("(tfn f[X^x <: Top^{*}] { fn g(y: X^{x}) { y } })[Int^{}]")
    out = step(t, Store.empty())
    assert out.event.rule == "beta_t"
    assert alpha_eq(out.term, parse_term("fn g(y: Int^{}) { y }"))


def test_ascription_drops_off_a_value():
    t = parse_term("(42 : Int^{})")
    out = step(t, Store.empty())
    assert out.term == Const(42)
    assert out.event.rule == "ascribe"


def test_value_is_terminal():
    assert isinstance(step(Const(1), Store.empty()), Value)


def test_evaluation_order_is_function_then_argument():
    t = parse_term("(fn f(x: Ref[Int]^{*}) { x })((fn g(y: Int^{}) "
                   "{ ref y })(0))")
    events = eval_term(t).events
    assert [e.rule for e in events] == ["beta", "ref", "beta"]


# ---------------------------------------------------------------------------
# eval_term


def test_eval_of_a_value_takes_no_steps():
    result = eval_term(Const(42))
    assert result.status == "value" and result.steps == 0


def test_divergence_exhausts_fuel():
    t = parse_term("val loop = fn loop(x: Unit^{}) : Unit^{} { loop(x) }; "
                   "loop(unit)")
    assert eval_term(t, fuel=100).status == "fuel"


def test_eval_is_deterministic():
    t = parse_term("val c = ref 0; val u = c := 1; !c")
    r1, r2 = eval_term(t), eval_term(t)
    assert r1.term == r2.term and r1.steps == r2.steps
    assert [e.rule for e in r1.events] == [e.rule for e in r2.events]


def test_store_domain_only_grows():
    t = parse_term("val c = ref 0; val d = ref 1; val u = c := 2; !c")
    store = Store.empty()
    doms = [set()]
    while True:
        out = step(t, store)
        if not isinstance(out, Stepped):
            break
        t, store = out.term, out.store
        assert doms[-1] <= set(store.cells)
        doms.append(set(store.cells))


def test_a_let_step_rewrites_none_of_the_remaining_program(monkeypatch):
    # each cell of the ring is used near the end of the program; a
    # machine that substitutes at once rebuilds every let in between
    # (41,200 calls), a delayed substitution none
    program = bench_families().assign_ring(200)
    term = elaborate(parse(program.text))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return map_parts(*args, **kwargs)

    monkeypatch.setattr(syntax, "map_parts", counted)
    result = eval_term(term)
    assert (result.status, pretty(result.term)) == ("value", program.value)
    assert len(calls) <= 1000


def test_a_type_application_rewrites_no_node_of_the_body(monkeypatch):
    # a β_t step substitutes only into its type argument; a machine that
    # rewrites the Λ body at once walks its annotations too (72 calls at
    # n = 8, 9 per β_t), a delayed substitution 2 per β_t
    n = 8
    program = bench_families().pair_tower(n)
    term = elaborate(parse(program.text))
    calls, in_beta_t = [], []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return map_parts(*args, **kwargs)

    def stepped(c, store):
        before = len(calls)
        out = step(c, store)
        if isinstance(out, Stepped) and out.event.rule == "beta_t":
            in_beta_t.extend(calls[before:])
        return out

    monkeypatch.setattr(syntax, "map_parts", counted)
    monkeypatch.setattr(machine, "step", stepped)
    result = eval_term(term)
    assert (result.status, pretty(result.term)) == ("value", program.value)
    assert [e.rule for e in result.events].count("beta_t") == n
    assert not any(isinstance(x, Term.__args__) for x in in_beta_t)
    assert len(in_beta_t) <= 3 * n


def _let_spine(depth: int):
    body = Deref(Var("v0"))
    for i in reversed(range(depth)):
        body = Let(f"v{i}", RefAlloc(Const(i)), body)
    return body


def test_a_deep_let_spine_runs_within_the_recursion_limit():
    depth = 3000
    result = eval_term(_let_spine(depth))
    assert (result.status, result.term, result.steps) == ("value", Const(0),
                                                         2 * depth + 1)
    assert len(result.store) == depth


def test_a_deep_let_spine_is_rechecked_within_the_recursion_limit():
    report = check_preservation(_let_spine(3000), EMPTY_SIGMA, fuel=3)
    assert report.status == "fuel"
    assert len(report.steps) == 3 and all(s.ok for s in report.steps)


# ---------------------------------------------------------------------------
# Store typing well-formedness


def test_store_wf_accepts_closed_saturated_entries():
    assert store_wf(EMPTY_SIGMA)
    assert store_wf(EMPTY_SIGMA.extended(0, qt(INT)))


def test_store_wf_rejects_free_variables():
    assert not store_wf(EMPTY_SIGMA.extended(0, qt(INT, qual("x"))))


def test_store_wf_rejects_unsaturated_entries():
    sigma = (EMPTY_SIGMA.extended(0, qt(INT, qual(locs=[1])))
             .extended(1, qt(INT, qual(locs=[0]))))
    # @0's entry chases to @1 and back: the fixpoint is {@0, @1}, not {@1}
    assert not store_wf(sigma)


# ---------------------------------------------------------------------------
# Ascription erasure (skeleton comparison only)


def test_erasure_removes_every_ascription():
    t = parse_term("((1 : Int^{}) : Int^{})")
    assert erase_ascriptions(t) == Const(1)


# ---------------------------------------------------------------------------
# Preservation harness


def test_preservation_of_an_allocation_records_the_witness():
    report = check_preservation(RefAlloc(Const(0)), EMPTY_SIGMA)
    assert report.ok and report.status == "value"
    assert len(report.steps) == 1
    assert report.steps[0].witness == frozenset({LocAtom(0)})


def test_preservation_of_a_value_is_an_empty_report():
    report = check_preservation(Const(1), EMPTY_SIGMA)
    assert report.ok and report.steps == []


def test_preservation_of_a_pure_beta_step_has_empty_witness():
    report = check_preservation(parse_term("(fn f(x: Int^{}) { x })(3)"),
                                EMPTY_SIGMA)
    assert report.ok
    assert [s.witness for s in report.steps] == [frozenset()]


# ---------------------------------------------------------------------------
# Separation harness


def test_two_independent_allocators_stay_separate():
    report = separation_experiment(RefAlloc(Const(0)), RefAlloc(Const(1)),
                                   EMPTY_SIGMA)
    assert report.premise_ok and report.ok
    assert report.final_locs == (frozenset({0}), frozenset({1}))


def test_two_constants_are_trivially_separate():
    report = separation_experiment(Const(42), Const(42), EMPTY_SIGMA)
    assert report.premise_ok and report.ok


def test_shared_tracked_location_fails_the_premise():
    sigma = EMPTY_SIGMA.extended(0, qt(INT))
    store = Store({0: Const(7)}, 1)
    report = separation_experiment(LocTerm(0), LocTerm(0), sigma,
                                   store0=store)
    assert not report.premise_ok


def test_dereferencing_untracked_content_is_separate():
    sigma = EMPTY_SIGMA.extended(0, qt(INT))
    store = Store({0: Const(7)}, 1)
    report = separation_experiment(Deref(LocTerm(0)), Deref(LocTerm(0)),
                                   sigma, store0=store)
    assert report.premise_ok and report.ok


# ---------------------------------------------------------------------------
# Golden evaluation behaviour

GOLDEN = Path(__file__).parent / "golden" / "eval_corpus.jsonl"
GOLDEN_FUELS = (0, 1, 2, 3, 7, None)      # None: the entry's own fuel


def _golden_programs():
    """(name, term, fuel of the entry) for every corpus eval entry and
    the four generated families at n=1..5."""
    for entry in load_corpus():
        if entry.kind == "eval":
            term = elaborate(parse(corpus_text(entry)))
            yield entry.name, term, entry.expect.get("fuel", DEFAULT_EVAL_FUEL)
    families = bench_families()
    for family in sorted(families.FAMILIES):
        for n in range(1, 6):
            program = families.FAMILIES[family](n)
            yield program.name, elaborate(parse(program.text)), DEFAULT_EVAL_FUEL


def _events(events) -> str:
    return " ".join(e.rule if e.loc is None else f"{e.rule}@{e.loc}" for e in events)


def _store(store) -> dict:
    return {str(loc): pretty(v) for loc, v in sorted(store.cells.items())}


def eval_golden_lines() -> str:
    """One JSON line per (program, fuel): everything `eval_term` reports;
    then, for each corpus eval entry, the `check_preservation` report."""
    lines = []
    for name, term, own_fuel in _golden_programs():
        for fuel in GOLDEN_FUELS:
            result = eval_term(term, fuel=own_fuel if fuel is None else fuel)
            lines.append({"program": name, "fuel": fuel, "status": result.status,
                          "steps": result.steps, "reason": result.reason,
                          "events": _events(result.events),
                          "term": pretty(result.term), "store": _store(result.store)})
    for entry in load_corpus():
        if entry.kind == "eval":
            term = elaborate(parse(corpus_text(entry)))
            report = check_preservation(term, EMPTY_SIGMA,
                                        fuel=entry.expect.get("fuel", DEFAULT_EVAL_FUEL))
            steps = [[s.index, s.rule, sorted(a.render() for a in s.witness),
                      pretty(s.q_before), pretty(s.q_after), s.ok, s.detail]
                     for s in report.steps]
            final = None if report.final_term is None else pretty(report.final_term)
            lines.append({"preservation": entry.name, "ok": report.ok,
                          "status": report.status, "steps": steps, "final": final})
    return "".join(json.dumps(line) + "\n" for line in lines)


def test_eval_and_preservation_match_the_golden_file():
    assert eval_golden_lines() == GOLDEN.read_text(encoding="utf-8")
