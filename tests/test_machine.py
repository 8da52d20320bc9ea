"""Unit tests for the small-step machine and its metatheory harnesses."""

import json
import sys
from pathlib import Path

import pytest

from helpers import bench_families, runnable_programs, sep_pairs
from rqcheck import machine, subtyping, syntax, typecheck
from rqcheck.cli import corpus_text, load_corpus
from rqcheck.machine import (
    DEFAULT_EVAL_FUEL, Configuration, Event, Stepped, Stuck, Value,
    check_preservation, erase_ascriptions, eval_term, separation_experiment,
    step, store_wf,
)
from rqcheck.surface import elaborate, parse, parse_term, pretty
from rqcheck.syntax import (
    Abs, App, Ascribe, Assign, Const, Deref, INT, Let, LocAtom, LocTerm, RefAlloc,
    RefT, StoreTyping, Term, TypeEnv, UnitLit, Var, alpha_eq, map_parts, qt,
    qual,
)
from rqcheck.typecheck import check_program

EMPTY_SIGMA = StoreTyping()


# ---------------------------------------------------------------------------
# Individual reduction rules


def test_beta_ignores_unused_self_name():
    out = step(parse_term("(fn f(x: Int^{}) { x })(5)"), {})
    assert isinstance(out, Stepped)
    assert out.term == Const(5)
    assert out.event.rule == "beta"


def test_allocation_appends_a_location():
    out = step(RefAlloc(Const(0)), {})
    assert out.term == LocTerm(0)
    assert out.store.get(0) == Const(0)
    assert (out.event.rule, out.event.loc) == ("ref", 0)


def test_dereference_reads_the_store():
    store = {0: Const(7)}
    out = step(Deref(LocTerm(0)), store)
    assert out.term == Const(7)
    assert out.store == store


def test_assignment_updates_in_place():
    store = {0: Const(7)}
    out = step(Assign(LocTerm(0), Const(9)), store)
    assert out.term == UnitLit()
    assert out.store.get(0) == Const(9)
    assert len(out.store) == 1


def test_type_application_substitutes_the_argument():
    t = parse_term("(tfn f[X^x <: Top^{*}] { fn g(y: X^{x}) { y } })[Int^{}]")
    out = step(t, {})
    assert out.event.rule == "beta_t"
    assert alpha_eq(out.term, parse_term("fn g(y: Int^{}) { y }"))


def test_ascription_drops_off_a_value():
    t = parse_term("(42 : Int^{})")
    out = step(t, {})
    assert out.term == Const(42)
    assert out.event.rule == "ascribe"


def test_value_is_terminal():
    assert isinstance(step(Const(1), {}), Value)


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
    store = {}
    doms = [set()]
    while True:
        out = step(t, store)
        if not isinstance(out, Stepped):
            break
        t, store = out.term, out.store
        assert doms[-1] <= set(store)
        doms.append(set(store))


def test_a_run_writes_the_one_store_it_was_given(monkeypatch):
    program = parse_term("val c = ref 0; val u = c := 1; !c")
    t, store, rules = program, {}, []
    while True:
        out = step(t, store)
        if not isinstance(out, Stepped):
            break
        assert out.store is store
        t = out.term
        rules.append(out.event.rule)
    assert {"ref", "assign", "deref"} <= set(rules)
    assert store == {0: Const(1)}
    given = []

    def recorded(t, store):
        given.append(store)
        return step(t, store)

    monkeypatch.setattr(machine, "step", recorded)
    result = eval_term(program)
    assert result.term == Const(1) and result.store == {0: Const(1)}
    assert given and all(s is result.store for s in given)


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


def test_events_are_slotted_and_compare_by_value():
    assert not hasattr(Event("beta"), "__dict__")
    assert Event("ref", 3) == Event("ref", 3) != Event("ref", 4)
    assert repr(Event("ref", 3)) == "Event(rule='ref', loc=3)"


# ---------------------------------------------------------------------------
# A configuration stepped in place against the whole term stepped anew


def _one_term_at_a_time(t: Term, fuel: int):
    """What `eval_term` reports, got by stepping the whole term: each
    step splits it into a new configuration and plugs it again, so no
    substitution outlives a step."""
    store, events = {}, []
    for i in range(fuel):
        out = step(t, store)
        if isinstance(out, Value):
            return "value", out.term, store, i, "", events
        if isinstance(out, Stuck):
            return "stuck", t, store, i, out.reason, events
        events.append(out.event)
        t = out.term
    return "fuel", t, store, fuel, "fuel exhausted", events


ID = Abs("id", "x", qt(INT), None, Var("x"))
# the body binds a let under the β substitution, then recurs
LOOP = Abs("loop", "x", qt(INT), qt(INT),
           Let("y", Var("x"), App(Var("loop"), Var("y"))))

# core terms, built directly, so a name may be bound twice: (name, term,
# status, final term)
CORE_TERMS = [
    # the inner let must not grow the substitution that the outer let's
    # frame and the body `y` still read
    ("shadowed-let-in-let-rhs",
     Let("y", Const(5), Let("x", Let("y", Const(1), Var("y")), Var("y"))),
     "value", Const(5)),
    ("let-in-an-argument",
     Let("y", Const(5), Let("r", App(ID, Let("y", Const(1), Var("y"))), Var("y"))),
     "value", Const(5)),
    ("let-in-the-argument-of-the-body",
     Let("y", Const(5), App(ID, Let("y", Const(1), Var("y")))),
     "value", Const(1)),
    ("let-in-a-let-rhs",
     Let("a", RefAlloc(Const(1)),
         Let("b", Let("c", Deref(Var("a")), Assign(Var("a"), Var("c"))),
             Deref(Var("a")))),
     "value", Const(1)),
    ("recursive-lambda-binding-a-let", App(LOOP, Const(0)), "fuel", None),
    ("stuck-application",
     Let("f", Const(1), App(Var("f"), Let("z", Const(2), Var("z")))),
     "stuck", App(Const(1), Const(2))),
    ("stuck-open-term", Let("a", Const(1), App(ID, Var("nowhere"))),
     "stuck", App(ID, Var("nowhere"))),
]


def _configuration_differential():
    """(name, term): the runnable corpus, the four families at n = 1, 2
    and 5, and the core terms."""
    for entry, term in runnable_programs():
        yield entry.name, term
    families = bench_families()
    for family in sorted(families.FAMILIES):
        for n in (1, 2, 5):
            program = families.FAMILIES[family](n)
            yield program.name, elaborate(parse(program.text))
    for name, term, _, _ in CORE_TERMS:
        yield name, term


CONFIGURATION_DIFFERENTIAL = list(_configuration_differential())


@pytest.mark.parametrize("name,term", CONFIGURATION_DIFFERENTIAL,
                         ids=[d[0] for d in CONFIGURATION_DIFFERENTIAL])
def test_a_configuration_stepped_in_place_equals_the_term_stepped_anew(name, term):
    # every fuel up to 40 steps, then half and all of the run: a cut run's
    # term is the configuration plugged, so it shows each frame's
    # substitution as that point of the run left it
    steps = eval_term(term, fuel=300).steps
    for fuel in sorted({*range(min(steps, 40) + 2), steps // 2, steps, 300}):
        r = eval_term(term, fuel=fuel)
        assert (r.status, r.term, r.store, r.steps, r.reason, r.events) == \
            _one_term_at_a_time(term, fuel), fuel


@pytest.mark.parametrize("name,term,status,final", CORE_TERMS,
                         ids=[c[0] for c in CORE_TERMS])
def test_core_terms_evaluate_as_the_substitution_semantics_says(
        name, term, status, final):
    result = eval_term(term, fuel=50)
    assert result.status == status
    if final is not None:
        assert result.term == final


def test_growing_a_substitution_in_place_leaves_every_other_one_as_it_was():
    for _, term, _, _ in CORE_TERMS:
        eval_term(term, fuel=50)
    empty = syntax.EMPTY_SUBSTITUTION
    assert not (empty.values or empty.types or empty.quals or empty.names)
    with pytest.raises(AttributeError):
        empty.extended("x", Const(0), in_place=True)
    assert not empty.values
    # x's qualifier, computed lazily from its value, is each one's own
    first = empty.extended("x", LocTerm(0))
    assert first.qual(qual("x")) == qual(locs=[0])
    second = first.extended("x", LocTerm(1))
    assert second.qual(qual("x")) == qual(locs=[1])
    assert second.extended("x", LocTerm(2), in_place=True) is second
    assert second.qual(qual("x")) == qual(locs=[2])
    assert first.qual(qual("x")) == qual(locs=[0])


def _vals_and_calls(n: int) -> str:
    return ("val id = fn id(x: Int^{}) { x };\n"
            + "".join(f"val v{i} = {i};\nval w{i} = id(v{i});\n"
                      for i in range(n // 2))
            + "v0\n")


def test_a_run_copies_substitution_entries_linear_in_the_program(monkeypatch):
    # every let-β of the top-level spine extends the one substitution the
    # machine owns, and each β builds one of two entries; a machine that
    # copies the spine's on each let-β copies 6.0M entries at 2,000 vals
    # and 24.0M at 4,000
    copied = []
    grown = syntax._Substitution._grown

    def counted(sub, *args):
        copied.append(1 + len(sub.values) + len(sub.types) + len(sub.quals)
                      + len(sub.names))
        return grown(sub, *args)

    monkeypatch.setattr(syntax._Substitution, "_grown", counted)
    counts = []
    for n in (2000, 4000):
        copied.clear()
        result = eval_term(elaborate(parse(_vals_and_calls(n))))
        assert (result.status, result.term, result.steps) == ("value", Const(0),
                                                             n + n // 2 + 1)
        counts.append(sum(copied))
    assert 0 < counts[1] <= 2.1 * counts[0]


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


# once id is substituted into k's body, k's parameter x sits outside the
# copy's X^x; the atom x in y's annotation is the inner one
SHADOWED_QVAR = ("val id = tfn id[X^x <: Top^{}] { fn g(y: X^{x}) : X^{} { y } }; "
                 "val k = fn k(x: Unit^{*}) { id }; 1")


def test_a_copied_type_abstraction_keeps_its_own_qualifier_variable():
    report = check_preservation(parse_term(SHADOWED_QVAR), EMPTY_SIGMA)
    assert report.ok and report.status == "value"
    assert [s.ok for s in report.steps] == [True, True]


# `rq check` accepts this and `rq eval` runs it to 0, but once d's let-β
# puts @1 into f's body, T-Loc gives @1 the qualifier {@0, @1}, and @0 is
# not observable under f's capture {d}: the checker rejects the new term
RETYPE_REJECTED = ("val c = ref 0; val d = ref c; "
                   "val f = fn f(u: Unit^{}) { d }; val g = f(unit); 0")


def test_a_rejected_re_typing_is_a_failed_step():
    report = check_preservation(parse_term(RETYPE_REJECTED), EMPTY_SIGMA)
    assert (report.ok, report.status) == (False, "ill-typed")
    assert [(s.rule, s.ok) for s in report.steps] == [
        ("ref", True), ("beta", True), ("ref", True), ("beta", False)]
    last = report.steps[-1]
    assert last.q_after is None
    assert last.detail == ("re-typing rejected [Unobservable]: "
                           "location @1: @0 not observable")


def test_a_rejected_re_typing_ends_a_separation_experiment():
    report = separation_experiment(parse_term(RETYPE_REJECTED), Const(0),
                                   EMPTY_SIGMA)
    assert report.premise_ok and not report.ok
    assert report.detail == ("side 1 re-typing rejected at step 3 "
                             "[Unobservable]: location @1: @0 not observable")


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
    store = {0: Const(7)}
    report = separation_experiment(LocTerm(0), LocTerm(0), sigma,
                                   store0=store)
    assert not report.premise_ok


def test_dereferencing_untracked_content_is_separate():
    sigma = EMPTY_SIGMA.extended(0, qt(INT))
    store = {0: Const(7)}
    report = separation_experiment(Deref(LocTerm(0)), Deref(LocTerm(0)),
                                   sigma, store0=store)
    assert report.premise_ok and report.ok


def test_separation_leaves_the_callers_store_as_it_was():
    sigma = EMPTY_SIGMA.extended(0, qt(INT))
    store = {0: Const(7)}
    report = separation_experiment(Assign(LocTerm(0), Const(9)),
                                   RefAlloc(Const(1)), sigma, store0=store)
    assert report.ok and report.finished
    assert report.final_locs == (frozenset(), frozenset({1}))
    assert store == {0: Const(7)}


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
    return {str(loc): pretty(v) for loc, v in sorted(store.items())}


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


# ---------------------------------------------------------------------------
# Re-typing in the harnesses

class _FullRecheck:
    """The reference: `check_program` on the whole term after every step."""

    def __call__(self, store, c):
        return check_program(TypeEnv(), store, c.plug()).qtype


def _outcome(harness, *args, **kwargs):
    try:
        return harness(*args, **kwargs)
    except Exception as exc:  # the same rejection on both sides
        return type(exc).__name__, str(exc)


def _both(monkeypatch, harness, *args, **kwargs):
    memoized = _outcome(harness, *args, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(machine, "Retyper", _FullRecheck)
        reference = _outcome(harness, *args, **kwargs)
    return memoized, reference


# h is open (x is free in it) and stays the same object while x's
# ascription is dropped; reusing its type from the step before would keep
# the wider codomain {a, b} of the ascription
STALE_OPEN_CLOSURE = (
    "val a = ref 0; val b = ref 1; "
    "val g = fn g(w: Int^{}) : Ref[Int]^{a} { a }; "
    "val x = (g : (g2(w: Int^{}) => Ref[Int]^{a, b})^{a, b}); "
    "(fn h^{x, a, b}(y: Int^{}) { x(0) })(0)")

# as above, with the body reading g too, so it is typed again at g's
# let-β, one step before x's ascription is dropped: the open h met again
# in the next call must not be given its type under the wider x
STALE_OPEN_CLOSURE_NEXT_CALL = (
    "val a = ref 0; val b = ref 1; "
    "val g = fn g(w: Int^{}) : Ref[Int]^{a} { a }; "
    "val x = (g : (g2(w: Int^{}) => Ref[Int]^{a, b})^{a, b}); "
    "(fn h^{x, a, b}(y: Ref[Int]^{a}) { x(0) })(g(0))")

# b's rhs `!a` is the same object until a is substituted, and a's rhs
# `r` until r is; the ref step changes r's entry, which D of !a reaches
# only through a's entry, whose type Ref[Int]^{r} does not change
ALIAS_AT_REF = "val r = ref 0; val a = r; val b = !a; b"

# at the let-β of k, a's entry narrows from Int^{k} to Int^{} and k's
# goes, while b's rhs `a` stays the same object
NARROWED_AT_LET = "val k = 5; val a = k; val b = a; val r = ref b; !r"

# once c and d are substituted, the body `d` of the inner lets has the
# type Ref[Ref[Int]^{@0}], which names a location: the let's conclusion
# must look only at the variables free in it
LOC_IN_LET_BODY = "val c = ref 0; val d = ref c; val n = (val k = 1; d); !n"
LOC_IN_LAMBDA_LET_BODY = (
    "val c = ref 0; val d = ref c; "
    "val f = fn f^{c, d}(u: Unit^{}) { val k = 1; d }; val g = f(unit); 0")

# id's frame, and k's, outlive the steps of g's call, whose conclusion
# narrows from g's codomain {a, b} to {a} at its β; so must y's type
KEPT_FRAMES = ("val a = ref 0; val b = ref 1; "
               "val g = fn g(w: Int^{}) : Ref[Int]^{a, b} { a }; "
               "val h = fn h(w: Int^{}) { w }; "
               "val id = fn id(x: Ref[Int]^{a, b}) { x }; "
               "val y = (val k = id(g(h(0))); k); y")


def _alias_chain(n: int) -> str:
    return ("val a0 = ref 0; "
            + "".join(f"val a{i} = a{i - 1}; " for i in range(1, n)) + f"!a{n - 1}")


# every step changes the entry at the chain's root, which every later
# binding reaches through the entry before it
ALIAS_CHAIN = _alias_chain(100)

# b reads r's entry only through c's and a's, whose types do not change
# when r's does: a two-step chase of the ascription's qualifier
CHASE_AT_REF = "val r = ref 0; val a = r; val c = a; val b = (c : Ref[Int]^{r}); !b"


def _under_a_frame(spine: str) -> str:
    """The spine as the right-hand side of a binding: a spine in focus
    below a frame, not at the root."""
    return f"val y = ({spine}); y"


def _inner_spine(m: int) -> str:
    return "".join(f"val v_{i} = {i}; " for i in range(m)) + "v_0"


def _differential_programs():
    """(name, term): the runnable corpus, the four families at n=1..20,
    the program whose copied Λ binds its enclosing parameter's name and
    the programs whose unchanged right-hand sides read changed entries."""
    for entry, term in runnable_programs():
        yield entry.name, term
    families = bench_families()
    for family in sorted(families.FAMILIES):
        for n in range(1, 21):
            program = families.FAMILIES[family](n)
            yield program.name, elaborate(parse(program.text))
    yield "shadowed-qvar", parse_term(SHADOWED_QVAR)
    yield "stale-open-closure", parse_term(STALE_OPEN_CLOSURE)
    yield "stale-open-closure-next-call", parse_term(STALE_OPEN_CLOSURE_NEXT_CALL)
    yield "alias-at-ref", parse_term(ALIAS_AT_REF)
    yield "narrowed-at-let", parse_term(NARROWED_AT_LET)
    yield "loc-in-let-body", parse_term(LOC_IN_LET_BODY)
    yield "loc-in-lambda-let-body", parse_term(LOC_IN_LAMBDA_LET_BODY)
    yield "alias-chain", parse_term(ALIAS_CHAIN)
    yield "kept-frames", parse_term(KEPT_FRAMES)
    yield "chase-at-ref", parse_term(CHASE_AT_REF)
    yield "inner-spine-under-a-frame", parse_term(_under_a_frame(_inner_spine(30)))
    yield "alias-chain-under-a-frame", parse_term(_under_a_frame(_alias_chain(30)))
    tower = bench_families().closure_tower(10).text.strip()
    yield "closure-tower-under-a-frame", parse_term(_under_a_frame(tower))


DIFFERENTIAL = list(_differential_programs())


@pytest.mark.parametrize("name,term", DIFFERENTIAL, ids=[d[0] for d in DIFFERENTIAL])
def test_preservation_reports_equal_a_full_recheck_after_every_step(
        monkeypatch, name, term):
    memoized, reference = _both(monkeypatch, check_preservation, term,
                                EMPTY_SIGMA, fuel=300)
    assert memoized == reference
    assert memoized.ok


def test_separation_reports_equal_a_full_recheck_after_every_step(monkeypatch):
    pairs = sep_pairs()
    assert len(pairs) == 10
    for entry, t1, t2 in pairs:
        memoized, reference = _both(monkeypatch, separation_experiment, t1, t2,
                                    EMPTY_SIGMA)
        assert memoized == reference, entry.name


def test_the_retyper_equals_check_program_on_any_store_typing_and_phi():
    # the harness runs above only grow Σ and re-type well-typed terms, so
    # they cannot tell a memo that skips the Σ test or the capture test
    # apart; here one closed λ, and one spine whose binding reads a cell,
    # are typed under two store typings with one domain, then the λ
    # inside a λ whose empty capture hides its location
    outer = parse_term("fn w^{}(z: Unit^{}) { fn f(u: Unit^{}) { @0 } }")
    inner = outer.body
    spine = parse_term("val a = 1; val b = !@0; b")
    int_cell = EMPTY_SIGMA.extended(0, qt(INT))
    unit_cell = EMPTY_SIGMA.extended(0, qt(syntax.UNIT))
    retype = typecheck.Retyper()
    for sigma, t in ((int_cell, inner), (unit_cell, inner), (int_cell, inner),
                     (int_cell, spine), (unit_cell, spine), (int_cell, spine),
                     (int_cell, outer), (int_cell, inner)):
        memoized = _outcome(retype, sigma, Configuration(t))
        assert memoized == _outcome(_FullRecheck(), sigma, Configuration(t))
    assert memoized != _outcome(_FullRecheck(), unit_cell, Configuration(inner))


def test_a_memoized_closed_lambda_is_given_again_only_where_observable():
    # f is typed at the top, then met in the next call inside w, whose
    # empty capture hides f's location: check_program rejects w there
    outer = parse_term("fn w^{}(z: Unit^{}) { fn f(u: Unit^{}) { @0 } }")
    int_cell = EMPTY_SIGMA.extended(0, qt(INT))
    retype = typecheck.Retyper()
    for t in (outer.body, outer):
        memoized = _outcome(retype, int_cell, Configuration(t))
        assert memoized == _outcome(_FullRecheck(), int_cell, Configuration(t))
    assert memoized[0] == "CheckError" and "not observable" in memoized[1]


def test_a_memo_hit_keeps_the_closed_terms_typed_within_it(monkeypatch):
    # β takes a value out of the λ that holds it, so a λ given again
    # keeps the entries of the λs met while typing it: f, typed inside w
    # two calls before, is not typed again
    outer = parse_term("fn w(z: Unit^{}) { fn f(u: Unit^{}) { 0 } }")
    terms = (outer, App(outer, UnitLit()), outer.body)
    want = [check_program(TypeEnv(), EMPTY_SIGMA, t).qtype for t in terms]
    calls = _counting(monkeypatch, Abs)
    retype = typecheck.Retyper()
    typed = []
    for t, qty in zip(terms, want):
        calls.clear()
        assert retype(EMPTY_SIGMA, Configuration(t)) == qty
        typed.append(len(calls))
    assert typed == [2, 0, 0]


def test_a_value_carried_from_step_to_step_is_typed_once(monkeypatch):
    # each of the divergent program's steps re-types the loop closure;
    # the memo types it once, and once per side when two copies of the
    # program are interleaved
    entry = next(e for e in load_corpus() if e.name == "eval-diverge")
    text = corpus_text(entry)
    term, other = elaborate(parse(text)), elaborate(parse(text))
    calls = []
    rule = typecheck._SYNTH[Abs]

    def counted(checker, env, phi, t):
        calls.append(t)
        return rule(checker, env, phi, t)

    monkeypatch.setitem(typecheck._SYNTH, Abs, counted)
    counts = []
    for fuel in (200, 2000):
        calls.clear()
        report = check_preservation(term, EMPTY_SIGMA, fuel=fuel)
        assert report.status == "fuel" and len(report.steps) == fuel
        calls.append(None)
        sep = separation_experiment(term, other, EMPTY_SIGMA, fuel=fuel)
        assert sep.ok and len(sep.steps) == fuel
        counts.append((calls.index(None), len(calls) - 1 - calls.index(None)))
    assert counts[0] == counts[1]


def _counting(monkeypatch, cls):
    """Record every node of class cls that the checker synthesizes."""
    calls = []
    rule = typecheck._SYNTH[cls]

    def counted(checker, env, phi, t):
        calls.append(t)
        return rule(checker, env, phi, t)

    monkeypatch.setitem(typecheck._SYNTH, cls, counted)
    return calls


def _evaluating_first_rhs(spine: Let, rhs) -> Configuration:
    """The configuration whose root let is evaluating its first
    right-hand side, which is now rhs."""
    c = Configuration(rhs)
    c.frames.append((spine, syntax.EMPTY_SUBSTITUTION, [], False))
    return c


def test_the_retyper_reuses_a_binding_only_while_its_entries_are_unchanged(
        monkeypatch):
    # one rhs object, !a, under configurations that differ in a's entry
    # (it reads a's cell, so it is typed again), or only in the unrelated
    # u inside a's rhs (so its type is reused), against check_program on
    # every configuration
    read = Deref(Var("a"))
    sigma = EMPTY_SIGMA.extended(0, qt(INT)).extended(1, qt(syntax.UNIT))
    spine = Let("a", LocTerm(0), Let("b", read, Var("b")))

    def rhs(cell, unrelated):
        return Let("u", unrelated, LocTerm(cell))

    calls = _counting(monkeypatch, Deref)
    retype = typecheck.Retyper()
    last = _evaluating_first_rhs(spine, rhs(0, UnitLit()))
    # the last configuration again, under a Σ that types cell 0 as Unit:
    # a's entry reads it, so !a is typed again
    other = EMPTY_SIGMA.extended(0, qt(syntax.UNIT))
    for store, c, typed in ((sigma, _evaluating_first_rhs(spine, rhs(0, Const(1))), 1),
                            (sigma, _evaluating_first_rhs(spine, rhs(1, Const(1))), 1),
                            (sigma, _evaluating_first_rhs(spine, rhs(1, UnitLit())), 0),
                            (sigma, last, 1), (other, last, 1),
                            (other, last, 0)):
        calls.clear()
        assert retype(store, c) == check_program(TypeEnv(), store, c.plug()).qtype
        assert calls.count(read) == typed + 1   # check_program's own


def test_the_retyper_follows_the_entries_a_binding_reaches():
    # b's ascription holds while r is @0 and fails while r is a fresh
    # reference, and b reads r only through a's entry Ref[Int]^{r}, which
    # is the same object in both configurations: only the closure through
    # a's entry finds that r's changed
    sigma = EMPTY_SIGMA.extended(0, qt(INT))
    alias, narrowed = Var("r"), Ascribe(Var("a"), qt(RefT(qt(INT)),
                                                        qual(locs=[0])))
    spine = Let("r", LocTerm(0), Let("a", alias, Let("b", narrowed, Var("b"))))

    retype = typecheck.Retyper()
    outcomes = []
    for r in (LocTerm(0), RefAlloc(Const(0)), LocTerm(0)):
        c = _evaluating_first_rhs(spine, r)
        outcomes.append(_outcome(retype, sigma, c))
        assert outcomes[-1] == _outcome(_FullRecheck(), sigma, c)
    assert outcomes[1][0] == "CheckError" and outcomes[0] == outcomes[2]


def test_the_retyper_records_the_entries_a_chase_reads_behind_the_table():
    # b's ascription reads r's entry only through a two-step chase, c's
    # then a's, neither of which changes when r's rhs becomes a fresh
    # reference. b names x, so x's let-β types b again under the same Γ
    # before that; a `qual_sub` table kept from b's first typing would
    # answer the chase without reading, and b would keep a stale verdict
    sigma = EMPTY_SIGMA.extended(0, qt(INT))
    ascribed = Ascribe(Let("u", Var("x"), Var("c")),
                       qt(RefT(qt(INT)), qual(locs=[0])))
    spine = Let("r", LocTerm(0), Let("a", Var("r"), Let("c", Var("a"), Let(
        "b", ascribed, Var("b")))))
    whole = Let("x", Const(1), spine)
    after_x = syntax.EMPTY_SUBSTITUTION.extended("x", Const(1))
    configurations = [_evaluating_first_rhs(whole, Const(1))]
    for r in (LocTerm(0), RefAlloc(Const(0))):
        c = Configuration(r)
        c.frames.append((spine, after_x, [], False))
        configurations.append(c)
    retype = typecheck.Retyper()
    # the Retyper's calls first, so no other query replaces the table
    outcomes = [_outcome(retype, sigma, c) for c in configurations]
    assert outcomes == [_outcome(_FullRecheck(), sigma, c) for c in configurations]
    assert outcomes[1] == outcomes[0] and outcomes[2][0] == "CheckError"


def _synthesized(monkeypatch):
    """A counter of every rule the checker applies, by `_SYNTH`."""
    calls = [0]
    for cls, rule in list(typecheck._SYNTH.items()):
        def counted(checker, env, phi, t, rule=rule):
            calls[0] += 1
            return rule(checker, env, phi, t)
        monkeypatch.setitem(typecheck._SYNTH, cls, counted)
    return calls


@pytest.mark.parametrize("program,n", [
    (lambda n: bench_families().closure_tower(n).text, 100),
    (_alias_chain, 1000),
    (lambda m: _under_a_frame(_inner_spine(m)), 1000),
], ids=["closure-tower", "alias-chain", "inner-spine"])
def test_verifying_twice_the_program_applies_about_twice_the_rules(
        monkeypatch, program, n):
    # a step types again only the bindings whose term or read entries it
    # changed, and a change stops where a conclusion does not change:
    # re-queueing by static reach made these quadratic (closure_tower
    # 21,411 -> 82,811 rules at 100 -> 200, the alias chain 5,357 ->
    # 20,707 at 100 -> 200, the inner spine 31,877 -> 126,252 at 250 -> 500)
    calls = _synthesized(monkeypatch)
    counts = []
    for size in (n, 2 * n):
        term = parse_term(program(size))
        calls[0] = 0
        report = check_preservation(term, EMPTY_SIGMA)
        assert report.ok and report.status == "value"
        counts.append(calls[0])
    assert 0 < counts[1] <= 2.2 * counts[0]


def test_a_binding_the_step_left_alone_is_not_synthesized_again(monkeypatch):
    # a deref or an assign step in assign_ring rewrites the first binding
    # of the spine only, and no later binding reads its type (each is
    # Unit^{}), so no other binding's assignment is typed again
    families = bench_families()
    term = elaborate(parse(families.assign_ring(8).text))
    assigns = _counting(monkeypatch, Assign)
    typed = []

    class Recording(typecheck.Retyper):
        def __call__(self, store, c):
            assigns.clear()
            qty = super().__call__(store, c)
            typed.append((c.plug(), list(assigns)))
            return qty

    monkeypatch.setattr(machine, "Retyper", Recording)
    report = check_preservation(term, EMPTY_SIGMA)
    assert report.ok and report.status == "value"
    assert len(typed) == len(report.steps) + 1
    quiet = [(t, a) for s, (t, a) in zip(report.steps, typed[1:])
             if s.rule in ("deref", "assign") and isinstance(t, Let)]
    assert len(quiet) == 2 * 8
    for t, again in quiet:
        # the harness holds no plugged term, so a node is matched by
        # equality; the ring's assignments are pairwise unequal
        assert len(again) <= 1 and all(node == t.rhs for node in again)
    # over the run, each of the 8 assignments is typed a few times, not
    # once per step as a full recheck types it
    assert sum(len(a) for _, a in typed) <= 8 * 8


def _vals(n: int) -> str:
    return "".join(f"val v_{i} = {i};\n" for i in range(n)) + "v_0\n"


def _verify_vals(count) -> list:
    """count's tally after `check_preservation` on 1,000 and on 2,000
    top-level `val`s; count(run) runs run and returns its tally."""
    tallies = []
    for n in (1000, 2000):
        term = elaborate(parse(_vals(n)))
        reports = []
        tallies.append(count(lambda: reports.append(
            check_preservation(term, EMPTY_SIGMA))))
        assert (reports[0].ok, reports[0].status, len(reports[0].steps)) == (
            True, "value", n)
    return tallies


def test_a_verify_step_plugs_no_spine(monkeypatch):
    # the harness steps one configuration in place; plugging it after
    # every step walks the spine with the pending substitution, 0.5M
    # walks at 1,000 vals and 2.0M at 2,000
    walks = [0]
    walk = syntax._Substitution._term

    def counted(sub, t):
        walks[0] += 1
        return walk(sub, t)

    def count(run):
        walks[0] = 0
        run()
        return walks[0]

    monkeypatch.setattr(syntax._Substitution, "_term", counted)
    small, large = _verify_vals(count)
    assert 0 < large <= 2.1 * small


def test_a_verify_step_visits_only_the_bindings_it_changed():
    # the Retyper keeps a record per binding and types again only what
    # reads a changed entry; visiting every binding to find its record,
    # as a per-step walk of the spine does, makes 0.5M calls into the
    # checker at 1,000 vals and 2.0M at 2,000
    path = typecheck.__file__

    def count(run):
        calls = [0]

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == path:
                calls[0] += 1

        old = sys.getprofile()
        sys.setprofile(profile)
        try:
            run()
        finally:
            sys.setprofile(old)
        return calls[0]

    small, large = _verify_vals(count)
    assert 0 < large <= 2.1 * small


def _interned_classes() -> list:
    """Every interned class: atoms, qualifiers, types and terms."""
    classes, work = [], [syntax._Interned]
    while work:
        below = work.pop().__subclasses__()
        classes += [cls for cls in below if not cls.__name__.startswith("_")]
        work += below
    return classes


def _interned_entries() -> dict:
    """How many objects each interned class's table holds."""
    sizes = {cls.__name__: len(getattr(cls, "_table", ()))
             for cls in _interned_classes()}
    sizes["Qualifier"] = sum(len(t) for t in syntax.Qualifier._tables)
    return sizes


def _diverge() -> Term:
    entry = next(e for e in load_corpus() if e.name == "eval-diverge")
    return elaborate(parse(corpus_text(entry)))


def test_a_beta_and_a_let_beta_intern_nothing():
    # a substitution keys its names as strings, and the divergent
    # program's steps rebuild terms met before, so running it ten times
    # longer interns no further object of any class
    assert {cls.__name__ for cls in _interned_classes()} == {
        "VarAtom", "LocAtom", "Qualifier", "Base", "Top", "TVar", "RefT", "Fun",
        "All", "QualifiedType", "Const", "UnitLit", "Var", "Abs", "App",
        "RefAlloc", "Deref", "Assign", "LocTerm", "TAbs", "TApp", "Ascribe",
        "Let"}
    sizes = []
    for fuel in (200, 2000):
        result = eval_term(_diverge(), fuel=fuel)
        assert (result.status, result.steps) == ("fuel", fuel)
        sizes.append(_interned_entries())
    assert sizes[0] == sizes[1]


def test_a_longer_verify_run_keeps_no_more_types(monkeypatch):
    # the Retyper keeps its node memo and its substitution table for its
    # last two calls only, and the divergent program's steps make no new
    # term or type, so verifying it ten times longer holds as many entries
    retypers = []

    class Kept(typecheck.Retyper):
        def __init__(self):
            super().__init__()
            retypers.append(self)

    monkeypatch.setattr(machine, "Retyper", Kept)
    sizes = []
    for fuel in (200, 2000):
        report = check_preservation(_diverge(), EMPTY_SIGMA, fuel=fuel)
        assert (report.ok, report.status, len(report.steps)) == (True, "fuel", fuel)
        kept = retypers[-1]
        sizes.append((len(kept._seen) + len(kept._last),
                      len(kept._subs) + len(kept._subs_before),
                      _interned_entries()))
    assert sizes[0] == sizes[1] and sizes[0][0] > 0


def test_verifying_the_divergent_program_types_an_application_a_few_times(
        monkeypatch):
    # each step's focus is `loop(unit)` again, under the same store
    # typing, so the node memo gives its conclusion: T-App ran once per
    # step before the memo
    calls = [0]
    app = typecheck._SYNTH[App]

    def counted(checker, env, phi, t):
        calls[0] += 1
        return app(checker, env, phi, t)

    monkeypatch.setitem(typecheck._SYNTH, App, counted)
    report = check_preservation(_diverge(), EMPTY_SIGMA, fuel=2000)
    assert (report.ok, report.status, len(report.steps)) == (True, "fuel", 2000)
    assert calls[0] <= 10


def test_a_verify_round_reuses_the_typing_rules_substitutions(monkeypatch):
    # T-App's, T-TApp's and T-Let's substitutions are looked up by their
    # interned inputs, and S-Fun and S-All compare binders under their
    # own names: verifying pair_tower(4) grew 1,062 substitutions and
    # minted 380 fresh names before
    families = bench_families()
    term = elaborate(parse(families.pair_tower(4).text))
    grown, minted = [0], [0]
    grow, fresh = syntax._Substitution._grown, subtyping._Ctx.fresh

    def counted_grow(sub, *args):
        grown[0] += 1
        return grow(sub, *args)

    def counted_fresh(ctx, base):
        minted[0] += 1
        return fresh(ctx, base)

    monkeypatch.setattr(syntax._Substitution, "_grown", counted_grow)
    monkeypatch.setattr(subtyping._Ctx, "fresh", counted_fresh)
    report = check_preservation(term, EMPTY_SIGMA)
    assert report.ok and report.status == "value"
    assert 0 < grown[0] <= 0.4 * 1062 and minted[0] == 0
