"""Unit tests for the term typechecker."""

import pytest

from rqcheck.cli import check_source
from rqcheck.surface import parse_term, pretty
from rqcheck.syntax import StoreTyping, TermBind, TypeEnv, alpha_eq, qt, qual, INT
from rqcheck.typecheck import CheckError, check_program, synthesize

from helpers import corpus_entries, corpus_text
from rqcheck.surface import parse

EMPTY_ENV = TypeEnv()
EMPTY_STORE = StoreTyping()


def check_term(text: str) -> str:
    term = parse_term(text)
    return pretty(check_program(EMPTY_ENV, EMPTY_STORE, term).qtype)


def rejects(text: str, code: str, source: bool = False):
    with pytest.raises(CheckError) as exc:
        if source:
            check_source(text)
        else:
            check_term(text)
    assert exc.value.code == code, exc.value


# ---------------------------------------------------------------------------
# Accepted shapes


def test_identity_on_a_constant_is_untracked():
    assert check_term("(fn id(x: Int^{*}) : Int^{x} { x })(42)") == "Int^{}"


def test_identity_on_an_allocation_is_fresh():
    assert check_term(
        "(fn id(x: Ref[Int]^{*}) : Ref[Int]^{x} { x })(ref 0)") == "Ref[Int]^{*}"


def test_dependent_codomain_retains_argument_precision():
    text = """
    assume c1: Ref[Int]^{*};
    val c2 = c1;
    val foo = fn foo(x: Ref[Int]^{c1,*}) : Ref[Int]^{x} { x };
    foo(c2)
    """
    assert pretty(check_source(text).qtype) == "Ref[Int]^{c2}"


def test_closure_return_keeps_deep_dependency():
    text = """
    assume c: Ref[Int]^{};
    val f = fn f(x: Ref[Int]^{c}) { fn g^{x}(u: Unit^{}) { x } };
    f(c)
    """
    assert pretty(check_source(text).qtype) == "(Unit => Ref[Int]^{c})^{c}"


def test_escaping_closure_abstracts_its_fresh_capture():
    got = check_term(
        "val c = ref 0; fn f(u: Unit^{}) : Ref[Int]^{f} { c }")
    assert got == "(f(u: Unit^{}) => Ref[Int]^{f})^{*}"


def test_assignment_subsumes_on_the_assigned_value():
    # the rhs variable's qualifier {m} sits below the cell content's
    # qualifier through the maybe-tracked equivalence
    got = check_term("val c = ref 0; fn f(m: Int^{}) { c := m }")
    assert got == "(Int => Unit)^{*}"


def test_untracked_application_path():
    assert check_term("(fn f(x: Int^{}) { x })(1)") == "Int^{}"


# ---------------------------------------------------------------------------
# Rejections, one per error code


def test_unbound_variable():
    from rqcheck.syntax import Var
    with pytest.raises(CheckError) as exc:
        check_program(EMPTY_ENV, EMPTY_STORE, Var("ghost"))
    assert exc.value.code == "UnboundVar"


def test_unobservable_variable():
    env = EMPTY_ENV.extended(TermBind("x", qt(INT)))
    from rqcheck.syntax import Var
    with pytest.raises(CheckError) as exc:
        synthesize(env, EMPTY_STORE, frozenset(), Var("x"))
    assert exc.value.code == "Unobservable"


def test_fresh_capture_annotation_is_rejected():
    rejects("fn f^{*}(u: Unit^{}) { u }", "FreshnessViolation")


def test_capture_annotation_must_cover_used_variables():
    rejects("val c = ref 0; fn f^{}(u: Unit^{}) { !c }", "Unobservable")


def test_fake_identity_cannot_claim_its_argument():
    rejects("fn f(x: Ref[Int]^{*}) : Ref[Int]^{x} { ref 0 }",
            "QualifierMismatch")


def test_overlapping_argument_is_rejected():
    text = """
    assume c1: Ref[Int]^{*};
    val c2 = c1;
    val f = fn f(x: Ref[Int]^{*}) { val d = !c1; !x };
    f(c2)
    """
    rejects(text, "OverlapViolation", source=True)


def test_ascription_type_mismatch():
    rejects("(42 : Unit^{})", "TypeMismatch")


def test_reference_content_may_not_be_fresh():
    rejects("ref (ref 0)", "RefContentFresh")


def test_fresh_argument_may_not_leak_into_the_result_type():
    rejects("(fn f(x: Ref[Int]^{*}) { fn g^{x}(u: Unit^{}) : Unit^{x} { u } })"
            "(ref 0)", "DependencyViolation")


# ---------------------------------------------------------------------------
# Every rejection branch of the abstraction and application rules
#
# (rule, program, code, a fragment of the detail that tells apart the
# branches sharing a code). T-TAbs/T-TApp are T-Abs/T-App with the
# qualifier variable in the parameter's place, so each branch has a row
# for both.

REJECTIONS = [
    ("t-app", "1(2)", "TypeMismatch", "non-function"),
    ("t-app", "(fn f(x: Int^{}) { x })(unit)", "TypeMismatch", "Unit"),
    ("t-app", "(fn f(x: Ref[Int]^{}) { x })(ref 0)", "FreshnessViolation", "{*}"),
    ("t-app", "val c = ref 0; (fn f(x: Ref[Int]^{}) { x })(c)",
     "QualifierMismatch", "{c}"),
    ("t-app", "val c = ref 0; val f = fn f(x: Ref[Int]^{*}) { val d = !c; !x }; f(c)",
     "OverlapViolation", "{c, *}"),
    ("t-app", "(fn f(x: Ref[Int]^{*}) { fn g^{x}(u: Unit^{}) : Unit^{x} { u } })(ref 0)",
     "DependencyViolation", "depends on x"),
    ("t-app", "(val c = ref 0; fn f(u: Unit^{}) : (Unit => Ref[Int]^{f})^{f} "
              "{ fn g^{c}(v: Unit^{}) { c } })(unit)",
     "DependencyViolation", "depends on f"),
    ("t-app", "val c = ref 0; val h = fn h(x: Int^{}) : Ref[Int]^{c} { c }; "
              "fn g^{h}(u: Unit^{}) { h(1) }",
     "Unobservable", "result qualifier"),
    ("t-tapp", "1[Int^{}]", "TypeMismatch", "non-universal"),
    ("t-tapp", "(tfn [X^x <: Int^{}] { unit })[Unit^{}]", "TypeMismatch", "bound"),
    ("t-tapp", "val c = ref 0; fn g^{}(u: Unit^{}) "
               "{ (tfn [X^x <: Top^{*}] { unit })[Ref[Int]^{c}] }",
     "Unobservable", "type argument qualifier"),
    ("t-tapp", "(tfn [X^x <: Top^{}] { unit })[Int^{*}]", "FreshnessViolation", "{*}"),
    ("t-tapp", "val c = ref 0; (tfn [X^x <: Top^{}] { unit })[Ref[Int]^{c}]",
     "QualifierMismatch", "{c}"),
    ("t-tapp", "val c = ref 0; val t = tfn t[X^x <: Top^{*}] { !c }; t[Ref[Int]^{c}]",
     "OverlapViolation", "{c, *}"),
    ("t-tapp", "(tfn [X^x <: Top^{*}] { fn g^{}(u: Unit^{}) : Unit^{x} { u } })[Int^{*}]",
     "DependencyViolation", "depends on x"),
    ("t-tapp", "(val c = ref 0; tfn t[X^x <: Top^{}] "
               "{ val d = !c; fn g^{t}(u: Unit^{}) : Unit^{t} { u } })[Int^{}]",
     "DependencyViolation", "depends on t"),
    ("t-tapp", "val c = ref 0; val h = tfn h[X^x <: Top^{}] { c }; "
               "fn g^{h}(u: Unit^{}) { h[Int^{}] }",
     "Unobservable", "result qualifier"),
    ("t-abs", "fn f^{*}(u: Unit^{}) { u }", "FreshnessViolation", "capture"),
    ("t-tabs", "tfn t^{*}[X^x <: Top^{}] { unit }", "FreshnessViolation", "capture"),
    ("t-abs", "val c = ref 0; fn f^{}(u: Unit^{}) { !c }", "Unobservable", "c"),
    ("t-tabs", "val c = ref 0; tfn t^{}[X^x <: Top^{}] { !c }", "Unobservable", "c"),
]


@pytest.mark.parametrize("rule,text,code,fragment", REJECTIONS)
def test_each_rejection_branch_of_the_binding_rules(rule, text, code, fragment):
    with pytest.raises(CheckError) as exc:
        check_source(text)
    assert exc.value.code == code, exc.value
    assert fragment in exc.value.detail, exc.value


# Rejections of the other rules, one program each, with the whole message

OTHER_REJECTIONS = [
    ("fn f(x: Ref[Int]^{@5}) { x }", "ScopeError",
     "parameter annotation mentions names not in scope: Ref[Int]^{@5}"),
    ("@0", "UnboundVar", "location @0 is not typed"),
    ("!1", "TypeMismatch", "dereferenced a non-reference of type Int"),
    ("1 := 2", "TypeMismatch", "assigned to a non-reference of type Int"),
    ("fn f(r: Ref[Int^{*}]^{}) { !r }", "FreshnessViolation",
     "dereferenced content with a fresh qualifier"),
    ("fn f(r: Ref[Int^{*}]^{}) { r := 1 }", "FreshnessViolation",
     "assigned through a fresh content qualifier"),
    ("val c = ref 0; val d = ref c; d := ref 0", "QualifierMismatch",
     "assigned value qualifier {*} is not below content qualifier {c}"),
    ("val r = ref 0; r := unit", "TypeMismatch",
     "assigned value type Unit is not below content type Int"),
    ("(val c = ref 0; fn f(u: Unit^{}) : Ref[Int]^{c} { c })", "DependencyViolation",
     "result type depends on c whose binding is fresh"),
]


@pytest.mark.parametrize("text,code,detail", OTHER_REJECTIONS)
def test_each_rejection_of_the_other_rules_has_its_code_and_message(text, code, detail):
    with pytest.raises(CheckError) as exc:
        check_source(text)
    assert (exc.value.code, exc.value.detail) == (code, detail)


def test_a_location_whose_store_entry_is_not_closed_is_rejected():
    # T-Loc types @0 from its Σ entry, which mentions @1, outside Σ
    sigma = EMPTY_STORE.extended(0, qt(INT, qual(locs=[1])))
    with pytest.raises(CheckError) as exc:
        check_program(EMPTY_ENV, sigma, parse_term("@0"))
    assert (exc.value.code, exc.value.detail) == (
        "ScopeError", "store entry for @0 is not closed")


# ---------------------------------------------------------------------------
# The self binder's name does not change a verdict
#
# Each program is checked twice, with the applied function's self binder
# named f and named h; the argument mentions a caller's variable f. T-App
# puts the argument in for the parameter and the function in for the self
# binder at once, and T-TApp does the same with the type argument, so a
# self binder named f does not capture the caller's f.

SELF_BINDER_PAIRS = [
    ("t-app codomain", """
     val g = fn SELF(x: Ref[Int]^{*}) : Ref[Int]^{x} { x };
     val f = ref 0;
     g(f)""", "Ref[Int]^{f}"),
    ("alias of a fresh parameter", """
     val g = fn SELF(x: Ref[Int]^{*}) : Ref[Int]^{x} { x };
     val f = ref 0;
     val r = g(f);
     val k = fn k(y: Ref[Int]^{*}) : Int^{} { val u = y := 5; !f };
     k(r)""", "OverlapViolation"),
    ("t-tapp body", """
     val g = tfn SELF[X^x <: Top^{*}] { fn k(y: X^{x}) : X^{x} { y } };
     val f = ref 0;
     g[Ref[Int]^{f}]""", "(Ref[Int]^{f} => Ref[Int]^{f})^{}"),
]


def _verdict(text: str):
    """The program's qualified type, or the code it is rejected with."""
    try:
        return check_source(text).qtype
    except CheckError as exc:
        return exc.code


@pytest.mark.parametrize("text,expected", [p[1:] for p in SELF_BINDER_PAIRS],
                         ids=[p[0] for p in SELF_BINDER_PAIRS])
def test_the_self_binders_name_does_not_change_the_verdict(text, expected):
    named_f, named_h = (_verdict(text.replace("SELF", name)) for name in "fh")
    if isinstance(named_f, str):
        assert named_f == named_h == expected
    else:
        assert pretty(named_f) == expected
        assert alpha_eq(named_f, named_h)


# Each program is checked twice, with a binder inside the applied
# function's codomain (or the universal's body) named y and named z; the
# argument mentions a caller's variable y. The substitution renames the
# inner binder y apart, so it does not capture the caller's y.

INNER_BINDER_PAIRS = [
    ("t-app codomain", """
     val g = fn g(x: Ref[Int]^{*}) : (k(INNER: Int^{}) => Ref[Int]^{x})^{x}
       { fn k(INNER: Int^{}) : Ref[Int]^{x} { x } };
     val y = ref 0;
     val h = g(y);
     h(0)""", "Ref[Int]^{y}"),
    ("alias through a captured codomain", """
     val g = fn g(x: Ref[Int]^{*}) : (k(INNER: Int^{}) => Ref[Int]^{x})^{x}
       { fn k(INNER: Int^{}) : Ref[Int]^{x} { x } };
     val y = ref 0;
     val h = g(y);
     val r = h(0);
     val m = fn m(w: Ref[Int]^{*}) : Int^{} { val u = w := 5; !y };
     m(r)""", "OverlapViolation"),
    ("t-tapp body", """
     assume p: (forall g[X^x <: Ref[Int]^{*}].
                (k(INNER: Int^{}) => Ref[Int]^{x})^{x})^{};
     val y = ref 0;
     p[Ref[Int]^{y}]""", "(Int => Ref[Int]^{y})^{y}"),
]


@pytest.mark.parametrize("text,expected", [p[1:] for p in INNER_BINDER_PAIRS],
                         ids=[p[0] for p in INNER_BINDER_PAIRS])
def test_an_inner_binders_name_does_not_change_the_verdict(text, expected):
    named_y, named_z = (_verdict(text.replace("INNER", name)) for name in "yz")
    if isinstance(named_y, str):
        assert named_y == named_z == expected
    else:
        assert pretty(named_y) == expected
        assert alpha_eq(named_y, named_z)


# ---------------------------------------------------------------------------
# Invariants on the corpus


def _accepted_programs():
    for entry in corpus_entries("check"):
        if entry.expect.get("status") == "accepted":
            yield entry, parse(corpus_text(entry))


def test_observability_invariant_on_corpus():
    for entry, prog in _accepted_programs():
        env = TypeEnv()
        for decl in prog.decls:
            if decl[0] == "assume":
                env = env.extended(TermBind(decl[1], decl[2]))
            else:
                result = synthesize(env, EMPTY_STORE, env.dom(), decl[2])
                env = env.extended(TermBind(decl[1], result.qtype))
        qty = synthesize(env, EMPTY_STORE, env.dom(), prog.main).qtype
        assert qty.q.atoms <= env.dom(), entry.name


def test_synthesis_is_deterministic():
    for entry, prog in _accepted_programs():
        first = check_source(corpus_text(entry))
        second = check_source(corpus_text(entry))
        assert pretty(first.qtype) == pretty(second.qtype)
        assert first.trace == second.trace


def test_the_observability_invariant_holds_under_python_o(monkeypatch):
    # a checker bug that synthesizes an unobservable qualifier is an
    # internal error raised by code, not by an assert that -O removes
    from rqcheck import typecheck
    from rqcheck.errors import InternalError, RqError
    from rqcheck.syntax import Const

    def buggy(env, store, phi, t, fuel):
        return typecheck.TypingResult(qt(INT, qual("ghost")))

    monkeypatch.setattr(typecheck, "synthesize", buggy)
    with pytest.raises(InternalError) as info:
        check_program(EMPTY_ENV, EMPTY_STORE, Const(1))
    assert isinstance(info.value, RqError)
    assert not isinstance(info.value, CheckError)


def test_a_substitution_is_looked_up_by_every_input():
    # the Retyper's table holds T-Let's substitutions by (name, q, body):
    # the same qualifier and body under another name is another entry
    from rqcheck import typecheck
    from rqcheck.syntax import RefT

    checker = typecheck.Retyper()
    ref, r = RefT(qt(INT)), qual("r")
    body = qt(ref, qual("a", "b"))
    assert checker._unbind("b", r, body) is qt(ref, qual("a", "r"))
    assert checker._unbind("a", r, body) is qt(ref, qual("r", "b"))
    assert checker._unbind("b", r, body) is qt(ref, qual("a", "r"))
    assert len(checker._subs) == 2
