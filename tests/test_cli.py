"""End-to-end tests for the command-line driver: exit codes, JSON
output, tracing, and the corpus runner."""

import json
import os
import subprocess
import sys
import time
from importlib import resources

import pytest

import rqcheck
from rqcheck.cli import check_source, load_corpus, main, run_corpus_entry
from rqcheck.surface import pretty
from rqcheck.syntax import RefAlloc, TypeEnv

CORPUS = resources.files("rqcheck") / "corpus"
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def corpus_path(name: str) -> str:
    return str(CORPUS / name)


def _env_importing_rqcheck() -> dict:
    """This environment, with this rqcheck first on PYTHONPATH, for a
    fresh interpreter."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(rqcheck.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# check


def test_check_accepted_prints_the_type(capsys):
    code, out, _ = run(capsys, "check", corpus_path("id.rq"))
    assert code == 0
    assert out.strip() == "(id(x: Ref[Int]^{*}) => Ref[Int]^{x})^{}"


def test_check_rejection_is_exit_one_with_the_code(capsys):
    code, _, err = run(capsys, "check", corpus_path("fakeid.rq"))
    assert code == 1
    assert "QualifierMismatch" in err


def test_check_parse_error_is_exit_two(capsys):
    code, _, err = run(capsys, "check", corpus_path("malformed.rq"))
    assert code == 2
    assert "parse error" in err


def test_check_json_matches_the_golden_file(capsys):
    code, out, _ = run(capsys, "check", corpus_path("id.rq"), "--json")
    assert code == 0
    with open(os.path.join(GOLDEN, "check_id.json"), encoding="utf-8") as fh:
        assert json.loads(out) == json.load(fh)


def test_check_fuel_exhaustion_is_exit_three(capsys):
    code, _, err = run(capsys, "check", "--fuel", "0", corpus_path("pair_fst.rq"))
    assert code == 3
    assert "FuelExhausted" in err
    code, out, _ = run(capsys, "check", "--json", "--fuel", "0",
                       corpus_path("pair_fst.rq"))
    assert code == 3
    assert json.loads(out)["status"] == "fuel"
    assert json.loads(out)["error"]["code"] == "FuelExhausted"


def test_check_json_rejection_schema(capsys):
    code, out, _ = run(capsys, "check", corpus_path("fakeid.rq"), "--json")
    assert code == 1
    record = json.loads(out)
    assert record["status"] == "rejected"
    assert record["error"]["code"] == "QualifierMismatch"
    assert "detail" in record["error"]


# ---------------------------------------------------------------------------
# eval


def test_eval_prints_value_and_store_size(capsys):
    code, out, _ = run(capsys, "eval", corpus_path("assign_read.rq"), "--json")
    assert code == 0
    record = json.loads(out)
    assert record == {"status": "value", "value": "2", "store_size": 1,
                      "steps": record["steps"]}


def test_eval_fuel_exhaustion_is_exit_three(capsys):
    code, _, err = run(capsys, "eval", corpus_path("diverge.rq"),
                       "--fuel", "50")
    assert code == 3
    assert "fuel" in err


def test_eval_trace_emits_one_json_line_per_event(capsys, tmp_path):
    src = tmp_path / "ref0.rq"
    src.write_text("ref 0\n", encoding="utf-8")
    code, out, _ = run(capsys, "eval", str(src), "--trace", "--json")
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 0
    assert {"rule": "ref", "loc": 0} in lines


def test_eval_verify_preservation_reports_every_step(capsys):
    code, out, _ = run(capsys, "eval", corpus_path("counter.rq"),
                       "--verify-preservation")
    assert code == 0
    assert "all steps verified" in out
    assert out.count("ok") >= 10


def test_eval_verify_preservation_reports_a_rejected_re_typing(capsys, tmp_path):
    # the checker accepts the program, but rejects the term one of its
    # steps makes: a failed step, and exit 1 (see test_machine)
    src = tmp_path / "retyped.rq"
    src.write_text("val c = ref 0; val d = ref c; val f = fn f(u: Unit^{}) { d };\n"
                   "val g = f(unit);\n0\n", encoding="utf-8")
    code, out, err = run(capsys, "eval", str(src), "--verify-preservation")
    assert code == 1
    assert out.splitlines()[-1] == (
        "step 3 [beta] growth witness {}: {} -> ill-typed VIOLATION: "
        "re-typing rejected [Unobservable]: location @1: @0 not observable")
    assert "PreservationViolation" in err


@pytest.mark.parametrize("argv,text", [
    (["eval", "--verify-preservation"], "val r = ref 0; !r\n"),
    (["sep"], "val r = ref 0; !r\n;;\nval s = ref 1; !s\n"),
], ids=["verify", "sep"])
def test_a_harness_types_each_program_once_before_its_first_step(
        capsys, tmp_path, monkeypatch, argv, text):
    # the harness's first re-typing is the check: checking the program
    # before it as well typed it twice
    from rqcheck import machine, typecheck
    allocations, before = [], []
    rule, step = typecheck._SYNTH[RefAlloc], machine.step

    def counted(checker, env, phi, t):
        allocations.append(t)
        return rule(checker, env, phi, t)

    def first_step(c, store):
        if not before:
            before.append(len(allocations))
        return step(c, store)

    monkeypatch.setitem(typecheck._SYNTH, RefAlloc, counted)
    monkeypatch.setattr(machine, "step", first_step)
    src = tmp_path / "program.rq"
    src.write_text(text, encoding="utf-8")
    code, _, _ = run(capsys, *argv, str(src))
    assert code == 0
    assert before == [text.count("ref")]


def test_eval_rejects_ill_typed_input(capsys):
    code, _, err = run(capsys, "eval", corpus_path("ref_content_fresh.rq"))
    assert code == 1
    assert "RefContentFresh" in err


def test_eval_json_reports_errors_in_the_envelope(capsys):
    code, out, err = run(capsys, "eval", "--json", corpus_path("ref_content_fresh.rq"))
    assert code == 1 and err == ""
    assert json.loads(out) == {"status": "rejected", "error": {
        "code": "RefContentFresh", "detail": json.loads(out)["error"]["detail"]}}
    code, out, _ = run(capsys, "eval", "--json", "--fuel", "5",
                       corpus_path("diverge.rq"))
    assert code == 3
    assert json.loads(out)["status"] == "fuel"


# ---------------------------------------------------------------------------
# sep


def test_sep_verdict_separate(capsys):
    code, out, _ = run(capsys, "sep", corpus_path("sep_alloc_assign.rq"))
    assert code == 0
    assert out.strip().endswith("verdict SEPARATE")


def test_sep_json_is_one_envelope(capsys):
    code, out, _ = run(capsys, "sep", "--json", corpus_path("sep_alloc_assign.rq"))
    assert code == 0
    record = json.loads(out)
    assert record["status"] == "separate" and record["steps"]
    code, out, _ = run(capsys, "sep", "--json", corpus_path("malformed.rq"))
    assert code == 2
    assert json.loads(out)["error"]["code"] == "ParseError"


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_sep_cut_off_by_fuel_is_exit_three(capsys, json_flag):
    # sep_alloc_assign takes 10 steps; at fuel 10 the loop ends without
    # reaching its break, yet both sides are values
    path = corpus_path("sep_alloc_assign.rq")
    for fuel in ("0", "9"):
        code, out, err = run(capsys, "sep", "--fuel", fuel, *json_flag, path)
        assert code == 3
        if json_flag:
            assert json.loads(out)["status"] == "fuel"
        else:
            assert "verdict SEPARATE" not in out
            assert err.startswith("fuel exhausted [FuelExhausted]")
    for fuel in (["--fuel", "10"], []):
        code, out, _ = run(capsys, "sep", *fuel, *json_flag, path)
        assert code == 0
        assert (json.loads(out)["status"] == "separate" if json_flag
                else out.strip().endswith("verdict SEPARATE"))


# ---------------------------------------------------------------------------
# generated names and long literals


@pytest.mark.parametrize("text", [
    "val _f1 = 1;\n(fn(x: Int^{}) { x })(2)",
    "(fn(x: Int^{}) { val _f1 = 1; x })(2)",
], ids=["outside", "inside"])
def test_a_generated_name_avoids_the_names_of_the_program(capsys, tmp_path, text):
    src = tmp_path / "names.rq"
    src.write_text(text, encoding="utf-8")
    assert run(capsys, "check", str(src)) == (0, "Int^{}\n", "")
    assert run(capsys, "eval", str(src)) == (
        0, "value 2 (store size 0, 2 steps)\n", "")


@pytest.mark.parametrize("literal", ["1" * 5000, "@" + "1" * 5000],
                         ids=["integer", "location"])
def test_a_long_integer_literal_is_a_parse_error(capsys, tmp_path, literal):
    src = tmp_path / "long.rq"
    src.write_text(f"val x = {literal};\nx\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(src))
    column = 10 if literal.startswith("@") else 9
    assert code == 2 and out == ""
    assert err.startswith(f"parse error [ParseError]: 1:{column}: ")


# ---------------------------------------------------------------------------
# flags and internal faults


@pytest.mark.parametrize("command,fuel", [("check", "-5"), ("eval", "-5"),
                                          ("sep", "-1"), ("eval", "many")])
def test_invalid_fuel_is_rejected_with_exit_two(capsys, command, fuel):
    with pytest.raises(SystemExit) as info:
        main([command, "--fuel", fuel, corpus_path("sep_alloc_assign.rq")])
    assert info.value.code == 2
    assert "fuel must be a non-negative integer" in capsys.readouterr().err


def test_trace_and_verify_preservation_exclude_each_other(capsys):
    # the preservation harness reports its steps, not the reduction events,
    # so `--trace` beside it would print nothing
    with pytest.raises(SystemExit) as info:
        main(["eval", "--trace", "--verify-preservation",
              corpus_path("assign_read.rq")])
    assert info.value.code == 2
    assert "not allowed with argument --trace" in capsys.readouterr().err


@pytest.mark.parametrize("argv,program,steps", [
    (["eval"], "assign_read.rq", 5),
    (["eval", "--verify-preservation"], "assign_read.rq", 5),
    (["sep"], "sep_alloc_assign.rq", 10),
], ids=["eval", "verify", "sep"])
def test_fuel_n_lets_a_run_of_exactly_n_steps_finish(capsys, argv, program, steps):
    path = corpus_path(program)
    assert run(capsys, *argv, "--fuel", str(steps), path)[0] == 0
    assert run(capsys, *argv, "--fuel", str(steps - 1), path)[0] == 3


def test_a_value_needs_no_fuel(capsys, tmp_path):
    src = tmp_path / "five.rq"
    src.write_text("5\n", encoding="utf-8")
    assert run(capsys, "eval", "--fuel", "0", str(src)) == (
        0, "value 5 (store size 0, 0 steps)\n", "")
    assert run(capsys, "eval", "--verify-preservation", "--fuel", "0", str(src)) == (
        0, "value 5; all steps verified\n", "")


def _deep_nesting(tmp_path):
    src = tmp_path / "deep.rq"
    src.write_text("(" * 3000 + "1" + ")" * 3000 + "\n", encoding="utf-8")
    return str(src)


def test_four_hundred_nested_parentheses_check(capsys, tmp_path):
    # the parser spends two frames per parenthesis level (`expr` and
    # `prefix_expr`), so 400 levels stay under the recursion limit
    src = tmp_path / "nested.rq"
    src.write_text("(" * 400 + "1" + ")" * 400 + "\n", encoding="utf-8")
    assert run(capsys, "check", str(src)) == (0, "Int^{}\n", "")


def _many_vals(tmp_path):
    src = tmp_path / "vals.rq"
    src.write_text("".join(f"val v{i} = {i};\n" for i in range(1500)) + "v0\n",
                   encoding="utf-8")
    return str(src)


@pytest.mark.parametrize("command,program", [
    ("check", _deep_nesting), ("eval", _deep_nesting)])
def test_an_internal_fault_is_exit_two_without_a_traceback(
        capsys, tmp_path, command, program):
    path = program(tmp_path)
    code, out, err = run(capsys, command, path)
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert "RecursionError" in err
    code, out, err = run(capsys, command, "--json", path)
    assert code == 2 and err == ""
    assert json.loads(out)["status"] == "error"
    assert json.loads(out)["error"]["code"] == "RecursionError"


def test_many_top_level_vals_evaluate(capsys, tmp_path):
    # `eval` types and runs 1,500 nested lets: both loop down the spine,
    # so its length is not bounded by the recursion limit
    code, out, err = run(capsys, "eval", _many_vals(tmp_path))
    assert (code, out, err) == (0, "value 0 (store size 0, 1500 steps)\n", "")


@pytest.mark.parametrize("command,out", [
    ("check", "Int^{y}\n"), ("eval", "value 0 (store size 0, 5001 steps)\n")])
def test_a_long_spine_inside_a_binding_checks_and_evaluates(
        capsys, tmp_path, command, out):
    # the parser and scope resolution walk a spine of `val`s in any
    # position by a loop, as the checker and the machine do, so its length
    # is not bounded by the recursion limit
    src = tmp_path / "inner.rq"
    src.write_text("val y = (" + "".join(f"val v_{i} = {i}; " for i in range(5000))
                   + "v_0); y\n", encoding="utf-8")
    assert run(capsys, command, str(src)) == (0, out, "")


def test_ten_thousand_top_level_vals_evaluate_in_a_fresh_interpreter(tmp_path):
    # a let-β extends the pending substitution in place, so the run is
    # linear in the vals; the interpreter keeps its default recursion limit
    src = tmp_path / "vals.rq"
    src.write_text("".join(f"val v_{i} = {i};\n" for i in range(10_000)) + "v_0\n",
                   encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "rqcheck.cli", "eval", str(src)],
                          capture_output=True, env=_env_importing_rqcheck(),
                          timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, b"value 0 (store size 0, 10000 steps)\n", b"")


def test_ten_thousand_top_level_vals_verify_in_a_fresh_interpreter(tmp_path):
    # the harness re-types a configuration in place, so a step re-types
    # what it changed, not the spine; the interpreter keeps its default
    # recursion limit. Re-typing the whole spine after every step takes
    # 110-125 s; this takes about 1 s, and the bound leaves room for a
    # loaded host
    src = tmp_path / "vals.rq"
    src.write_text("".join(f"val v_{i} = {i};\n" for i in range(10_000)) + "v_0\n",
                   encoding="utf-8")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "rqcheck.cli", "eval",
                           "--verify-preservation", str(src)],
                          capture_output=True, env=_env_importing_rqcheck(),
                          timeout=120)
    assert time.perf_counter() - start < 30
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.endswith(b"\nvalue 0; all steps verified\n")


def test_checking_declarations_builds_no_domain_per_declaration(monkeypatch):
    # the observed atoms grow one declaration at a time, so checking
    # n `val`s asks TypeEnv.dom the same number of times for every n
    calls = []
    dom = TypeEnv.dom
    monkeypatch.setattr(TypeEnv, "dom", lambda env: calls.append(1) or dom(env))

    def dom_calls(n):
        calls.clear()
        text = "".join(f"val v{i} = ref {i};\n" for i in range(n)) + f"v{n - 1}\n"
        assert pretty(check_source(text).qtype) == f"Ref[Int]^{{v{n - 1}}}"
        return len(calls)

    assert dom_calls(2000) == dom_calls(1000)


@pytest.mark.parametrize("command", ["check", "eval", "sep"])
def test_a_file_that_is_not_utf8_cannot_be_read(capsys, tmp_path, command):
    src = tmp_path / "latin1.rq"
    src.write_bytes(b"\xffval x = 1;\nx\n")
    code, out, err = run(capsys, command, str(src))
    assert code == 2 and out == ""
    assert err.startswith("cannot read the program [UnicodeDecodeError]: ")
    assert len(err.strip().splitlines()) == 1
    code, out, err = run(capsys, command, "--json", str(src))
    assert code == 2 and err == ""
    assert json.loads(out)["status"] == "error"
    assert json.loads(out)["error"]["code"] == "UnicodeDecodeError"


def test_every_error_shares_one_hierarchy():
    from rqcheck import errors, surface, typecheck
    assert surface.ScopeError is errors.ScopeError
    assert surface.ParseError is errors.ParseError
    assert typecheck.CheckError is errors.CheckError
    for cls in (errors.ParseError, errors.ScopeError, errors.CheckError,
                errors.FuelExhausted, errors.InternalError):
        assert issubclass(cls, errors.RqError)


# ---------------------------------------------------------------------------
# corpus


def test_corpus_runs_clean(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    assert "0 failed" in out


def test_the_corpus_runner_does_not_count_a_cut_off_run_as_separate():
    (entry,) = [e for e in load_corpus() if e.file == "sep_alloc_assign.rq"]
    assert run_corpus_entry(entry, fuel=10) is None
    assert run_corpus_entry(entry, fuel=9) == "expected SEPARATE, got fuel exhausted"


def test_an_internal_fault_in_the_corpus_is_exit_two(capsys, monkeypatch):
    # each check entry's run faults: its FAIL line says so, the entries
    # after it still run, and the corpus exits 2, not 1 ("rejected")
    from rqcheck import cli
    from rqcheck.errors import InternalError

    def broken(text, fuel):
        raise InternalError("invariant failed")

    monkeypatch.setattr(cli, "check_source", broken)
    code, out, err = run(capsys, "corpus", "--filter", "id")
    assert code == 2
    checks = [e.name for e in load_corpus()
              if e.kind == "check" and ("id" in e.name or "id" in e.tags)]
    assert [l for l in out.splitlines() if "FAIL" in l] == [
        f"  FAIL {name}: internal error [InternalError]: invariant failed"
        for name in checks]
    assert "  ok   eval-poly-id-int" in out
    assert err == (f"internal error [InternalError]: {len(checks)} entries could "
                   f"not run; 2 passed, {len(checks)} failed, {len(checks) + 2} total\n")


def test_a_corpus_mismatch_is_exit_one(capsys, monkeypatch):
    from rqcheck import cli
    (entry,) = [e for e in load_corpus() if e.name == "check-id"]
    wrong = cli.CorpusEntry(entry.name, entry.file, entry.kind,
                            {"status": "accepted", "type": "Int^{}"})
    monkeypatch.setattr(cli, "load_corpus", lambda: [wrong])
    code, out, err = run(capsys, "corpus")
    assert code == 1
    assert out == ("  FAIL check-id: expected ('accepted', 'Int^{}'), got "
                   "('accepted', '(id(x: Ref[Int]^{*}) => Ref[Int]^{x})^{}')\n")
    assert err == "rejected [CorpusMismatch]: 0 passed, 1 failed, 1 total\n"


def test_corpus_filter_by_tag(capsys):
    code, out, _ = run(capsys, "corpus", "--filter", "pair")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip().startswith("ok")]
    assert len(lines) >= 5
    assert all("pair" in l or "counter" in l for l in lines)


def test_corpus_filter_capture_selects_the_capture_entries(capsys):
    code, out, _ = run(capsys, "corpus", "--filter", "capture")
    assert code == 0
    assert "check-retfresh" in out and "check-retconst" in out


# ---------------------------------------------------------------------------
# styling


def test_color_disabled_by_environment(monkeypatch):
    from rqcheck import cli
    monkeypatch.setattr("sys.stdout.isatty", lambda: True)
    monkeypatch.setenv("RQ_COLOR", "0")
    assert cli._style("boom", "31") == "boom"
    monkeypatch.setenv("RQ_COLOR", "1")
    assert cli._style("boom", "31") == "\x1b[31mboom\x1b[0m"


@pytest.mark.parametrize("out_tty, err_tty", [(False, True), (True, False)])
def test_a_rejection_is_coloured_only_when_stderr_is_a_terminal(
        capsys, monkeypatch, tmp_path, out_tty, err_tty):
    # the message goes to stderr, so stdout's being a terminal says
    # nothing about it: `rq check bad.rq 2>err.txt` writes plain text
    monkeypatch.setenv("RQ_COLOR", "1")
    monkeypatch.setattr("sys.stdout.isatty", lambda: out_tty)
    monkeypatch.setattr("sys.stderr.isatty", lambda: err_tty)
    path = tmp_path / "bad.rq"
    path.write_text("!1", encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (1, "")
    assert "TypeMismatch" in err
    assert ("\x1b[" in err) == err_tty


def check_corpus_lines(capsys) -> str:
    """One JSON line per corpus check entry: its exit code and the full
    `rq check --json` output at the default fuel."""
    lines = []
    for entry in load_corpus():
        if entry.kind == "check":
            code, out, _ = run(capsys, "check", "--json", corpus_path(entry.file))
            lines.append(json.dumps({"entry": entry.name, "exit": code, "stdout": out}))
    return "".join(line + "\n" for line in lines)


def test_check_json_on_the_corpus_matches_the_golden_file(capsys):
    with open(os.path.join(GOLDEN, "check_corpus.jsonl"), encoding="utf-8") as fh:
        assert check_corpus_lines(capsys) == fh.read()


def test_corpus_output_matches_the_golden_file(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    with open(os.path.join(GOLDEN, "corpus.txt"), encoding="utf-8") as fh:
        assert out == fh.read()


def test_corpus_output_is_the_same_under_python_o():
    # `-O` strips assert statements: every invariant must be checked by
    # code that still runs there
    proc = subprocess.run([sys.executable, "-O", "-m", "rqcheck.cli", "corpus"],
                          capture_output=True, env=_env_importing_rqcheck(),
                          timeout=600)
    assert (proc.returncode, proc.stderr) == (0, b"")
    with open(os.path.join(GOLDEN, "corpus.txt"), "rb") as fh:
        assert proc.stdout == fh.read()
