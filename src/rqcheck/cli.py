"""Command-line driver: check, eval, sep and corpus, through one driver.

Each command maps parsed arguments to (record `--json` prints, text
line) and raises on failure; `run` maps a failure through `failure` to
(exit code, `{status, error}` record, one-line message), and `main`
prints what `run` returns. The corpus runs each entry as `rq <kind>
--json FILE` through the same parser and `run`, and judges the record.

Exit codes: 0 accepted, 1 rejected or property violation, 2 parse or
internal error, 3 fuel exhausted.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, field
from importlib import resources
from typing import List, Optional, Tuple

from .errors import (
    CheckError, FuelExhausted, InternalError, ParseError, Rejection, ScopeError,
)
from .machine import (
    DEFAULT_EVAL_FUEL, check_preservation, eval_term, separation_experiment,
)
from .subtyping import DEFAULT_FUEL
from .surface import elaborate, parse, parse_pair, pretty
from .syntax import EMPTY_ENV, StoreTyping, TermBind, VarAtom
from .typecheck import TypingResult, check_program, synthesize

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_ERROR = 2
EXIT_FUEL = 3


def _style(text: str, code: str, stream=None) -> str:
    """text in colour `code` if the stream it is written to (stdout when
    None) is a terminal, unless RQ_COLOR is 0."""
    if (stream or sys.stdout).isatty() and os.environ.get("RQ_COLOR", "1") != "0":
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def check_source(text: str, fuel: int = DEFAULT_FUEL) -> TypingResult:
    """Check a program: declarations stay in the environment and the
    final expression's qualified type is reported under them."""
    prog = parse(text)
    env = EMPTY_ENV
    store = StoreTyping()
    # only term bindings are made, so phi is env.dom(), grown in place one
    # atom per declaration, as `_Checker._let` grows it
    phi = set()
    for kind, name, part in prog.decls:
        # an `assume` gives the name's type, a `val` its right-hand side
        qtype = part if kind == "assume" else synthesize(env, store, phi, part, fuel).qtype
        env = env.extended(TermBind(name, qtype))
        phi.add(VarAtom(name))
    return synthesize(env, store, phi, prog.main, fuel)


def _read(path) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def cmd_check(args) -> Tuple[dict, str]:
    result = check_source(_read(args.path), args.fuel)
    qtype = pretty(result.qtype)
    return {"status": "accepted", "qtype": qtype, "trace": result.trace}, qtype


# `eval --verify-preservation` and `sep` do not check first: a harness types
# each term before its first step, which raises the same rejection


def cmd_eval(args) -> Tuple[dict, str]:
    term = elaborate(parse(_read(args.path)))
    if args.verify_preservation:
        report = check_preservation(term, StoreTyping(), fuel=args.fuel)
        for s in report.steps:
            witness = sorted(a.render() for a in s.witness)
            record = {"step": s.index, "rule": s.rule, "witness": witness, "ok": s.ok}
            if s.q_after is None:
                # the checker rejected the term this step made
                record["detail"] = s.detail
                after = f"ill-typed VIOLATION: {s.detail}"
            else:
                after = f"{pretty(s.q_after)} {'ok' if s.ok else 'VIOLATION'}"
            print(json.dumps(record) if args.json else
                  f"step {s.index} [{s.rule}] growth witness {{{', '.join(witness)}}}: "
                  f"{pretty(s.q_before)} -> {after}")
        if report.status == "fuel":
            raise FuelExhausted("evaluation fuel exhausted")
        if not report.ok:
            raise Rejection("PreservationViolation",
                            f"preservation violated ({report.status})")
        value = pretty(report.final_term)
        return ({"status": "value", "value": value, "verified_steps": len(report.steps)},
                f"value {value}; all steps verified")

    check_program(EMPTY_ENV, StoreTyping(), term)
    result = eval_term(term, fuel=args.fuel)
    if args.trace:
        for e in result.events:
            record = {"rule": e.rule}
            if e.loc is not None:
                record["loc"] = e.loc
            print(json.dumps(record))
    if result.status == "fuel":
        raise FuelExhausted("evaluation fuel exhausted")
    if result.status == "stuck":
        raise Rejection("Stuck", result.reason)
    value, size = pretty(result.term), len(result.store)
    return ({"status": "value", "value": value, "store_size": size, "steps": result.steps},
            f"value {value} (store size {size}, {result.steps} steps)")


def cmd_sep(args) -> Tuple[dict, str]:
    t1, t2 = (elaborate(p) for p in parse_pair(_read(args.path)))
    report = separation_experiment(t1, t2, StoreTyping(), fuel=args.fuel)
    if not report.premise_ok:
        raise Rejection("OverlapViolation", report.detail)
    if not args.json:
        for line in report.steps:
            print(line)
    if not report.ok:
        raise Rejection("SeparationViolation", report.detail)
    if not report.finished:
        raise FuelExhausted("evaluation fuel exhausted")
    return {"status": "separate", "steps": report.steps}, "verdict SEPARATE"


STATUS = {EXIT_REJECTED: "rejected", EXIT_ERROR: "error", EXIT_FUEL: "fuel"}


def failure(exc: Exception) -> Tuple[int, str, str, str]:
    """(exit code, label, error code, detail) of an exception: the one
    mapping from what went wrong to how every command reports it."""
    if isinstance(exc, Rejection):
        label = "type error" if isinstance(exc, CheckError) else "rejected"
        return EXIT_REJECTED, label, exc.code, exc.detail
    if isinstance(exc, ScopeError):
        return EXIT_REJECTED, "scope error", "ScopeError", str(exc)
    if isinstance(exc, FuelExhausted):
        return EXIT_FUEL, "fuel exhausted", "FuelExhausted", str(exc)
    if isinstance(exc, ParseError):
        return EXIT_ERROR, "parse error", "ParseError", str(exc)
    if isinstance(exc, (OSError, UnicodeDecodeError)):
        return EXIT_ERROR, "cannot read the program", type(exc).__name__, str(exc)
    return EXIT_ERROR, "internal error", type(exc).__name__, str(exc)


def run(args) -> Tuple[int, dict, str]:
    """Run a parsed command: (exit code, record, text line). A failure's
    record is the `{status, error}` envelope and its text the one-line
    message."""
    try:
        record, text = args.func(args)
    except Exception as exc:  # the boundary: any failure gets an exit code
        code, label, name, detail = failure(exc)
        detail = " ".join(detail.split())  # one line, whatever the exception said
        return (code, {"status": STATUS[code], "error": {"code": name, "detail": detail}},
                f"{label} [{name}]: {detail}")
    return EXIT_OK, record, text


# ---------------------------------------------------------------------------
# Corpus


@dataclass
class CorpusEntry:
    name: str
    file: str
    kind: str                  # check | eval | sep
    expect: dict
    tags: List[str] = field(default_factory=list)


def load_corpus() -> List[CorpusEntry]:
    manifest = resources.files("rqcheck") / "corpus" / "manifest.json"
    return [CorpusEntry(**e) for e in json.loads(manifest.read_text(encoding="utf-8"))]


def corpus_path(entry: CorpusEntry):
    return resources.files("rqcheck") / "corpus" / entry.file


def run_corpus_entry(entry: CorpusEntry, fuel: int = DEFAULT_EVAL_FUEL) -> Optional[str]:
    """Run one entry as `rq <kind> --json FILE` runs it and judge the
    record against the manifest: None when they agree, else a mismatch
    message. A parse or internal error the entry does not expect (exit
    2) raises InternalError with the run's message."""
    argv = [entry.kind, "--json", str(corpus_path(entry))]
    if entry.kind != "check":
        argv += ["--fuel", str(entry.expect.get("fuel", fuel))]
    code, record, text = run(build_parser().parse_args(argv))
    expect, error = entry.expect, record.get("error", {}).get("code")
    if code == EXIT_ERROR and error != expect.get("error"):
        raise InternalError(text)
    if entry.kind == "check":
        # an accepted entry names its type, any other its error code
        want = (expect["status"], expect.get("type", expect.get("error")))
        got = (record["status"], record.get("qtype", error))
        return None if got == want else f"expected {want}, got {got}"
    if entry.kind == "eval":
        want = {"status": "value", **expect}
        for key in ("status", "value", "store_size"):
            if key in want and record.get(key) != want[key]:
                return f"expected {key} {want[key]}, got {text}"
        return None
    want = expect.get("verdict", "SEPARATE")
    if record["status"] == "fuel":
        return f"expected {want}, got fuel exhausted"
    if (want == "SEPARATE") != (code == EXIT_OK):
        return f"expected {want}, got {text}"
    return None


def cmd_corpus(args) -> Tuple[dict, str]:
    entries = [e for e in load_corpus()
               if args.filter in e.name or args.filter in e.tags]
    failed, faults = 0, 0
    for entry in entries:
        try:
            mismatch = run_corpus_entry(entry)
        except InternalError as exc:
            mismatch, faults = str(exc), faults + 1
        if mismatch is None:
            print(f"  ok   {entry.name}")
        else:
            failed += 1
            print(_style(f"  FAIL {entry.name}: {mismatch}", "31"))
    summary = f"{len(entries) - failed} passed, {failed} failed, {len(entries)} total"
    if faults:
        raise InternalError(f"{faults} entries could not run; {summary}")
    if failed:
        raise Rejection("CorpusMismatch", summary)
    return {"status": "passed"}, summary


def _fuel(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"fuel must be a non-negative integer, got {text!r}")
    return value


@functools.cache   # the corpus parses one argv per entry
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rq",
        description="Typechecker and evaluator for a calculus with "
                    "reachability qualifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {}
    for name, func, fuel, help_text in (
            ("check", cmd_check, DEFAULT_FUEL, "typecheck a .rq file"),
            ("eval", cmd_eval, DEFAULT_EVAL_FUEL, "evaluate a closed .rq file"),
            ("sep", cmd_sep, DEFAULT_EVAL_FUEL,
             "run two expressions (separated by ';;') interleaved and check "
             "separation")):
        commands[name] = sub.add_parser(name, help=help_text)
        commands[name].add_argument("path")
        commands[name].add_argument("--json", action="store_true")
        commands[name].add_argument("--fuel", type=_fuel, default=fuel, help=(
            "fuel of each subtyping query" if name == "check" else
            "reduction steps, of both programs together for sep; checking "
            f"and re-typing use the default subtyping fuel ({DEFAULT_FUEL})"))
        commands[name].set_defaults(func=func)
    # the preservation harness reports its steps, not the reduction events
    modes = commands["eval"].add_mutually_exclusive_group()
    modes.add_argument("--trace", action="store_true",
                       help="print one JSON line per reduction event")
    modes.add_argument("--verify-preservation", action="store_true",
                       help="re-typecheck after every step")

    p_corpus = sub.add_parser("corpus", help="run the bundled example corpus")
    p_corpus.add_argument("--filter", default="",
                          help="only run entries whose name or tag contains this")
    p_corpus.set_defaults(func=cmd_corpus, json=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    code, record, text = run(args)
    if args.json or code == EXIT_OK:
        print(json.dumps(record) if args.json else text)
    else:
        print(_style(text, "31", sys.stderr), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
