"""Command-line driver: check, eval, sep, corpus.

Exit codes: 0 accepted, 1 rejected or property violation, 2 parse or
internal error, 3 fuel exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from importlib import resources
from typing import List, Optional, Tuple

from .errors import (
    CheckError, FuelExhausted, ParseError, Rejection, RqError, ScopeError,
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


def _color_enabled() -> bool:
    return sys.stdout.isatty() and os.environ.get("RQ_COLOR", "1") != "0"


def _style(text: str, code: str) -> str:
    if _color_enabled():
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
    for decl in prog.decls:
        if decl[0] == "assume":
            _, name, ann = decl
            env = env.extended(TermBind(name, ann))
        else:
            _, name, rhs = decl
            result = synthesize(env, store, phi, rhs, fuel)
            env = env.extended(TermBind(name, result.qtype))
        phi.add(VarAtom(name))
    return synthesize(env, store, phi, prog.main, fuel)


def load(path, kind: str, fuel: int = DEFAULT_FUEL):
    """Read, parse, elaborate and check the program file a command runs.

    kind "check" gives the TypingResult of `check_source`; "eval" gives
    a one-element list holding the closed, checked term; "sep" gives the
    two checked terms of a file holding two programs split by ';;'.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if kind == "check":
        return check_source(text, fuel)
    programs = parse_pair(text) if kind == "sep" else (parse(text),)
    terms = [elaborate(p) for p in programs]
    for term in terms:
        check_program(EMPTY_ENV, StoreTyping(), term, fuel)
    return terms


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


def report_failure(args, exc: Exception) -> int:
    code, label, name, detail = failure(exc)
    detail = " ".join(detail.split())  # one line, whatever the exception said
    if getattr(args, "json", False):
        print(json.dumps({"status": STATUS[code],
                          "error": {"code": name, "detail": detail}}))
    else:
        print(_style(f"{label} [{name}]", "31") + f": {detail}", file=sys.stderr)
    return code


def _emit(args, record: dict, text: str):
    """Print one result: the JSON record under --json, else the text."""
    print(json.dumps(record) if args.json else text)


def cmd_check(args) -> int:
    result = load(args.path, "check", args.fuel)
    qtype = pretty(result.qtype)
    _emit(args, {"status": "accepted", "qtype": qtype, "trace": result.trace}, qtype)
    return EXIT_OK


def cmd_eval(args) -> int:
    (term,) = load(args.path, "eval")
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
            _emit(args, record,
                  f"step {s.index} [{s.rule}] growth witness {{{', '.join(witness)}}}: "
                  f"{pretty(s.q_before)} -> {after}")
        if report.status == "fuel":
            raise FuelExhausted("evaluation fuel exhausted")
        if not report.ok:
            raise Rejection("PreservationViolation",
                            f"preservation violated ({report.status})")
        value = pretty(report.final_term)
        _emit(args, {"status": "value", "value": value,
                     "verified_steps": len(report.steps)},
              f"value {value}; all steps verified")
        return EXIT_OK

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
    _emit(args, {"status": "value", "value": value, "store_size": size,
                 "steps": result.steps},
          f"value {value} (store size {size}, {result.steps} steps)")
    return EXIT_OK


def cmd_sep(args) -> int:
    t1, t2 = load(args.path, "sep")
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
    _emit(args, {"status": "separate", "steps": report.steps}, "verdict SEPARATE")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Corpus


@dataclass
class CorpusEntry:
    name: str
    file: str
    kind: str                  # check | eval | sep
    expect: dict
    tags: List[str]


def load_corpus() -> List[CorpusEntry]:
    root = resources.files("rqcheck") / "corpus"
    manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
    return [CorpusEntry(e["name"], e["file"], e["kind"], e["expect"],
                        e.get("tags", []))
            for e in manifest]


def corpus_path(entry: CorpusEntry):
    return resources.files("rqcheck") / "corpus" / entry.file


def corpus_text(entry: CorpusEntry) -> str:
    return corpus_path(entry).read_text(encoding="utf-8")


def run_corpus_entry(entry: CorpusEntry, fuel: int = DEFAULT_EVAL_FUEL) -> Optional[str]:
    """Run one entry; returns None on success, else a mismatch message."""
    path = corpus_path(entry)
    if entry.kind == "check":
        try:
            result = load(path, "check")
        except RqError as exc:
            code, _, name, _ = failure(exc)
            got = (STATUS[code], name)
        else:
            got = ("accepted", pretty(result.qtype))
        if entry.expect["status"] == "accepted":
            want = ("accepted", entry.expect["type"])
        else:
            want = (entry.expect["status"], entry.expect["error"])
        if got != want:
            return f"expected {want}, got {got}"
        return None
    if entry.kind == "eval":
        (term,) = load(path, "eval")
        result = eval_term(term, fuel=entry.expect.get("fuel", fuel))
        if result.status != "value":
            if entry.expect.get("status") == result.status:
                return None
            return f"expected a value, got {result.status} ({result.reason})"
        got_value = pretty(result.term)
        if got_value != entry.expect["value"]:
            return f"expected value {entry.expect['value']}, got {got_value}"
        if "store_size" in entry.expect and len(result.store) != entry.expect["store_size"]:
            return (f"expected store size {entry.expect['store_size']}, "
                    f"got {len(result.store)}")
        return None
    if entry.kind == "sep":
        t1, t2 = load(path, "sep")
        report = separation_experiment(t1, t2, StoreTyping(), fuel=fuel)
        want = entry.expect.get("verdict", "SEPARATE")
        if report.ok and not report.finished:
            return f"expected {want}, got fuel exhausted"
        got = "SEPARATE" if report.ok else f"violation: {report.detail}"
        if (want == "SEPARATE") != report.ok:
            return f"expected {want}, got {got}"
        return None
    return f"unknown corpus kind {entry.kind}"


def cmd_corpus(args) -> int:
    entries = load_corpus()
    if args.filter:
        entries = [e for e in entries
                   if args.filter in e.name or args.filter in e.tags]
    passed, failed = 0, 0
    for entry in entries:
        try:
            mismatch = run_corpus_entry(entry)
        except RqError as exc:
            mismatch = f"unexpected failure: {exc}"
        if mismatch is None:
            passed += 1
            print(f"  ok   {entry.name}")
        else:
            failed += 1
            print(_style(f"  FAIL {entry.name}: {mismatch}", "31"))
    print(f"{passed} passed, {failed} failed, {len(entries)} total")
    return EXIT_OK if failed == 0 else EXIT_REJECTED


def _fuel(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"fuel must be a non-negative integer, got {text!r}")
    return value


def main(argv=None) -> int:
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
    commands["eval"].add_argument("--trace", action="store_true",
                                  help="print one JSON line per reduction event")
    commands["eval"].add_argument("--verify-preservation", action="store_true",
                                  help="re-typecheck after every step")

    p_corpus = sub.add_parser("corpus", help="run the bundled example corpus")
    p_corpus.add_argument("--filter", default="",
                          help="only run entries whose name or tag contains this")
    p_corpus.set_defaults(func=cmd_corpus)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # the boundary: any failure gets an exit code
        return report_failure(args, exc)


if __name__ == "__main__":
    sys.exit(main())
