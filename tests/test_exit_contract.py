"""The exit-code contract under arbitrary input: byte- and token-level
mutations of corpus files, fed through `main()` for check, eval (plain,
`--trace` or `--verify-preservation`) and sep at fuel 0..3 (so the fuel
paths run), always exit 0-3 and never raise."""

import ast
import contextlib
import io
import os
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

import rqcheck
from rqcheck.cli import corpus_path, load_corpus, main

COMMANDS = ("check", "eval", "sep")
SOURCES = {kind: sorted({corpus_path(e).read_bytes()
                         for e in load_corpus() if e.kind == kind})
           for kind in COMMANDS}
TOKEN = re.compile(rb"//[^\n]*|-?\d+|[A-Za-z_][A-Za-z0-9_']*|:=|<:|=>|;;|\S|\s+")
EVAL_MODES = ([], ["--trace"], ["--verify-preservation"])
VOCABULARY = sorted({t for kind in COMMANDS for s in SOURCES[kind]
                     for t in TOKEN.findall(s) if t.strip()})


@st.composite
def mutants(draw, kind: str) -> bytes:
    """A corpus file of the kind a command runs, with up to three bytes
    or tokens replaced, inserted, deleted or swapped."""
    source = draw(st.sampled_from(SOURCES[kind]))
    if draw(st.booleans()):
        parts = [bytes([b]) for b in source]
        fresh = st.binary(min_size=1, max_size=1)
    else:
        parts = TOKEN.findall(source)
        fresh = st.sampled_from(VOCABULARY)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(parts) - 1))
        edit = draw(st.sampled_from(("replace", "insert", "delete", "swap")))
        if edit == "replace":
            parts[i] = draw(fresh)
        elif edit == "insert":
            parts.insert(i, draw(fresh) + b" ")
        elif edit == "delete" and len(parts) > 1:
            del parts[i]
        elif edit == "swap":
            j = draw(st.integers(0, len(parts) - 1))
            parts[i], parts[j] = parts[j], parts[i]
    return b"".join(parts)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(COMMANDS), st.integers(0, 3), st.booleans())
def test_every_input_exits_zero_to_three_without_raising(
        data, command, fuel, as_json):
    program = data.draw(mutants(command))
    # the two eval modes exclude each other, so draw none or one
    mode = data.draw(st.sampled_from(EVAL_MODES)) if command == "eval" else []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutant.rq")
        with open(path, "wb") as handle:
            handle.write(program)
        argv = ([command, path, "--fuel", str(fuel)] + mode
                + (["--json"] if as_json else []))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2, 3)


def test_no_invariant_is_an_assert_statement():
    # `python -O` strips `assert` statements, so an invariant the exit
    # contract relies on must be a check that raises (`InternalError`)
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(rqcheck.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
