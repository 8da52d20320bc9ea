"""Unit tests for the lexer, parser, elaborator, and pretty-printer."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from rqcheck import surface
from rqcheck.surface import (
    Parser, ParseError, ScopeError, elaborate, parse, parse_pair,
    parse_qtype, parse_term, pretty, tokenize,
)
from rqcheck.syntax import (
    QTYPE, QUAL, SHAPES, TERM, Abs, Const, Deref, INT, Let, RefAlloc, TAbs,
    Var, VarAtom, alpha_eq, qt, qual,
)

from helpers import (
    bench_families, corpus_entries, corpus_text, runnable_programs,
)


# ---------------------------------------------------------------------------
# Parsing


def test_function_with_fresh_domain_and_dependent_codomain():
    t = parse_term("fn f(x: Int^{*}) : Int^{x} { x }")
    assert isinstance(t, Abs)
    assert t.dom == qt(INT, qual(fresh=True))
    assert t.cod == qt(INT, qual("x"))
    assert t.body == Var("x")


def test_let_and_dereference():
    t = parse_term("val x = ref 0; !x")
    assert t == Let("x", RefAlloc(Const(0)), Deref(Var("x")))


def test_type_abstraction_wraps_a_function():
    t = parse_term("tfn f[X^z <: Top^{*}] { fn g(x: X^{*}) : X^{x} { x } }")
    assert isinstance(t, TAbs)
    assert isinstance(t.body, Abs)
    assert t.tvar == "X" and t.qvar == "z"


def test_capture_annotations_parse_on_both_abstraction_forms():
    t = parse_term("val c = ref 0; fn f^{c}(u: Unit^{}) { !c }")
    assert t.body.capture == qual("c")
    t2 = parse_term("val c = ref 0; tfn f^{c}[X^z <: Top^{}] { !c }")
    assert t2.body.capture == qual("c")


def test_line_comments_are_skipped():
    assert parse_term("// a comment\n41 // trailing") == Const(41)


def test_missing_semicolon_is_a_parse_error():
    with pytest.raises(ParseError):
        parse("val x = ref 0 !x")


def test_double_parenthesized_function_types_are_rejected():
    with pytest.raises(ParseError):
        parse_qtype("((g(y: Int^{}) => Int^{}))^{}")


def test_unknown_name_is_a_scope_error():
    with pytest.raises(ScopeError):
        parse("fn f(x: Int^{}) { y }")


def test_shadowing_is_a_scope_error():
    with pytest.raises(ScopeError):
        parse("val x = ref 0; fn f(x: Int^{}) { x }")


def test_out_of_scope_qualifier_atom_is_a_scope_error():
    with pytest.raises(ScopeError):
        parse("fn f(x: Int^{y}) { x }")


# Every text below was produced by a lexer that kept each token's line
# and column, or later its offset; positions are now found only when an
# error is raised, and must read the same.
_PARSE_ERRORS = [
    ("val x = 1;\n$x", "2:1: unexpected character '$'"),
    ("val x = 1; // note\n?x", "2:1: unexpected character '?'"),
    ("val x = 1;\r\n  $x", "2:3: unexpected character '$'"),
    ("val x = 1 & 2;\nx", "1:11: unexpected character '&'"),
    ("\tval x = 1;\n\tx %", "2:4: unexpected character '%'"),
    ("1 2", "1:3: trailing input starting at '2'"),
    ("val x = 1;\nx )\n", "2:3: trailing input starting at ')'"),
    ("val x = 1", "1:10: expected ';', found 'end of input'"),
    ("val x = 1 // no semicolon\n", "2:1: expected ';', found 'end of input'"),
    ("fn f(x: Int) { x }",
     "1:12: missing qualifier: write ^{...} (there is no default)"),
    ("@x", "1:2: expected a location number after '@'"),
    ("fn f(x: Int^{1}) { x }", "1:14: expected a qualifier atom, found '1'"),
    ("fn f(x: Int^{}) { x", "1:20: expected '}', found 'end of input'"),
    ("val x = 1;\nval y = ;\ny", "2:9: expected a term, found ';'"),
    ("fn f(x: ^{}) { x }", "1:9: expected a type, found '^'"),
    ("val = 1; 2", "1:5: expected a name, found '='"),
    # integer literals are ASCII digits only (an ARABIC-INDIC DIGIT THREE)
    ("val x = \u0663;\nx", "1:9: unexpected character '\u0663'"),
    # the last character, with no newline after it
    ("1 $", "1:3: unexpected character '$'"),
    # a `-` or `<` is a token only as part of `-12` or `<:`
    ("val x = -;\nx", "1:9: unexpected character '-'"),
    ("1 2 <", "1:5: unexpected character '<'"),
    pytest.param("val x = " + "9" * 5000 + ";\nx",
                 "1:9: integer literal too long", id="5000-digit-literal"),
    # right after a comment; and a comment that ends the text hides it
    ("1 // note\n$", "2:1: unexpected character '$'"),
    ("val x = 1; // note$", "1:20: expected a term, found 'end of input'"),
    ("// only a comment", "1:18: expected a term, found 'end of input'"),
]


@pytest.mark.parametrize("text,message", _PARSE_ERRORS)
def test_parse_error_texts_are_pinned(text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


def test_parse_pair_error_texts_are_pinned():
    with pytest.raises(ParseError, match="^1:3: expected ';;', found '2'$"):
        parse_pair("1 2")
    with pytest.raises(ParseError, match="^1:8: trailing input starting at '3'$"):
        parse_pair("1 ;; 2 3")


def test_a_parse_error_wins_over_a_scope_error():
    # a scope error is raised only once the whole text is parsed
    with pytest.raises(ParseError,
                       match="^2:3: trailing input starting at '2'$"):
        parse("val x = y;\n1 2")
    with pytest.raises(ParseError, match="^2:27: expected '}', found '\\)'$"):
        parse("val x = y;\nfn f^{zz}(u: Unit^{}) { u )")
    with pytest.raises(ParseError,
                       match="^1:19: trailing input starting at '2'$"):
        parse_pair("val a = y; a ;; 1 2")


@pytest.mark.parametrize("file,count", [
    ("counter.rq", 359), ("opair_conv.rq", 505), ("pair_fst.rq", 286)])
def test_token_counts_of_corpus_files_are_pinned(file, count):
    # one entry per token plus the eof entry; the benchmark's
    # `surface.tokens` counter reads this length
    entry = next(e for e in corpus_entries() if e.file == file)
    assert len(tokenize(corpus_text(entry))) == count


def test_parsing_the_corpus_finds_no_token_offset(monkeypatch):
    # an offset is found only for a ParseError, by lexing the text again
    found = []
    offset_error = surface._error

    def counted(*args):
        found.append(args)
        return offset_error(*args)

    monkeypatch.setattr(surface, "_error", counted)
    failing = 0
    for e in corpus_entries():
        try:
            (parse_pair if e.kind == "sep" else parse)(corpus_text(e))
        except ParseError:
            failing += 1
        except ScopeError:
            pass
    assert failing > 0 and len(found) == failing


# A reference lexer that keeps every token's offset: one Python step per
# match, whitespace and comments included.
_REFERENCE_RE = re.compile(r"""
    (?P<skip>[ \t\r\n]+|//[^\n]*)
  | (?P<int>-?[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<op>:=|<:|=>|;;|[{}()\[\]^:,;*!=.@])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


def _reference_position(text, off):
    line, col = text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off)
    return f"{line}:{col}"


def _reference_lex(text):
    """(kind, value, offset) per token and then eof, or the error text."""
    tokens = []
    for m in _REFERENCE_RE.finditer(text):
        if m.lastgroup == "bad":
            return (f"{_reference_position(text, m.start())}: "
                    f"unexpected character {m.group()!r}")
        if m.lastgroup != "skip":
            tokens.append((m.lastgroup, m.group(), m.start()))
    return tokens + [("eof", "", len(text))]


_KIND_NAMES = {"i": "ident", "n": "int", "o": "op", "e": "eof"}

_FRAGMENTS = [
    "val", "x", "x'", "_f1", "Int", "0", "12", "-12", "-", "<:", "<", ":=",
    ":", "=>", "=", ";;", ";", "{", "}", "(", ")", "[", "]", "^", ",", "*",
    "!", ".", "@", "/", " ", "  ", "\t", "\n", "\r\n", "// note", "// c\n",
    "//", "\u0663", "$", "\u00e9", "\x0b",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=24).map("".join))
def test_lexer_agrees_with_the_reference_lexer(text):
    reference = _reference_lex(text)
    try:
        parser = Parser(text)
    except ParseError as error:
        assert str(error) == reference
        return
    assert isinstance(reference, list)
    n = len(parser.values) - 2  # without the padding
    assert len(tokenize(text)) == n
    assert [(_KIND_NAMES[k], v) for k, v in
            zip(parser.kinds[:n], parser.values[:n])] == \
        [(kind, value) for kind, value, _ in reference]
    # the position found on an error is the reference's, at every token
    for index, (_, _, off) in enumerate(reference):
        parser.pos = index
        assert str(parser.error("m")) == f"{_reference_position(text, off)}: m"


# ---------------------------------------------------------------------------
# Scope resolution


@pytest.mark.parametrize("text,message", [
    ("val x = ref 0; fn f(x: Int^{}) { x }", "x shadows an enclosing binding"),
    ("fn f(f: Int^{}) { f }", "f shadows an enclosing binding"),
    ("fn f(x: Int^{}) : (f(x: Int^{}) => Int^{})^{} { x }",
     "f shadows an enclosing binding"),
    ("fn f(x: Int^{}) { y }", "unbound term variable y"),
    ("fn f(x: Int^{y}) { x }", "qualifier mentions unbound name y"),
    ("tfn f[X^z <: Top^{}] { fn g(u: Unit^{X}) { u } }",
     "type variable X cannot appear in a qualifier; use its paired "
     "qualifier variable"),
    ("tfn f[X^z <: Top^{}] { z }", "z is not a term variable"),
    ("val x = 1; (1 : x^{})", "x is not a type variable"),
    # a name whose binder's scope has closed is unbound again
    ("val a = fn f(x: Int^{}) { x }; x", "unbound term variable x"),
    ("val a = tfn f[X^z <: Top^{}] { unit }; (unit : X^{})",
     "unbound type variable X"),
])
def test_scope_error_texts_are_pinned(text, message):
    with pytest.raises(ScopeError) as info:
        parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text", [
    "val a = fn f(x: Int^{}) { x }; val b = fn f(x: Int^{}) { x }; b(1)",
    "(fn f(x: Int^{}) { x })((fn f(x: Int^{}) { x })(1))",
    "val a = tfn f[X^z <: Top^{}] { unit }; "
    "val b = tfn f[X^z <: Top^{}] { unit }; b",
])
def test_sibling_binders_may_reuse_a_name(text):
    parse(text)


def test_resolution_leaves_the_scope_as_it_found_it():
    # a `val` spine's names leave the parser's scope when the spine
    # closes; a program's own declarations stay
    parser = Parser("val a = 1; assume b: Int^{}; "
                    "(val c = ref 0; fn f^{c}(u: Unit^{}) { !c })")
    parser.program()
    assert parser.scope == {"a": "term", "b": "term"}
    assert parser.fault is None
    parser = Parser("tfn f[X^z <: Top^{}] { (val c = 1; c) }")
    parser.expr()
    assert parser.scope == {} and parser.fault is None


def test_a_binder_left_by_a_scope_error_does_not_leak_into_the_next_parse():
    # each parse, and each program of a pair, starts from an empty scope
    with pytest.raises(ScopeError):
        parse("fn f(x: Int^{}) { y }")
    with pytest.raises(ScopeError, match="^unbound term variable x$"):
        parse("x")
    with pytest.raises(ScopeError, match="^unbound term variable a$"):
        parse_pair("val a = 1; a ;; a")
    assert Parser("x").scope == {}


@pytest.mark.parametrize("text,message", [
    # the capture is checked after the domain or bound, before the binders
    ("val f = 1; fn f^{zz}(x: Int^{}) { x }",
     "qualifier mentions unbound name zz"),
    ("val f = 1; tfn f^{zz}[X^x <: Top^{}] { x }",
     "qualifier mentions unbound name zz"),
    ("fn f^{zz}(x: Int^{yy}) { x }", "qualifier mentions unbound name yy"),
    ("tfn f^{zz}[X^x <: Top^{yy}] { unit }",
     "qualifier mentions unbound name yy"),
    ("fn f^{zz}(x: Int^{}) : Int^{yy} { x }",
     "qualifier mentions unbound name zz"),
])
def test_scope_errors_are_reported_in_the_order_of_the_shapes(text, message):
    with pytest.raises(ScopeError) as info:
        parse(text)
    assert str(info.value) == message


def test_a_qualifier_reports_its_first_out_of_scope_atom_in_the_text():
    # whatever the atoms' set order, which follows their addresses and so
    # what the process interned before
    for name in ("aa", "bb", "cc", "dd"):
        VarAtom(name)
    with pytest.raises(ScopeError,
                       match="^qualifier mentions unbound name dd$"):
        parse("fn f(x: Int^{dd, cc, bb, aa}) { x }")


def test_the_first_half_of_a_pair_reports_its_scope_error_first():
    with pytest.raises(ScopeError, match="^unbound term variable y$"):
        parse_pair("val a = y; a ;; val b = z; b")
    with pytest.raises(ScopeError, match="^unbound term variable z$"):
        parse_pair("val a = 1; a ;; val b = z; a")


# A reference scope resolver: the second walk over a parsed program, read
# off `syntax.SHAPES`, that checked scope before the parser did it itself.


def _bind(scope, name, kind):
    if name in scope:
        raise ScopeError(f"{name} shadows an enclosing binding")
    scope[name] = kind


def _check_qual(q, scope):
    """Raises every out-of-scope atom's error as one ScopeError's args: the
    walk meets a qualifier's atoms in set order, so any may come first."""
    errors = set()
    for a in q.atoms:
        if isinstance(a, VarAtom):
            kind = scope.get(a.name)
            if kind is None:
                errors.add(f"qualifier mentions unbound name {a.name}")
            elif kind == "tvar":
                errors.add(f"type variable {a.name} cannot appear in a "
                           f"qualifier; use its paired qualifier variable")
    if errors:
        raise ScopeError(*sorted(errors))


_NOUN = {"term": "term variable", "tvar": "type variable"}


def _resolve(x, scope):
    if type(x) is Let:
        spine = []
        while type(x) is Let:
            _resolve(x.rhs, scope)
            _bind(scope, x.name, "term")
            spine.append(x.name)
            x = x.body
        _resolve(x, scope)
        for name in spine:
            del scope[name]
        return
    shape = SHAPES[type(x)]
    if shape.occurs is not None:
        field, kind = shape.occurs
        if kind == "loc":
            return
        name = getattr(x, field)
        bound = scope.get(name)
        if bound is None:
            raise ScopeError(f"unbound {_NOUN[kind]} {name}")
        if bound != kind:
            raise ScopeError(f"{name} is not a {_NOUN[kind]}")
        return
    for f, role in shape.outer:
        _resolve_part(getattr(x, f), role, scope)
    for f, kind in shape.binds:
        _bind(scope, getattr(x, f), kind)
    for f, role in shape.inner:
        _resolve_part(getattr(x, f), role, scope)
    for f, _ in shape.binds:
        del scope[getattr(x, f)]


def _resolve_part(part, role, scope):
    if part is None:
        return
    if role == QUAL:
        _check_qual(part, scope)
    elif role == QTYPE:
        _resolve(part.ty, scope)
        _check_qual(part.q, scope)
    else:
        _resolve(part, scope)


def _resolve_program(prog):
    scope = {}
    for kind, name, part in prog.decls:
        _resolve_part(part, QTYPE if kind == "assume" else TERM, scope)
        _bind(scope, name, "term")
    _resolve(prog.main, scope)


def _reference_parse(text, pair):
    """Parse without raising a scope error, then resolve the programs."""
    parser = Parser(text)
    programs = [parser.program()]
    if pair:
        parser.expect(";;")
        programs.append(parser.program())
    parser.end()
    for prog in programs:
        _resolve_program(prog)


def _outcome(run, text, pair):
    try:
        run(text, pair)
    except (ParseError, ScopeError) as error:
        return type(error).__name__, error.args
    return "accepted", ()


def _mutants(texts, rng):
    """Each text with one identifier token replaced by another name of the
    text or by `zz`, `X` or `c`; about 30% get a second edit further on."""
    for text, pair in texts:
        tokens = [t for t in _reference_lex(text) if t[0] == "ident"]
        names = sorted({value for _, value, _ in tokens} | {"zz", "X", "c"})
        for _ in range(40):
            edits, start = [], 0
            while len(edits) < (2 if rng.random() < 0.3 else 1) \
                    and start < len(tokens):
                i = rng.randrange(start, len(tokens))
                _, value, off = tokens[i]
                new = rng.choice([n for n in names if n != value])
                edits.append((off, len(value), new))
                start = i + 1
            mutant = text
            for off, size, new in reversed(edits):
                mutant = mutant[:off] + new + mutant[off + size:]
            yield mutant, pair


def _mutated_sources():
    files = {e.file for e, _ in runnable_programs()}
    seen = set()
    for e in corpus_entries():
        if e.file in seen or (e.file not in files and e.kind != "sep"):
            continue
        seen.add(e.file)
        yield corpus_text(e), e.kind == "sep"
    families = bench_families().FAMILIES
    for name in sorted(families):
        for n in (1, 2):
            yield families[name](n).text, False


def test_scope_checks_while_parsing_agree_with_the_reference_resolver():
    # the parser's verdict on every mutant is the reference's: the same
    # class and message, or, where the reference met two atoms of one
    # qualifier out of scope, one of their messages
    counts = {}
    for text, pair in _mutants(_mutated_sources(), random.Random(1)):
        parse_one = (lambda t, pair: parse_pair(t) if pair else parse(t))
        kind, args = _outcome(parse_one, text, pair)
        expected_kind, expected = _outcome(_reference_parse, text, pair)
        assert kind == expected_kind and set(args) <= set(expected), text
        counts[kind] = counts.get(kind, 0) + 1
    assert min(counts.values()) >= 100, counts


# ---------------------------------------------------------------------------
# Pretty-printing


def test_qualifier_atoms_sorted_marker_last():
    assert pretty(qual("x", fresh=True)) == "{x, *}"


def test_identity_type_prints_with_its_binders():
    qty = parse_qtype("(f(x: Int^{*}) => Int^{x})^{}")
    assert pretty(qty) == "(f(x: Int^{*}) => Int^{x})^{}"


def test_unused_binders_are_elided():
    qty = parse_qtype("(f(x: Int^{}) => Int^{})^{}")
    assert pretty(qty) == "(Int => Int)^{}"


# ---------------------------------------------------------------------------
# Round-trips


def _closed_corpus_terms():
    seen = set()
    for e in corpus_entries():
        if e.file in seen:
            continue
        seen.add(e.file)
        text = corpus_text(e)
        if e.kind == "sep":
            for program in parse_pair(text):
                yield e, elaborate(program)
            continue
        if "assume" in text or e.expect.get("status") == "error":
            continue
        try:
            yield e, elaborate(parse(text))
        except ScopeError:
            continue


def test_round_trip_on_closed_corpus_terms():
    count = 0
    for entry, term in _closed_corpus_terms():
        again = parse_term(pretty(term))
        assert alpha_eq(term, again), entry.name
        count += 1
    assert count >= 40  # 20 programs and the 20 of the 10 sep files


def test_round_trip_preserves_capture_annotations():
    t = parse_term("val c = ref 0; fn f^{c}(u: Unit^{}) { !c }")
    assert alpha_eq(parse_term(pretty(t)), t)


def test_every_corpus_file_parses():
    for e in corpus_entries():
        text = corpus_text(e)
        if e.expect.get("status") == "error":
            with pytest.raises(ParseError):
                parse(text)
        elif e.expect.get("error") == "ScopeError":
            with pytest.raises(ScopeError):
                parse(text)
        elif e.kind == "sep":
            parse_pair(text)
        else:
            parse(text)
