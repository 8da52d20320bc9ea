"""Concrete syntax: lexer, parser, scope resolution, pretty-printer.

ASCII forms: `*` is the freshness marker, `{}` the empty qualifier.
Files use extension `.rq`; `//` starts a line comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import ParseError, ScopeError
from .syntax import (
    INT, QTYPE, QUAL, SHAPES, UNIT, Abs, All, App, Ascribe, Assign, Base,
    Const, Deref, Fun, Let, LocAtom, LocTerm, QualifiedType, Qualifier,
    RefAlloc, RefT, TAbs, TApp, Term, Top, TVar, Type, UnitLit, Var, VarAtom,
    free_atoms_qtype,
)


# ---------------------------------------------------------------------------
# Lexer


@dataclass
class Token:
    kind: str
    value: str
    line: int
    col: int


_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>//[^\n]*)
  | (?P<int>-?\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<op>:=|<:|=>|;;|[{}()\[\]^:,;*!=.@])
""", re.VERBOSE)


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser


@dataclass
class SourceProgram:
    decls: List[tuple]          # ("val", name, Term) | ("assume", name, QualifiedType)
    main: Term


_NAMED_TYPES = {"Int": INT, "Unit": UNIT, "Top": Top()}


class Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        self.counter = 0

    # -- plumbing ----------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, value: str, ahead: int = 0) -> bool:
        return self.peek(ahead).value == value and self.peek(ahead).kind != "eof"

    def expect(self, value: str) -> Token:
        tok = self.peek()
        if tok.value != value or tok.kind == "eof":
            raise ParseError(f"expected {value!r}, found {tok.value or 'end of input'!r}",
                             tok.line, tok.col)
        return self.next()

    def ident(self) -> str:
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseError(f"expected a name, found {tok.value or 'end of input'!r}",
                             tok.line, tok.col)
        return self.next().value

    def end(self):
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"trailing input starting at {tok.value!r}",
                             tok.line, tok.col)

    def gen(self, base: str) -> str:
        self.counter += 1
        return f"_{base}{self.counter}"

    # -- qualifiers and types ----------------------------------------------

    def qualifier(self) -> Qualifier:
        self.expect("{")
        fresh = False
        atoms = set()
        while not self.at("}"):
            tok = self.peek()
            if self.at("*"):
                self.next()
                fresh = True
            elif self.at("@"):
                atoms.add(LocAtom(self.location()))
            elif tok.kind == "ident":
                atoms.add(VarAtom(self.next().value))
            else:
                raise ParseError(f"expected a qualifier atom, found {tok.value!r}",
                                 tok.line, tok.col)
            if not self.at("}"):
                self.expect(",")
        self.expect("}")
        return Qualifier(fresh, frozenset(atoms))

    def qtype(self, bare: bool = False) -> QualifiedType:
        """A qualified type. With bare=True a missing `^{...}` means the
        empty qualifier (used inside Ref[...] and arrow shorthands);
        otherwise the qualifier is mandatory."""
        ty = self.type_atom()
        if self.at("^"):
            self.next()
            return QualifiedType(ty, self.qualifier())
        if bare:
            return QualifiedType(ty, Qualifier())
        tok = self.peek()
        raise ParseError("missing qualifier: write ^{...} (there is no default)",
                         tok.line, tok.col)

    def type_atom(self) -> Type:
        tok = self.peek()
        if tok.value in _NAMED_TYPES:
            self.next()
            return _NAMED_TYPES[tok.value]
        if tok.value == "Ref":
            self.next()
            self.expect("[")
            content = self.qtype(bare=True)
            self.expect("]")
            return RefT(content)
        if tok.value == "forall":
            self.next()
            return self.forall_tail()
        if tok.value == "(":
            self.next()
            ty = self.type_atom() if self.at("forall") else self.fun_inner()
            self.expect(")")
            return ty
        if tok.kind == "ident":
            return TVar(self.next().value)
        raise ParseError(f"expected a type, found {tok.value or 'end of input'!r}",
                         tok.line, tok.col)

    def forall_tail(self) -> All:
        self_name = self.ident() if not self.at("[") else self.gen("f")
        tvar, qvar, bound = self.type_params()
        self.expect(".")
        return All(self_name, tvar, qvar, bound, self.qtype())

    def type_params(self) -> Tuple[str, str, QualifiedType]:
        """`[X^x <: T^q]`: the parameter of a universal type or a `tfn`."""
        self.expect("[")
        tvar = self.ident()
        self.expect("^")
        qvar = self.ident()
        self.expect("<:")
        bound = self.qtype()
        self.expect("]")
        return tvar, qvar, bound

    def fun_inner(self) -> Fun:
        """The inside of a parenthesized function type."""
        self_name = None
        if self.peek().kind == "ident" and self.at("(", 1):
            self_name = self.ident()
        if self.at("(") and (self_name is not None
                             or (self.peek(1).kind == "ident" and self.at(":", 2))):
            self.next()
            if self.peek().kind == "ident" and self.at(":", 1):
                param = self.ident()
                self.expect(":")
                dom = self.qtype()
            else:
                param = self.gen("x")
                dom = self.qtype(bare=True)
            self.expect(")")
        else:
            param = self.gen("x")
            dom = self.qtype(bare=True)
        if self_name is None:
            self_name = self.gen("f")
        self.expect("=>")
        cod = self.qtype(bare=True)
        return Fun(self_name, param, dom, cod)

    # -- terms ---------------------------------------------------------------

    def expr(self) -> Term:
        if self.at("val"):
            name, rhs = self.binding()
            return Let(name, rhs, self.expr())
        return self.assign_expr()

    def binding(self) -> Tuple[str, Term]:
        """`val x = t;`, at the `val`."""
        self.next()
        name = self.ident()
        self.expect("=")
        rhs = self.assign_expr()
        self.expect(";")
        return name, rhs

    def assign_expr(self) -> Term:
        lhs = self.prefix_expr()
        if self.at(":="):
            self.next()
            rhs = self.prefix_expr()
            return Assign(lhs, rhs)
        return lhs

    def prefix_expr(self) -> Term:
        if self.at("ref"):
            self.next()
            return RefAlloc(self.prefix_expr())
        if self.at("!"):
            self.next()
            return Deref(self.prefix_expr())
        return self.postfix_expr()

    def postfix_expr(self) -> Term:
        t = self.atom_expr()
        while True:
            if self.at("("):
                self.next()
                arg = self.expr()
                self.expect(")")
                t = App(t, arg)
            elif self.at("["):
                self.next()
                arg = self.qtype()
                self.expect("]")
                t = TApp(t, arg)
            else:
                return t

    def atom_expr(self) -> Term:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return Const(int(tok.value))
        if tok.value == "unit":
            self.next()
            return UnitLit()
        if tok.value == "@":
            return LocTerm(self.location())
        if tok.value == "fn":
            return self.abstraction("(", self.fn_params, Abs)
        if tok.value == "tfn":
            return self.abstraction("[", self.type_params, TAbs)
        if tok.value == "(":
            self.next()
            inner = self.expr()
            if self.at(":"):
                self.next()
                ann = self.qtype()
                self.expect(")")
                return Ascribe(inner, ann)
            self.expect(")")
            return inner
        if tok.kind == "ident":
            return Var(self.next().value)
        raise ParseError(f"expected a term, found {tok.value or 'end of input'!r}",
                         tok.line, tok.col)

    def location(self) -> int:
        """The number of an `@n` location, at its `@`."""
        self.next()
        num = self.peek()
        if num.kind != "int":
            raise ParseError("expected a location number after '@'",
                             num.line, num.col)
        return int(self.next().value)

    def abstraction(self, opener: str, params, cls) -> Term:
        """`fn` and `tfn`, at the keyword: an optional self-name and
        `^{...}` capture, the parameters (`params`, which start at
        `opener`) and the `{ body }` block."""
        self.next()
        self_name = (self.ident()
                     if not self.at(opener) and not self.at("^")
                     else self.gen("f"))
        capture = None
        if self.at("^"):
            self.next()
            capture = self.qualifier()
        head = params()
        self.expect("{")
        body = self.expr()
        self.expect("}")
        return cls(self_name, *head, body, capture)

    def fn_params(self) -> Tuple[str, QualifiedType, Optional[QualifiedType]]:
        """`(x: T^q)` and an optional `: U^r`: the parameter and result of a `fn`."""
        self.expect("(")
        param = self.ident()
        self.expect(":")
        dom = self.qtype()
        self.expect(")")
        cod = None
        if self.at(":"):
            self.next()
            cod = self.qtype()
        return param, dom, cod

    # -- programs -------------------------------------------------------------

    def program(self) -> SourceProgram:
        decls: List[tuple] = []
        while True:
            if self.at("assume"):
                self.next()
                name = self.ident()
                self.expect(":")
                ann = self.qtype()
                self.expect(";")
                decls.append(("assume", name, ann))
            elif self.at("val"):
                # top-level val: binds a declaration, main follows
                decls.append(("val",) + self.binding())
            else:
                break
        main = self.expr()
        return SourceProgram(decls, main)


def parse(text: str) -> SourceProgram:
    parser = Parser(tokenize(text))
    prog = parser.program()
    parser.end()
    resolve_program(prog)
    return prog


def parse_pair(text: str) -> Tuple[SourceProgram, SourceProgram]:
    """Two programs separated by `;;` (used by the separation command)."""
    parser = Parser(tokenize(text))
    first = parser.program()
    parser.expect(";;")
    second = parser.program()
    parser.end()
    resolve_program(first)
    resolve_program(second)
    return first, second


def parse_term(text: str) -> Term:
    """A single expression; used by tests."""
    parser = Parser(tokenize(text))
    t = parser.expr()
    parser.end()
    resolve_term(t, {})
    return t


def parse_qtype(text: str) -> QualifiedType:
    parser = Parser(tokenize(text))
    q = parser.qtype()
    parser.end()
    return q


# ---------------------------------------------------------------------------
# Scope resolution
#
# Shadowing is rejected: binder names are unique along any scope path, so
# the core representation needs no renaming and substitution cannot capture.


def _bind(scope: dict, name: str, kind: str) -> dict:
    if name in scope:
        raise ScopeError(f"{name} shadows an enclosing binding")
    out = dict(scope)
    out[name] = kind
    return out


def _check_qual(q: Qualifier, scope: dict):
    for a in q.atoms:
        if isinstance(a, VarAtom):
            kind = scope.get(a.name)
            if kind is None:
                raise ScopeError(f"qualifier mentions unbound name {a.name}")
            if kind == "tvar":
                raise ScopeError(
                    f"type variable {a.name} cannot appear in a qualifier; "
                    f"use its paired qualifier variable")


_NOUN = {"term": "term variable", "tvar": "type variable"}


def resolve_term(x, scope: dict):
    """Check that a term (or a type) only mentions names bound around it,
    each used as its kind, and that no binder shadows another."""
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
        scope = _bind(scope, getattr(x, f), kind)
    for f, role in shape.inner:
        _resolve_part(getattr(x, f), role, scope)


def _resolve_part(part, role: int, scope: dict):
    if part is None:
        return
    if role == QUAL:
        _check_qual(part, scope)
    elif role == QTYPE:
        _check_qtype(part, scope)
    else:
        resolve_term(part, scope)


def _check_qtype(qty: QualifiedType, scope: dict):
    resolve_term(qty.ty, scope)
    _check_qual(qty.q, scope)


def resolve_program(prog: SourceProgram):
    scope: dict = {}
    for decl in prog.decls:
        if decl[0] == "assume":
            _, name, ann = decl
            _check_qtype(ann, scope)
            scope = _bind(scope, name, "term")
        else:
            _, name, rhs = decl
            resolve_term(rhs, scope)
            scope = _bind(scope, name, "term")
    resolve_term(prog.main, scope)


def elaborate(prog: SourceProgram) -> Term:
    """Nest value declarations into Lets around the final expression.

    Programs with `assume` declarations are open and cannot be elaborated
    to a runnable term.
    """
    for decl in prog.decls:
        if decl[0] == "assume":
            raise ScopeError("cannot run a program with assumed bindings")
    term = prog.main
    for _, name, rhs in reversed(prog.decls):
        term = Let(name, rhs, term)
    return term


# ---------------------------------------------------------------------------
# Pretty-printer


def _pretty_qual(q: Qualifier) -> str:
    parts = sorted(a.render() for a in q.atoms)
    if q.fresh:
        parts.append("*")
    return "{" + ", ".join(parts) + "}"


def _pretty_type(ty: Type) -> str:
    if isinstance(ty, Base):
        return ty.name
    if isinstance(ty, Top):
        return "Top"
    if isinstance(ty, TVar):
        return ty.name
    if isinstance(ty, RefT):
        if ty.content.q.is_empty():
            return f"Ref[{_pretty_type(ty.content.ty)}]"
        return f"Ref[{_pretty_qtype(ty.content)}]"
    if isinstance(ty, Fun):
        used = free_atoms_qtype(ty.cod)
        if VarAtom(ty.self_name) in used or VarAtom(ty.param) in used:
            return (f"({ty.self_name}({ty.param}: {_pretty_qtype(ty.dom)}) "
                    f"=> {_pretty_qtype(ty.cod)})")
        dom = (_pretty_type(ty.dom.ty) if ty.dom.q.is_empty()
               else _pretty_qtype(ty.dom))
        cod = (_pretty_type(ty.cod.ty) if ty.cod.q.is_empty()
               else _pretty_qtype(ty.cod))
        return f"({dom} => {cod})"
    if isinstance(ty, All):
        return (f"forall {ty.self_name}[{ty.tvar}^{ty.qvar} <: "
                f"{_pretty_qtype(ty.bound)}]. {_pretty_qtype(ty.body)}")
    raise TypeError(f"not a type: {ty!r}")


def _pretty_qtype(qty: QualifiedType) -> str:
    ty = _pretty_type(qty.ty)
    if isinstance(qty.ty, All):
        ty = f"({ty})"
    return f"{ty}^{_pretty_qual(qty.q)}"


def _callee(t: Term) -> str:
    if isinstance(t, (Var, App, TApp, LocTerm)):
        return _pretty_term(t)
    return f"({_pretty_term(t)})"


def _operand(t: Term) -> str:
    if isinstance(t, (Assign, Let)):
        return f"({_pretty_term(t)})"
    return _pretty_term(t)


def _pretty_term(t: Term) -> str:
    if isinstance(t, Const):
        return str(t.value)
    if isinstance(t, UnitLit):
        return "unit"
    if isinstance(t, Var):
        return t.name
    if isinstance(t, LocTerm):
        return f"@{t.loc}"
    if isinstance(t, Abs):
        cod = f" : {_pretty_qtype(t.cod)}" if t.cod is not None else ""
        cap = f"^{_pretty_qual(t.capture)}" if t.capture is not None else ""
        return (f"fn {t.self_name}{cap}({t.param}: {_pretty_qtype(t.dom)}){cod} "
                f"{{ {_pretty_term(t.body)} }}")
    if isinstance(t, App):
        return f"{_callee(t.fn)}({_pretty_term(t.arg)})"
    if isinstance(t, TApp):
        return f"{_callee(t.fn)}[{_pretty_qtype(t.arg)}]"
    if isinstance(t, RefAlloc):
        return f"ref {_operand(t.init)}"
    if isinstance(t, Deref):
        return f"!{_operand(t.ref)}"
    if isinstance(t, Assign):
        lhs = _operand(t.lhs) if not isinstance(t.lhs, Assign) else f"({_pretty_term(t.lhs)})"
        rhs = _operand(t.rhs) if not isinstance(t.rhs, Assign) else f"({_pretty_term(t.rhs)})"
        return f"{lhs} := {rhs}"
    if isinstance(t, TAbs):
        cap = f"^{_pretty_qual(t.capture)}" if t.capture is not None else ""
        return (f"tfn {t.self_name}{cap}[{t.tvar}^{t.qvar} <: "
                f"{_pretty_qtype(t.bound)}] {{ {_pretty_term(t.body)} }}")
    if isinstance(t, Ascribe):
        return f"({_pretty_term(t.term)} : {_pretty_qtype(t.qtype)})"
    if isinstance(t, Let):
        return f"val {t.name} = {_pretty_term(t.rhs)}; {_pretty_term(t.body)}"
    raise TypeError(f"not a term: {t!r}")


def pretty(x) -> str:
    if isinstance(x, Qualifier):
        return _pretty_qual(x)
    if isinstance(x, QualifiedType):
        return _pretty_qtype(x)
    if isinstance(x, (Base, Top, TVar, RefT, Fun, All)):
        return _pretty_type(x)
    return _pretty_term(x)
