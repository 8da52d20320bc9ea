"""Concrete syntax: lexer, parser, scope resolution, pretty-printer.

ASCII forms: `*` is the freshness marker, `{}` the empty qualifier.
Files use extension `.rq`; `//` starts a line comment.

Each pass is linear in the source. The lexer makes one regex pass and
keeps a token's character offset, not its line and column: those are
computed from the offset only when a ParseError is raised. Resolution
mutates one scope dict: a binder adds its name, and the name is deleted
again when the binder's scope closes.
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


_TOKEN_RE = re.compile(r"""
    (?P<skip>[ \t\r\n]+|//[^\n]*)
  | (?P<int>-?[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<op>:=|<:|=>|;;|[{}()\[\]^:,;*!=.@])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


def _error(text: str, off: int, message: str) -> ParseError:
    """A ParseError at character offset `off` of `text`, as line:col."""
    return ParseError(message, text.count("\n", 0, off) + 1,
                      off - text.rfind("\n", 0, off))


def tokenize(text: str) -> List[Tuple[str, str, int]]:
    """(kind, value, offset) per token, then an eof entry at len(text)."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise _error(text, m.start(), f"unexpected character {m.group()!r}")
        if kind != "skip":
            tokens.append((kind, m.group(), m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser


@dataclass
class SourceProgram:
    decls: List[tuple]          # ("val", name, Term) | ("assume", name, QualifiedType)
    main: Term


_NAMED_TYPES = {"Int": INT, "Unit": UNIT, "Top": Top()}


class Parser:
    """Recursive descent over the token kinds and values, held as parallel
    tuples padded with eof entries so that a lookahead never runs off
    the end; a token's position is computed only for an error."""

    def __init__(self, text: str):
        self.text = text
        kinds, values, self.offsets = zip(*tokenize(text))
        self.kinds = kinds + ("eof", "eof")
        self.values = values + ("", "")
        self.pos = 0
        self.counter = 0
        self.taken = None  # the text's names, built when gen first needs them

    # -- plumbing ----------------------------------------------------------

    def peek(self) -> str:
        return self.values[self.pos]

    def kind(self, ahead: int = 0) -> str:
        return self.kinds[self.pos + ahead]

    def next(self) -> str:
        # every caller tests the token first, so this never steps past eof
        self.pos += 1
        return self.values[self.pos - 1]

    def at(self, value: str, ahead: int = 0) -> bool:
        # only the eof entries have the value ""
        return self.values[self.pos + ahead] == value

    def error(self, message: str) -> ParseError:
        return _error(self.text, self.offsets[self.pos], message)

    def found(self) -> str:
        return repr(self.values[self.pos] or "end of input")

    def expect(self, value: str):
        if self.values[self.pos] != value:
            raise self.error(f"expected {value!r}, found {self.found()}")
        self.pos += 1

    def ident(self) -> str:
        if self.kinds[self.pos] != "ident":
            raise self.error(f"expected a name, found {self.found()}")
        return self.next()

    def end(self):
        if self.kinds[self.pos] != "eof":
            raise self.error(f"trailing input starting at {self.peek()!r}")

    def gen(self, base: str) -> str:
        """A fresh binder name, unlike every name in the text."""
        if self.taken is None:  # only an identifier token can look like _f1
            self.taken = set(self.values)
        while True:
            self.counter += 1
            name = f"_{base}{self.counter}"
            if name not in self.taken:
                return name

    def number(self) -> int:
        try:  # CPython caps the digits that int() converts
            return int(self.next())
        except ValueError:
            self.pos -= 1
            raise self.error("integer literal too long") from None

    # -- qualifiers and types ----------------------------------------------

    def qualifier(self) -> Qualifier:
        self.expect("{")
        fresh = False
        atoms = set()
        while not self.at("}"):
            if self.at("*"):
                self.next()
                fresh = True
            elif self.at("@"):
                atoms.add(LocAtom(self.location()))
            elif self.kind() == "ident":
                atoms.add(VarAtom(self.next()))
            else:
                raise self.error(f"expected a qualifier atom, found {self.peek()!r}")
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
        raise self.error("missing qualifier: write ^{...} (there is no default)")

    def type_atom(self) -> Type:
        value = self.peek()
        if value in _NAMED_TYPES:
            self.next()
            return _NAMED_TYPES[value]
        if value == "Ref":
            self.next()
            self.expect("[")
            content = self.qtype(bare=True)
            self.expect("]")
            return RefT(content)
        if value == "forall":
            self.next()
            return self.forall_tail()
        if value == "(":
            self.next()
            ty = self.type_atom() if self.at("forall") else self.fun_inner()
            self.expect(")")
            return ty
        if self.kind() == "ident":
            return TVar(self.next())
        raise self.error(f"expected a type, found {self.found()}")

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
        if self.kind() == "ident" and self.at("(", 1):
            self_name = self.ident()
        if self.at("(") and (self_name is not None
                             or (self.kind(1) == "ident" and self.at(":", 2))):
            self.next()
            if self.kind() == "ident" and self.at(":", 1):
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
        kind, value = self.kind(), self.peek()
        if kind == "int":
            return Const(self.number())
        if value == "unit":
            self.next()
            return UnitLit()
        if value == "@":
            return LocTerm(self.location())
        if value == "fn":
            return self.abstraction("(", self.fn_params, Abs)
        if value == "tfn":
            return self.abstraction("[", self.type_params, TAbs)
        if value == "(":
            self.next()
            inner = self.expr()
            if self.at(":"):
                self.next()
                ann = self.qtype()
                self.expect(")")
                return Ascribe(inner, ann)
            self.expect(")")
            return inner
        if kind == "ident":
            return Var(self.next())
        raise self.error(f"expected a term, found {self.found()}")

    def location(self) -> int:
        """The number of an `@n` location, at its `@`."""
        self.next()
        if self.kind() != "int":
            raise self.error("expected a location number after '@'")
        return self.number()

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
    parser = Parser(text)
    prog = parser.program()
    parser.end()
    resolve_program(prog)
    return prog


def parse_pair(text: str) -> Tuple[SourceProgram, SourceProgram]:
    """Two programs separated by `;;` (used by the separation command)."""
    parser = Parser(text)
    first = parser.program()
    parser.expect(";;")
    second = parser.program()
    parser.end()
    resolve_program(first)
    resolve_program(second)
    return first, second


def parse_term(text: str) -> Term:
    """A single expression; used by tests."""
    parser = Parser(text)
    t = parser.expr()
    parser.end()
    resolve_term(t, {})
    return t


def parse_qtype(text: str) -> QualifiedType:
    parser = Parser(text)
    q = parser.qtype()
    parser.end()
    return q


# ---------------------------------------------------------------------------
# Scope resolution
#
# Shadowing is rejected: binder names are unique along any scope path, so
# the core representation needs no renaming and substitution cannot capture,
# and deleting a binder's name when its scope closes restores the scope.


def _bind(scope: dict, name: str, kind: str):
    if name in scope:
        raise ScopeError(f"{name} shadows an enclosing binding")
    scope[name] = kind


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
    each used as its kind, and that no binder shadows another. `scope`
    maps each name in scope to its kind; it is left as it was found,
    unless a ScopeError is raised."""
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
        else:
            _, name, rhs = decl
            resolve_term(rhs, scope)
        _bind(scope, name, "term")
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
        return f"{_operand(t.lhs)} := {_operand(t.rhs)}"
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
