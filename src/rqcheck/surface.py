"""Concrete syntax: lexer, parser, scope resolution, pretty-printer.

ASCII forms: `*` is the freshness marker, `{}` the empty qualifier.
Files use extension `.rq`; `//` starts a line comment.

Each pass is linear in the source. The lexer is one `findall`, whose
matches each skip the whitespace and comments before a token; a token's
kind is looked up from its first character. No token offset is kept: a
ParseError scans the text again to find one. Resolution mutates one
scope dict: a binder adds its name, and the name is deleted again when
the binder's scope closes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from string import ascii_letters, digits
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


# Whitespace and comments, then the token as group 1. Any other character
# is a token by itself and the end of the text an empty one, so the
# matches cover the whole text.
_TOKEN_RE = re.compile(r"[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*"
                       r"([A-Za-z_][A-Za-z0-9_']*|-?[0-9]+|:=?|=>?|;;?|<:"
                       r"|[{}()\[\]^,*!.@]|.|\Z)", re.DOTALL)

# A token's kind by its first character: `i` an identifier, `n` an
# integer, `o` an operator (and `e` the end of the text). Any other
# character is unexpected, and so is a lone `-` or `<`.
_KINDS = str.maketrans({**dict.fromkeys(ascii_letters + "_", "i"),
                        **dict.fromkeys(digits + "-", "n"),
                        **dict.fromkeys("{}()[]^:,;*!=.@<", "o")})
_ONE_CHAR_TOKENS = frozenset(map(chr, _KINDS)) - {"-", "<"}
_first = itemgetter(0)


def _error(text: str, index: int, message: str) -> ParseError:
    """A ParseError at token `index` of `text`, as line:col. The only code
    that finds a token's offset: it lexes the text again to do so."""
    off = next(islice(_TOKEN_RE.finditer(text), index, None)).start(1)
    return ParseError(message, text.count("\n", 0, off) + 1,
                      off - text.rfind("\n", 0, off))


def tokenize(text: str) -> List[str]:
    """The value of each token, then "" for the end of the text."""
    values = _TOKEN_RE.findall(text)
    if len(values) > 1 and not values[-2]:
        del values[-1]  # a text ending in a skip has two "" at its end
    if 1 in map(len, set(values).difference(_ONE_CHAR_TOKENS)):
        index = next(i for i, v in enumerate(values)
                     if len(v) == 1 and v not in _ONE_CHAR_TOKENS)
        raise _error(text, index, f"unexpected character {values[index]!r}")
    return values


# ---------------------------------------------------------------------------
# Parser


@dataclass
class SourceProgram:
    decls: List[tuple]          # ("val", name, Term) | ("assume", name, QualifiedType)
    main: Term


_NAMED_TYPES = {"Int": INT, "Unit": UNIT, "Top": Top()}


class Parser:
    """Recursive descent over the token values and their kinds (one
    character each, see `_KINDS`), padded with end entries, whose value is
    "", so that a lookahead never runs off the end. No token position is
    kept: `error` finds the offset of the token it reports."""

    def __init__(self, text: str):
        self.text = text
        self.values = tokenize(text)
        self.kinds = ("".join(map(_first, self.values[:-1])).translate(_KINDS)
                      + "eee")
        self.values += "", ""
        self.pos = 0
        self.counter = 0
        self.taken = None  # the text's names, built when gen first needs them

    # -- plumbing ----------------------------------------------------------

    def error(self, message: str) -> ParseError:
        return _error(self.text, self.pos, message)

    def found(self) -> str:
        return repr(self.values[self.pos] or "end of input")

    def expect(self, value: str):
        if self.values[self.pos] != value:
            raise self.error(f"expected {value!r}, found {self.found()}")
        self.pos += 1

    def ident(self) -> str:
        if self.kinds[self.pos] != "i":
            raise self.error(f"expected a name, found {self.found()}")
        self.pos += 1
        return self.values[self.pos - 1]

    def end(self):
        if self.kinds[self.pos] != "e":
            raise self.error(
                f"trailing input starting at {self.values[self.pos]!r}")

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
            value = int(self.values[self.pos])
        except ValueError:
            raise self.error("integer literal too long") from None
        self.pos += 1
        return value

    # -- qualifiers and types ----------------------------------------------

    def qualifier(self) -> Qualifier:
        self.expect("{")
        fresh = False
        atoms = set()
        while (value := self.values[self.pos]) != "}":
            if value == "*":
                self.pos += 1
                fresh = True
            elif value == "@":
                atoms.add(LocAtom(self.location()))
            elif self.kinds[self.pos] == "i":
                self.pos += 1
                atoms.add(VarAtom(value))
            else:
                raise self.error(f"expected a qualifier atom, found {value!r}")
            if self.values[self.pos] != "}":
                self.expect(",")
        self.pos += 1
        return Qualifier(fresh, frozenset(atoms))

    def qtype(self, bare: bool = False) -> QualifiedType:
        """A qualified type. With bare=True a missing `^{...}` means the
        empty qualifier (used inside Ref[...] and arrow shorthands);
        otherwise the qualifier is mandatory."""
        ty = self.type_atom()
        if self.values[self.pos] == "^":
            self.pos += 1
            return QualifiedType(ty, self.qualifier())
        if bare:
            return QualifiedType(ty, Qualifier())
        raise self.error("missing qualifier: write ^{...} (there is no default)")

    def type_atom(self) -> Type:
        value = self.values[self.pos]
        if value in _NAMED_TYPES:
            self.pos += 1
            return _NAMED_TYPES[value]
        if value == "Ref":
            self.pos += 1
            self.expect("[")
            content = self.qtype(bare=True)
            self.expect("]")
            return RefT(content)
        if value == "forall":
            self.pos += 1
            return self.forall_tail()
        if value == "(":
            self.pos += 1
            ty = (self.type_atom() if self.values[self.pos] == "forall"
                  else self.fun_inner())
            self.expect(")")
            return ty
        if self.kinds[self.pos] == "i":
            self.pos += 1
            return TVar(value)
        raise self.error(f"expected a type, found {self.found()}")

    def forall_tail(self) -> All:
        self_name = (self.gen("f") if self.values[self.pos] == "["
                     else self.ident())
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
        kinds, values = self.kinds, self.values
        self_name = None
        if kinds[self.pos] == "i" and values[self.pos + 1] == "(":
            self_name = self.ident()
        pos = self.pos
        named = kinds[pos + 1] == "i" and values[pos + 2] == ":"
        if values[pos] == "(" and (self_name is not None or named):
            self.pos += 1
            if named:
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
        if self.values[self.pos] == "val":
            name, rhs = self.binding()
            return Let(name, rhs, self.expr())
        return self.assign_expr()

    def binding(self) -> Tuple[str, Term]:
        """`val x = t;`, at the `val`."""
        self.pos += 1
        name = self.ident()
        self.expect("=")
        rhs = self.assign_expr()
        self.expect(";")
        return name, rhs

    def assign_expr(self) -> Term:
        lhs = self.prefix_expr()
        if self.values[self.pos] == ":=":
            self.pos += 1
            return Assign(lhs, self.prefix_expr())
        return lhs

    def prefix_expr(self) -> Term:
        value = self.values[self.pos]
        if value == "ref":
            self.pos += 1
            return RefAlloc(self.prefix_expr())
        if value == "!":
            self.pos += 1
            return Deref(self.prefix_expr())
        return self.postfix_expr()

    def postfix_expr(self) -> Term:
        """An atom, then the term and type applications to it."""
        kind, value = self.kinds[self.pos], self.values[self.pos]
        if value == "fn":
            t = self.abstraction("(", self.fn_params, Abs)
        elif value == "tfn":
            t = self.abstraction("[", self.type_params, TAbs)
        elif kind == "i":
            self.pos += 1
            t = UnitLit() if value == "unit" else Var(value)
        elif kind == "n":
            t = Const(self.number())
        elif value == "@":
            t = LocTerm(self.location())
        elif value == "(":
            self.pos += 1
            t = self.expr()
            if self.values[self.pos] == ":":
                self.pos += 1
                t = Ascribe(t, self.qtype())
            self.expect(")")
        else:
            raise self.error(f"expected a term, found {self.found()}")
        while True:
            value = self.values[self.pos]
            if value == "(":
                self.pos += 1
                t = App(t, self.expr())
                self.expect(")")
            elif value == "[":
                self.pos += 1
                t = TApp(t, self.qtype())
                self.expect("]")
            else:
                return t

    def location(self) -> int:
        """The number of an `@n` location, at its `@`."""
        self.pos += 1
        if self.kinds[self.pos] != "n":
            raise self.error("expected a location number after '@'")
        return self.number()

    def abstraction(self, opener: str, params, cls) -> Term:
        """`fn` and `tfn`, at the keyword: an optional self-name and
        `^{...}` capture, the parameters (`params`, which start at
        `opener`) and the `{ body }` block."""
        self.pos += 1
        self_name = (self.gen("f") if self.values[self.pos] in (opener, "^")
                     else self.ident())
        capture = None
        if self.values[self.pos] == "^":
            self.pos += 1
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
        if self.values[self.pos] == ":":
            self.pos += 1
            cod = self.qtype()
        return param, dom, cod

    # -- programs -------------------------------------------------------------

    def program(self) -> SourceProgram:
        decls: List[tuple] = []
        while True:
            value = self.values[self.pos]
            if value == "assume":
                self.pos += 1
                name = self.ident()
                self.expect(":")
                decls.append(("assume", name, self.qtype()))
                self.expect(";")
            elif value == "val":
                # top-level val: binds a declaration, main follows
                decls.append(("val",) + self.binding())
            else:
                break
        return SourceProgram(decls, self.expr())


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
