"""Concrete syntax: lexer, parser with scope checks, pretty-printer.

ASCII forms: `*` is the freshness marker, `{}` the empty qualifier.
Files use extension `.rq`; `//` starts a line comment.

Each pass is linear in the source. The lexer is one `findall`, whose
matches each skip the whitespace and comments before a token; a token's
kind is looked up from its first character. No token offset is kept: a
ParseError scans the text again to find one. The parser checks scope as
it builds each node, in the same descent, against one scope dict: a
binder adds its name, and the name is deleted again when the binder's
scope closes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from string import ascii_letters, digits
from typing import List, Tuple

from .errors import ParseError, ScopeError
from .syntax import (
    INT, UNIT, Abs, All, App, Ascribe, Assign, Base, Const, Deref, Fun, Let,
    LocAtom, LocTerm, QualifiedType, Qualifier, RefAlloc, RefT, TAbs, TApp,
    Term, Top, TVar, Type, UnitLit, Var, VarAtom, free_atoms_qtype,
)


# ---------------------------------------------------------------------------
# Lexer


# Whitespace and comments, then the token as group 1. Any other character
# is a token by itself and the end of the text an empty one, so the
# matches cover the whole text. The alternatives start with distinct
# characters, so their order only sets how soon a token is matched.
_TOKEN_RE = re.compile(r"[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*"
                       r"([A-Za-z_][A-Za-z0-9_']*|[{}()\[\]^,*!.@]|:=?|=>?"
                       r"|;;?|<:|-?[0-9]+|.|\Z)", re.DOTALL)

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
_NOUN = {"term": "term variable", "tvar": "type variable"}
_PREFIXES = frozenset(("ref", "!"))
# the kinds of the names a binder binds, in the order they are bound
_TERM_KINDS = ("term",)
_FUN_KINDS = ("term", "term")
_ALL_KINDS = ("term", "tvar", "qvar")


class Parser:
    """Recursive descent over the token values and their kinds (one
    character each, see `_KINDS`), padded with end entries, whose value is
    "", so that a lookahead never runs off the end. No token position is
    kept: `error` finds the offset of the token it reports.

    The parser keeps its symbol table as it descends (Wirth, *Compiler
    Construction*, 1996). `scope` maps each name in scope to its kind,
    "term", "tvar" or "qvar", and each name, atom and binder is checked
    against it as its node is built: a qualifier may name only term and
    qualifier variables in scope, and no binder may shadow another, so
    binder names are unique along any scope path, the core
    representation needs no renaming and substitution cannot capture.
    The checks run in the order of `syntax.SHAPES`: the parts outside a
    node's binders, then its binders, then the parts inside. So an `fn`'s
    domain is checked before the capture written ahead of it, and its
    self-name and parameter are bound after both. The first ScopeError is
    kept in `fault`; `parse`, `parse_pair` and `parse_term` raise it only
    once the text is read to its end, so that a ParseError anywhere wins.
    A name leaves the scope when its binder's scope closes, and a program
    starts from an empty one.
    """

    def __init__(self, text: str):
        self.text = text
        self.values = tokenize(text)
        self.kinds = ("".join(map(_first, self.values[:-1])).translate(_KINDS)
                      + "eee")
        self.values += "", ""
        self.pos = 0
        self.counter = 0
        self.taken = None  # the text's names, built when gen first needs them
        self.scope = {}
        self.fault = None

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

    # -- scope -------------------------------------------------------------

    def fail(self, message: str):
        """Keeps the first scope error; it is raised by `checked`."""
        if self.fault is None:
            self.fault = ScopeError(message)

    def unbound(self, name: str, kind: str):
        """Reports an occurrence of `name` as a `kind` that is not one."""
        if self.scope.get(name) is None:
            self.fail(f"unbound {_NOUN[kind]} {name}")
        else:
            self.fail(f"{name} is not a {_NOUN[kind]}")

    def bind(self, names: tuple, kinds: tuple):
        """Brings each name into scope as the kind at its position."""
        for name, kind in zip(names, kinds):
            if name in self.scope:
                self.fail(f"{name} shadows an enclosing binding")
            self.scope[name] = kind

    def close(self, names):
        """The scope of `names` ends. A shadowing binder has already
        replaced the name it shadows, so a name may be gone."""
        for name in names:
            self.scope.pop(name, None)

    def checked(self, result):
        """`result`, read to the end of the text, unless a scope error
        was kept."""
        if self.fault is not None:
            raise self.fault
        return result

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
                kind = self.scope.get(value)
                if kind is None:
                    self.fail(f"qualifier mentions unbound name {value}")
                elif kind == "tvar":
                    self.fail(f"type variable {value} cannot appear in a "
                              f"qualifier; use its paired qualifier variable")
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
            if self.scope.get(value) != "tvar":
                self.unbound(value, "tvar")
            return TVar(value)
        raise self.error(f"expected a type, found {self.found()}")

    def forall_tail(self) -> All:
        self_name = (self.gen("f") if self.values[self.pos] == "["
                     else self.ident())
        tvar, qvar, bound = self.type_params()
        names = self_name, tvar, qvar
        self.bind(names, _ALL_KINDS)
        self.expect(".")
        body = self.qtype()
        self.close(names)
        return All(self_name, tvar, qvar, bound, body)

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
        names = self_name, param
        self.bind(names, _FUN_KINDS)
        self.expect("=>")
        cod = self.qtype(bare=True)
        self.close(names)
        return Fun(self_name, param, dom, cod)

    # -- terms ---------------------------------------------------------------

    def expr(self, spine: bool = True) -> Term:
        """A spine of `val` bindings (none when `spine` is False, as on a
        binding's right-hand side), then a term or an assignment. A spine
        is read by a loop, not a recursion, so that its length in any
        position is not bounded by the recursion limit."""
        lets = None
        if spine and self.values[self.pos] == "val":
            lets = []
            while self.values[self.pos] == "val":
                lets.append(self.binding())
        t = self.prefix_expr()
        if self.values[self.pos] == ":=":
            self.pos += 1
            t = Assign(t, self.prefix_expr())
        if lets:
            for name, rhs in reversed(lets):
                t = Let(name, rhs, t)
            self.close(name for name, _ in lets)
        return t

    def binding(self) -> Tuple[str, Term]:
        """`val x = t;`, at the `val`; `x` is bound once `t` is read."""
        self.pos += 1
        name = self.ident()
        self.expect("=")
        rhs = self.expr(False)
        self.expect(";")
        self.bind((name,), _TERM_KINDS)
        return name, rhs

    def prefix_expr(self) -> Term:
        """`ref` and `!` prefixes, an atom, then the term and type
        applications to the atom, in one frame: the prefixes are skipped
        and applied once the rest is read."""
        values = self.values
        start = self.pos
        while values[self.pos] in _PREFIXES:
            self.pos += 1
        stop = self.pos
        kind, value = self.kinds[stop], values[stop]
        if value == "fn" or value == "tfn":
            t = self.abstraction(value == "fn")
        elif kind == "i":
            self.pos += 1
            if value == "unit":
                t = UnitLit()
            else:
                if self.scope.get(value) != "term":
                    self.unbound(value, "term")
                t = Var(value)
        elif kind == "n":
            t = Const(self.number())
        elif value == "@":
            t = LocTerm(self.location())
        elif value == "(":
            self.pos += 1
            t = self.expr()
            if values[self.pos] == ":":
                self.pos += 1
                t = Ascribe(t, self.qtype())
            self.expect(")")
        else:
            raise self.error(f"expected a term, found {self.found()}")
        while True:
            value = values[self.pos]
            if value == "(":
                self.pos += 1
                t = App(t, self.expr())
                self.expect(")")
            elif value == "[":
                self.pos += 1
                t = TApp(t, self.qtype())
                self.expect("]")
            else:
                break
        while stop > start:
            stop -= 1
            t = RefAlloc(t) if values[stop] == "ref" else Deref(t)
        return t

    def location(self) -> int:
        """The number of an `@n` location, at its `@`."""
        self.pos += 1
        if self.kinds[self.pos] != "n":
            raise self.error("expected a location number after '@'")
        return self.number()

    def abstraction(self, fn: bool) -> Term:
        """`fn` (or `tfn`, when `fn` is False), at the keyword: an optional
        self-name and `^{...}` capture, the parameters and, for an `fn`,
        an optional result type, then the `{ body }` block. A scope error
        in the capture is held back until the domain or bound is read."""
        self.pos += 1
        opener = "(" if fn else "["
        self_name = (self.gen("f") if self.values[self.pos] in (opener, "^")
                     else self.ident())
        capture = held = None
        if self.values[self.pos] == "^":
            self.pos += 1
            outer = self.fault
            capture = self.qualifier()
            held, self.fault = self.fault, outer
        if fn:
            self.expect(opener)
            param = self.ident()
            self.expect(":")
            dom = self.qtype()
            self.expect(")")
            names, kinds = (self_name, param), _FUN_KINDS
        else:
            tvar, qvar, bound = self.type_params()
            names, kinds = (self_name, tvar, qvar), _ALL_KINDS
        if self.fault is None:
            self.fault = held
        self.bind(names, kinds)
        cod = None
        if fn and self.values[self.pos] == ":":
            self.pos += 1
            cod = self.qtype()
        self.expect("{")
        body = self.expr()
        self.expect("}")
        self.close(names)
        if fn:
            return Abs(self_name, param, dom, cod, body, capture)
        return TAbs(self_name, tvar, qvar, bound, body, capture)

    # -- programs -------------------------------------------------------------

    def program(self) -> SourceProgram:
        self.scope = {}
        decls: List[tuple] = []
        while True:
            value = self.values[self.pos]
            if value == "assume":
                self.pos += 1
                name = self.ident()
                self.expect(":")
                decls.append(("assume", name, self.qtype()))
                self.expect(";")
                self.bind((name,), _TERM_KINDS)
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
    return parser.checked(prog)


def parse_pair(text: str) -> Tuple[SourceProgram, SourceProgram]:
    """Two programs separated by `;;` (used by the separation command)."""
    parser = Parser(text)
    first = parser.program()
    parser.expect(";;")
    second = parser.program()
    parser.end()
    return parser.checked((first, second))


def parse_term(text: str) -> Term:
    """A single expression; used by tests."""
    parser = Parser(text)
    t = parser.expr()
    parser.end()
    return parser.checked(t)


def parse_qtype(text: str) -> QualifiedType:
    """A qualified type; its names are not checked against any scope."""
    parser = Parser(text)
    q = parser.qtype()
    parser.end()
    return q


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
