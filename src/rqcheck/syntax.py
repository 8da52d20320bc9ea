"""Abstract syntax shared by every other module.

Values here are immutable. Atoms, qualifiers, types, qualified types
and terms are interned (hash-consed) by one constructor, which
`_Interned` writes for each class from its fields, so equal ones are one
object and compare and hash by identity, in C, and a type or a term
keeps its free atoms once they are computed. Environment entries are
frozen dataclasses.

Binder names are required to be unique within a program (the surface
elaborator rejects shadowing). The machine's payloads are closed, so
pushing them into a term never needs a rename; the checker's mention the
caller's names, which a binder in the callee's codomain may reuse, so
type substitution renames such a binder apart.

The binder table `SHAPES` (section "Constructor shapes") says, for every
type and term constructor, which fields are subterms, qualified-type
annotations or capture qualifiers, which fields are binders and of what
kind (term, tvar or qvar), and which parts the binders scope over. Free
atoms, substitution, alpha-equivalence and the evaluation contexts of
`machine.step` are written once against it. A new term form adds its
class, one `Shape` row, one `_SYNTH` row (its typing rule, in
`typecheck`) and, if it can be the subject of a reduction, a rule in
`machine._RULES`; its concrete syntax (`surface`), whose parser checks
scope in the order of the parts given here, is the only other place that
needs a clause.

One substitution (`_Substitution`) serves the checker and the machine.
It puts values in for variables, type arguments in for type and
qualifier variables and qualifiers in for atoms, all in one pass. Each
use grows one from `EMPTY_SUBSTITUTION` by `extended`, `with_type` and
`with_qual` and applies it once; `subst_term` and `subst_qtype_in_term`
are its one-binding cases for terms.

An environment Γ (`TypeEnv`) is persistent: extending it is O(1) and
copies nothing, and all environments, grown from the one empty root
`EMPTY_ENV`, share one index from each name to its innermost binder,
which a lookup moves to the environment it asks (shallow binding). So a
checker that extends Γ by one binder per `let`, and types a λ body
beside the spine, does O(1) environment work per binding and per lookup.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, Optional, Union


# ---------------------------------------------------------------------------
# Qualifiers


class _Interned:
    """An immutable value that is the one object for its key (hash-consing:
    Goto, "Monocopy and associative algorithms in extended Lisp", 1974;
    Filliâtre & Conchon, "Type-safe modular hash-consing", 2006).

    Atoms, qualifiers, the six type constructors, `QualifiedType` and the
    13 term constructors are interned, each by the one `__new__` that
    `__init_subclass__` writes from the class's fields, as a dataclass
    gets its `__init__`. A base declared `abstract` (`_Keyed`, `_Term`)
    gets no table and no constructor: calling it, or `_Interned`, raises
    `TypeError`. The fields are the `__slots__` not named with an
    underscore (`_fields`, in order). `__new__` takes them by position or
    by keyword, the last ones defaulting to the class's `defaults`, runs
    the class's `normalise` statements on them, and looks their key up in
    the class's `_table`: the field itself for a class of one field, the
    tuple of the fields otherwise. It makes the object only when the key
    is new, through `dict.setdefault`, so two threads that make the same
    value get one object. A key is made of strings, numbers, None,
    frozensets and interned objects, so it hashes and compares without a
    walk. Equal values are therefore identical: `==` and `hash` are
    `object`'s, and a set or dict of them hashes and compares in C. The
    tables are state of the process and keep every value made for as
    long as the process lives, as `TypeEnv`'s index does.

    The slots named with an underscore are caches, None when an object is
    made: a type's `_free`, its free atoms, computed when first asked
    (`free_atoms_type`), and a `RefT`'s, `Fun`'s or `All`'s `_refl`
    (`subtyping._reflexive`); a term's `_free` and `_free_ann`, its free
    atoms without and with its annotations, kept once asked for it or
    for a term that holds it as a λ or Λ (`free_term_atoms`). Fields are set
    once, in `__new__`; assigning or deleting one raises
    `FrozenInstanceError`, as on a frozen dataclass, and `repr` reads as
    a dataclass's. `copy`, `deepcopy` and `pickle` make the value again
    through the constructor, so they give back the interned object.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __new__(cls, *args, **kwargs):
        raise TypeError(f"{cls.__name__} is an abstract base: it interns nothing")

    def __init_subclass__(cls, defaults: tuple = (), normalise: tuple = (),
                          abstract: bool = False):
        if abstract:    # a base of interned classes, with no table of its own
            return
        cls._fields = fields = tuple(s for s in cls.__slots__ if s[0] != "_")
        caches = tuple(s for c in cls.__mro__ for s in vars(c).get("__slots__", ())
                       if s[0] == "_")
        cls._table = table = {}
        # written out per class, so that a hit is one call and a miss sets
        # each slot through its descriptor, with no loop
        n = len(fields) - len(defaults)
        params = [f if i < n else f"{f}=_defaults[{i - n}]"
                  for i, f in enumerate(fields)]
        key = fields[0] if len(fields) == 1 else f"({''.join(f + ', ' for f in fields)})"
        scope = {"_get": table.get, "_keep": table.setdefault,
                 "_new": object.__new__, "_defaults": defaults}
        scope.update((f"_set_{s}", getattr(cls, s).__set__) for s in fields + caches)
        exec(f"def __new__({', '.join(('_cls', *params))}):\n"
             + "".join(f"    {line}\n" for line in normalise)
             + f"    _key = {key}\n"
             f"    _obj = _get(_key)\n"
             f"    if _obj is None:\n"
             f"        _obj = _new(_cls)\n"
             + "".join(f"        _set_{s}(_obj, {s})\n" for s in fields)
             + "".join(f"        _set_{s}(_obj, None)\n" for s in caches)
             + f"        _obj = _keep(_key, _obj)\n"
             f"    return _obj\n", scope)
        cls.__new__ = staticmethod(scope["__new__"])

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class VarAtom(_Interned):
    """A term variable or type-qualifier variable occurring in a qualifier."""

    __slots__ = ("name",)

    def render(self) -> str:
        return self.name


class LocAtom(_Interned):
    """A store location occurring in a qualifier."""

    __slots__ = ("loc",)

    def render(self) -> str:
        return f"@{self.loc}"


Atom = Union[VarAtom, LocAtom]


class Qualifier(_Interned, defaults=(False, frozenset()), normalise=(
        "fresh = True if fresh else False",
        "if type(atoms) is not frozenset: atoms = frozenset(atoms)")):
    """A finite set of atoms plus the freshness marker.

    The marker is stored in `fresh`, never as an atom. Before the lookup
    `fresh` is made a bool and `atoms`, any iterable of atoms, a
    frozenset, so equal qualifiers are one object. `Qualifier()` is
    `EMPTY` and `Qualifier(fresh=True)` is `FRESH`.
    """

    __slots__ = ("fresh", "atoms")

    def union(self, other: "Qualifier") -> "Qualifier":
        return Qualifier(self.fresh or other.fresh, self.atoms | other.atoms)

    def with_atoms(self, extra: Iterable[Atom]) -> "Qualifier":
        return Qualifier(self.fresh, self.atoms | frozenset(extra))

    def is_empty(self) -> bool:
        return not self.fresh and not self.atoms


EMPTY = Qualifier()
FRESH = Qualifier(fresh=True)


def qual(*names: str, fresh: bool = False, locs: Iterable[int] = ()) -> Qualifier:
    """Convenience constructor used heavily by tests and the corpus."""
    atoms = [VarAtom(n) for n in names]
    atoms += [LocAtom(i) for i in locs]
    return Qualifier(fresh, frozenset(atoms))


# ---------------------------------------------------------------------------
# Types


class _Keyed(_Interned, abstract=True):
    """An interned type or term, with its free atoms in `_free` once
    asked."""

    __slots__ = ("_free",)


class Base(_Keyed):
    __slots__ = ("name",)   # "Int" or "Unit"


class Top(_Keyed):
    __slots__ = ()


class TVar(_Keyed):
    __slots__ = ("name",)


class RefT(_Keyed):
    __slots__ = ("content", "_refl")


class Fun(_Keyed):
    """Dependent function type; cod may mention self_name and param."""

    __slots__ = ("self_name", "param", "dom", "cod", "_refl")


class All(_Keyed):
    """Bounded universal; body may mention self_name, tvar, and qvar."""

    __slots__ = ("self_name", "tvar", "qvar", "bound", "body", "_refl")


Type = Union[Base, Top, TVar, RefT, Fun, All]

INT = Base("Int")
UNIT = Base("Unit")


class QualifiedType(_Keyed):
    __slots__ = ("ty", "q")


def qt(ty: Type, q: Qualifier = EMPTY) -> QualifiedType:
    return QualifiedType(ty, q)


# ---------------------------------------------------------------------------
# Terms


class _Term(_Keyed, abstract=True):
    """A term constructor; `_free_ann` holds the free atoms with the
    annotations (`free_term_atoms`)."""

    __slots__ = ("_free_ann",)


class Const(_Term):
    __slots__ = ("value",)


class UnitLit(_Term):
    __slots__ = ()


class Var(_Term):
    __slots__ = ("name",)


class Abs(_Term, defaults=(None,)):
    """Lambda; capture, when given, overrides the default captured
    qualifier (the free variables of the body)."""

    __slots__ = ("self_name", "param", "dom", "cod", "body", "capture")


class App(_Term):
    __slots__ = ("fn", "arg")


class RefAlloc(_Term):
    __slots__ = ("init",)


class Deref(_Term):
    __slots__ = ("ref",)


class Assign(_Term):
    __slots__ = ("lhs", "rhs")


class LocTerm(_Term):
    __slots__ = ("loc",)


class TAbs(_Term, defaults=(None,)):
    __slots__ = ("self_name", "tvar", "qvar", "bound", "body", "capture")


class TApp(_Term):
    __slots__ = ("fn", "arg")


class Ascribe(_Term):
    __slots__ = ("term", "qtype")


class Let(_Term):
    __slots__ = ("name", "rhs", "body")


Term = Union[
    Const, UnitLit, Var, Abs, App, RefAlloc, Deref, Assign,
    LocTerm, TAbs, TApp, Ascribe, Let,
]


def is_value(t: Term) -> bool:
    return isinstance(t, (Const, UnitLit, LocTerm, Abs, TAbs))


# ---------------------------------------------------------------------------
# Environments and store typings


@dataclass(frozen=True)
class TermBind:
    name: str
    qtype: QualifiedType


@dataclass(frozen=True)
class TypeBind:
    tvar: str
    qvar: str
    bound: QualifiedType


EnvEntry = Union[TermBind, TypeBind]


def _restore(names: dict, name: str, hidden: Optional[EnvEntry]):
    if hidden is None:
        names.pop(name, None)   # twice for X^X
    else:
        names[name] = hidden


class _Index:
    """The name index every environment shares: `names` maps each name
    to its innermost binder in the environment `at` (None while a move is
    under way)."""

    __slots__ = ("names", "at")

    def __init__(self, at: "TypeEnv"):
        self.names: dict = {}
        self.at = at


class TypeEnv:
    """Γ, a telescope of entries, outermost first; immutable.

    An environment is a chain: the one it extends (`extended`) plus one
    entry, down to the empty root `EMPTY_ENV`. `TypeEnv()` is that root,
    and `TypeEnv(entries)` extends it by each entry in turn. Every
    environment shares one name index (`_INDEX`), after Baker's shallow
    binding ("Shallow binding makes functional arrays fast", 1991): it
    maps each name to its innermost binder in one environment at a time.
    A lookup in another environment first moves the index there: it
    undoes the entries of the one it holds up to their nearest common
    ancestor and applies the target's from there down, each applied
    environment keeping what its entry hid. So `extended` is O(1) and
    copies nothing, a lookup in the environment last looked up in is one
    dict access, and any other lookup costs the distance between the
    two. The checker walks the environments depth first (a let spine, a
    λ body beside it, the binders `subtyping` adds for `Fun` and `All`),
    so each entry is applied and undone O(1) times. The index is state
    of the process, not safe to use from two threads at once.

    `entries` is built on demand from the chain, in O(n); `dom`, `==`,
    `hash` and `repr` read it, so they mean what they did for a tuple.
    An entry is a `TypeBind` or else a term binding: a `TermBind`, or
    any object with a `name`, a type part `ty` and a qualifier part `q`
    (`typecheck._Read`, whose parts are found when they are read). The
    lookups test `TermBind` first, so a plain term binding costs them one
    test, and each reads only the part it returns.
    """

    __slots__ = ("_parent", "_entry", "_depth", "_saved")

    def __new__(cls, entries: tuple = ()):
        env = EMPTY_ENV
        for e in entries:
            env = env.extended(e)
        return env

    def extended(self, entry: EnvEntry) -> "TypeEnv":
        new = object.__new__(TypeEnv)
        new._parent, new._entry, new._depth = self, entry, self._depth + 1
        new._saved = None
        return new

    @property
    def entries(self) -> tuple:
        out, env = [], self
        while env._parent is not None:
            out.append(env._entry)
            env = env._parent
        return tuple(reversed(out))

    def __eq__(self, other):
        if type(other) is not TypeEnv:
            return NotImplemented
        return self is other or self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"TypeEnv(entries={self.entries!r})"

    def _move_index(self):
        """Make the index hold this environment. The index holds none
        while it moves, so a move cut short by an exception (an interrupt
        in a long-lived process) is redone from the root."""
        names, old, new, down = _INDEX.names, _INDEX.at, self, []
        _INDEX.at = None
        if old is None:
            names.clear()
            old = EMPTY_ENV
        while old is not new:
            if old._depth >= new._depth:
                # undo old's entry: give back what it hid
                e = old._entry
                if type(e) is not TypeBind:
                    _restore(names, e.name, old._saved)
                else:
                    _restore(names, e.qvar, old._saved[1])
                    _restore(names, e.tvar, old._saved[0])
                old = old._parent
            else:
                down.append(new)
                new = new._parent
        for env in reversed(down):
            e = env._entry
            if type(e) is not TypeBind:
                env._saved = names.get(e.name)
                names[e.name] = e
            else:
                env._saved = (names.get(e.tvar), names.get(e.qvar))
                names[e.tvar] = names[e.qvar] = e
        _INDEX.at = self

    def binder(self, name: str) -> Optional[EnvEntry]:
        """The innermost entry that binds name, whatever its kind: a term
        binding, or X^x binding X and x. Names share one scope, as in the
        surface language; an inner binder of another kind hides an outer
        one, which happens once a closed value is copied under a binder
        of one of its own names."""
        if _INDEX.at is not self:
            self._move_index()
        return _INDEX.names.get(name)

    def term_entry(self, name: str):
        """name's term binding as one object with a type part `ty` and a
        qualifier part `q` (a `TermBind`'s qualified type), or None."""
        e = self.binder(name)
        if type(e) is TermBind:
            return e.qtype
        return None if type(e) is TypeBind else e

    def lookup_tvar(self, name: str) -> Optional[QualifiedType]:
        e = self.binder(name)
        return e.bound if type(e) is TypeBind and e.tvar == name else None

    def binding_qualifier(self, atom: VarAtom) -> Optional[Qualifier]:
        """Qualifier the atom was assumed at: term binding or bound of X^x."""
        e = self.binder(atom.name)
        if type(e) is TermBind:
            return e.qtype.q
        if type(e) is TypeBind:
            return e.bound.q if e.qvar == atom.name else None
        return None if e is None else e.q     # another term binding

    def dom(self) -> frozenset:
        return frozenset(VarAtom(e.name if type(e) is not TypeBind else e.qvar)
                         for e in self.entries)


# the empty environment, the root every environment grows from
EMPTY_ENV = object.__new__(TypeEnv)
EMPTY_ENV._parent = EMPTY_ENV._entry = EMPTY_ENV._saved = None
EMPTY_ENV._depth = 0
_INDEX = _Index(EMPTY_ENV)


class StoreTyping:
    """Location typings; treated as immutable, extension copies, so the
    domain is computed once."""

    def __init__(self, mapping: Optional[dict] = None):
        self.mapping = dict(mapping or {})
        self._dom: Optional[frozenset] = None

    def get(self, loc: int) -> Optional[QualifiedType]:
        return self.mapping.get(loc)

    def extended(self, loc: int, entry: QualifiedType) -> "StoreTyping":
        return StoreTyping({**self.mapping, loc: entry})

    def dom(self) -> frozenset:
        if self._dom is None:
            self._dom = frozenset(LocAtom(l) for l in self.mapping)
        return self._dom


# ---------------------------------------------------------------------------
# Constructor shapes
#
# SHAPES is the one statement of where the parts of each type and term
# constructor sit and which binders scope over which parts. Every walk
# over syntax reads it: free atoms, substitution and alpha-equivalence
# below, and the evaluation contexts of `machine.step`. The parser checks
# scope in its order as it reads the text (`surface.Parser`), and a scope
# walk over the parsed program, kept in `tests/test_surface.py` as the
# reference for those checks, reads it too.

TERM, QTYPE, QUAL = range(3)   # roles of a part


class Shape:
    """Where the fields of one constructor sit.

    `binds` are (field, kind) pairs, kind "term", "tvar" or "qvar"; every
    binder scopes over the parts in `inner` and over nothing else.
    `outer` and `inner` are (field, role) pairs, role TERM (a subterm),
    QTYPE (a qualified type) or QUAL (a qualifier); a QTYPE or QUAL part
    may be None. `occurs` is (field, kind) for a leaf that is an
    occurrence of a name of that kind, or of a location (kind "loc").
    Any other field is data, copied and compared as it is.
    """

    __slots__ = ("cls", "fields", "binds", "outer", "inner", "occurs",
                 "data", "parts", "evals")

    def __init__(self, cls, binds=(), outer=(), inner=(), occurs=None):
        self.cls, self.binds, self.occurs = cls, binds, occurs
        self.outer, self.inner = outer, inner
        self.fields = cls._fields
        role = {f: (r, False) for f, r in outer}
        role.update({f: (r, True) for f, r in inner})
        # (field, role, under the binders) in field order
        self.parts = tuple((f,) + role[f] for f in self.fields if f in role)
        named = {f for f, _ in binds} | set(role) | {occurs and occurs[0]}
        self.data = tuple(f for f in self.fields if f not in named)
        # evaluation positions: the subterms under no binder, left to right
        self.evals = tuple(f for f, r in outer if r == TERM)


_SELF = ("self_name", "term")
_TYPE_PARAMS = (_SELF, ("tvar", "tvar"), ("qvar", "qvar"))

SHAPES = {s.cls: s for s in (
    Shape(Base),
    Shape(Top),
    Shape(TVar, occurs=("name", "tvar")),
    Shape(RefT, outer=(("content", QTYPE),)),
    Shape(Fun, binds=(_SELF, ("param", "term")),
          outer=(("dom", QTYPE),), inner=(("cod", QTYPE),)),
    Shape(All, binds=_TYPE_PARAMS,
          outer=(("bound", QTYPE),), inner=(("body", QTYPE),)),
    Shape(Const),
    Shape(UnitLit),
    Shape(Var, occurs=("name", "term")),
    Shape(LocTerm, occurs=("loc", "loc")),
    Shape(Abs, binds=(_SELF, ("param", "term")),
          outer=(("dom", QTYPE), ("capture", QUAL)),
          inner=(("cod", QTYPE), ("body", TERM))),
    Shape(App, outer=(("fn", TERM), ("arg", TERM))),
    Shape(RefAlloc, outer=(("init", TERM),)),
    Shape(Deref, outer=(("ref", TERM),)),
    Shape(Assign, outer=(("lhs", TERM), ("rhs", TERM))),
    Shape(TAbs, binds=_TYPE_PARAMS,
          outer=(("bound", QTYPE), ("capture", QUAL)), inner=(("body", TERM),)),
    Shape(TApp, outer=(("fn", TERM), ("arg", QTYPE))),
    Shape(Ascribe, outer=(("term", TERM), ("qtype", QTYPE))),
    Shape(Let, binds=(("name", "term"),),
          outer=(("rhs", TERM),), inner=(("body", TERM),)),
)}


def map_parts(x, term=None, qtype=None, qual=None, names=()):
    """x with each part passed through the function for its role; a role
    without a function, a None part, and every part under a binder named
    in `names` stay as they are. Returns x itself when nothing changed."""
    shape = SHAPES[type(x)]
    if not shape.parts:
        return x
    fns = (term, qtype, qual)
    shadowed = False
    for f, _ in shape.binds:
        if getattr(x, f) in names:
            shadowed = True
    new = {}
    for f, role, inner in shape.parts:
        fn = fns[role]
        if fn is None or (inner and shadowed):
            continue
        old = getattr(x, f)
        if old is not None:
            v = fn(old)
            if v is not old:
                new[f] = v
    if not new:
        return x
    return shape.cls(*[new[f] if f in new else getattr(x, f) for f in shape.fields])


def filled(node, parts: list):
    """node with its first evaluation positions holding parts: node
    itself, shared, unless one of them differs."""
    shape = SHAPES[type(node)]
    new = {f: v for f, v in zip(shape.evals, parts) if v is not getattr(node, f)}
    if not new:
        return node
    return shape.cls(*[new.get(f, getattr(node, f)) for f in shape.fields])


# ---------------------------------------------------------------------------
# Free variables


_NO_ATOMS: frozenset = frozenset()


def _union(a: frozenset, b: frozenset) -> frozenset:
    """a ∪ b, which is a or b itself when one holds the other: a type or
    term keeps its free atoms for good, so they share sets where they can."""
    if b <= a:
        return a
    return b if a <= b else a | b


def _free_of(x, slot: str, annotations: bool, found=None) -> frozenset:
    """The free atoms of a type or term from its parts' own, a subterm's
    in its `slot` or else in `found`; annotations' atoms (type variables
    as VarAtom) only when `annotations` is set, as for a type."""
    shape = SHAPES[type(x)]
    if shape.occurs is not None:
        field, kind = shape.occurs
        return frozenset({LocAtom(getattr(x, field)) if kind == "loc"
                          else VarAtom(getattr(x, field))})
    binders = {getattr(x, f) for f, _ in shape.binds}
    free = _NO_ATOMS
    for f, role, under in shape.parts:
        part = getattr(x, f)
        if role == TERM:
            part = found[part] if getattr(part, slot) is None else getattr(part, slot)
        elif part is None or not annotations:
            continue
        else:
            part = free_atoms_qtype(part) if role == QTYPE else part.atoms
        if under and any(type(a) is VarAtom and a.name in binders for a in part):
            part = frozenset(a for a in part if type(a) is LocAtom
                             or a.name not in binders) or _NO_ATOMS
        free = _union(free, part)
    return free


def free_atoms_type(ty: Type) -> frozenset:
    """Free atoms of a type: qualifier atoms plus type variables (as
    VarAtom). Computed once per type, from its parts' own, and kept."""
    free = ty._free
    if free is None:
        free = _free_of(ty, "_free", True)
        object.__setattr__(ty, "_free", free)
    return free


def free_atoms_qtype(qty: QualifiedType) -> frozenset:
    free = qty._free
    if free is None:
        free = _union(free_atoms_type(qty.ty), qty.q.atoms)
        object.__setattr__(qty, "_free", free)
    return free


def free_term_atoms(t: Term, annotations: bool = False) -> frozenset:
    """Free term-level atoms of a term (variables and locations).

    With annotations=False this is the untyped notion of free variable,
    which is what function capture qualifiers default to. Kept by the
    term asked and by each λ and Λ below it, so a closed value nested in
    many is walked once; each node's are found from its subterms' in a
    walk with an explicit stack, so a deep term costs memory, not
    recursion.
    """
    slot = "_free_ann" if annotations else "_free"
    free = getattr(t, slot)
    if free is None:
        stack, found = [t], {}
        while stack:
            x = stack[-1]
            todo = [p for p in (getattr(x, f) for f, role, _ in SHAPES[type(x)].parts
                                if role == TERM)
                    if getattr(p, slot) is None and p not in found]
            if todo:
                stack += todo
                continue
            stack.pop()
            if getattr(x, slot) is None and x not in found:
                found[x] = free = _free_of(x, slot, annotations, found)
                if x is t or type(x) is Abs or type(x) is TAbs:
                    object.__setattr__(x, slot, free)
        free = getattr(t, slot)
    return free


def value_qualifier(v: Term) -> Qualifier:
    """Syntactic qualifier of a closed value: its free locations.

    An explicit capture annotation wins when present; the checker has
    already made sure it covers the free variables.
    """
    if isinstance(v, (Abs, TAbs)) and v.capture is not None:
        return Qualifier(False, v.capture.atoms)
    return Qualifier(False, free_term_atoms(v))


# ---------------------------------------------------------------------------
# Substitution
#
# `_Substitution` is the only substitution of the checker and the
# machine; `qualifiers.q_subst`, the qualifier-algebra form for one atom,
# is what the tests compare it with. Substitution stops under a binder of
# a substituted name.


class _Substitution:
    """Puts, all at once, each closed value of `values` in for its
    variable, each type of `types` in for its type variable and each
    qualifier of `quals` in for its atom, stopping under a binder of any
    substituted name (`names`). A value's variable is also an atom, which
    `value_qualifier(v)` replaces; that qualifier is computed when a
    qualifier first mentions the atom, and kept in `quals` under the
    name. Names are keyed as strings, so growing a substitution interns
    no atom. Calling it maps a qualified type; `term` maps a term; unchanged
    parts are shared, not copied. (An object rather than a recursive
    closure, which would leave a reference cycle behind for the collector
    on every call.)

    Every substitution starts from `EMPTY_SUBSTITUTION` and grows by
    `extended`, `with_type` and `with_qual`; a later qualifier for an
    atom replaces an earlier one. The machine's pending substitution puts in
    closed values and types, so putting them in at once equals putting
    them in one binding at a time, in any order. A typing rule's payloads
    mention the caller's names, which may coincide with a substituted
    one (an argument that mentions a variable named like the callee's
    self binder), so the rule builds one substitution with all its
    bindings and applies it once.

    `with_qual` and `with_type` record in `free` the atoms their payloads
    mention (`extended`'s values are closed). A `Fun` or `All` binder
    named like one would capture it, so it is renamed apart before the
    substitution goes under it. Only closed payloads enter a term.

    A λ or Λ (`term`) and a qualified type (calling it) none of whose
    free atoms names a substituted name are returned as they are, in
    O(1) once their free atoms are kept (`_free_ann`, `_free`): nothing
    under them is substituted. There a walk would still rename a binder
    apart from `free`; the part returned instead is alpha-equivalent to
    what that walk gives. Other nodes are walked, so no node keeps more
    than its free atoms.

    A grown substitution has its own `values`, `quals` and `names`, so `extended(..., in_place=True)` may write them, in O(1),
    when its caller holds the only reference to it. The machine does
    this for a let-β (`machine.Configuration` says when it holds the
    only one). `EMPTY_SUBSTITUTION`, and any substitution another holder
    can still read, is only ever copied."""

    __slots__ = ("values", "types", "quals", "names", "free")

    def __init__(self):
        self.values: dict = {}
        self.types: dict = {}
        self.quals: dict = {}
        self.names = self.free = frozenset()

    def _grown(self, values, types, quals, names,
               free=frozenset()) -> "_Substitution":
        new = object.__new__(_Substitution)
        new.values, new.types, new.quals = values, types, quals
        new.names = {*self.names, *names}
        new.free = self.free | free if free else self.free
        return new

    def extended(self, name: str, v: Term,
                 in_place: bool = False) -> "_Substitution":
        """This substitution with the closed value v put in for name;
        this very object, grown, when `in_place`."""
        if in_place:
            self.names.add(name)     # EMPTY_SUBSTITUTION's frozenset refuses
            self.values[name] = v
            self.quals.pop(name, None)
            return self
        quals = dict(self.quals)
        quals.pop(name, None)     # a qualifier the old value left behind
        return self._grown({**self.values, name: v}, self.types, quals, (name,))

    def with_qual(self, name: str, q: Qualifier) -> "_Substitution":
        """This substitution with the qualifier q put in for the atom name."""
        return self._grown(dict(self.values), self.types, {**self.quals, name: q},
                           (name,), q.atoms)

    def with_type(self, tvar: str, qvar: str,
                  payload: QualifiedType) -> "_Substitution":
        """This substitution with the closed type argument payload put in
        for tvar^qvar: payload.ty for tvar and payload.q for qvar."""
        new = self.with_qual(qvar, payload.q)
        # `new` is not shared yet, so it may still be filled in
        new.types, new.names = {**self.types, tvar: payload.ty}, new.names | {tvar}
        new.free |= free_atoms_type(payload.ty)
        return new

    def qual(self, q: Qualifier) -> Qualifier:
        values, quals = self.values, self.quals
        hit = [a for a in q.atoms if type(a) is VarAtom
               and (a.name in quals or a.name in values)]
        if not hit:
            return q
        fresh, atoms = q.fresh, q.atoms.difference(hit)
        for a in hit:
            payload = quals.get(a.name)
            if payload is None:
                payload = quals[a.name] = value_qualifier(values[a.name])
            fresh, atoms = fresh or payload.fresh, atoms | payload.atoms
        return Qualifier(fresh, atoms)

    def _misses(self, free: frozenset) -> bool:
        """Whether no atom of free names a substituted name."""
        names = self.names
        for a in free:
            if type(a) is VarAtom and a.name in names:
                return False
        return True

    def __call__(self, qty: QualifiedType) -> QualifiedType:
        if self._misses(free_atoms_qtype(qty)):
            return qty
        ty = qty.ty
        if type(ty) is TVar:
            ty = self.types.get(ty.name, ty)
        else:
            if self.free and (type(ty) is Fun or type(ty) is All):
                ty = self._renamed_apart(ty)
            ty = map_parts(ty, None, self, None, self.names)
        q = self.qual(qty.q)
        if ty is qty.ty and q is qty.q:
            return qty
        return QualifiedType(ty, q)

    def _renamed_apart(self, ty):
        """ty with each binder named like an atom in `free` renamed, in
        the parts it scopes over, to a primed name neither mentions; ty
        itself if none is, or if one shadows a substituted name."""
        shape = SHAPES[type(ty)]
        for f, _ in shape.binds:
            if VarAtom(getattr(ty, f)) in self.free:
                break
        else:
            return ty
        bound = {getattr(ty, f) for f, _ in shape.binds}
        if not self.names.isdisjoint(bound):
            return ty
        taken = {a.name for a in self.free | free_atoms_type(ty)
                 if type(a) is VarAtom} | self.names | bound
        rename, new = EMPTY_SUBSTITUTION, {}
        for f, kind in shape.binds:
            name = getattr(ty, f)
            if VarAtom(name) in self.free:
                fresh = name + "'"
                while fresh in taken:
                    fresh += "'"
                new[f], taken = fresh, taken | {fresh}
                rename = rename.with_qual(name, qual(fresh))
                if kind == "tvar":
                    rename.types = {**rename.types, name: TVar(fresh)}
        for f, _, under in shape.parts:
            if under:
                new[f] = rename(getattr(ty, f))
        return shape.cls(*[new.get(f, getattr(ty, f)) for f in shape.fields])

    def term(self, t: Term) -> Term:
        """t with the substitution applied."""
        return self._term(t) if self.values or self.quals or self.types else t

    def _term(self, t: Term) -> Term:
        # a loop down a spine of lets, not a recursion, so the number of
        # top-level `val`s is not bounded by the recursion limit
        spine = []
        while type(t) is Let and t.name not in self.names:
            spine.append((t, self._term(t.rhs)))
            t = t.body
        if type(t) is Var:
            out = self.values.get(t.name, t)
        elif (type(t) is Abs or type(t) is TAbs) and self._misses(
                free_term_atoms(t, annotations=True)):
            out = t
        else:
            out = map_parts(t, self._term, self, self.qual, self.names)
        for let, rhs in reversed(spine):
            if rhs is not let.rhs or out is not let.body:
                let = Let(let.name, rhs, out)
            out = let
        return out


EMPTY_SUBSTITUTION = _Substitution()


def values_substitution(values: dict) -> _Substitution:
    """The substitution of each closed value of `values` (a dict it keeps)
    for its name, made as one object: β's, of self and parameter."""
    return EMPTY_SUBSTITUTION._grown(values, EMPTY_SUBSTITUTION.types, {}, values)


def subst_term(t: Term, name: str, v: Term) -> Term:
    """Replace a variable by a closed value.

    Annotation qualifiers mentioning the variable are rewritten with the
    value's syntactic qualifier so reduced terms stay checkable.
    """
    return EMPTY_SUBSTITUTION.extended(name, v).term(t)


def subst_qtype_in_term(t: Term, tvar: str, qvar: str,
                        payload: QualifiedType) -> Term:
    """Type-application substitution pushed through a term body."""
    return EMPTY_SUBSTITUTION.with_type(tvar, qvar, payload).term(t)


# ---------------------------------------------------------------------------
# Alpha equivalence


def _alpha_qual(q1: Qualifier, q2: Qualifier, ren) -> bool:
    if q1.fresh != q2.fresh or len(q1.atoms) != len(q2.atoms):
        return False
    fwd, bwd = ren
    for a in q1.atoms:
        if type(a) is VarAtom:
            b = fwd.get(a.name, a.name)
            if VarAtom(b) not in q2.atoms or bwd.get(b, b) != a.name:
                return False
        elif a not in q2.atoms:
            return False
    # the atoms map one to one into q2, which has as many
    return True


def _alpha_qtype(q1: QualifiedType, q2: QualifiedType, ren) -> bool:
    return _alpha(q1.ty, q2.ty, ren) and _alpha_qual(q1.q, q2.q, ren)


def _alpha(x, y, ren) -> bool:
    """Alpha-equivalence of two terms or two types. ren is the pair of
    maps between the names bound around x and around y, x's to y's and
    back: a name of x and a name of y match when each maps to the other,
    so a name free on one side never matches one bound on the other."""
    if type(x) is not type(y):
        return False
    shape = SHAPES[type(x)]
    if shape.occurs is not None:
        a, b = getattr(x, shape.occurs[0]), getattr(y, shape.occurs[0])
        return ren[0].get(a, a) == b and ren[1].get(b, b) == a
    for f in shape.data:
        if getattr(x, f) != getattr(y, f):
            return False
    inner = ren
    if shape.binds:
        fwd, bwd = dict(ren[0]), dict(ren[1])
        for f, _ in shape.binds:
            a, b = getattr(x, f), getattr(y, f)
            fwd[a], bwd[b] = b, a
        inner = (fwd, bwd)
    for f, role, under in shape.parts:
        a, b = getattr(x, f), getattr(y, f)
        if a is None or b is None:
            if a is not b:
                return False
        elif not _ALPHA_PART[role](a, b, inner if under else ren):
            return False
    return True


_ALPHA_PART = {TERM: _alpha, QTYPE: _alpha_qtype, QUAL: _alpha_qual}
_NO_RENAMING = ({}, {})


def alpha_eq(a, b) -> bool:
    """Equality modulo consistent renaming of bound names."""
    if a is b:
        return True
    if isinstance(a, QualifiedType) and isinstance(b, QualifiedType):
        return _alpha_qtype(a, b, _NO_RENAMING)
    if isinstance(a, Qualifier) and isinstance(b, Qualifier):
        return a == b
    return _alpha(a, b, _NO_RENAMING)


# ---------------------------------------------------------------------------
# Scope checks


def well_scoped_qtype(qty: QualifiedType, env: TypeEnv, store: StoreTyping) -> bool:
    for a in free_atoms_qtype(qty):
        if type(a) is VarAtom:
            if env.binder(a.name) is None:
                return False
        elif a not in store.dom():
            return False
    return True


def telescope_ok(env: TypeEnv, store: StoreTyping) -> bool:
    """Each entry may only mention earlier entries (and store locations)."""
    seen = EMPTY_ENV
    taken = set()
    for e in env.entries:
        if isinstance(e, TermBind):
            if e.name in taken or not well_scoped_qtype(e.qtype, seen, store):
                return False
            taken.add(e.name)
        else:
            if e.tvar in taken or e.qvar in taken or e.tvar == e.qvar:
                return False
            if not well_scoped_qtype(e.bound, seen, store):
                return False
            taken.update({e.tvar, e.qvar})
        seen = seen.extended(e)
    return True
