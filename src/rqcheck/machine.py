"""Call-by-value small-step reduction with a store, plus runtime
validation of the preservation, progress, and separation properties.

The machine runs on a `Configuration`, after Danvy and Nielsen's
refocusing ("Refocusing in Reduction Semantics", 2004): a focus term,
its pending substitution (variables to closed values, type and
qualifier variables to a closed type argument), and a stack of frames,
each a node, its pending substitution and the values of its evaluation
positions before the hole. A step searches for the next redex from the
focus, not from the root: it focuses each evaluation position of a node
in turn, looks a variable up in the pending substitution (not a step),
and appends a value to the top frame's values, which the node's rule
reads. No rule rewrites the rest of the program: `Let x = v in b` goes
on with b under the substitution extended by x ↦ v, in place when
nothing else reads it (see `Configuration`), β with the body under
{self ↦ fn, param ↦ arg} alone, and β_t under {self ↦ fn, X^x ↦ T^q}.

The pending substitution is applied to a value in focus, once; to a
redex's annotations (the type argument of β_t); and by
`Configuration.plug`. So frames hold closed values, and as only closed
values and types enter it, applying it at once equals applying its
bindings one at a time, as the eager rules did.

`step` takes a term or a configuration. Given a configuration it
advances it in place, so a step costs the search from the last redex,
not a walk over the program; given a term it splits, steps and plugs.

The store is one dict, location to value, that the rules write in
place: `ref` allocates at `len(store)`, as no cell is ever freed, and
`:=` overwrites its cell. A run, or the two sides of a separation
experiment, write one store; no step copies it.

`eval_term` and both harnesses step one configuration each. The
harnesses re-type it after every step with one `typecheck.Retyper` per
side, which keeps one typing record per frame, and for a focus that is
a let spine; a spine of two or more bindings, at any depth, keeps each
binding's conclusion and the entries its typing read. It types again
only the focus, the frames above it whose hole's conclusion changed,
and the bindings whose term or read entries changed, and stops where a
conclusion comes back the same (its docstring says why that is exact).
Nothing plugs the term but a final report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from .qualifiers import overlap, q_grow, qual_sub, saturate
from .errors import CheckError
from .syntax import (
    EMPTY_ENV, EMPTY_SUBSTITUTION, SHAPES, Abs, App, Ascribe, Assign, Deref,
    Let, LocAtom, LocTerm, QualifiedType, Qualifier, RefAlloc, StoreTyping,
    TAbs, TApp, Term, UnitLit, Var, alpha_eq, filled, free_atoms_qtype,
    free_term_atoms, is_value, map_parts,
)
from .subtyping import type_sub
from .typecheck import Retyper, check_program

DEFAULT_EVAL_FUEL = 100_000


@dataclass(slots=True)
class Event:
    rule: str                    # beta, beta_t, ref, deref, assign
    loc: Optional[int] = None


class Configuration:
    """A term split into the focus, the focus's pending substitution
    and the frames of the evaluation context around it, innermost last:
    (node, its pending substitution, the closed values of its evaluation
    positions before the hole, whether it owns that substitution).

    Between steps the configuration owns its substitution unless that is
    `EMPTY_SUBSTITUTION` (a rule returns it or one it built). A frame
    pushed with an owned substitution takes the ownership, and the node's
    positions are evaluated without it. A frame's `Let` that took it
    grows it in place when it fires; every other let-β copies it, as a
    frame below may still read it (`val y = 5; val x = (val y = 1; y);
    y` must read the last y as 5)."""

    __slots__ = ("focus", "sub", "frames")

    def __init__(self, t: Term):
        self.focus, self.sub, self.frames = t, EMPTY_SUBSTITUTION, []

    def done(self) -> bool:
        """Whether the whole term is a value: no frame is left, and the
        focus is a value or a variable its substitution binds."""
        return not self.frames and (
            is_value(self.focus)
            or type(self.focus) is Var and self.focus.name in self.sub.values)

    def plug(self) -> Term:
        """The whole term, every pending substitution applied."""
        t = self.sub.term(self.focus)
        for node, sub, vals, _ in reversed(self.frames):
            t = sub.term(filled(node, vals + [t]))
        return t


@dataclass
class Stepped:
    term: Union[Term, Configuration]   # what step was given, one step on
    store: dict                        # the store step was given and wrote
    event: Event


@dataclass
class Value:
    term: Term


@dataclass
class Stuck:
    reason: str


def erase_ascriptions(t: Term) -> Term:
    """Drop every ascription node. The machine reduces ascriptions on
    its own; this is only for tests that compare term skeletons."""
    if isinstance(t, Ascribe):
        return erase_ascriptions(t.term)
    return map_parts(t, term=erase_ascriptions)


# Reduction rules, one per redex form. Each reads its evaluation positions
# (SHAPES[...].evals) as closed values from `vals`, with the node's
# pending substitution `sub` (owned by its frame if `owned`) still to
# apply to its annotations, writes the store in place if it allocates or
# assigns, and returns the term to go on with, that term's pending
# substitution (EMPTY_SUBSTITUTION or one it built) and the event; or Stuck.


def _beta(t: App, vals, sub, owned, store: dict):
    fn, arg = vals
    if not isinstance(fn, Abs):
        return Stuck("applied a non-function value")
    # one new substitution; the parameter wins a name it shares with self
    body_sub = EMPTY_SUBSTITUTION.extended(fn.self_name, fn)
    return fn.body, body_sub.extended(fn.param, arg, True), Event("beta")


def _beta_t(t: TApp, vals, sub, owned, store: dict):
    fn = vals[0]
    if not isinstance(fn, TAbs):
        return Stuck("type-applied a non-type-abstraction value")
    body_sub = EMPTY_SUBSTITUTION.extended(fn.self_name, fn)
    body_sub = body_sub.with_type(fn.tvar, fn.qvar, sub(t.arg))
    return fn.body, body_sub, Event("beta_t")


def _ref(t: RefAlloc, vals, sub, owned, store: dict):
    loc = len(store)
    store[loc] = vals[0]
    return LocTerm(loc), EMPTY_SUBSTITUTION, Event("ref", loc)


def _deref(t: Deref, vals, sub, owned, store: dict):
    if not isinstance(vals[0], LocTerm) or vals[0].loc not in store:
        return Stuck("dereferenced a non-location")
    loc = vals[0].loc
    return store[loc], EMPTY_SUBSTITUTION, Event("deref", loc)


def _assign(t: Assign, vals, sub, owned, store: dict):
    if not isinstance(vals[0], LocTerm) or vals[0].loc not in store:
        return Stuck("assigned to a non-location")
    loc = vals[0].loc
    store[loc] = vals[1]
    return UnitLit(), EMPTY_SUBSTITUTION, Event("assign", loc)


def _let(t: Let, vals, sub, owned, store: dict):
    return t.body, sub.extended(t.name, vals[0], owned), Event("beta")


def _ascribe(t: Ascribe, vals, sub, owned, store: dict):
    # ascriptions evaluate their subject, then vanish; keeping them
    # until that point lets every intermediate term re-typecheck
    return vals[0], EMPTY_SUBSTITUTION, Event("ascribe")


_RULES = {App: _beta, TApp: _beta_t, RefAlloc: _ref, Deref: _deref,
          Assign: _assign, Let: _let, Ascribe: _ascribe}


def step(t: Union[Term, Configuration],
         store: dict) -> Union[Stepped, Value, Stuck]:
    """One leftmost-innermost reduction step.

    The evaluation positions of a node are reduced to values left to
    right; when every one holds a value the node's own rule fires. A
    term is split into a configuration, stepped and plugged again; a
    configuration is stepped in place and is the `term` of the result.
    A step that allocates or assigns writes `store` in place."""
    c = t if type(t) is Configuration else Configuration(t)
    out = _transition(c, store)
    if c is t or type(out) is not Stepped:
        return out
    return Stepped(c.plug(), store, out.event)


def _transition(c: Configuration, store: dict) -> Union[Stepped, Value, Stuck]:
    t, sub, frames = c.focus, c.sub, c.frames
    owned = sub is not EMPTY_SUBSTITUTION
    while True:
        if type(t) is Var:
            v = sub.values.get(t.name)
            if v is None:     # sub leaves t as it is
                c.focus, c.sub = t, EMPTY_SUBSTITUTION
                return Stuck(f"open or ill-formed term: {t!r}")
        elif is_value(t):
            v = sub.term(t)
        else:
            frames.append((t, sub, [], owned))
            t, owned = getattr(t, SHAPES[type(t)].evals[0]), False
            continue
        # v is a closed value: append it to the top frame's values
        if not frames:
            c.focus, c.sub = v, EMPTY_SUBSTITUTION
            return Value(v)
        t, sub, vals, owned = frames[-1]
        vals.append(v)
        evals = SHAPES[type(t)].evals
        if len(vals) < len(evals):
            t, owned = getattr(t, evals[len(vals)]), False
            continue
        frames.pop()
        out = _RULES[type(t)](t, vals, sub, owned, store)
        if type(out) is Stuck:
            c.focus, c.sub = sub.term(filled(t, vals)), EMPTY_SUBSTITUTION
            return out
        c.focus, c.sub, event = out
        return Stepped(c, store, event)


@dataclass
class EvalResult:
    status: str                  # "value", "stuck", or "fuel"
    term: Optional[Term] = None
    store: Optional[dict] = None
    steps: int = 0
    reason: str = ""
    events: List[Event] = field(default_factory=list)


def eval_term(t: Term, fuel: int = DEFAULT_EVAL_FUEL) -> EvalResult:
    """Run t from an empty store; the result holds the store it wrote."""
    store: dict = {}
    events: List[Event] = []
    config = Configuration(t)
    for i in range(fuel):
        out = step(config, store)
        if isinstance(out, Value):
            return EvalResult("value", out.term, store, i, events=events)
        if isinstance(out, Stuck):
            return EvalResult("stuck", config.plug(), store, i, out.reason, events)
        events.append(out.event)
    return EvalResult("fuel", config.plug(), store, fuel, "fuel exhausted", events)


def store_wf(sigma: StoreTyping) -> bool:
    """Entries are closed, mention only stored locations, and are
    saturation fixpoints."""
    dom = sigma.dom()
    for entry in sigma.mapping.values():
        if not free_atoms_qtype(entry) <= dom:
            return False
        if saturate(EMPTY_ENV, sigma, entry.q) != entry.q:
            return False
    return True


def _extend_store_typing(sigma: StoreTyping, store: dict, loc: int) -> StoreTyping:
    """Type a newly allocated cell from its value, saturated for ⊢ Σ."""
    result = check_program(EMPTY_ENV, sigma, store[loc])
    entry = QualifiedType(result.qtype.ty,
                          saturate(EMPTY_ENV, sigma, result.qtype.q))
    return sigma.extended(loc, entry)


@dataclass
class StepReport:
    index: int
    rule: str
    witness: frozenset        # newly allocated locations
    q_before: Qualifier
    q_after: Optional[Qualifier]   # None: the new term was rejected
    ok: bool
    detail: str = ""


@dataclass
class PreservationReport:
    ok: bool
    status: str               # final evaluation status, or "ill-typed"
    steps: List[StepReport] = field(default_factory=list)
    final_term: Optional[Term] = None


def check_preservation(t: Term, sigma0: StoreTyping,
                       fuel: int = DEFAULT_EVAL_FUEL) -> PreservationReport:
    """Re-typecheck after every step and verify qualifier growth.

    After a step the new qualifier must be derivably below the previous
    one grown with the newly allocated locations (growth only applies at
    the freshness marker), and the new type part below the previous one.
    Each configuration is typed as `check_program(TypeEnv(), Σ, t)`
    types the term it plugs to (see `Retyper`). The run starts from an
    empty store. A term the checker rejects ends the run with a failed
    step whose detail names the error code, and the status "ill-typed".
    """
    store: dict = {}
    sigma = sigma0
    retype, c = Retyper(), Configuration(t)
    qty = retype(sigma, c)
    report = PreservationReport(True, "value")
    for i in range(fuel):
        out = step(c, store)
        if isinstance(out, Value):
            report.final_term = out.term
            return report
        if isinstance(out, Stuck):
            report.ok = False
            report.status = f"stuck: {out.reason}"
            return report
        new_locs = frozenset()
        if out.event.rule == "ref":
            sigma = _extend_store_typing(sigma, store, out.event.loc)
            new_locs = frozenset({LocAtom(out.event.loc)})
        try:
            qty2 = retype(sigma, c)
        except CheckError as exc:
            report.steps.append(StepReport(
                i, out.event.rule, new_locs, qty.q, None, False,
                f"re-typing rejected [{exc.code}]: {exc.detail}"))
            report.ok, report.status = False, "ill-typed"
            return report
        q_after = qty2.q
        witness = Qualifier(False, new_locs)
        expected = q_grow(qty.q, witness)
        ok = qual_sub(EMPTY_ENV, sigma, q_after, expected)
        detail = "" if ok else "qualifier not below the grown previous one"
        if ok and not (alpha_eq(qty2.ty, qty.ty)
                       or type_sub(EMPTY_ENV, sigma, qty2.ty, qty.ty)):
            ok = False
            detail = "type part not below the previous one"
        report.steps.append(StepReport(i, out.event.rule, new_locs,
                                       qty.q, q_after, ok, detail))
        if not ok:
            report.ok = False
        qty = qty2
    report.status = "fuel"
    return report


@dataclass
class SeparationReport:
    ok: bool
    premise_ok: bool
    steps: List[str] = field(default_factory=list)
    detail: str = ""
    final_locs: Tuple[frozenset, frozenset] = (frozenset(), frozenset())
    finished: bool = False    # both sides are values: fuel did not cut the run


def _reachable_locs(t: Term, store: dict) -> frozenset:
    locs = {a.loc for a in free_term_atoms(t, annotations=True)
            if isinstance(a, LocAtom)}
    work = list(locs)
    while work:
        l = work.pop()
        v = store.get(l)
        if v is None:
            continue
        for a in free_term_atoms(v, annotations=True):
            if isinstance(a, LocAtom) and a.loc not in locs:
                locs.add(a.loc)
                work.append(a.loc)
    return frozenset(locs)


def separation_experiment(t1: Term, t2: Term, sigma0: StoreTyping,
                          store0: Optional[dict] = None,
                          fuel: int = DEFAULT_EVAL_FUEL) -> SeparationReport:
    """Interleave two reductions in a shared store and check that their
    qualifiers stay disjoint (overlap within the freshness marker).

    The side that stepped is re-typed after every step, as
    `check_program` types it, by its side's own `Retyper`, whose records
    follow its own configuration. The other side keeps its qualified
    type: its term is the same, and Σ only grew. A side the checker
    rejects after a step ends the run, not ok, with the error code in
    the detail. The run writes a copy of `store0` (cells 0 to n-1, as a
    run allocates them), never the caller's dict."""
    store = dict(store0 or {})
    sigma = sigma0
    retype = (Retyper(), Retyper())
    configs = (Configuration(t1), Configuration(t2))
    q1 = retype[0](sigma, configs[0]).q
    q2 = retype[1](sigma, configs[1]).q
    ov = overlap(EMPTY_ENV, sigma, q1, q2)
    if ov.atoms:
        return SeparationReport(False, False,
                                detail=f"premise failed: overlap has {len(ov.atoms)} atoms")
    report = SeparationReport(True, True)
    quals = [q1, q2]
    for i in range(fuel):
        side = i % 2
        if configs[0].done() and configs[1].done():
            break
        if configs[side].done():
            side = 1 - side
        out = step(configs[side], store)
        if isinstance(out, Stuck):
            report.ok = False
            report.detail = f"side {side + 1} stuck: {out.reason}"
            return report
        if out.event.rule == "ref":
            sigma = _extend_store_typing(sigma, store, out.event.loc)
        try:
            quals[side] = retype[side](sigma, configs[side]).q
        except CheckError as exc:
            report.ok = False
            report.detail = (f"side {side + 1} re-typing rejected at step {i} "
                             f"[{exc.code}]: {exc.detail}")
            return report
        ov = overlap(EMPTY_ENV, sigma, quals[0], quals[1])
        report.steps.append(
            f"step {i}: q1 atoms={len(quals[0].atoms)} q2 atoms={len(quals[1].atoms)} "
            f"overlap atoms={len(ov.atoms)}")
        if ov.atoms:
            report.ok = False
            report.detail = f"disjointness violated at step {i}"
            return report
    report.finished = configs[0].done() and configs[1].done()
    locs1 = _reachable_locs(configs[0].plug(), store)
    locs2 = _reachable_locs(configs[1].plug(), store)
    report.final_locs = (locs1, locs2)
    if locs1 & locs2:
        report.ok = False
        report.detail = "final location graphs share nodes"
    return report
