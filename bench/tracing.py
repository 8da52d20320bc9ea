"""Span tracing installed from outside the program.

`Tracer.install` replaces each traced function with a wrapper that
records one span (name, start, end, parent) per call in flat arrays,
and `Tracer.uninstall` puts the originals back. A function imported
with `from .x import f` is bound separately in every importing module,
so the wrapper is installed on every `rqcheck` module attribute that
holds the original; otherwise calls across modules would go unseen.
Self-recursive functions (`machine.step`) are wrapped in their own
module too, so every level of the descent is a span.

Functions not listed here run inside the span of their caller and count
toward its self time.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from families import EVENT_RULES

MODULES = ("cli", "surface", "typecheck", "subtyping", "qualifiers",
           "syntax", "machine")

# (module, qualified attribute): the public functions given a span each
TRACED: Tuple[Tuple[str, str], ...] = (
    ("cli", "check_source"),
    ("surface", "tokenize"),
    ("surface", "parse"),
    ("surface", "parse_pair"),
    ("surface", "elaborate"),
    ("surface", "pretty"),
    ("typecheck", "synthesize"),
    ("typecheck", "check_program"),
    ("subtyping", "type_sub"),
    ("subtyping", "qtype_sub"),
    ("qualifiers", "qual_sub"),
    ("qualifiers", "saturate"),
    ("qualifiers", "overlap"),
    ("qualifiers", "q_grow"),
    ("syntax", "TypeEnv.dom"),
    ("syntax", "StoreTyping.dom"),
    ("syntax", "subst_term"),
    ("syntax", "subst_qtype_in_term"),
    ("syntax", "alpha_eq"),
    ("syntax", "well_scoped_qtype"),
    ("syntax", "telescope_ok"),
    ("machine", "step"),
    ("machine", "eval_term"),
    ("machine", "check_preservation"),
    ("machine", "separation_experiment"),
)

ROOT = "bench.op"


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self._patches: List[Tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        """A wrapper recording a span per call; `observe(counts, args,
        result, parent_name)` sees each result that returns normally."""
        nid = self._id(name)
        clock = time.perf_counter_ns
        stack, names = self._stack, self.names
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        counts = self.counts
        raised = name + ".raised"

        def traced(*args, **kwargs):
            idx = len(name_of)
            up = stack[-1] if stack else -1
            name_of.append(nid)
            parent.append(up)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                end[idx] = clock()
                stack.pop()
                counts[raised] += 1
                raise
            end[idx] = clock()
            stack.pop()
            if observe is not None:
                observe(counts, args, result,
                        names[name_of[up]] if up >= 0 else None)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, observers: Dict[str, Callable]):
        for module, attr in TRACED:
            name = f"{module}.{attr}"
            owner_name, _, fname = attr.rpartition(".")
            home = sys.modules[f"rqcheck.{module}"]
            if owner_name:
                owner = getattr(home, owner_name)
                original = owner.__dict__[fname]
                self._patch(owner, fname, self.wrap(name, original,
                                                    observers.get(name)))
                continue
            original = getattr(home, fname)
            wrapper = self.wrap(name, original, observers.get(name))
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("rqcheck.") and \
                        getattr(mod, fname, None) is original:
                    self._patch(mod, fname, wrapper)

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation -----------------------------------------------------

    @staticmethod
    def span_cost_ns(calls: int = 5000, trials: int = 5) -> float:
        """What one child span adds to its parent's self time outside
        the child's own [start, end]: the wrapper's bookkeeping. Median
        over trials of (wrapped call - recorded span - plain call)."""
        def noop():
            return None

        clock = time.perf_counter_ns
        costs = []
        for _ in range(trials):
            tracer = Tracer()
            wrapped = tracer.wrap("calibration", noop)
            t0 = clock()
            for _ in range(calls):
                noop()
            plain = clock() - t0
            t0 = clock()
            for _ in range(calls):
                wrapped()
            total = clock() - t0
            recorded = sum(tracer.end) - sum(tracer.start)
            costs.append((total - recorded - plain) / calls)
        return max(0.0, sorted(costs)[trials // 2])

    def aggregate(self, span_cost_ns: float = 0.0) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans of
        that name only, so recursion is not counted twice) and self
        seconds (duration minus the time covered by child spans, minus
        `span_cost_ns` per child for the tracer's own bookkeeping)."""
        n = len(self.name_of)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        parent, name_of = self.parent, self.name_of
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i] + span_cost_ns
        calls = [0] * len(self.names)
        incl = [0] * len(self.names)
        self_ns = [0.0] * len(self.names)
        for i in range(n):
            k = name_of[i]
            calls[k] += 1
            self_ns[k] += dur[i] - child[i]
            p = parent[i]
            if p < 0 or name_of[p] != k:
                incl[k] += dur[i]
        return {name: {"calls": calls[k], "s": incl[k] / 1e9,
                       "self_s": self_ns[k] / 1e9}
                for k, name in enumerate(self.names)}

    def write(self, path: str):
        """Spans as a JSON header line followed by the raw columns
        (name id u16, parent i64, start ns i64, end ns i64)."""
        with open(path, "wb") as out:
            header = {"names": self.names, "spans": len(self.name_of),
                      "columns": ["name_of:H", "parent:l", "start_ns:q",
                                  "end_ns:q"],
                      "byteorder": sys.byteorder}
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_of, self.parent, self.start, self.end):
                column.tofile(out)


# ---------------------------------------------------------------------------
# Counts observed at span boundaries, and the per-layer metrics


def _count_into(key: str, measure: Callable[[object], int]):
    def observe(counts, args, result, parent):
        counts[key] += measure(result)
    return observe


def _observe_step(counts, args, result, parent):
    # only the outermost call of a descent is a reduction step
    if parent == "machine.step" or not hasattr(result, "event"):
        return
    counts["machine.steps"] += 1
    counts[f"machine.events.{result.event.rule}"] += 1
    cells = len(result.store)
    if cells > counts["machine.store_cells"]:
        counts["machine.store_cells"] = cells


def _observe_recheck(counts, args, result, parent):
    if parent in ("machine.check_preservation", "machine.separation_experiment"):
        counts["machine.rechecks"] += 1


def observers() -> Dict[str, Callable]:
    return {
        "surface.tokenize": _count_into("surface.tokens", len),
        "typecheck.synthesize": _count_into("typecheck.trace_len",
                                            lambda r: len(r.trace)),
        "typecheck.check_program": _observe_recheck,
        "subtyping.type_sub": _count_into("subtyping.type_sub.true", bool),
        "qualifiers.qual_sub": _count_into("qualifiers.qual_sub.true", bool),
        "qualifiers.saturate": _count_into("qualifiers.saturate.out_atoms",
                                           lambda r: len(r.atoms)),
        "machine.step": _observe_step,
    }


def exact_counts(agg: Dict[str, Dict[str, float]], counts: Counter,
                 extra: Counter) -> Dict[str, int]:
    """Every count a traced round must repeat exactly on the same inputs."""
    out = {f"{name}.calls": stats["calls"] for name, stats in agg.items()}
    out.update(counts)
    out.update({k: v for k, v in extra.items() if k.startswith("oracle.")})
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(agg: Dict[str, Dict[str, float]], counts: Counter,
                  extra: Counter) -> Dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, except the
    overhead and span count, which need the untraced round."""
    def stat(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0)

    m: Dict[str, float] = {}
    for module in MODULES:
        m[f"{module}.self_s"] = sum(s["self_s"] for name, s in agg.items()
                                    if name.startswith(module + "."))
    for module, attr in TRACED:
        name = f"{module}.{attr}"
        m[f"{name}.calls"] = stat(name, "calls")
        m[f"{name}.s"] = stat(name, "s")
        m[f"{name}.self_s"] = stat(name, "self_s")
    m["surface.tokens"] = counts["surface.tokens"]
    m["typecheck.trace_len"] = counts["typecheck.trace_len"]
    m["typecheck.rejections"] = counts["typecheck.synthesize.raised"]
    m["subtyping.type_sub.true_ratio"] = _ratio(
        counts["subtyping.type_sub.true"], stat("subtyping.type_sub", "calls"))
    m["qualifiers.qual_sub.true_ratio"] = _ratio(
        counts["qualifiers.qual_sub.true"], stat("qualifiers.qual_sub", "calls"))
    m["qualifiers.qual_sub.us_per_call"] = 1e6 * _ratio(
        stat("qualifiers.qual_sub", "s"), stat("qualifiers.qual_sub", "calls"))
    m["qualifiers.saturate.out_atoms"] = counts["qualifiers.saturate.out_atoms"]
    m["machine.steps"] = counts["machine.steps"]
    m["machine.step.descent_per_step"] = _ratio(
        stat("machine.step", "calls"), counts["machine.steps"])
    for rule in EVENT_RULES:
        m[f"machine.events.{rule}"] = counts[f"machine.events.{rule}"]
    m["machine.store_cells"] = counts["machine.store_cells"]
    m["machine.rechecks"] = counts["machine.rechecks"]
    m["oracle.unsound"] = extra["oracle.unsound"]
    m["oracle.gaps"] = extra["oracle.gaps"]
    m["trace.unattributed_share"] = _ratio(stat(ROOT, "self_s"), stat(ROOT, "s"))
    return m
