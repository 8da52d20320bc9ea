"""Generated program families with answers derived by construction.

Each generator returns a `Program`: `.rq` source text plus the verdicts
the benchmark expects, worked out from the shape of the program and the
reduction rules (call-by-value, one event per step), never by running
rqcheck:

- `qtype`: the qualified type `rq check` prints;
- `value`, `store_size`, `steps`, `events`: what `rq eval` ends with;
- preservation holds on every step, so `rq eval --verify-preservation`
  reports `steps` verified steps.

`prefix` renames every top-level binder, so a seed can vary the text
without changing the shape. It must be a lowercase identifier that no
keyword starts with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict

EVENT_RULES = ("beta", "beta_t", "ref", "deref", "assign", "ascribe")


@dataclass(frozen=True)
class Program:
    family: str
    n: int
    text: str
    qtype: str
    value: str
    store_size: int
    steps: int
    events: Dict[str, int] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return f"{self.family}-{self.n}"


def _events(**counts: int) -> Dict[str, int]:
    return {rule: counts.get(rule, 0) for rule in EVENT_RULES}


def let_chain(n: int, prefix: str = "q") -> Program:
    """n references, each initialised from the previous one.

    Steps: `ref 0` then its let (2), then per further cell a deref, a
    ref and a let (3 each); the main variable is already a value.
    """
    r = [f"{prefix}r{i}" for i in range(n)]
    lines = [f"val {r[0]} = ref 0;"]
    lines += [f"val {r[i]} = ref (!{r[i - 1]});" for i in range(1, n)]
    lines.append(r[-1])
    return Program(
        "let_chain", n, "\n".join(lines) + "\n",
        qtype=f"Ref[Int]^{{{r[-1]}}}", value=f"@{n - 1}", store_size=n,
        steps=3 * n - 1, events=_events(ref=n, deref=n - 1, beta=n))


def assign_ring(n: int, prefix: str = "q") -> Program:
    """n references, then n assignments that pass the 1 in cell 0 around
    the ring (cell i+1 takes cell i, cell 0 takes cell n-1 last).

    Steps: ref + let per cell (2n), deref + assign + let per assignment
    (3n), and the final deref (1).
    """
    r = [f"{prefix}r{i}" for i in range(n)]
    lines = [f"val {r[0]} = ref 1;"]
    lines += [f"val {r[i]} = ref 0;" for i in range(1, n)]
    lines += [f"val {prefix}d{i} = {r[(i + 1) % n]} := !{r[i]};" for i in range(n)]
    lines.append(f"!{r[0]}")
    return Program(
        "assign_ring", n, "\n".join(lines) + "\n",
        qtype="Int^{}", value="1", store_size=n, steps=5 * n + 1,
        events=_events(ref=n, assign=n, deref=n + 1, beta=2 * n))


def closure_tower(n: int, prefix: str = "q") -> Program:
    """One cell and n closures, each calling the previous; the first
    reads the cell.

    Steps: ref + let for the cell (2), a let per closure (n), a beta per
    call down the tower (n) and the final deref (1).
    """
    c = f"{prefix}c"
    f = [f"{prefix}f{i}" for i in range(n)]
    lines = [f"val {c} = ref 7;",
             f"val {f[0]} = fn {f[0]}(u: Unit^{{}}) {{ !{c} }};"]
    lines += [f"val {f[i]} = fn {f[i]}(u: Unit^{{}}) {{ {f[i - 1]}(u) }};"
              for i in range(1, n)]
    lines.append(f"{f[-1]}(unit)")
    return Program(
        "closure_tower", n, "\n".join(lines) + "\n",
        qtype="Int^{}", value="7", store_size=1, steps=2 * n + 3,
        events=_events(ref=1, deref=1, beta=2 * n + 1))


_PAIR = """\
val {u} = ref {i2};
val {v} = ref {i2p1};
val {m} = tfn pr[C^c <: Top^{{{u},{v},*}}] {{
  fn g^{{{u},{v},c}}(k: (k1(x: Ref[Int]^{{{u}}}) => (k2(y: Ref[Int]^{{{v}}}) => C^{{c}})^{{x,*}})^{{*}}) : C^{{c}} {{
    k({u})({v})
  }}
}};
val {s} = fn {s}^{{{u},{v}}}(pp: (forall pr[C^c <: Top^{{{u},{v},*}}]. (g(k: (k1(x: Ref[Int]^{{{u}}}) => (k2(y: Ref[Int]^{{{v}}}) => C^{{c}})^{{x,*}})^{{*}}) => C^{{c}})^{{{u},{v},c}})^{{{u},{v}}}) {{
  pp[Ref[Int]^{{{u}}}](fn (x: Ref[Int]^{{{u}}}) {{ fn h^{{x}}(y: Ref[Int]^{{{v}}}) : Ref[Int]^{{x}} {{ x }} }})
}};
"""


def pair_tower(n: int, prefix: str = "q") -> Program:
    """n copies of the transparent Church pair; each copy projects its
    first component, and the last projection is the program's result.

    Per copy: two ref + let (4), a let each for the pair and the
    projection (2), then the projection: beta into the projection, beta_t
    into the pair, beta into its body, and two betas through the
    continuation (5). Every copy but the last binds its result (1 let).
    """
    parts = []
    for i in range(n):
        names = {k: f"{prefix}{k}{i}" for k in "uvms"}
        parts.append(_PAIR.format(i2=2 * i, i2p1=2 * i + 1, **names))
        call = f"{names['s']}({names['m']})"
        parts.append(f"val {prefix}p{i} = {call};\n" if i < n - 1 else call + "\n")
    return Program(
        "pair_tower", n, "".join(parts),
        qtype=f"Ref[Int]^{{{prefix}u{n - 1}}}", value=f"@{2 * n - 2}",
        store_size=2 * n, steps=12 * n - 1,
        events=_events(ref=2 * n, beta_t=n, beta=9 * n - 1))


FAMILIES: Dict[str, Callable[..., Program]] = {
    "let_chain": let_chain,
    "assign_ring": assign_ring,
    "closure_tower": closure_tower,
    "pair_tower": pair_tower,
}
