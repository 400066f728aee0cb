"""The audited claims: one registry over facts computed once per graph.

`Facts` holds one graph and a deadline.  Each fact the checks read
(connectivity, a minimum dominating set and its size gamma, i, the minimum
dominating sets, the 0-mod-3 cycle listing, its seamless families and
their marked exclusive groups) is computed on first read and kept; a
`SolverTimeout` is kept as well, so a later read raises it again without
running the solver a second time.

`CHECKS` maps each check name, written nowhere else, to a `Check`: a gate
that returns a skip reason (or None) from the cheap structural facts, and
an evaluator that returns an `AuditVerdict`.  The sweep serializes those
verdicts and the acceptance criteria run the same evaluators over their
corpora, so each claim is written down here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Callable

from .cycles import Cycle, mod3_cycles
from .domination import (
    ENUM_GUARD,
    DominationCertificate,
    DsetEnumeration,
    SolverTimeout,
    enumerate_min_dsets,
    gamma_exact,
    idom_exact,
    induced_edge_count,
    is_dominating,
)
from .graphs import Edge, Graph, delete_edges, is_connected, is_cubic, vertex_connectivity
from .reduction import (
    AuditVerdict,
    check_detach_fact,
    check_pair_separation,
    find_forbidden_core,
    find_induced_claw,
    removable_edges,
)
from .seams import CycleCollection, MarkedGroup, exclusive_groups, family_dset_audit, seamless_families

# enumeration cap keeping per-graph audit work bounded
DSET_CAP = 5000


def _fact(compute):
    """Property computed on first read and kept, a `SolverTimeout` included."""
    name = compute.__name__

    def read(self):
        memo = self._memo
        if name not in memo:
            try:
                memo[name] = compute(self)
            except SolverTimeout as exc:
                memo[name] = exc
        value = memo[name]
        if isinstance(value, SolverTimeout):
            raise value.with_traceback(None)
        return value

    return property(read, doc=compute.__doc__)


class Facts:
    """Facts about one graph that the checks share; each is computed once.

    `deadline` (a `time.monotonic()` value) bounds the exact solvers, the
    cycle listing and the family pipeline; the structural facts the gates
    read never time out.  The i solve starts from `gamma_set`: every check
    that reads i reads gamma first, so this adds no solve, and when the
    gamma solve ran out of budget, i is solved without it.
    """

    def __init__(self, g: Graph, deadline: float | None = None) -> None:
        self.g = g
        self.deadline = deadline
        self._memo: dict[str, object] = {}

    @_fact
    def connected(self) -> bool:
        return is_connected(self.g)

    @_fact
    def cubic(self) -> bool:
        return is_cubic(self.g)

    @_fact
    def connectivity(self) -> int:
        return vertex_connectivity(self.g) if self.g.n else 0

    @_fact
    def gamma_set(self) -> DominationCertificate:
        """A minimum dominating set; `gamma` is its size."""
        return gamma_exact(self.g, deadline=self.deadline)

    @property
    def gamma(self) -> int:
        return self.gamma_set.size

    @_fact
    def idom(self) -> int:
        try:
            gamma = self.gamma_set
        except SolverTimeout:
            gamma = None
        return idom_exact(self.g, deadline=self.deadline, gamma=gamma).size

    @_fact
    def min_dsets(self) -> DsetEnumeration:
        """Minimum dominating sets in lexicographic order, at most DSET_CAP."""
        return enumerate_min_dsets(self.g, self.gamma, limit=DSET_CAP)

    @_fact
    def mod3_cycles(self) -> tuple[Cycle, ...]:
        """The 0-mod-3 cycles, shortest first."""
        return mod3_cycles(self.g, deadline=self.deadline)

    @_fact
    def families(self) -> tuple[CycleCollection, ...]:
        """The seamless families of `mod3_cycles`, by smallest cycle."""
        return seamless_families(self.mod3_cycles, deadline=self.deadline)

    @_fact
    def groups(self) -> tuple[tuple[MarkedGroup, ...], ...]:
        """Per family, its exclusive groups with their spaced mark sets."""
        return exclusive_groups(self.families, deadline=self.deadline)

    @_fact
    def min_edge_dsets(self) -> tuple[list[frozenset[int]], int]:
        """The sets of `min_dsets` inducing the fewest edges, and that count."""
        counts = [(induced_edge_count(self.g, d), d) for d in self.min_dsets.dsets]
        floor = min(c for c, _ in counts)
        return [d for c, d in counts if c == floor], floor


@dataclass(frozen=True)
class Check:
    """One audited claim: where it applies, and its verdict there."""

    gate: Callable[[Facts], str | None]
    evaluate: Callable[[Facts], AuditVerdict]


def _no_gate(f: Facts) -> str | None:
    return None


def _enumeration_gate(f: Facts) -> str | None:
    return f"n > {ENUM_GUARD}" if f.g.n > ENUM_GUARD else None


def _subcubic_enumeration_gate(f: Facts) -> str | None:
    return "max degree > 3" if f.g.max_degree() > 3 else _enumeration_gate(f)


def _connected_cubic_gate(f: Facts) -> str | None:
    # the 0-vertex graph is cubic and connected only vacuously
    return None if f.g.n and f.cubic and f.connected else "not a connected cubic graph"


def _three_connected_gate(f: Facts) -> str | None:
    return "connectivity < 3" if f.connectivity < 3 else None


def _gamma_equals_idom(f: Facts) -> AuditVerdict:
    numbers = {"gamma": f.gamma, "idom": f.idom}
    if f.gamma != f.idom:
        return AuditVerdict(False, witness=numbers)
    return AuditVerdict(True, info=numbers)


def _claw_free_equal(f: Facts) -> AuditVerdict:
    """Claw-free graphs have gamma = i."""
    claw = find_induced_claw(f.g)
    if claw is not None:
        return AuditVerdict(True, vacuous=True, info={"claw": list(claw)})
    return _gamma_equals_idom(f)


def _core_free_equal(f: Facts) -> AuditVerdict:
    """Graphs with no adjacent pair of degree >= 3 have gamma = i."""
    core = find_forbidden_core(f.g)
    if core is not None:
        return AuditVerdict(True, vacuous=True, info={"core": list(core)})
    return _gamma_equals_idom(f)


def _pair_separation(f: Facts) -> AuditVerdict:
    """Every minimum-edge minimum dominating set separates its induced pairs."""
    keepers, floor = f.min_edge_dsets
    vacuous = 0
    for dset in keepers:
        verdict = check_pair_separation(f.g, dset)
        if not verdict.holds:
            return verdict
        if verdict.vacuous:
            vacuous += 1
    info = {
        "dsets": len(keepers),
        "vacuous_dsets": vacuous,
        "min_induced_edges": floor,
        "truncated": f.min_dsets.truncated,
    }
    return AuditVerdict(True, vacuous=vacuous == len(keepers), info=info)


def _edge_removal(f: Facts) -> AuditVerdict:
    """Deleting any one removable edge keeps a minimum dominating set dominating.

    Each g - e is built the first time a set needs it and shared by every
    later set, so a graph builds at most one per edge.
    """
    g, enum = f.g, f.min_dsets
    without: dict[Edge, Graph] = {}
    checked = 0
    for dset in enum.dsets:
        for e in sorted(removable_edges(g, dset)):
            checked += 1
            if e not in without:
                without[e] = delete_edges(g, [e])
            if not is_dominating(without[e], dset):
                return AuditVerdict(False, witness={"set": sorted(dset), "edge": list(e)})
    info = {"dsets": len(enum.dsets), "edges_checked": checked, "truncated": enum.truncated}
    return AuditVerdict(True, info=info)


def _detach(f: Facts) -> AuditVerdict:
    """The detach fact for every minimum dominating set and every choice of
    at most two of its detachable vertices.  A minimum dominating set
    dominates g, so no choice is vacuous, and the fact holds (see
    `check_detach_fact`); `info` sums the choices over the sets."""
    g, enum = f.g, f.min_dsets
    checked = 0
    vacuous = 0
    for dset in enum.dsets:
        verdict = check_detach_fact(g, dset)
        checked += verdict.info["transforms"]
        vacuous += verdict.info["vacuous"]
    info = {
        "dsets": len(enum.dsets),
        "transforms": checked,
        "vacuous": vacuous,
        "truncated": enum.truncated,
    }
    return AuditVerdict(True, info=info)


def _third_bound(f: Facts) -> AuditVerdict:
    """gamma <= ceil(n/3) for a connected cubic graph; never vacuous."""
    numbers = {"gamma": f.gamma, "bound": ceil(f.g.n / 3)}
    if f.gamma > numbers["bound"]:
        return AuditVerdict(False, witness=numbers)
    return AuditVerdict(True, info=numbers)


def _excess_gamma(f: Facts) -> AuditVerdict:
    """A connected cubic graph with gamma > ceil(n/3) has gamma = i.

    Vacuous whenever the bound is respected, which at desk scale it always
    is; the interesting inputs arrive externally.
    """
    bound = ceil(f.g.n / 3)
    if f.gamma <= bound:
        return AuditVerdict(True, vacuous=True, info={"gamma": f.gamma, "bound": bound})
    numbers = {"gamma": f.gamma, "idom": f.idom, "bound": bound}
    if f.gamma != f.idom:
        return AuditVerdict(False, witness=numbers)
    return AuditVerdict(True, info=numbers)


def _mod3_nonempty(f: Facts) -> AuditVerdict:
    """A 3-connected graph contains a 0-mod-3 cycle."""
    cycles = f.mod3_cycles
    if not cycles:
        return AuditVerdict(False, witness={"n": f.g.n, "m": f.g.m})
    return AuditVerdict(True, info={"cycle": list(cycles[0].vertices)})


def _family_dset(f: Facts) -> AuditVerdict:
    gamma = f.gamma  # before the listing, so a gamma timeout skips it
    return family_dset_audit(f.g, f.groups, gamma, deadline=f.deadline)


CHECKS: dict[str, Check] = {
    "claw_free_equal": Check(_no_gate, _claw_free_equal),
    "core_free_equal": Check(_no_gate, _core_free_equal),
    "tight_pair_separation": Check(_subcubic_enumeration_gate, _pair_separation),
    "edge_removal": Check(_enumeration_gate, _edge_removal),
    "detach_transform": Check(_enumeration_gate, _detach),
    "third_bound": Check(_connected_cubic_gate, _third_bound),
    "excess_gamma_independent": Check(_connected_cubic_gate, _excess_gamma),
    "mod3_cycle_exists": Check(_three_connected_gate, _mod3_nonempty),
    "family_dset": Check(_three_connected_gate, _family_dset),
}
