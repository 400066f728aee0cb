import time

import pytest

from domlab import Graph, SolverTimeout, checks, cycles, domination, named_graph, random_cubic, seams
from domlab.checks import CHECKS, ENUM_GUARD, Facts


def verdict_of(check: str, g: Graph):
    facts = Facts(g)
    assert CHECKS[check].gate(facts) is None
    return CHECKS[check].evaluate(facts)


def gate_of(check: str, g: Graph) -> str | None:
    return CHECKS[check].gate(Facts(g))


def counting(monkeypatch, name: str, modules=(checks,)) -> list:
    """Make every module's `name` record each call's arguments in the
    returned list, as (args, kwargs)."""
    calls = []
    original = getattr(modules[0], name)

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, wrapper)
    return calls


def test_registry_names_every_check_once():
    assert list(CHECKS) == [
        "claw_free_equal", "core_free_equal", "tight_pair_separation", "edge_removal",
        "detach_transform", "third_bound", "excess_gamma_independent",
        "mod3_cycle_exists", "family_dset",
    ]


def test_claw_and_core_free_evaluators():
    v = verdict_of("claw_free_equal", named_graph("c6"))
    assert v.holds and not v.vacuous
    v = verdict_of("claw_free_equal", named_graph("k13"))
    assert v.vacuous
    v = verdict_of("core_free_equal", named_graph("petersen"))
    assert v.vacuous and v.info["core"] == [0, 1]
    v = verdict_of("core_free_equal", named_graph("c6"))
    assert v.holds and not v.vacuous


def test_excess_gamma_vacuous_on_small_cubic():
    v = verdict_of("excess_gamma_independent", named_graph("k4"))
    assert v.holds and v.vacuous and v.info == {"gamma": 1, "bound": 2}
    v = verdict_of("excess_gamma_independent", named_graph("petersen"))
    assert v.vacuous and v.info == {"gamma": 3, "bound": 4}
    assert gate_of("excess_gamma_independent", named_graph("c6")) == "not a connected cubic graph"


def test_third_bound_evaluator():
    v = verdict_of("third_bound", named_graph("k4"))
    assert v.holds and v.info == {"gamma": 1, "bound": 2}
    assert verdict_of("third_bound", named_graph("petersen")).holds
    assert gate_of("third_bound", named_graph("p4")) == "not a connected cubic graph"
    two_k4 = Graph.from_edges(8, [(u + s, v + s) for s in (0, 4)
                                  for u in range(4) for v in range(u + 1, 4)])
    assert gate_of("third_bound", two_k4) == "not a connected cubic graph"
    # the 0-vertex graph is cubic and connected only vacuously
    empty = Graph.from_edges(0, [])
    assert gate_of("third_bound", empty) == "not a connected cubic graph"
    assert gate_of("excess_gamma_independent", empty) == "not a connected cubic graph"


def test_mod3_cycle_exists_gate():
    assert verdict_of("mod3_cycle_exists", named_graph("k4")).holds
    assert verdict_of("mod3_cycle_exists", named_graph("petersen")).holds
    assert gate_of("mod3_cycle_exists", named_graph("c6")) == "connectivity < 3"


def test_enumeration_gates():
    big = random_cubic(ENUM_GUARD + 2, seed=1)
    for name in ("tight_pair_separation", "edge_removal", "detach_transform"):
        assert gate_of(name, big) == f"n > {ENUM_GUARD}"
    wheel = Graph.from_edges(6, [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)])
    assert gate_of("tight_pair_separation", wheel) == "max degree > 3"
    assert gate_of("edge_removal", wheel) is None


def test_the_enumeration_gate_admits_what_the_enumeration_runs():
    # the gate and the enumeration read one guard, so a graph on the
    # guard's edge is enumerated and one past it is gated out
    edge = Facts(Graph.from_edges(ENUM_GUARD, [(0, v) for v in range(1, ENUM_GUARD)]))
    assert CHECKS["edge_removal"].gate(edge) is None
    assert edge.min_dsets.dsets == (frozenset({0}),)
    past = Facts(Graph.from_edges(ENUM_GUARD + 1, []))
    assert CHECKS["edge_removal"].gate(past) == f"n > {ENUM_GUARD}"
    with pytest.raises(ValueError, match=f"guarded to n <= {ENUM_GUARD}"):
        domination.enumerate_min_dsets(past.g, ENUM_GUARD + 1)


class _Excess(Facts):
    """Facts whose gamma exceeds ceil(n/3) and differs from i."""

    gamma = 3
    idom = 4


def test_violation_witnesses():
    # K4 has gamma=1; the stub gives the evaluators a refuting pair of numbers
    k4 = named_graph("k4")
    v = CHECKS["third_bound"].evaluate(_Excess(k4))
    assert not v.holds and v.witness == {"gamma": 3, "bound": 2}
    v = CHECKS["excess_gamma_independent"].evaluate(_Excess(k4))
    assert not v.holds and v.witness == {"gamma": 3, "idom": 4, "bound": 2}
    v = CHECKS["claw_free_equal"].evaluate(_Excess(k4))
    assert not v.holds and v.witness == {"gamma": 3, "idom": 4}


def test_min_edge_dsets_keep_the_fewest_induced_edges():
    star = Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (6, 7)])
    facts = Facts(star)
    keepers, floor = facts.min_edge_dsets
    assert floor == 1
    assert keepers == [frozenset({0, 1, 6}), frozenset({0, 1, 7})]
    assert len(facts.min_dsets.dsets) == 2 and not facts.min_dsets.truncated


def test_facts_computed_once_per_graph(monkeypatch):
    gammas = counting(monkeypatch, "gamma_exact", (checks, domination))
    idoms = counting(monkeypatch, "idom_exact")
    enums = counting(monkeypatch, "enumerate_min_dsets")
    conns = counting(monkeypatch, "vertex_connectivity")
    listings = counting(monkeypatch, "all_simple_cycles", (cycles,))
    links = counting(monkeypatch, "try_ear_link", (seams,))
    families = counting(monkeypatch, "seamless_families")
    prune = seams.prune_nonexclusive
    links_in_prune = []

    def counted_prune(col):
        before = len(links)
        out = prune(col)
        links_in_prune.append(len(links) - before)
        return out

    monkeypatch.setattr(seams, "prune_nonexclusive", counted_prune)
    facts = Facts(named_graph("petersen"))
    for name, entry in CHECKS.items():
        assert entry.gate(facts) is None, name
        assert entry.evaluate(facts).holds, name
    assert (facts.gamma, facts.idom) == (3, 3)
    assert len(gammas) == 1  # the i solve reuses the gamma certificate
    assert [kwargs["gamma"] for _, kwargs in idoms] == [facts.gamma_set]
    assert len(enums) == 1  # shared by the three enumeration checks
    assert len(conns) == 1
    assert len(listings) == 1  # shared by mod3_cycle_exists and family_dset
    assert len(links) == 90  # one call per link of the 30 0-mod-3 cycles
    assert len(families) == 1 and facts.families == seams.seamless_families(facts.mod3_cycles)
    assert links_in_prune == [0]  # pruning reuses the family's links


def test_facts_keep_a_timeout(monkeypatch):
    calls = []

    def exhausted(g, *, deadline=None):
        calls.append(deadline)
        raise SolverTimeout("domination solve")

    monkeypatch.setattr(checks, "gamma_exact", exhausted)
    enums = counting(monkeypatch, "enumerate_min_dsets")
    deadline = time.monotonic() + 3600
    facts = Facts(named_graph("petersen"), deadline=deadline)
    for _ in range(2):
        with pytest.raises(SolverTimeout):
            facts.gamma
    with pytest.raises(SolverTimeout):
        facts.min_dsets
    with pytest.raises(SolverTimeout):
        CHECKS["family_dset"].evaluate(facts)
    assert calls == [deadline]
    assert enums == []
    # facts that need no solver are unaffected
    assert facts.connectivity == 3 and facts.idom == 3
    assert CHECKS["claw_free_equal"].evaluate(facts).vacuous


def test_idom_falls_back_to_an_unseeded_solve_after_a_gamma_timeout(monkeypatch):
    def exhausted(g, *, deadline=None):
        raise SolverTimeout("domination solve")

    monkeypatch.setattr(checks, "gamma_exact", exhausted)
    idoms = counting(monkeypatch, "idom_exact")
    facts = Facts(random_cubic(12, 1))
    with pytest.raises(SolverTimeout):
        facts.gamma
    assert facts.idom == 3
    assert [kwargs for _, kwargs in idoms] == [{"deadline": None, "gamma": None}]


@pytest.mark.parametrize("g", [named_graph("c6"), random_cubic(12, 1)], ids=["c6", "cubic12"])
def test_independent_gamma_certificate_needs_no_idom_search(monkeypatch, g):
    # unseeded, the i search branches on both graphs
    branches = counting(monkeypatch, "_idom_branch", (domination,))
    facts = Facts(g)
    assert domination.induced_edge_count(g, facts.gamma_set.members) == 0
    assert facts.idom == facts.gamma
    assert branches == []
    assert domination.idom_exact(g).size == facts.idom and branches
