"""The family pipeline on every 3-connected graph of the networkx atlas.

`networkx.graph_atlas_g()` lists all 1,253 graphs on at most seven
vertices, up to isomorphism; 157 of them are 3-connected (by networkx's
own connectivity).  On each, the seamless families and their links must
equal those of one `try_ear_link` test per cycle pair, walked as a pair
list, and the exclusive groups those of the fixpoint prune.  Two facts
about the whole atlas are pinned: the family audit misses gamma on 37
graphs, while marking a single 0-mod-3 cycle in one residue class and
adding the lone vertices the marks miss reaches gamma on all 157.
"""

from functools import lru_cache

import pytest

nx = pytest.importorskip("networkx")

from domlab import Graph, gamma_exact, is_dominating, mod3_cycles, prune_nonexclusive, seamless_families
from domlab.checks import CHECKS, Facts
from domlab.seams import family_links

from _oracles import prune_nonexclusive_by_fixpoint, seamless_families_by_pair_tests


@lru_cache(maxsize=1)
def atlas_graphs() -> tuple[Graph, ...]:
    return tuple(
        Graph.from_edges(h.number_of_nodes(), h.edges())
        for h in nx.graph_atlas_g()
        if h.number_of_nodes() >= 4 and nx.node_connectivity(h) >= 3
    )


def test_atlas_holds_157_three_connected_graphs():
    assert len(atlas_graphs()) == 157


def test_families_and_groups_match_the_oracles_on_the_atlas():
    for g in atlas_graphs():
        cycles = mod3_cycles(g)
        families = seamless_families(cycles)
        expected = seamless_families_by_pair_tests(cycles)
        assert tuple((fam, family_links(fam)) for fam in families) == expected, g.edges()
        for fam in families:
            assert prune_nonexclusive(fam) == prune_nonexclusive_by_fixpoint(fam), g.edges()


def test_family_dset_misses_gamma_on_37_atlas_graphs():
    check = CHECKS["family_dset"]
    verdicts = []
    for g in atlas_graphs():
        facts = Facts(g)
        assert check.gate(facts) is None
        verdicts.append(check.evaluate(facts).holds)
    assert verdicts.count(False) == 37


def single_cycle_candidate(g: Graph) -> int | None:
    """The fewest vertices of a dominating set made of one residue class
    of one 0-mod-3 cycle plus the lone vertices (all neighbours on that
    cycle) the marks leave undominated, or None."""
    best = None
    for c in mod3_cycles(g):
        on = set(c.vertices)
        lone = [r for r in range(g.n) if r not in on and set(g.adj[r]) <= on]
        for r in range(3):
            marks = {v for pos, v in enumerate(c.vertices) if pos % 3 == r}
            reached = marks.union(*(g.adj[v] for v in marks))
            candidate = marks.union(v for v in lone if v not in reached)
            if is_dominating(g, candidate) and (best is None or len(candidate) < best):
                best = len(candidate)
    return best


def test_single_cycle_marks_reach_gamma_on_every_atlas_graph():
    for g in atlas_graphs():
        assert single_cycle_candidate(g) == gamma_exact(g).size, g.edges()
