import time

import pytest

from domlab import (
    Cycle,
    Graph,
    SolverTimeout,
    family_dset_audit,
    gamma_exact,
    is_dominating,
    mod3_cycles,
    named_graph,
    parse_graph6,
    prune_nonexclusive,
    seamless_families,
    spaced_assignments,
)
from domlab import seams
from domlab.checks import CHECKS, Facts
from domlab.seams import (
    CycleCollection,
    _link_components,
    exclusive_groups,
    try_ear_link,
)

from _oracles import (
    EarLink,
    cycle_from_sequence,
    ear_fault,
    family_fault,
    has_mark_every_third,
    in_link_order,
    try_ear_link_by_splits,
)


def families_of(g: Graph):
    return seamless_families(mod3_cycles(g))


def audit_of(g: Graph):
    return family_dset_audit(g, exclusive_groups(families_of(g)), gamma_exact(g).size)


def test_try_ear_link_triangle_pair():
    base = Cycle((0, 2, 3))
    derived = Cycle((1, 2, 3))
    link = try_ear_link(base, derived, 0, 1)
    assert link == (0, 1)
    assert family_fault(CycleCollection((base, derived), (link,))) is None
    # identical cycles never link
    assert try_ear_link(base, base, 0, 0) is None
    # vertex-disjoint cycles never link
    assert try_ear_link(Cycle((0, 1, 2)), Cycle((3, 4, 5)), 0, 1) is None


def test_try_ear_link_prism_triangle_to_hexagon():
    tri = Cycle((0, 1, 2))
    hexagon = cycle_from_sequence((0, 1, 4, 3, 5, 2))
    link = try_ear_link(tri, hexagon, 0, 1)
    assert link == (0, 1)
    assert family_fault(CycleCollection((tri, hexagon), (link,))) is None
    assert set(try_ear_link_by_splits(tri, hexagon, 0, 1).ear[1:-1]) == {3, 4, 5}


def test_earlink_validation():
    with pytest.raises(ValueError):
        EarLink(0, 1, (2, 2), (2, 3))  # ear closes on itself
    with pytest.raises(ValueError):
        EarLink(0, 1, (2, 5, 3), (2, 4))  # endpoint mismatch


def test_family_oracle_rejects_an_ear_that_revisits_a_vertex():
    # as edge sets the ear's repeated edge 1-5 collapses, and swapping
    # 1-6-2 for the ear gives back c itself: the ear is rejected first
    c = Cycle((0, 5, 1, 6, 2, 7))
    link = EarLink(0, 1, (1, 5, 1, 6, 2), (1, 6, 2))
    fault = ear_fault(c, Cycle((0, 5, 1, 8, 2, 7)), link)
    assert fault is not None and fault.startswith("ear (1, 5, 1, 6, 2) is no simple path")


def test_family_oracle_rejects_a_broken_arc_replay_or_link_graph():
    c = Cycle((0, 1, 2, 3, 4, 5))
    spliced = cycle_from_sequence((0, 6, 2, 3, 4, 5))

    def fault(link, derived=spliced):
        return ear_fault(c, derived, link)

    assert fault(EarLink(0, 1, (0, 6, 2), (0, 1, 2))) is None
    assert fault(EarLink(0, 1, (2, 6, 0), (2, 1, 0))) is None
    assert fault(EarLink(0, 1, (0, 6, 2), (0, 2))).startswith("replaced arc")  # no base edge 0-2
    assert fault(EarLink(0, 1, (0, 6, 2), (0, 1, 0, 1, 2))).startswith("replaced arc")  # not simple
    assert fault(EarLink(0, 1, (7, 6, 2), (7, 1, 2))).startswith("replaced arc")  # 7 is off base
    assert fault(EarLink(0, 1, (0, 6, 3), (0, 1, 2, 3))).startswith("swapping")
    assert fault(EarLink(0, 1, (0, 6, 2), (0, 1, 2)), Cycle((0, 6, 2, 3, 4, 7))).startswith("swapping")
    # an ear through the base
    assert fault(EarLink(0, 1, (0, 6, 2, 7, 4), (0, 1, 2, 3, 4))).startswith("ear")
    assert family_fault(CycleCollection((c, spliced), ((0, 1),))) is None
    unlinked = CycleCollection((c, spliced), ())
    assert family_fault(unlinked) == "links reach 1 of the 2 cycles"
    # a pair that no ear joins: the two cycles share only the vertex 0
    apart = CycleCollection((Cycle((0, 1, 2)), Cycle((0, 3, 4))), ((0, 1),))
    assert family_fault(apart) == "no ear leads from (0, 1, 2) to (0, 3, 4)"


def test_collection_rejects_a_repeated_cycle():
    c = Cycle((0, 1, 2))
    with pytest.raises(ValueError):
        CycleCollection((c, c), ())


def test_collection_checks_the_shape_of_its_input():
    tri, hexagon = Cycle((0, 1, 2)), Cycle((0, 1, 2, 3, 4, 5))
    with pytest.raises(ValueError, match="at least one cycle"):
        CycleCollection((), ())
    with pytest.raises(ValueError, match="divisible by 3"):
        CycleCollection((tri, Cycle((0, 1, 2, 3))), ())
    with pytest.raises(ValueError, match="outside the collection"):
        CycleCollection((tri, hexagon), ((0, 2),))


def test_seamless_families_fixtures():
    assert families_of(named_graph("c4")) == ()
    fams = families_of(named_graph("c6"))
    assert len(fams) == 1 and len(fams[0].cycles) == 1 and not fams[0].links
    assert fams[0].vertex_union == frozenset(range(6))
    fams = families_of(named_graph("k4"))
    assert len(fams) == 1 and len(fams[0].cycles) == 4
    fams = families_of(named_graph("prism"))
    assert len(fams) == 1 and len(fams[0].cycles) == 5


# the hexagon's edges 0-1 .. 4-5 lie on the nonagon; 5-0 is a chord of it
NONAGON = Cycle(tuple(range(9)))
HEXAGON_ON_NONAGON = Cycle((0, 1, 2, 3, 4, 5))


def assert_unlinked(b: Cycle, d: Cycle) -> None:
    assert try_ear_link(b, d, 0, 1) is None and try_ear_link(d, b, 0, 1) is None
    families = seamless_families([b, d])
    assert [fam.cycles for fam in families] == [(b,), (d,)]


def test_chord_ear_links_to_a_cycle_on_the_base_vertices():
    # S = V(derived): s = 6 shared vertices, 5 shared edges, and the ear is
    # the chord 5-0
    (fam,) = seamless_families([NONAGON, HEXAGON_ON_NONAGON])
    assert fam.links == ((0, 1),)
    assert family_fault(fam) is None
    assert try_ear_link_by_splits(NONAGON, HEXAGON_ON_NONAGON, 0, 1) == EarLink(0, 1, (5, 0), (5, 6, 7, 8, 0))


def test_one_edge_replaced_arc_links_to_a_cycle_through_the_base():
    # S = V(base): the replaced arc is the base edge 5-0
    (fam,) = seamless_families([HEXAGON_ON_NONAGON, NONAGON])
    assert fam.links == ((0, 1),)
    assert family_fault(fam) is None
    assert try_ear_link_by_splits(HEXAGON_ON_NONAGON, NONAGON, 0, 1) == EarLink(0, 1, (5, 6, 7, 8, 0), (5, 0))


def test_cycles_sharing_one_vertex_do_not_link():
    # s = 1 and 0 = s - 1 shared edges: the count rule needs s >= 2
    assert_unlinked(Cycle((0, 1, 2)), Cycle((0, 3, 4)))


def test_distinct_cycles_on_one_vertex_set_do_not_link():
    other = Cycle((0, 1, 2, 3, 5, 4))  # shares 0-1, 1-2, 2-3 and 4-5
    assert_unlinked(HEXAGON_ON_NONAGON, other)


def test_shared_edges_in_two_paths_do_not_link():
    # S = {0, 1, 3, 4} with shared edges 0-1 and 3-4: s - 2 of them
    assert_unlinked(NONAGON, Cycle((0, 1, 9, 3, 4, 10)))
    # S = {0, 1, 2, 5}: the path 0-1-2 and the lone shared vertex 5
    assert_unlinked(NONAGON, Cycle((0, 1, 2, 9, 5, 10)))


def test_dense_link_graph_work_is_pinned(monkeypatch):
    # one try_ear_link call per link, none per unlinked pair
    cycles = mod3_cycles(parse_graph6("Hf^~Grb"))
    calls = []
    original = seams.try_ear_link

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(seams, "try_ear_link", counted)
    families = seamless_families(cycles)
    assert len(cycles) == 553
    assert sum(len(fam.links) for fam in families) == 7_276
    assert len(calls) == 7_276


@pytest.mark.parametrize("graph", [named_graph("petersen"), parse_graph6("Hf^~Grb")], ids=["petersen", "Hf^~Grb"])
def test_families_walk_the_link_graph_once_and_build_no_cycle(monkeypatch, graph):
    # after the deadline reads, only link builds run: no family is checked
    # again by replaying its links or walking its link graph
    facts = Facts(graph)
    facts.mod3_cycles
    walks, built = [], []
    walk, check = seams._link_components, Cycle.__post_init__

    def counted_walk(*args):
        walks.append(args)
        return walk(*args)

    def counted_check(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(seams, "_link_components", counted_walk)
    monkeypatch.setattr(Cycle, "__post_init__", counted_check)
    assert len(facts.families) == 1
    assert len(walks) == 1 and built == []


def test_link_graph_reads_its_deadline_while_building_links(monkeypatch):
    # one read before each row of the pair scan, then one before every
    # 1,024th of the 7,276 link builds, at 0, 1,024, ..., 7,168 builds
    cycles = mod3_cycles(parse_graph6("Hf^~Grb"))
    builds = []
    reads = []
    build, read = seams.try_ear_link, seams.check_deadline

    def counted_build(*args):
        builds.append(args)
        return build(*args)

    def counted_read(deadline, phase):
        reads.append((phase, len(builds)))
        read(deadline, phase)

    monkeypatch.setattr(seams, "try_ear_link", counted_build)
    monkeypatch.setattr(seams, "check_deadline", counted_read)
    seamless_families(cycles, deadline=time.monotonic() + 3600)
    assert len(builds) == 7_276
    assert reads == [("link graph", 0)] * 553 + [("link graph", k) for k in range(0, 7_276, 1024)]


def test_collection_links_replay():
    for name in ("k4", "prism", "petersen"):
        for fam in families_of(named_graph(name)):
            assert fam.links or len(fam.cycles) == 1
            assert family_fault(fam) is None, name
            for a, b in fam.links:
                assert len(fam.cycles[a]) % 3 == 0
                assert len(fam.cycles[b]) % 3 == 0


def test_prune_nonexclusive_k4():
    fam = families_of(named_graph("k4"))[0]
    groups = prune_nonexclusive(fam)
    assert len(groups) == 1
    survivors = [c.vertices for c in groups[0]]
    assert survivors == [(0, 2, 3), (1, 2, 3)]


def test_prune_nonexclusive_prism():
    fam = families_of(named_graph("prism"))[0]
    groups = prune_nonexclusive(fam)
    assert len(groups) == 1 and len(groups[0]) == 1
    assert len(groups[0][0]) == 6


def test_link_components_list_each_component_in_bfs_order():
    # the link path 0-2-1 is walked from 0, so 2 comes before 1
    pairs = [(0, 2), (2, 1)]
    assert _link_components(range(3), pairs) == [[0, 2, 1]]
    # pairs touching a non-member are ignored
    assert _link_components([0, 1], pairs) == [[0], [1]]


def test_has_mark_every_third():
    c6 = Cycle((0, 1, 2, 3, 4, 5))
    assert has_mark_every_third(c6, {0, 3})
    assert not has_mark_every_third(c6, {0, 2})
    assert has_mark_every_third(Cycle((0, 1, 2)), {0})
    with pytest.raises(ValueError):
        has_mark_every_third(Cycle((0, 1, 2, 3)), {0})


def test_prune_dense_family():
    # one G(9, 0.5) graph: the one-pass prune drops 549 of the 553 cycles
    fams = families_of(parse_graph6("Hf^~Grb"))
    assert [len(fam.cycles) for fam in fams] == [553]
    groups = prune_nonexclusive(fams[0])
    assert [[c.vertices for c in group] for group in groups] == [
        [(0, 6, 8), (1, 6, 8), (2, 6, 8), (3, 4, 7, 8, 6, 5)]
    ]


def test_spaced_assignments_reject_a_cycle_without_an_earlier_edge():
    # the prism's listing starts with its two triangles, which share no
    # vertex, so every class fits the second one; in link-graph BFS order
    # each cycle is linked to an earlier one
    fam = families_of(named_graph("prism"))[0]
    assert [c.vertices for c in fam.cycles[:2]] == [(0, 1, 2), (3, 4, 5)]
    with pytest.raises(ValueError, match="^cycle 1 shares no edge with an earlier cycle$"):
        spaced_assignments(fam.cycles)
    assert spaced_assignments(in_link_order(fam)) == ()
    # two triangles on one vertex: where the first leaves it unmarked,
    # two classes of the second fit
    with pytest.raises(ValueError, match="^cycle 1 shares no edge"):
        spaced_assignments((Cycle((0, 1, 2)), Cycle((0, 3, 4))))
    with pytest.raises(ValueError, match="at least one cycle"):
        spaced_assignments(())


def test_assignments():
    c6_fam = families_of(named_graph("c6"))[0]
    assert spaced_assignments(c6_fam.cycles) == (
        frozenset({0, 3}), frozenset({1, 4}), frozenset({2, 5}),
    )
    k4_group = prune_nonexclusive(families_of(named_graph("k4"))[0])[0]
    # shared vertices force agreement between the two triangles
    assert spaced_assignments(k4_group) == (
        frozenset({0, 1}), frozenset({2}), frozenset({3}),
    )


def test_family_dset_audit_fixtures():
    for name, expected_size in (("k4", 1), ("prism", 2), ("petersen", 3)):
        verdict = audit_of(named_graph(name))
        assert verdict.holds, name
        assert verdict.info["candidate_size"] == expected_size
        assert verdict.info["gamma"] == expected_size
        candidate = verdict.info["candidate"]
        assert is_dominating(named_graph(name), candidate)
    # the claim's 3-connectivity condition is the registry gate's job
    assert CHECKS["family_dset"].gate(Facts(named_graph("c6"))) == "connectivity < 3"


def test_family_dset_pipeline_candidates_dominate():
    verdict = audit_of(named_graph("c6"))
    assert verdict.info["candidate_size"] == gamma_exact(named_graph("c6")).size


def test_family_dset_audit_stops_at_its_deadline():
    # families, groups and gamma are given, so only the family loop can
    # read the deadline
    pete = named_graph("petersen")
    groups = exclusive_groups(families_of(pete))
    with pytest.raises(SolverTimeout, match="^family audit exceeded its budget$"):
        family_dset_audit(pete, groups, 3, deadline=time.monotonic() - 1)
    with pytest.raises(SolverTimeout, match="^family audit exceeded its budget$"):
        exclusive_groups(families_of(pete), deadline=time.monotonic() - 1)


def test_link_graph_stops_at_its_deadline():
    cycles = mod3_cycles(named_graph("petersen"))  # the read before the scan's first row raises
    with pytest.raises(SolverTimeout, match="^link graph exceeded its budget$"):
        seamless_families(cycles, deadline=time.monotonic() - 1)
    assert seamless_families(cycles, deadline=time.monotonic() + 3600) == seamless_families(cycles)


def test_spaced_assignments_are_valid_everywhere():
    for name in ("k4", "prism", "petersen", "c9"):
        for fam in families_of(named_graph(name)):
            for cycles in (in_link_order(fam), *prune_nonexclusive(fam)):
                for marks in spaced_assignments(cycles):
                    assert all(has_mark_every_third(c, marks) for c in cycles)


def test_theta_family_forces_unique_assignment():
    # three hexagons pairwise share hub-to-hub arcs; only the hub pair works
    fam = families_of(named_graph("theta(2,2,2)"))[0]
    assert len(fam.cycles) == 3
    assert spaced_assignments(fam.cycles) == (frozenset({0, 1}),)


def test_family_dset_reports_candidate_gap():
    # the octahedron's exclusive groups shrink to lone triangles whose
    # single marks cannot dominate; the audit records the gap honestly
    octa = Graph.from_edges(
        6, [(u, v) for u in range(6) for v in range(u + 1, 6) if v != u + 3]
    )
    verdict = audit_of(octa)
    assert not verdict.holds
    assert verdict.info["candidate_size"] is None
    assert verdict.info["gamma"] == 2


def test_prune_splits_severed_collections():
    # pruning the octahedron's single seamless family leaves three cycles
    # whose link graph falls apart, so three exclusive groups emerge
    octa = Graph.from_edges(
        6, [(u, v) for u in range(6) for v in range(u + 1, 6) if v != u + 3]
    )
    fams = families_of(octa)
    assert len(fams) == 1 and len(fams[0].cycles) == 24
    groups = prune_nonexclusive(fams[0])
    assert len(groups) == 3
    assert all(len(group) == 1 and len(group[0]) == 3 for group in groups)


def test_petersen_full_family_has_no_assignment():
    # thirty heavily overlapping cycles admit no consistent mark classes;
    # only the pruned exclusive groups do
    fam = families_of(named_graph("petersen"))[0]
    assert spaced_assignments(in_link_order(fam)) == ()
    for group in prune_nonexclusive(fam):
        assert spaced_assignments(group) != ()
