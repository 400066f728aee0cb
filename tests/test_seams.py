import time

import pytest

from domlab import (
    Cycle,
    Graph,
    SolverTimeout,
    assign_marks,
    audit_leftover_single,
    audit_two_spaced_paths,
    classify_attachments,
    family_dset_audit,
    find_seam_extension,
    gamma_exact,
    has_mark_every_third,
    is_dominating,
    named_graph,
    prune_nonexclusive,
    random_cubic,
    seamless_families,
    spaced_assignments,
)
from domlab.checks import CHECKS, Facts
from domlab.seams import (
    EXTENSION_TABLE,
    EarLink,
    confined_vertices,
    replay_link,
    try_ear_link,
)


def pocket_fixture() -> Graph:
    """C6 plus a branch vertex 6 hanging off 0, with confined tips 7, 8.

    Chosen so the only 0-mod-3 cycle is the hexagon itself: the extra
    edges 6-7, 6-8, 7-4, 8-1 close cycles of lengths 4, 5, 7 and 8 only.
    """
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5),
             (0, 6), (6, 7), (6, 8), (7, 4), (8, 1)]
    return Graph.from_edges(9, edges)


def test_extension_table_shape():
    assert len(EXTENSION_TABLE) == 20
    assert [row for row, _, _ in EXTENSION_TABLE] == list(range(1, 21))
    pairs = {}
    for row, residue, types in EXTENSION_TABLE:
        key = (residue, types)
        assert key not in pairs
        pairs[key] = row
    assert pairs[(2, ("a", "a"))] == 1
    assert pairs[(1, ("a", "c"))] == 4
    assert pairs[(1, ("d", "d"))] == 20


def test_try_ear_link_triangle_pair():
    base = Cycle((0, 2, 3))
    derived = Cycle((1, 2, 3))
    link = try_ear_link(base, derived, 0, 1)
    assert link is not None
    assert replay_link(base, link) == derived
    # identical cycles never link
    assert try_ear_link(base, base, 0, 0) is None
    # vertex-disjoint cycles never link
    assert try_ear_link(Cycle((0, 1, 2)), Cycle((3, 4, 5)), 0, 1) is None


def test_try_ear_link_prism_triangle_to_hexagon():
    tri = Cycle((0, 1, 2))
    hexagon = Cycle.from_sequence((0, 1, 4, 3, 5, 2))
    link = try_ear_link(tri, hexagon, 0, 1)
    assert link is not None
    assert set(link.ear[1:-1]) == {3, 4, 5}
    assert replay_link(tri, link) == hexagon


def test_earlink_validation():
    with pytest.raises(ValueError):
        EarLink(0, 1, (2, 2), (2, 3))  # ear closes on itself
    with pytest.raises(ValueError):
        EarLink(0, 1, (2, 5, 3), (2, 4))  # endpoint mismatch


def test_seamless_families_fixtures():
    assert seamless_families(named_graph("c4")) == ()
    fams = seamless_families(named_graph("c6"))
    assert len(fams) == 1 and len(fams[0].cycles) == 1 and not fams[0].links
    fams = seamless_families(named_graph("k4"))
    assert len(fams) == 1 and len(fams[0].cycles) == 4
    fams = seamless_families(named_graph("prism"))
    assert len(fams) == 1 and len(fams[0].cycles) == 5


def test_collection_links_replay():
    for name in ("k4", "prism", "petersen"):
        for fam in seamless_families(named_graph(name)):
            assert fam.links or len(fam.cycles) == 1
            for link in fam.links:
                assert replay_link(fam.cycles[link.base], link) == fam.cycles[link.derived]
                assert len(fam.cycles[link.base]) % 3 == 0
                assert len(fam.cycles[link.derived]) % 3 == 0


def test_prune_nonexclusive_k4():
    fam = seamless_families(named_graph("k4"))[0]
    dsgs = prune_nonexclusive(fam)
    assert len(dsgs) == 1
    survivors = [c.vertices for c in dsgs[0].cycles]
    assert survivors == [(0, 2, 3), (1, 2, 3)]
    assert dsgs[0].kind == "DSG"


def test_prune_nonexclusive_prism():
    fam = seamless_families(named_graph("prism"))[0]
    dsgs = prune_nonexclusive(fam)
    assert len(dsgs) == 1 and len(dsgs[0].cycles) == 1
    assert len(dsgs[0].cycles[0]) == 6


def test_prune_requires_seamless_kind():
    fam = seamless_families(named_graph("k4"))[0]
    dsg = prune_nonexclusive(fam)[0]
    with pytest.raises(ValueError):
        prune_nonexclusive(dsg)


def test_has_mark_every_third():
    c6 = Cycle((0, 1, 2, 3, 4, 5))
    assert has_mark_every_third(c6, {0, 3})
    assert not has_mark_every_third(c6, {0, 2})
    assert has_mark_every_third(Cycle((0, 1, 2)), {0})
    with pytest.raises(ValueError):
        has_mark_every_third(Cycle((0, 1, 2, 3)), {0})


def test_assignments():
    c6_fam = seamless_families(named_graph("c6"))[0]
    assert assign_marks(c6_fam) == frozenset({0, 3})
    assert spaced_assignments(c6_fam) == (
        frozenset({0, 3}), frozenset({1, 4}), frozenset({2, 5}),
    )
    k4_d = prune_nonexclusive(seamless_families(named_graph("k4"))[0])[0]
    # shared vertices force agreement between the two triangles
    assert spaced_assignments(k4_d) == (
        frozenset({0, 1}), frozenset({2}), frozenset({3}),
    )
    assert assign_marks(k4_d) == frozenset({0, 1})


def test_confined_vertices():
    g = pocket_fixture()
    fam = seamless_families(g)[0]
    assert fam.vertex_union == frozenset(range(6))
    assert confined_vertices(g, fam) == frozenset({7, 8})


def test_classify_attachments_and_extension():
    g = pocket_fixture()
    fam = seamless_families(g)[0]
    marks = {0, 3}
    reports = classify_attachments(g, fam, marks)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.component_vertices == frozenset({6})
    assert rep.attachments == ((0, "a"), (7, "b"), (8, "b"))
    assert rep.extension is not None
    # path 0-6-7 has length 2 mod 3 between types (a) and (b): row 3
    assert rep.extension.path == (0, 6, 7)
    assert rep.extension.table_row == 3


def test_classify_attachment_type_c():
    # same pocket, but marks {1, 4} turn the confined tips' union
    # neighbors into marks: types become (d, c, c)
    g = pocket_fixture()
    fam = seamless_families(g)[0]
    reports = classify_attachments(g, fam, {1, 4})
    rep = reports[0]
    assert rep.attachments == ((0, "d"), (7, "c"), (8, "c"))


def test_find_seam_extension_validates_component():
    g = pocket_fixture()
    fam = seamless_families(g)[0]
    with pytest.raises(ValueError):
        find_seam_extension(g, fam, {0, 3}, {7, 8})
    with pytest.raises(ValueError):
        find_seam_extension(g, fam, {0, 1}, {6})  # marks not spaced


def test_audit_two_spaced_paths_c6():
    fam = seamless_families(named_graph("c6"))[0]
    verdict = audit_two_spaced_paths(named_graph("c6"), fam, {0, 3})
    assert verdict.holds and verdict.info["pairs"] == 15


def test_audit_two_spaced_paths_triangle():
    tri = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    fam = seamless_families(tri)[0]
    verdict = audit_two_spaced_paths(tri, fam, {0})
    assert verdict.holds
    with pytest.raises(ValueError):
        audit_two_spaced_paths(tri, fam, {0, 1})  # marks not spaced


def test_audit_leftover_single():
    c6 = named_graph("c6")
    fam = seamless_families(c6)[0]
    verdict = audit_leftover_single(c6, fam, {0, 3})
    assert verdict.holds and verdict.info["leftover"] == 0
    g = pocket_fixture()
    fam = seamless_families(g)[0]
    verdict = audit_leftover_single(g, fam, {0, 3})
    assert not verdict.holds and verdict.witness["component"] == [6, 7, 8]


def test_family_dset_audit_fixtures():
    for name, expected_size in (("k4", 1), ("prism", 2), ("petersen", 3)):
        verdict = family_dset_audit(named_graph(name))
        assert verdict.holds, name
        assert verdict.info["candidate_size"] == expected_size
        assert verdict.info["gamma"] == expected_size
        candidate = verdict.info["candidate"]
        assert is_dominating(named_graph(name), candidate)
    # the claim's 3-connectivity condition is the registry gate's job
    assert CHECKS["family_dset"].gate(Facts(named_graph("c6"))) == "connectivity < 3"


def test_family_dset_pipeline_candidates_dominate():
    verdict = family_dset_audit(named_graph("c6"))
    assert verdict.info["candidate_size"] == gamma_exact(named_graph("c6")).size


def test_family_dset_audit_stops_at_its_deadline():
    # gamma is known, so only the cycle listing can read the deadline
    with pytest.raises(SolverTimeout):
        family_dset_audit(random_cubic(60, seed=1), gamma=17, deadline=time.monotonic() - 1)


def test_spaced_assignments_are_valid_everywhere():
    for name in ("k4", "prism", "petersen", "c9"):
        for fam in seamless_families(named_graph(name)):
            for col in (fam, *prune_nonexclusive(fam)):
                for marks in spaced_assignments(col):
                    assert all(has_mark_every_third(c, marks) for c in col.cycles)


def test_theta_family_forces_unique_assignment():
    # three hexagons pairwise share hub-to-hub arcs; only the hub pair works
    fam = seamless_families(named_graph("theta(2,2,2)"))[0]
    assert len(fam.cycles) == 3
    assert spaced_assignments(fam) == (frozenset({0, 1}),)


def test_family_dset_reports_candidate_gap():
    # the octahedron's exclusive collections shrink to lone triangles whose
    # single marks cannot dominate; the audit records the gap honestly
    octa = Graph.from_edges(
        6, [(u, v) for u in range(6) for v in range(u + 1, 6) if v != u + 3]
    )
    verdict = family_dset_audit(octa)
    assert not verdict.holds
    assert verdict.info["candidate_size"] is None
    assert verdict.info["gamma"] == 2


def test_prune_splits_severed_collections():
    # pruning the octahedron's single seamless family leaves three cycles
    # whose link graph falls apart, so three exclusive collections emerge
    octa = Graph.from_edges(
        6, [(u, v) for u in range(6) for v in range(u + 1, 6) if v != u + 3]
    )
    fams = seamless_families(octa)
    assert len(fams) == 1 and len(fams[0].cycles) == 24
    dsgs = prune_nonexclusive(fams[0])
    assert len(dsgs) == 3
    assert all(len(d.cycles) == 1 and len(d.cycles[0]) == 3 for d in dsgs)


def test_petersen_full_family_has_no_assignment():
    # thirty heavily overlapping cycles admit no consistent mark classes;
    # only the pruned exclusive collections do
    fam = seamless_families(named_graph("petersen"))[0]
    assert spaced_assignments(fam) == ()
    assert assign_marks(fam) is None
    for dsg in prune_nonexclusive(fam):
        assert assign_marks(dsg) is not None


def test_petersen_dsg_audits_record_verdicts():
    pete = named_graph("petersen")
    fam = seamless_families(pete)[0]
    dsgs = prune_nonexclusive(fam)
    assert [len(d.cycles[0]) for d in dsgs] == [6, 9]
    hexagon, nonagon = dsgs
    marks = assign_marks(hexagon)
    assert audit_two_spaced_paths(pete, hexagon, marks).holds
    verdict = audit_leftover_single(pete, hexagon, marks)
    assert not verdict.holds and len(verdict.witness["component"]) == 4
    marks = assign_marks(nonagon)
    assert audit_two_spaced_paths(pete, nonagon, marks).holds
    # the nonagon leaves a lone vertex, but one with unmarked neighbors
    verdict = audit_leftover_single(pete, nonagon, marks)
    assert not verdict.holds and verdict.witness["vertex"] == 3


def dangling_triangle() -> Graph:
    # C6 plus a pendant triangle reachable only through vertex 0: the two
    # mod-3 families are vertex-disjoint, so neither can absorb the other
    return Graph.from_edges(
        9,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5),
         (6, 7), (6, 8), (7, 8), (0, 6)],
    )


def test_single_attachment_component_has_no_extension():
    g = dangling_triangle()
    fams = seamless_families(g)
    assert len(fams) == 2
    hexagon = next(f for f in fams if len(f.cycles[0]) == 6)
    reports = classify_attachments(g, hexagon, {0, 3})
    assert len(reports) == 1
    rep = reports[0]
    assert rep.component_vertices == frozenset({6, 7, 8})
    assert rep.attachments == ((0, "a"),)
    assert rep.extension is None
    triangle = next(f for f in fams if len(f.cycles[0]) == 3)
    reports = classify_attachments(g, triangle, {6})
    assert reports[0].attachments == ((6, "a"),)
    assert reports[0].extension is None
