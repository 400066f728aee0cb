import json
import time
from dataclasses import replace
from math import ceil
from pathlib import Path

import pytest

from domlab import (
    Graph,
    SolverTimeout,
    delete_edges,
    detachable_vertices,
    enumerate_min_dsets,
    gamma_bruteforce,
    gamma_exact,
    gnp_random,
    idom_exact,
    is_dominating,
    named_graph,
    random_cubic,
    removable_edges,
)
from domlab import domination
from domlab.domination import (
    DsetEnumeration,
    _gamma_branch,
    _idom_branch,
    _lower_bound,
    _search_tables,
    induced_edge_count,
    undominated,
)

from _oracles import dominating_sets_of_size


def test_is_dominating():
    k4 = named_graph("k4")
    assert is_dominating(k4, {0})
    pete = named_graph("petersen")
    assert all(not is_dominating(pete, {v}) for v in range(10))
    assert is_dominating(named_graph("c6"), {0, 3})
    with pytest.raises(ValueError):
        is_dominating(k4, {7})
    # c6 minus N[0] = {5, 0, 1} leaves {2, 3, 4}
    assert undominated(named_graph("c6"), [0]) == 0b011100
    assert undominated(k4, []) == 0b1111


@pytest.mark.parametrize("tool", [is_dominating, removable_edges, detachable_vertices])
@pytest.mark.parametrize("bad", [10, -1])
def test_a_member_outside_the_graph_is_rejected(tool, bad):
    # the member n indexes past the N[v] table and -1 would wrap to its
    # last row, so the range check must come first
    pete = named_graph("petersen")
    with pytest.raises(ValueError, match=f"^vertex {bad} out of range$"):
        tool(pete, [0, bad])


def test_gamma_bruteforce_fixtures():
    assert gamma_bruteforce(named_graph("c6")).size == 2
    assert gamma_bruteforce(named_graph("k4")).size == 1
    assert gamma_bruteforce(named_graph("petersen")).size == 3
    assert gamma_bruteforce(Graph.from_edges(0, [])).size == 0
    # lexicographically smallest witness
    assert sorted(gamma_bruteforce(named_graph("k4")).members) == [0]


def test_gamma_bruteforce_guard():
    with pytest.raises(ValueError):
        gamma_bruteforce(Graph.from_edges(25, []))


def test_gamma_exact_fixtures():
    assert gamma_exact(Graph.from_edges(0, [])).size == 0
    for n in range(3, 25):
        assert gamma_exact(named_graph(f"c{n}")).size == ceil(n / 3)
    lonely = Graph.from_edges(4, [(1, 2), (2, 3)])
    cert = gamma_exact(lonely)
    assert 0 in cert.members  # isolated vertex must be chosen


def test_exact_matches_bruteforce_on_random_graphs():
    for i in range(60):
        g = gnp_random(4 + i % 8, (0.2, 0.5, 0.8)[i % 3], seed=300 + i)
        assert gamma_exact(g).size == gamma_bruteforce(g).size


def test_idom_fixtures():
    assert idom_exact(Graph.from_edges(0, [])).size == 0
    assert idom_exact(named_graph("k13")).size == 1
    assert sorted(idom_exact(named_graph("k13")).members) == [0]
    assert idom_exact(named_graph("petersen")).size == 3
    assert idom_exact(named_graph("c4")).size == 2


def test_idom_certificates_are_maximal_independent():
    for i in range(30):
        g = gnp_random(4 + i % 7, 0.4, seed=500 + i)
        cert = idom_exact(g)
        assert induced_edge_count(g, cert.members) == 0
        assert is_dominating(g, cert.members)
        assert gamma_exact(g).size <= cert.size
        for v in range(g.n):  # adding any outside vertex breaks independence
            if v not in cert.members:
                assert any(u in cert.members for u in g.adj[v])


def test_enumerate_min_dsets():
    k4 = named_graph("k4")
    enum = enumerate_min_dsets(k4, 1)
    assert [sorted(s) for s in enum.dsets] == [[0], [1], [2], [3]]
    assert not enum.truncated
    clipped = enumerate_min_dsets(k4, 1, limit=1)
    assert [sorted(s) for s in clipped.dsets] == [[0]] and clipped.truncated
    c6 = named_graph("c6")
    enum = enumerate_min_dsets(c6, gamma_exact(c6).size)
    assert set(enum.dsets) == set(dominating_sets_of_size(c6, 2))
    # the empty set dominates the empty graph; a limit of 0 truncates it
    # as it truncates every other graph
    empty = Graph.from_edges(0, [])
    assert enumerate_min_dsets(empty, 0) == DsetEnumeration((frozenset(),), False)
    assert enumerate_min_dsets(empty, 0, limit=0) == DsetEnumeration((), True)
    assert enumerate_min_dsets(k4, 1, limit=0) == DsetEnumeration((), True)
    # exactly `limit` sets is not a truncation; one more than `limit` is
    every = tuple(frozenset({v}) for v in range(4))
    assert enumerate_min_dsets(k4, 1, limit=4) == DsetEnumeration(every, False)
    assert enumerate_min_dsets(k4, 1, limit=3) == DsetEnumeration(every[:3], True)


def test_certificate_fields():
    cert = gamma_exact(named_graph("c6"))
    assert cert.size == len(cert.members) == 2


def test_forced_move_on_a_pendant_vertex():
    # the 5-cycle 0-1-2-4-5 with vertex 3 hanging from 4: vertices 0, 1 and
    # 2 have three useful candidates each, but N[3] = {3, 4} lies inside
    # N[4], so 4 is forced and the scan stops at 3
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 4), (4, 5), (5, 0), (3, 4)])
    t = _search_tables(g)
    full = 0b111111
    assert _gamma_branch(t, full, None)[0] == [4]
    # i keeps both candidates of 3, the larger cover first
    assert _idom_branch(t, full, None) == ([4, 3], None)
    # with 5 chosen, 4 is dominated, so only 3 can dominate 3
    assert _idom_branch(t, full ^ t.masks[5], None) == ([3], None)
    assert gamma_exact(g).size == 2 and idom_exact(g).size == 2


def test_skipped_candidate_is_covered_by_another():
    # triangle 0-1-5 on the 5-cycle 1-2-4-3-5: N[0] = {0, 1, 5} lies inside
    # N[1] = {0, 1, 2, 5}, so 0 is skipped; N[1] and N[5] = {0, 1, 3, 5} are
    # incomparable and equal in size, so both are tried, 1 first.  Every
    # other vertex has three useful candidates.
    g = Graph.from_edges(6, [(0, 1), (0, 5), (1, 2), (1, 5), (2, 4), (3, 4), (3, 5)])
    assert _gamma_branch(_search_tables(g), 0b111111, None)[0] == [1, 5]
    assert gamma_exact(g).size == gamma_bruteforce(g).size == 2


def test_certificates_repeat_across_calls():
    # on these graphs the search, not the greedy or first maximal
    # independent set, supplies the certificate
    for seed in range(1, 6):
        g = random_cubic(30, seed)
        assert gamma_exact(g) == gamma_exact(g)
        assert idom_exact(g) == idom_exact(g)


GOLDEN_CERTIFICATES = Path(__file__).parent / "data" / "certificates_golden.jsonl"
GENERATORS = {"random_cubic": random_cubic, "gnp_random": gnp_random}


def test_certificates_match_the_golden_sets():
    # the sets, not just the sizes: a change of branch order, incumbent or
    # bound that picks another minimum set shows here
    for line in GOLDEN_CERTIFICATES.read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        kind, *args = row["graph"]
        g = GENERATORS[kind](*args)
        gamma = gamma_exact(g)
        assert sorted(gamma.members) == row["gamma"], row["graph"]
        assert sorted(idom_exact(g).members) == row["idom"], row["graph"]
        assert sorted(idom_exact(g, gamma=gamma).members) == row["idom_from_gamma"], row["graph"]


def test_search_work_is_pinned(monkeypatch):
    # deterministic work counts of gamma, i from gamma's certificate and
    # unseeded i; a change that lowers one lowers its pin in the same diff
    calls = {"_lower_bound": 0, "_gamma_branch": 0, "_idom_branch": 0}
    for name in calls:
        original = getattr(domination, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(domination, name, counted)
    for seed in range(1, 9):
        g = random_cubic(40, seed)
        gamma = gamma_exact(g)
        idom_exact(g, gamma=gamma)
        idom_exact(g)
    assert calls == {"_lower_bound": 4251, "_gamma_branch": 579, "_idom_branch": 1382}


def test_search_tables_are_built_once_per_graph(monkeypatch):
    # gamma's certificate induces an edge here, so both i solves search,
    # on the tables the gamma solve built
    built = []
    make = domination._SearchTables

    def counted(*args):
        built.append(args)
        return make(*args)

    monkeypatch.setattr(domination, "_SearchTables", counted)
    g = random_cubic(40, 3)
    gamma = gamma_exact(g)
    assert induced_edge_count(g, gamma.members)
    idom_exact(g, gamma=gamma)
    idom_exact(g)
    assert len(built) == 1 and g.search is _search_tables(g)


def test_expired_deadline_stops_before_the_search(monkeypatch):
    def no_search(g):
        raise AssertionError("search tables built past the deadline")

    monkeypatch.setattr(domination, "_search_tables", no_search)
    # the timeout names the solve that ran out
    for solver, phase in ((gamma_exact, "domination"), (idom_exact, "independent domination")):
        with pytest.raises(SolverTimeout, match=f"^{phase} solve exceeded its budget$"):
            solver(random_cubic(60, 1), deadline=time.monotonic() - 1)


def test_a_small_solve_reads_its_deadline_once(monkeypatch):
    # the search reads the deadline every 1,024 nodes, so a solve of fewer
    # nodes reads it once, on entry
    reads, bounds = [], []
    original_check, original_bound = domination.check_deadline, domination._lower_bound

    def check(deadline, phase):
        reads.append(phase)
        original_check(deadline, phase)

    def bound(*args):
        bounds.append(args)
        return original_bound(*args)

    monkeypatch.setattr(domination, "check_deadline", check)
    monkeypatch.setattr(domination, "_lower_bound", bound)
    gamma_exact(random_cubic(40, 1), deadline=time.monotonic() + 600)
    assert 1 < len(bounds) < 1024  # a search of many nodes, but fewer than 1,024
    assert reads == ["domination solve"]


def test_lower_bound_reads_no_row_once_packing_meets_the_need():
    # one undominated vertex is a packing of size 1, which meets need = 1
    # before its candidate row is read
    g = named_graph("petersen")
    t = _search_tables(g)
    read = []

    class Recorded(list):
        def __getitem__(self, i):
            read.append(i)
            return super().__getitem__(i)

    recorded = replace(t, closed=Recorded(t.closed), rows=Recorded(t.rows))
    # every vertex admissible (gamma), and only the undominated ones (i)
    assert _lower_bound(recorded, t.full, t.full, 1) == 1
    assert _lower_bound(recorded, t.full, t.full ^ 1, 1) == 1
    assert read == []


def test_edge_deletion_never_lowers_gamma():
    for i in range(12):
        g = gnp_random(8, 0.5, seed=700 + i)
        base = gamma_exact(g).size
        for e in g.edges()[:4]:
            assert gamma_exact(delete_edges(g, [e])).size >= base


def test_induced_edge_count():
    k4 = named_graph("k4")
    assert induced_edge_count(k4, {0, 1, 2}) == 3
    assert induced_edge_count(k4, {0}) == 0
