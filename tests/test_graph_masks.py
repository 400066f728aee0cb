"""`Graph.masks`, the closed-neighbourhood table every domination test reads.

Each graph holds the table from when it is made, whichever way it is
made: `Graph.from_edges`, `parse_graph6` and the plain constructor build
it, and `delete_edges` patches its parent's endpoint masks.  The
expected table here is built from the edge list that made the graph, so
it shares nothing with `Graph` beyond that list.  The
table is derived, so graphs equal by (n, adj) stay equal and hash equal
however they were built, and the table survives a pickle round trip.
"""

import pickle

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from domlab import Graph, delete_edges, encode_graph6, parse_graph6

from _oracles import closed_masks


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    # each edge in either orientation, as `from_edges` accepts both
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return n, [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]


def masks_of(n, edges) -> tuple[int, ...]:
    masks = [1 << v for v in range(n)]
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return tuple(masks)


@settings(max_examples=200)
@given(spec=edge_lists(), data=st.data())
def test_every_construction_builds_the_closed_neighbourhood_table(spec, data):
    n, edges = spec
    g = Graph.from_edges(n, edges)
    assert g.masks == masks_of(n, edges)
    assert list(g.masks) == closed_masks(g)

    rows = [[] for _ in range(n)]
    for u, v in edges:
        rows[u].append(v)
        rows[v].append(u)
    built = [
        Graph(n, tuple(tuple(sorted(row)) for row in rows)),
        parse_graph6(encode_graph6(g)),
        pickle.loads(pickle.dumps(g)),
    ]
    for h in built:
        assert h.masks == g.masks
        assert h == g and hash(h) == hash(g) and repr(h) == repr(g)

    doomed = data.draw(st.lists(st.sampled_from(edges), unique=True)) if edges else []
    kept = [e for e in edges if e not in doomed]
    smaller, rebuilt = delete_edges(g, doomed), Graph.from_edges(n, kept)
    assert smaller.masks == rebuilt.masks == masks_of(n, kept)
    assert smaller == rebuilt and hash(smaller) == hash(rebuilt)


def test_the_table_of_a_path_stays_out_of_repr():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert g.masks == (0b011, 0b111, 0b110)
    assert repr(g) == "Graph(n=3, adj=((1,), (0, 2), (1,)))"
    assert Graph(0, ()).masks == ()
