from types import SimpleNamespace

import networkx as nx
import pytest

from domlab import Graph, Graph6ParseError, encode_graph6, gnp_random, named_graph, parse_graph6
from domlab.graph6 import MAX_N, read_graph6_lines


def to_reference(g: Graph) -> str:
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    return nx.to_graph6_bytes(nxg, header=False).decode().strip()


def test_k4_is_c_tilde():
    g = parse_graph6("C~")
    assert g.n == 4 and g.m == 6


def test_empty_and_singleton():
    assert parse_graph6("?").n == 0
    assert encode_graph6(Graph.from_edges(1, [])) == "@"
    assert encode_graph6(named_graph("k4")) == "C~"


def test_truncated_bit_vector():
    with pytest.raises(Graph6ParseError, match="truncated"):
        parse_graph6("B")


def test_out_of_range_character_names_offset():
    with pytest.raises(Graph6ParseError) as info:
        parse_graph6("C!~")
    assert info.value.offset == 1


def test_trailing_data_rejected():
    with pytest.raises(Graph6ParseError, match="trailing"):
        parse_graph6("C~~")


def test_header_prefix_accepted():
    assert parse_graph6(">>graph6<<C~") == named_graph("k4")


def test_round_trip_on_fixtures():
    names = ["k4", "k13", "petersen", "prism", "c3", "c6", "c9", "p2", "p5", "theta(1,2,2)"]
    for name in names:
        g = named_graph(name)
        line = encode_graph6(g)
        assert parse_graph6(line) == g
        assert encode_graph6(parse_graph6(line)) == line


def test_agreement_with_networkx():
    specimens = [named_graph(n) for n in ("k4", "petersen", "prism", "c7", "p4")]
    specimens += [gnp_random(n, p, seed) for n, p, seed in
                  ((6, 0.3, 1), (9, 0.5, 2), (12, 0.4, 3), (15, 0.25, 4), (20, 0.35, 5))]
    specimens += [Graph.from_edges(0, []), Graph.from_edges(3, [])]
    for g in specimens:
        ref = to_reference(g)
        assert encode_graph6(g) == ref
        assert parse_graph6(ref) == g


def test_long_form_header():
    g = gnp_random(70, 0.1, seed=11)
    line = encode_graph6(g)
    assert line.startswith("~")
    assert parse_graph6(line) == g
    assert line == to_reference(g)


def test_eight_byte_header_unsupported():
    with pytest.raises(Graph6ParseError, match="8-byte"):
        parse_graph6("~~????")


def test_encode_capacity_limit():
    # the size is checked before anything else is read, so a stand-in
    # that carries only `n` reaches the check; a real Graph of this size
    # would build an N[v] table of about 4 GiB first
    with pytest.raises(ValueError, match="at most 258047 vertices, got 258048"):
        encode_graph6(SimpleNamespace(n=MAX_N + 1))


def test_read_graph6_lines(tmp_path):
    path = tmp_path / "corpus.g6"
    path.write_text("# a comment\nC~\n\nBw\n", encoding="ascii")
    assert read_graph6_lines(str(path)) == ["C~", "Bw"]
