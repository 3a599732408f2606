import pytest

from bakergame.fileio import (
    FormatError,
    parse_annotated_graph,
    parse_embedding,
    parse_graph,
    write_embedding,
    write_graph,
)
from bakergame.generators import (
    gen_apex_grid,
    gen_diag_grid,
    gen_grid,
    gen_ktree,
    gen_random_instance,
)
from bakergame.graph import Embedding, OrderedGraph, check_chordal_ordering, validate_embedding


def test_grid_shape():
    g = gen_grid(3, 4)
    assert g.n == 12
    # [TRIVIAL] rows*(cols-1) + (rows-1)*cols edges
    assert g.m == 3 * 3 + 2 * 4
    assert g.has_edge(0, 1) and g.has_edge(0, 4) and not g.has_edge(3, 4)


def test_apex_grid_shape():
    g = gen_apex_grid(3)
    assert g.n == 10
    # apex 0 adjacent to every grid vertex
    assert all(g.has_edge(0, v) for v in range(1, 10))
    assert g.m == 9 + 12


def test_diag_grid_embedding_valid():
    g, emb = gen_diag_grid(3)
    assert g.n == 9
    validate_embedding(g, emb)  # raises on bad spacing or missing edges
    # diagonal neighbors present
    assert g.has_edge(0, 4)


def test_ktree_is_chordal_with_left_degree():
    for seed in range(10):
        g = gen_ktree(12, 3, seed=seed)
        ok, d = check_chordal_ordering(g)
        assert ok and d <= 3
        assert g.m <= 3 * g.n


def test_ktree_needs_nonnegative_d():
    with pytest.raises(ValueError, match="need d >= 0"):
        gen_ktree(5, -1)


def test_ktree_deterministic():
    a = gen_ktree(10, 2, seed=7)
    b = gen_ktree(10, 2, seed=7)
    assert a.edge_list() == b.edge_list()


def test_random_instance_kinds():
    g = gen_grid(2, 3)
    dom = gen_random_instance("domset", g, seed=1)
    assert dom.demand <= g.vertex_set
    mis = gen_random_instance("mis", g, seed=1)
    assert mis.forbidden <= g.vertex_set
    col = gen_random_instance("ccolorable", g, seed=1, colors=3)
    for v, allowed in col.lists:
        assert allowed and allowed <= {1, 2, 3}


def test_graph_roundtrip(tmp_path):
    g = gen_grid(3, 3)
    p = tmp_path / "g.gr"
    p.write_text(write_graph(g, {"demand": {0, 4, 8}}))
    h, ann = parse_annotated_graph(p.read_text())
    assert h.vertices == g.vertices
    assert h.edge_list() == g.edge_list()
    assert ann["demand"] == {0, 4, 8}


def test_embedding_roundtrip(tmp_path):
    g, emb = gen_diag_grid(2)
    p = tmp_path / "e.emb"
    p.write_text(write_embedding(emb))
    emb2 = parse_embedding(p.read_text())
    assert emb2.dim == emb.dim and emb2.beta == emb.beta
    assert emb2.coords == emb.coords


def test_embedding_roundtrip_keeps_every_digit():
    # six significant digits would stretch the edge to 2.0 > beta once
    # read back, so a valid embedding must be written at full precision
    g = OrderedGraph([0, 1], [(0, 1)])
    emb = Embedding(1, 1.2, {0: (123456.4,), 1: (123457.6,)})
    validate_embedding(g, emb)
    emb2 = parse_embedding(write_embedding(emb))
    assert (emb2.beta, emb2.coords) == (emb.beta, emb.coords)
    validate_embedding(g, emb2)
    assert write_embedding(Embedding(2, 0.1 + 0.2, {0: (1e16, -0.0)})) == (
        "p embed 1 2 0.30000000000000004\nc 0 1e+16 -0\n"
    )


def test_parse_graph_comments_and_blanks():
    text = "# header\n\np graph 3 2\ne 0 1\n# mid\ne 1 2\n"
    g = parse_graph(text)
    assert g.n == 3 and g.m == 2


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("e 0 1\n", 1),  # edge before header
        ("p graph 2 1\ne 0 2\n", 2),  # endpoint out of range
        ("p graph 2 2\ne 0 1\n", 1),  # declared edge count wrong, reported at header
        ("p graph 2 1\ne 0\n", 2),  # malformed edge line
        ("p graph 2 2\ne 0 1\ne 1 0\n", 3),  # repeated edge, other orientation
        ("p graph 3 3\ne 0 1\ne 1 2\ne 0 1\n", 4),  # repeated edge, same orientation
    ],
)
def test_parse_graph_errors_carry_line_numbers(text, lineno):
    with pytest.raises(FormatError) as exc:
        parse_graph(text)
    assert exc.value.lineno == lineno


def test_bare_annotation_declares_empty_set():
    g, ann = parse_annotated_graph("p graph 2 1\ne 0 1\na hit:0\n")
    assert ann["hit:0"] == frozenset()
    assert "a hit:0\n" in write_graph(g, ann)


def test_parse_embedding_errors():
    with pytest.raises(FormatError):
        parse_embedding("c 0 1.0\n")
    with pytest.raises(FormatError) as exc:
        parse_embedding("p embed 2 1 1\nc 0 0.0\nc 0 1.0\n")
    assert exc.value.lineno == 3
    with pytest.raises(FormatError):
        parse_embedding("p embed 2 1 1\nc 0 0.0\n")  # missing vertex 1


@pytest.mark.parametrize(
    "beta,x,lineno",
    [("nan", "5", 1), ("inf", "5", 1), ("1", "nan", 3), ("1", "-inf", 3), ("1", "1e400", 3)],
)
def test_parse_embedding_rejects_non_finite_values(beta, x, lineno):
    # every comparison with NaN is false, so only an explicit check
    # keeps such a file from loading
    with pytest.raises(FormatError) as exc:
        parse_embedding("p embed 2 1 %s\nc 0 0\nc 1 %s\n" % (beta, x))
    assert exc.value.lineno == lineno
