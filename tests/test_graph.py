import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bakergame.graph import (
    Embedding,
    GraphError,
    NotGeodesicError,
    OrderedGraph,
    bfs_layering,
    check_chordal_ordering,
    check_geodesic_partition,
    extend_geodesic_layering,
    is_geodesic,
    is_valid_layering,
    layering_width,
    quotient,
    spread_componentwise_layering,
    validate_embedding,
)
from bakergame.generators import gen_grid
from bakergame.strategies import chordal_geodesic_partition


def path(n):
    return OrderedGraph(range(n), [(i, i + 1) for i in range(n - 1)])


def test_basic_counts_and_adjacency():
    g = OrderedGraph([3, 1, 2], [(1, 2), (2, 3)])
    assert g.vertices == (1, 2, 3)  # [TRIVIAL] sorted on construction
    assert g.n == 3 and g.m == 2
    assert g.neighbors(2) == frozenset({1, 3})
    assert g.smallest() == 1


def test_rejects_self_loops_and_unknown_endpoints():
    with pytest.raises(GraphError):
        OrderedGraph([1, 2], [(1, 1)])
    with pytest.raises(GraphError):
        OrderedGraph([1, 2], [(1, 5)])


def test_induced_keeps_ids_and_annotations():
    g = OrderedGraph(range(4), [(0, 1), (1, 2), (2, 3)])
    g = g.with_annotations({"demand": frozenset({0, 3})})
    h = g.induced({1, 2, 3})
    assert h.vertices == (1, 2, 3)
    assert h.annotations["demand"] == frozenset({3})
    assert h.has_edge(1, 2) and not h.has_edge(0, 1)


def test_delete_smallest():
    g = path(3)
    assert g.delete_smallest().vertices == (1, 2)


def test_components_ordered_by_smallest_member():
    g = OrderedGraph(range(5), [(3, 4), (0, 1)])
    comps = g.components()
    assert [min(c) for c in comps] == [0, 2, 3]


def test_layering_validity():
    g = path(3)
    assert is_valid_layering(g, {0: 0, 1: 1, 2: 1})
    assert not is_valid_layering(g, {0: 0, 1: 2, 2: 3})  # gap 2 on an edge
    assert not is_valid_layering(g, {0: 0, 1: 1})  # missing a vertex
    assert layering_width({0: 0, 1: 1, 2: 1}) == 2


def test_bfs_layering_and_disconnected_error():
    g = path(4)
    assert bfs_layering(g, 0) == {0: 0, 1: 1, 2: 2, 3: 3}
    g2 = OrderedGraph(range(3), [(0, 1)])
    with pytest.raises(GraphError) as err:
        bfs_layering(g2, 0)
    assert "2" in str(err.value)  # names the unreachable vertex


def test_spread_layering_separates_components():
    g = OrderedGraph(range(4), [(0, 1), (2, 3)])
    lam = spread_componentwise_layering(g, 3)
    # [TRIVIAL] components get labels 3 and 6; a window of length 3
    # meets at most one of them
    assert lam == {0: 3, 1: 3, 2: 6, 3: 6}


def test_geodesic_check_and_extension():
    g = path(5)
    part = {0, 4}
    lam = {0: 0, 4: 4}
    assert is_geodesic(g, part, lam)
    full = extend_geodesic_layering(g, part, lam)
    # [DERIVED] max over x of lam(x) - d(x, v) gives exactly the index
    assert full == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}
    assert is_valid_layering(g, full)


def test_non_geodesic_raises_with_witness():
    g = path(3)
    with pytest.raises(NotGeodesicError) as err:
        extend_geodesic_layering(g, {0, 2}, {0: 0, 2: 5})
    assert set(err.value.pair) == {0, 2}


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.data())
def test_bfs_restriction_extends_geodesically(n, data):
    # a BFS layering restricted to any subset is geodesic and extends
    # to a layering agreeing on the subset
    g = path(n)
    subset = data.draw(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=n)
    )
    lam = bfs_layering(g, 0)
    partial = {v: lam[v] for v in subset}
    full = extend_geodesic_layering(g, frozenset(subset), partial)
    assert is_valid_layering(g, full)
    for v in subset:
        assert full[v] == partial[v]


def _pairwise_geodesic(g, edges, part, lam):
    """Reference: one BFS per part vertex.  Returns None when lam is not a
    layering of g[part], else (violates, extension or None)."""
    if any(abs(lam[u] - lam[v]) > 1 for u, v in edges if u in lam and v in lam):
        return None
    dist = {x: g.bfs_distances(x) for x in part}

    def violates(x, y):
        d = dist[x].get(y)
        return d is not None and d < abs(lam[x] - lam[y])

    if any(violates(x, y) for x in part for y in part):
        return violates, None
    ext = {
        v: max((lam[x] - dist[x][v] for x in part if v in dist[x]), default=0)
        for v in g.vertices
    }
    return violates, ext


def test_geodesic_sweep_matches_pairwise():
    rng = random.Random(5)
    seen = {"not a layering": 0, "violating": 0, "geodesic": 0}
    for _ in range(20000):
        n = rng.randint(1, 13)
        p = rng.uniform(0.05, 0.5)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = OrderedGraph(range(n), edges)
        part = rng.sample(range(n), rng.randint(1, n))
        lam = {v: rng.randint(-3, 4) for v in part}
        ref = _pairwise_geodesic(g, edges, part, lam)
        if ref is None:
            seen["not a layering"] += 1
            with pytest.raises(GraphError):
                is_geodesic(g, part, lam)
            with pytest.raises(GraphError):
                extend_geodesic_layering(g, part, lam)
            continue
        violates, ext = ref
        ok, pair = is_geodesic(g, part, lam, return_witness=True)
        assert ok == (ext is not None) == is_geodesic(g, part, lam)
        if ext is None:
            seen["violating"] += 1
            assert violates(*pair)
            with pytest.raises(NotGeodesicError) as err:
                extend_geodesic_layering(g, part, lam)
            assert violates(*err.value.pair)
        else:
            seen["geodesic"] += 1
            assert pair is None
            assert extend_geodesic_layering(g, part, lam) == ext
    assert min(seen.values()) >= 800, seen


def test_partition_check_needs_no_per_vertex_bfs():
    res = chordal_geodesic_partition(gen_grid(30, 30), 5)
    assert len(res.gp.parts) == 93
    original = OrderedGraph.bfs_distances
    calls = 0

    def counting(self, source):
        nonlocal calls
        calls += 1
        return original(self, source)

    OrderedGraph.bfs_distances = counting
    try:
        ok = check_geodesic_partition(res.graph, res.gp, 3)
    finally:
        OrderedGraph.bfs_distances = original
    assert ok
    assert calls == 0


def test_quotient_graph():
    g = path(4)
    parts = [frozenset({0, 1}), frozenset({2, 3})]
    h = quotient(g, parts)
    assert h.vertices == (0, 1)
    assert h.has_edge(0, 1)


def test_chordal_ordering_check():
    # triangle in natural order: 2 sees the clique {0, 1}
    k3 = OrderedGraph(range(3), [(0, 1), (0, 2), (1, 2)])
    ok, d = check_chordal_ordering(k3)
    assert ok and d == 2
    # 4-cycle: vertex 3 sees {0, 2} which are not adjacent
    c4 = OrderedGraph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    ok, _ = check_chordal_ordering(c4)
    assert not ok


def test_geodesic_partition_check():
    g = path(4)
    parts = [frozenset({0}), frozenset({1}), frozenset({2}), frozenset({3})]
    from bakergame.graph import GeodesicPartition

    gp = GeodesicPartition(
        tuple(parts), tuple({v: 0} for v in range(4)), quotient(g, parts)
    )
    assert check_geodesic_partition(g, gp, 1)


def test_embedding_validation_and_layering():
    g = OrderedGraph(range(4), [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3), (1, 2)])
    emb = Embedding(2, 1, {0: (0.0, 0.0), 1: (0.0, 1.0), 2: (1.0, 0.0), 3: (1.0, 1.0)})
    validate_embedding(g, emb)
    assert emb.coordinate_layering(g, 0) == {0: 0, 1: 0, 2: 1, 3: 1}
    bad = Embedding(2, 1, {0: (0.0, 0.0), 1: (0.0, 0.5), 2: (1.0, 0.0), 3: (1.0, 1.0)})
    with pytest.raises(GraphError):
        validate_embedding(g, bad)  # vertices 0 and 1 too close
