import ast
import copy
import math
import pickle
import random
import re
from functools import partial
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bakergame import graph as graph_module
from bakergame.graph import (
    Embedding,
    GeodesicPartition,
    GraphError,
    NotGeodesicError,
    OrderedGraph,
    PartitionError,
    bfs_layering,
    bits_of,
    check_chordal_ordering,
    check_geodesic_partition,
    extend_geodesic_layering,
    geodesic_partition_violation,
    is_geodesic,
    is_valid_layering,
    layering_width,
    quotient,
    spread_componentwise_layering,
    validate_embedding,
)
from bakergame.generators import gen_grid, gen_ktree
from bakergame.strategies import (
    MinorWitness,
    build_strategy,
    chordal_geodesic_partition,
)


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


def test_induced_keeps_ids():
    g = OrderedGraph(range(4), [(0, 1), (1, 2), (2, 3)])
    h = g.induced({1, 2, 3})
    assert h.vertices == (1, 2, 3)
    assert h.has_edge(1, 2) and not h.has_edge(0, 1)


def test_isolated_vertices_share_one_empty_neighbour_set():
    g = OrderedGraph(range(100000))
    assert len({id(a) for a in g.adj.values()}) == 1 and not g.adj[0]
    g = OrderedGraph(range(5), [(0, 1)])
    assert g.adj[2] is g.adj[3] is g.adj[4] and g.adj[0] == {1} and g.adj[1] == {0}


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


def test_partition_check_builds_no_suffix_graphs(monkeypatch):
    # part i's suffix graph is never built: the only induced graphs are
    # the parts themselves, for their partial-layering check
    res = chordal_geodesic_partition(gen_grid(30, 30), 5)
    assert len(res.gp.parts) == 93
    largest = max(map(len, res.gp.parts))
    original = OrderedGraph.induced
    sizes = []

    def recording(self, vs):
        h = original(self, vs)
        sizes.append(h.n)
        return h

    monkeypatch.setattr(OrderedGraph, "induced", recording)
    assert check_geodesic_partition(res.graph, res.gp, 3)
    assert sizes and max(sizes) <= largest


def _reference_partition_violation(graph, gp, d):
    """The check by its definition: per part, the suffix graph built by
    induced, and one BFS per part vertex in it.  Returns (reason, violates)
    with the reason cut after "at " when a pair violates, and violates
    the pair test of the part that failed (None otherwise)."""
    try:
        q = quotient(graph, gp.parts)
    except PartitionError as exc:
        return str(exc), None
    if q != gp.quotient_graph:
        return "stored quotient differs from quotient of the parts", None
    if len(gp.part_layerings) != len(gp.parts):
        return "layering count differs from part count", None
    suffix = set(graph.vertices)
    for i, part in enumerate(gp.parts):
        lam = gp.part_layerings[i]
        if set(lam) != set(part):
            return "layering %d does not cover part %d" % (i, i), None
        if layering_width(lam) > d:
            return "part %d has layering width above %d" % (i, d), None
        sub = graph.induced(suffix)
        bad = [(u, v) for u, v in graph.edge_list() if u in part and v in part]
        bad = [(u, v) for u, v in bad if abs(lam[u] - lam[v]) > 1]
        if bad:
            (u, v) = bad[0]
            gap = abs(lam[u] - lam[v])
            return "part %d: partial layering gap %d on edge (%d,%d)" % (i, gap, u, v), None
        dist = {x: sub.bfs_distances(x) for x in part}

        def violates(x, y, dist=dist, lam=lam):
            dxy = dist[x].get(y)
            return dxy is not None and dxy < abs(lam[x] - lam[y])

        if any(violates(x, y) for x in part for y in part):
            return "part %d layering not geodesic in the suffix graph at " % i, violates
        suffix -= part
    return None, None


def _random_partition(rng):
    """A graph with an ordered partition and part labels drawn to hit
    every verdict of the check, or a built partition with one label
    moved."""
    if rng.random() < 0.25:
        if rng.random() < 0.5:
            g = gen_grid(rng.randint(1, 5), rng.randint(2, 5))
        else:
            g = gen_ktree(rng.randint(4, 12), rng.choice((2, 3)), seed=rng.randrange(10**6))
        res = chordal_geodesic_partition(g, 5)
        if isinstance(res, MinorWitness):
            return None
        gp = res.gp
        lams = [dict(lam) for lam in gp.part_layerings]
        lam = rng.choice(lams)
        lam[rng.choice(sorted(lam))] += rng.choice((-2, -1, 1, 2))
        return res.graph, GeodesicPartition(gp.parts, tuple(lams), gp.quotient_graph), 3
    n = rng.randint(1, 14)
    p = rng.uniform(0.1, 0.5)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    g = OrderedGraph(range(n), edges)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, (n - 1) // 3)))
    parts = [frozenset(range(a, b)) for a, b in zip([0] + cuts, cuts + [n])]
    lams = []
    for part in parts:
        if rng.random() < 0.6:
            # distances from a vertex of the graph or of the part's suffix
            # (which may not be geodesic in the graph): geodesic in the
            # suffix until one label moves
            host = g if rng.random() < 0.5 else g.induced(range(min(part), n))
            dist = host.bfs_distances(rng.choice(host.vertices))
            off = rng.randint(-3, 3)
            lam = {v: dist.get(v, 0) + off for v in part}
            if rng.random() < 0.5:
                # move one label as far as its neighbours in the part allow
                v = rng.choice(sorted(part))
                near = [lam[w] for w in g.adj[v] & part]
                lo, hi = (max(near) - 1, min(near) + 1) if near else (lam[v] - 3, lam[v] + 3)
                lam[v] = rng.randint(lo, hi) if lo <= hi else lam[v] + 2
        else:
            lam = {v: rng.randint(-2, 3) for v in part}
        lams.append(lam)
    roll = rng.random()
    if roll < 0.03 and len(parts) > 1:
        parts.reverse()
        lams.reverse()
    elif roll < 0.05:
        lams.pop()
    elif roll < 0.07:
        lams[-1] = dict(lams[-1], **{str(n): 0})
    q = quotient(g, parts) if roll >= 0.03 or len(parts) == 1 else OrderedGraph(range(len(parts)))
    if 0.07 <= roll < 0.09:
        q = OrderedGraph(range(len(parts) + 1))
    return g, GeodesicPartition(tuple(parts), tuple(lams), q), rng.randint(1, 5)


def test_partition_check_matches_suffix_graph_reference():
    rng = random.Random(11)
    seen = {}
    for _ in range(6000):
        drawn = _random_partition(rng)
        if drawn is None:
            continue
        graph, gp, d = drawn
        reason = geodesic_partition_violation(graph, gp, d)
        ref, violates = _reference_partition_violation(graph, gp, d)
        if violates is None:
            assert reason == ref
        else:
            assert reason.startswith(ref)
            x, y = ast.literal_eval(reason[len(ref) :])
            assert violates(x, y)
        kind = re.sub(r"-?\d+", "#", ref or "valid")
        if ref is None and not all(map(partial(is_geodesic, graph), gp.parts, gp.part_layerings)):
            kind = "valid, though not geodesic in the whole graph"
        seen[kind] = seen.get(kind, 0) + 1
    assert len(seen) == 9 and min(seen.values()) >= 40, seen


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


@pytest.mark.parametrize(
    "beta,x,edges",
    [
        (math.nan, 5.0, [(0, 1)]),
        (math.inf, 5.0, [(0, 1)]),
        (1.0, math.nan, [(0, 1)]),
        (1.0, math.inf, []),
    ],
)
def test_embedding_validation_rejects_non_finite_values(beta, x, edges):
    g = OrderedGraph(range(2), edges)
    with pytest.raises(GraphError, match="finite"):
        validate_embedding(g, Embedding(1, beta, {0: (0.0,), 1: (x,)}))


def _count_partition_scans(monkeypatch):
    scans = []
    scan = graph_module.geodesic_partition_violation

    def counted(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(graph_module, "geodesic_partition_violation", counted)
    return scans


def test_remembered_verdicts_stay_out_of_pickles():
    g2, strat, _ = build_strategy("minorfree:5", gen_grid(4, 4))
    gp, h = strat.gp, strat.gp.quotient_graph
    before = (pickle.dumps(g2), pickle.dumps(h))
    g2.vertex_bits()
    assert check_chordal_ordering(h) == (True, 3)
    assert check_geodesic_partition(g2, gp, strat.d)
    assert g2._partition and h._chordal
    assert (pickle.dumps(g2), pickle.dumps(h)) == before
    clone = pickle.loads(pickle.dumps(g2))
    assert clone == g2 and clone._chordal is None and clone._partition is None


def test_verdicts_are_remembered_per_graph_partition_and_width(monkeypatch):
    res = chordal_geodesic_partition(gen_grid(4, 4), 5)
    g, gp = res.graph, res.gp
    scans = _count_partition_scans(monkeypatch)
    assert check_geodesic_partition(g, gp, 3)
    assert check_geodesic_partition(g, gp, 3)
    assert len(scans) == 1
    # an equal but distinct graph, a copied partition and another width
    # are each judged on their own
    assert check_geodesic_partition(OrderedGraph(g.vertices, g.edge_list()), gp, 3)
    assert check_geodesic_partition(g, copy.copy(gp), 3)
    assert not check_geodesic_partition(g, gp, 0)
    assert not check_geodesic_partition(g, gp, 0)
    assert len(scans) == 4
    assert check_chordal_ordering(gp.quotient_graph) is check_chordal_ordering(gp.quotient_graph)


def test_bits_of_matches_a_sum_of_powers():
    # lists with repeats, one-pass iterators and groupby groups, relative
    # to 0 or to a positive smallest vertex; vertex_bits agrees
    rng = random.Random(23)
    for _ in range(500):
        vs = rng.choices(range(rng.randint(1, 400)), k=rng.randint(0, 40))
        for lo in {0, min(vs, default=0)}:
            want = sum(1 << (v - lo) for v in set(vs))
            assert bits_of(vs, lo) == want
            assert bits_of(iter(vs), lo) == want
        g = OrderedGraph(vs)
        assert g.vertex_bits() == bits_of(vs, min(vs, default=0))
        lam = {v: rng.randint(-3, 3) for v in set(vs)}
        order = sorted(lam, key=lam.__getitem__)
        for lab, group in groupby(order, key=lam.__getitem__):
            assert bits_of(group) == sum(1 << v for v in lam if lam[v] == lab)
