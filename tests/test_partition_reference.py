"""The partition builder against the quadratic build it replaced.

reference_partition below is the earlier chordal_geodesic_partition,
kept verbatim apart from its name and the annotation mapping that
graphs no longer carry.  For each piece it copies the piece,
runs a full breadth-first search, finds a parent for every vertex and
splits the rest with a second full search.  The near-linear builder in
strategies must return exactly what it returns: the same permutation,
reordered graph, parts, part layerings and quotient, or the same
MinorWitness.
"""

import random
import time
from collections import deque

import networkx as nx
import pytest

from bakergame.generators import gen_apex_grid, gen_grid, gen_ktree
from bakergame.graph import GeodesicPartition, GraphError, OrderedGraph, quotient
from bakergame.strategies import (
    MinorWitness,
    PartitionResult,
    build_strategy,
    chordal_geodesic_partition,
)


def reference_partition(graph, k):
    if k < 3:
        raise GraphError("need k >= 3, got %d" % k)
    d = k - 2
    part_sets = []
    part_depths = []
    queue = deque((comp, ()) for comp in graph.components())
    while queue:
        comp, boundary = queue.popleft()
        if boundary:
            last = part_sets[boundary[-1]]
            cand = sorted(v for v in comp if graph.adj[v] & last)
            root = cand[0]
        else:
            root = min(comp)
        sub = graph.induced(comp)
        depth = sub.bfs_distances(root)
        parent = {}
        for v in sorted(comp):
            if v != root:
                parent[v] = min(w for w in sub.adj[v] if depth[w] == depth[v] - 1)
        part = {root}
        for q in boundary:
            qset = part_sets[q]
            x = min(
                (v for v in comp if graph.adj[v] & qset),
                key=lambda v: (depth[v], v),
            )
            while x != root:
                part.add(x)
                x = parent[x]
        idx = len(part_sets)
        part_sets.append(frozenset(part))
        part_depths.append({v: depth[v] for v in part})
        rest = sub.induced(comp - part)
        for child in rest.components():
            near = tuple(
                q
                for q in list(boundary) + [idx]
                if any(graph.adj[v] & child for v in part_sets[q])
            )
            if len(near) > d:
                branch = tuple(part_sets[q] for q in near[: k - 1]) + (child,)
                return MinorWitness(k, branch)
            queue.append((child, near))
    order = []
    for i, p in enumerate(part_sets):
        order.extend(sorted(p, key=lambda v: (part_depths[i][v], v)))
    perm = {v: i for i, v in enumerate(order)}
    adj = {
        perm[v]: frozenset(perm[w] for w in graph.adj[v]) for v in graph.vertices
    }
    newg = OrderedGraph(range(graph.n), _adj=adj)
    parts = tuple(frozenset(perm[v] for v in p) for p in part_sets)
    layerings = tuple(
        {perm[v]: dep for v, dep in part_depths[i].items()} for i in range(len(parts))
    )
    gp = GeodesicPartition(parts, layerings, quotient(newg, parts))
    return PartitionResult(newg, perm, gp)


def _key(res):
    """Everything a result holds, in comparable form."""
    if isinstance(res, MinorWitness):
        return ("witness", res.k, res.branch_sets)
    g, gp = res.graph, res.gp
    return (
        "partition",
        res.perm,
        g.vertices,
        g.adj,
        gp.parts,
        gp.part_layerings,
        gp.quotient_graph.vertices,
        gp.quotient_graph.adj,
    )


def _random_sparse(rng, n):
    p = rng.uniform(0.03, 0.3)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    rng.sample(range(n), n // 3)  # a draw the corpus always made; later graphs stay the same
    return OrderedGraph(range(n), edges)


def _corpus():
    graphs = []
    for G in nx.graph_atlas_g()[1:]:  # 1 to 7 vertices
        mp = {v: i for i, v in enumerate(sorted(G.nodes()))}
        graphs.append(OrderedGraph(range(len(mp)), [(mp[u], mp[v]) for u, v in G.edges()]))
    graphs += [gen_grid(r, c) for r in range(1, 12) for c in range(r, 12)]
    graphs += [gen_apex_grid(s) for s in range(1, 10)]
    rng = random.Random(17)
    for d in range(1, 5):
        graphs += [gen_ktree(rng.randint(d + 1, 40), d, seed=rng.randrange(10**6)) for _ in range(15)]
    graphs += [_random_sparse(rng, rng.randint(2, 45)) for _ in range(250)]
    return graphs


def test_builder_matches_the_reference():
    t0 = time.monotonic()
    cases = witnesses = 0
    for g in _corpus():
        for k in (3, 4, 5, 6):
            got = chordal_geodesic_partition(g, k)
            assert _key(got) == _key(reference_partition(g, k)), (g.edge_list(), k)
            cases += 1
            witnesses += isinstance(got, MinorWitness)
    # the corpus reaches both outcomes often
    assert cases > 6000 and 2000 < witnesses < cases - 2000
    assert time.monotonic() - t0 < 30.0


def test_builder_rejects_small_k_like_the_reference():
    for k in (-1, 0, 1, 2):
        with pytest.raises(GraphError, match="need k >= 3"):
            chordal_geodesic_partition(gen_grid(2, 2), k)


def test_long_grid_builds_quickly():
    # n = 6,400; the reference takes 18-24 s here, the builder under 0.5 s
    t0 = time.monotonic()
    g2, strat, perm = build_strategy("minorfree:5", gen_grid(5, 1280))
    assert time.monotonic() - t0 < 5.0
    assert g2.n == 6400 and len(perm) == 6400
    assert len(strat.gp.parts) == strat.h.n
