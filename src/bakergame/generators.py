"""Input families used by the command line tool and the tests."""

import random

from .graph import Embedding, OrderedGraph


def gen_grid(rows, cols):
    """Planar grid, vertices numbered row-major."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs positive dimensions")
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return OrderedGraph(range(rows * cols), edges)


def gen_apex_grid(n):
    """n x n grid plus vertex 0 adjacent to every grid vertex."""
    if n < 1:
        raise ValueError("grid needs a positive dimension")
    edges = []
    for i in range(n):
        for j in range(n):
            v = 1 + i * n + j
            edges.append((0, v))
            if j + 1 < n:
                edges.append((v, v + 1))
            if i + 1 < n:
                edges.append((v, v + n))
    return OrderedGraph(range(n * n + 1), edges)


def gen_diag_grid(n):
    """King-move lattice: n x n points adjacent whenever both
    coordinates differ by at most one.  Comes with its own exact unit
    embedding (distortion 1)."""
    if n < 1:
        raise ValueError("grid needs a positive dimension")
    edges = []
    coords = {}
    for i in range(n):
        for j in range(n):
            v = i * n + j
            coords[v] = (float(i), float(j))
            for di, dj in ((0, 1), (1, -1), (1, 0), (1, 1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < n and 0 <= jj < n:
                    edges.append((v, ii * n + jj))
    g = OrderedGraph(range(n * n), edges)
    emb = Embedding(2, 1, coords)
    return g, emb


def gen_ktree(n, d, seed=0):
    """Random d-tree on n vertices in construction order: a (d+1)-clique
    followed by vertices each adjacent to a random d-clique so far.  Its
    natural ordering is chordal with left-degree d."""
    if d < 0:
        raise ValueError("need d >= 0")
    if n < d + 1:
        raise ValueError("need at least d + 1 vertices")
    rng = random.Random(seed)
    base = list(range(d + 1))
    edges = [(u, v) for i, u in enumerate(base) for v in base[i + 1 :]]
    cliques = [tuple(base)]
    for v in range(d + 1, n):
        clique = list(rng.choice(cliques))
        if d:
            drop = rng.randrange(len(clique))
            rest = clique[:drop] + clique[drop + 1 :]
        else:
            rest = []
        for u in rest:
            edges.append((u, v))
        cliques.append(tuple(sorted(rest + [v])))
        cliques.append(tuple(clique))
    return OrderedGraph(range(n), edges)


def gen_random_instance(problem, graph, seed=0, colors=2):
    """Random annotation sets for the optimization problems: a demand
    set plus up to two hit-sets, a forbidden set, or color lists."""
    from .ptas import ColorInstance, DomSetInstance, ISInstance

    rng = random.Random(seed)
    vs = list(graph.vertices)
    if problem == "domset":
        demand = frozenset(v for v in vs if rng.random() < 0.7)
        hits = []
        for _ in range(rng.randrange(3)):
            h = frozenset(v for v in vs if rng.random() < 0.4)
            if h:
                hits.append(h)
        return DomSetInstance(graph, demand, tuple(hits))
    if problem == "mis":
        forb = frozenset(v for v in vs if rng.random() < 0.2)
        return ISInstance(graph, forb)
    if problem == "ccolorable":
        full = range(1, colors + 1)
        lists = []
        for v in vs:
            lst = frozenset(a for a in full if rng.random() < 0.8)
            lists.append((v, lst if lst else frozenset({1})))
        return ColorInstance(graph, colors, tuple(lists))
    raise ValueError("unknown problem %r" % problem)
