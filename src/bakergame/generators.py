"""Input families used by the command line tool and the tests."""

import random

from .graph import _NO_NEIGHBOURS, Embedding, OrderedGraph


def gen_grid(rows, cols):
    """Planar grid, vertices numbered row-major."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs positive dimensions")
    n = rows * cols
    adj = {}
    for v in range(n):
        # up, left, right, down: the order an edge list would fill them in
        nbrs = [v - cols] if v >= cols else []
        if v % cols:
            nbrs.append(v - 1)
        if (v + 1) % cols:
            nbrs.append(v + 1)
        if v + cols < n:
            nbrs.append(v + cols)
        adj[v] = frozenset(nbrs) or _NO_NEIGHBOURS
    vs = tuple(range(n))
    return OrderedGraph._raw(vs, frozenset(vs), adj, rows * (cols - 1) + (rows - 1) * cols)


def gen_apex_grid(n):
    """n x n grid plus vertex 0 adjacent to every grid vertex."""
    if n < 1:
        raise ValueError("grid needs a positive dimension")
    last = n * n
    adj = {0: frozenset(range(1, last + 1))}
    for v in range(1, last + 1):
        # up, left, apex, right, down: the order an edge list would fill them in
        nbrs = [v - n] if v > n else []
        if (v - 1) % n:
            nbrs.append(v - 1)
        nbrs.append(0)
        if v % n:
            nbrs.append(v + 1)
        if v + n <= last:
            nbrs.append(v + n)
        # five neighbours outgrow a set's first table; copying the set
        # lays them out as a set filled by edges and then frozen would be
        adj[v] = frozenset(set(nbrs))
    vs = tuple(range(last + 1))
    return OrderedGraph._raw(vs, frozenset(vs), adj, last + 2 * n * (n - 1))


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
    base = tuple(range(d + 1))
    # neighbour sets grow in increasing order, as an edge list would fill them
    nbrs = [set(base[:v] + base[v + 1 :]) for v in base]
    cliques = [base]
    for v in range(d + 1, n):
        clique = rng.choice(cliques)  # d + 1 vertices in increasing order
        drop = rng.randrange(d + 1) if d else 0
        rest = clique[:drop] + clique[drop + 1 :]
        for u in rest:
            nbrs[u].add(v)
        nbrs.append(set(rest))
        cliques.append(rest + (v,))
        cliques.append(clique)
    vs = tuple(range(n))
    adj = {v: frozenset(s) or _NO_NEIGHBOURS for v, s in enumerate(nbrs)}
    return OrderedGraph._raw(vs, frozenset(vs), adj, d * (d + 1) // 2 + (n - d - 1) * d)


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
