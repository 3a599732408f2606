"""Ordered graphs, layerings and geodesic machinery.

An ordered graph is a finite simple graph whose vertices are integers;
the vertex order is the numeric order.  Vertex ids need not be dense:
induced subgraphs keep the original ids so that transcripts and
solutions can always be traced back to the input.
"""

import math
from collections import defaultdict, deque
from dataclasses import dataclass


class GraphError(ValueError):
    pass


class NotALayeringError(GraphError):
    pass


class NotGeodesicError(GraphError):
    """Raised with a violating vertex pair attached: pair = (x, y) with
    d(x, y) < |lam(x) - lam(y)|, not necessarily the first such pair in
    vertex order."""

    def __init__(self, msg, pair=None):
        super().__init__(msg)
        self.pair = pair


class PartitionError(GraphError):
    pass


def bits_of(vs, lo=0):
    """The int with bit v - lo set for every v in vs, in one pass."""
    bits = 0
    for v in vs:
        bits |= 1 << (v - lo)
    return bits


_NO_NEIGHBOURS = frozenset()


class OrderedGraph:
    """Immutable simple graph on integer vertices, ordered numerically.

    Besides vertex_bits, a graph caches its chordal verdict (_chordal) and
    (gp, d, verdict) for the last partition it checked (_partition): gp,
    never mutated either, stays alive there, so its id is not reused."""

    __slots__ = ("vertices", "adj", "_vset", "_m", "_bits", "_chordal", "_partition")

    def __init__(self, vertices, edges=(), _adj=None):
        vs = tuple(sorted(set(vertices)))
        self.vertices = vs
        self._vset = vset = frozenset(vs)
        self._bits = None
        self._chordal = self._partition = None
        if _adj is not None:
            self.adj = _adj
        else:
            nbrs = defaultdict(set)
            for u, v in edges:
                if u == v:
                    raise GraphError("loop at vertex %d" % u)
                if u not in vset or v not in vset:
                    raise GraphError("edge (%d,%d) uses unknown vertex" % (u, v))
                nbrs[u].add(v)
                nbrs[v].add(u)
            # frozenset of a frozenset is that object: isolated vertices share _NO_NEIGHBOURS
            self.adj = {v: frozenset(nbrs.get(v, _NO_NEIGHBOURS)) for v in vs}
        self._m = sum(len(a) for a in self.adj.values()) // 2

    @classmethod
    def _raw(cls, vertices, vset, adj, m, bits=None):
        """Trusted constructor: vertices sorted, adj restricted to vset."""
        g = object.__new__(cls)
        g.vertices = vertices
        g._vset = vset
        g.adj = adj
        g._m = m
        g._bits = bits
        g._chordal = g._partition = None
        return g

    def __reduce__(self):
        # the cached vertex_bits and verdicts stay out of pickles
        return (OrderedGraph._raw, (self.vertices, self._vset, self.adj, self._m))

    @property
    def n(self):
        return len(self.vertices)

    @property
    def m(self):
        return self._m

    @property
    def vertex_set(self):
        return self._vset

    def neighbors(self, v):
        return self.adj[v]

    def has_edge(self, u, v):
        return v in self.adj.get(u, ())

    def smallest(self):
        if not self.vertices:
            raise GraphError("empty graph has no smallest vertex")
        return self.vertices[0]

    def vertex_bits(self):
        """The vertex set as an int with bit v - smallest() set for every
        vertex v (0 when empty).  Cached; delete_smallest derives its
        result's by one shift."""
        if self._bits is None:
            self._bits = bits_of(self.vertices, self.vertices[0]) if self.vertices else 0
        return self._bits

    def edge_list(self):
        return sorted((u, v) for u in self.vertices for v in self.adj[u] if u < v)

    def induced(self, vs):
        keep = self._vset & frozenset(vs)
        gone = self._vset - keep
        if not gone:
            return self
        if 4 * len(gone) < len(keep):
            # few removals: copy the adjacency, patch the removed vertices' neighbors
            adj = dict(self.adj)
            touched = set()
            for v in gone:
                del adj[v]
                touched.update(self.adj[v])
            for w in touched - gone:
                adj[w] = adj[w] & keep
            vertices = tuple(filter(keep.__contains__, self.vertices))
        else:
            vertices = tuple(sorted(keep))
            adj = {v: self.adj[v] & keep for v in vertices}
        m = sum(map(len, adj.values())) // 2
        return OrderedGraph._raw(vertices, keep, adj, m)

    def delete_smallest(self):
        """induced(vertex_set - {smallest}), touching only its neighbors."""
        v = self.smallest()
        nbrs = self.adj[v]
        adj = dict(self.adj)
        del adj[v]
        gone = (v,)
        for w in nbrs:
            adj[w] = adj[w].difference(gone)
        vertices = self.vertices[1:]
        bits = self._bits
        if bits is not None:
            bits = bits >> (vertices[0] - v) if vertices else 0
        return OrderedGraph._raw(vertices, self._vset.difference(gone), adj, self._m - len(nbrs), bits)

    def bfs_distances(self, source):
        if source not in self._vset:
            raise GraphError("unknown source vertex %d" % source)
        dist = {source: 0}
        q = deque([source])
        while q:
            u = q.popleft()
            du = dist[u]
            for w in self.adj[u]:
                if w not in dist:
                    dist[w] = du + 1
                    q.append(w)
        return dist

    def components(self):
        """Connected components as frozensets, ordered by smallest member."""
        seen = set()
        comps = []
        for v in self.vertices:
            if v in seen:
                continue
            comp = set(self.bfs_distances(v))
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    def is_connected(self):
        return self.n <= 1 or len(self.bfs_distances(self.smallest())) == self.n

    def __eq__(self, other):
        if not isinstance(other, OrderedGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.adj == other.adj

    def __hash__(self):
        return hash((self.vertices, frozenset(self.edge_list())))

    def __repr__(self):
        return "OrderedGraph(n=%d, m=%d)" % (self.n, self.m)


def is_valid_layering(graph, lam):
    """True iff require_layering accepts lam."""
    try:
        require_layering(graph, lam)
    except NotALayeringError:
        return False
    return True


def require_layering(graph, lam, what="layering"):
    missing = graph.vertex_set.difference(lam)
    if missing:
        raise NotALayeringError("%s misses vertex %d" % (what, min(missing)))
    for u, nbrs in graph.adj.items():
        lu = lam[u]
        for w in nbrs:
            if not -1 <= lam[w] - lu <= 1:
                # report the first bad edge in edge order
                a, b = next(e for e in graph.edge_list() if abs(lam[e[0]] - lam[e[1]]) > 1)
                raise NotALayeringError(
                    "%s gap %d on edge (%d,%d)" % (what, abs(lam[a] - lam[b]), a, b)
                )


def layering_width(lam):
    if not lam:
        return 0
    counts = {}
    for lab in lam.values():
        counts[lab] = counts.get(lab, 0) + 1
    return max(counts.values())


def bfs_layering(graph, source):
    """Distance-from-source layering; the graph must be connected."""
    dist = graph.bfs_distances(source)
    if len(dist) != graph.n:
        far = min(graph.vertex_set - set(dist))
        raise GraphError(
            "graph disconnected: no path between %d and %d" % (source, far)
        )
    return dist


def spread_componentwise_layering(graph, r):
    """Label all of component i (0-based, by smallest vertex) with r*(i+1).

    Spacing r means a window of r consecutive labels meets at most one
    component, so any reply to a Restrict with this layering keeps a
    single (connected) piece.
    """
    if r < 1:
        raise GraphError("spread must be positive, got %r" % (r,))
    lam = {}
    for i, comp in enumerate(graph.components()):
        for v in comp:
            lam[v] = r * (i + 1)
    return lam


def _pull_down(graph, part, lam, lowest=None, stop=None):
    """One bucketed BFS from every vertex of part at once.

    Returns (best, src): best[v] = max over x in part of lam[x] - d(x, v)
    for every v that part reaches in graph, and src[v] a vertex x of
    part attaining it.  Sources start in (-lam, vertex) order, each x
    when the level falls to lam[x]; a vertex keeps the first, highest
    level that reaches it.  An empty frontier jumps the level to the
    next source's label.  O(n + m) plus a sort of part.  Vertices below
    lowest count as absent; with stop, the sweep ends once every level
    >= stop is settled, which at the part's lowest label finishes part.
    """
    unknown = part - graph.vertex_set
    if unknown:
        raise GraphError("unknown source vertex %d" % min(unknown))
    sources = sorted(part, key=lambda x: (-lam[x], x))
    adj = graph.adj
    lowest = (graph.vertices or (0,))[0] if lowest is None else lowest
    best = {}
    src = {}
    frontier = []
    level = 0
    i = 0
    while frontier or i < len(sources):
        if not frontier:
            level = lam[sources[i]]
        while i < len(sources) and lam[sources[i]] == level:
            x = sources[i]
            i += 1
            if x not in best:
                best[x] = level
                src[x] = x
                frontier.append(x)
        if level == stop:
            break
        level -= 1
        nxt = []
        for u in frontier:
            s = src[u]
            for w in adj[u]:
                if w >= lowest and w not in best:
                    best[w] = level
                    src[w] = s
                    nxt.append(w)
        frontier = nxt
    return best, src


def _geodesic_sweep(graph, part, lam, lowest=None, stop=None):
    """Check lam on graph[part], pull it down; return (best, witness)."""
    require_layering(graph.induced(part), {v: lam[v] for v in part}, "partial layering")
    best, src = _pull_down(graph, part, lam, lowest, stop)
    # best[y] >= lam[y] always; it is larger exactly when some x has
    # d(x, y) < lam[x] - lam[y], and src[y] is such an x
    low = [y for y in part if best[y] != lam[y]]
    if not low:
        return best, None
    y = min(low)
    return best, (src[y], y)


def is_geodesic(graph, part, lam, return_witness=False):
    """Check d_G(x, y) >= |lam(x) - lam(y)| for all x, y in part.

    lam must be a valid layering of graph[part]; unreachable pairs are
    unconstrained.  One sweep (_pull_down) computes best[v] = max over x
    in part of lam[x] - d(x, v).  Every violating pair has a lower end y
    with best[y] > lam[y], and best[y] > lam[y] means some x violates
    with y, so the part is geodesic exactly when best agrees with lam on
    part.  The witness is (src[y], y) for the smallest such y: always a
    violating pair, not necessarily the first in vertex order.
    """
    part = frozenset(part)
    _, pair = _geodesic_sweep(graph, part, lam, stop=min((lam[v] for v in part), default=0))
    if return_witness:
        return pair is None, pair
    return pair is None


def extend_geodesic_layering(graph, part, lam):
    """Extend a geodesic partial layering on part to all of graph.

    Each vertex gets max over x in part of lam[x] - d(x, v); vertices
    unreachable from part get label 0.  The result is a valid layering
    of the whole graph agreeing with lam on part.  The one sweep that
    checks the part (see is_geodesic) computes these maxima too.
    """
    part = frozenset(part)
    best, pair = _geodesic_sweep(graph, part, lam)
    if pair is not None:
        x, y = pair
        raise NotGeodesicError(
            "labels %d,%d of %d,%d exceed their distance" % (lam[x], lam[y], x, y),
            pair=pair,
        )
    ext = {v: best.get(v, 0) for v in graph.vertices}
    require_layering(graph, ext, "extended layering")
    for v in part:
        if ext[v] != lam[v]:
            raise GraphError("extension relabels vertex %d of the part" % v)
    return ext


@dataclass(frozen=True)
class GeodesicPartition:
    """Ordered partition with a stored layering per part and the quotient.

    A graph remembers its check_geodesic_partition verdict on the last
    partition object it checked, so part_layerings must not be changed
    once a graph has checked the partition."""

    parts: tuple  # tuple of frozensets, respecting the vertex order
    part_layerings: tuple  # tuple of dicts, one per part
    quotient_graph: "OrderedGraph"


def quotient(graph, parts):
    """Contract each part to one vertex; parts must respect the order."""
    prev_max = None
    seen = set()
    for p in parts:
        p = frozenset(p)
        if not p:
            raise PartitionError("empty part")
        if p & seen:
            raise PartitionError("parts overlap")
        if prev_max is not None and min(p) < prev_max:
            raise PartitionError("parts do not respect the vertex order")
        prev_max = max(p)
        seen |= p
    if seen != graph.vertex_set:
        raise PartitionError("parts do not cover the vertex set")
    where = {}
    for i, p in enumerate(parts):
        for v in p:
            where[v] = i
    edges = set()
    for u, v in graph.edge_list():
        a, b = where[u], where[v]
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return OrderedGraph(range(len(parts)), edges)


def check_chordal_ordering(graph):
    """Return (is_chordal, max_left_degree).

    Chordal here means: for every vertex, its smaller neighbors form a
    clique.  max_left_degree is reported either way.  The graph
    remembers the answer.
    """
    if graph._chordal is None:
        ok = True
        max_ld = 0
        for v in graph.vertices:
            left = sorted(w for w in graph.adj[v] if w < v)
            max_ld = max(max_ld, len(left))
            for i, a in enumerate(left):
                for b in left[i + 1 :]:
                    if not graph.has_edge(a, b):
                        ok = False
        graph._chordal = (ok, max_ld)
    return graph._chordal


def geodesic_partition_violation(graph, gp, d):
    """None if gp is a width-d geodesic partition of graph, else a reason."""
    try:
        q = quotient(graph, gp.parts)
    except PartitionError as exc:
        return str(exc)
    if q != gp.quotient_graph:
        return "stored quotient differs from quotient of the parts"
    if len(gp.part_layerings) != len(gp.parts):
        return "layering count differs from part count"
    for i, part in enumerate(gp.parts):
        lam = gp.part_layerings[i]
        part = frozenset(part)
        if set(lam) != part:
            return "layering %d does not cover part %d" % (i, i)
        if layering_width(lam) > d:
            return "part %d has layering width above %d" % (i, d)
        # the parts respect the order, so the suffix is the vertices >= min(part)
        try:
            _, pair = _geodesic_sweep(graph, part, lam, min(part), min(lam.values()))
        except NotALayeringError as exc:
            return "part %d: %s" % (i, exc)
        if pair is not None:
            return "part %d layering not geodesic in the suffix graph at %s" % (i, pair)
    return None


def check_geodesic_partition(graph, gp, d):
    """True iff gp is a width-d geodesic partition of graph.  The graph
    remembers the verdict on the last gp object and d it judged."""
    last = graph._partition
    if last is None or last[0] is not gp or last[1] != d:
        last = graph._partition = (gp, d, geodesic_partition_violation(graph, gp, d) is None)
    return last[2]


@dataclass(frozen=True)
class Embedding:
    """Map into R^dim under the max metric: distinct vertices at least 1
    apart, endpoints of edges at most beta apart."""

    dim: int
    beta: float
    coords: dict  # vertex -> tuple of floats

    def coordinate_layering(self, graph, axis):
        lam = {}
        for v in graph.vertices:
            lam[v] = math.floor(self.coords[v][axis] / self.beta)
        return lam


def validate_embedding(graph, emb):
    if emb.dim < 1:
        raise GraphError("embedding dimension must be positive")
    if not 0 < emb.beta < math.inf:
        raise GraphError("embedding beta must be positive and finite")
    for v in graph.vertices:
        xs = emb.coords.get(v, ())
        if len(xs) != emb.dim or not all(map(math.isfinite, xs)):
            raise GraphError("embedding has no finite position for vertex %d" % v)
    vs = graph.vertices
    for i, u in enumerate(vs):
        cu = emb.coords[u]
        for v in vs[i + 1 :]:
            cv = emb.coords[v]
            d = max(abs(a - b) for a, b in zip(cu, cv))
            if d < 1 - 1e-9:
                raise GraphError("vertices %d,%d closer than 1 (%.4f)" % (u, v, d))
    for u, v in graph.edge_list():
        cu, cv = emb.coords[u], emb.coords[v]
        d = max(abs(a - b) for a, b in zip(cu, cv))
        if d > emb.beta + 1e-9:
            raise GraphError(
                "edge (%d,%d) stretched to %.4f > beta=%.4f" % (u, v, d, emb.beta)
            )
    return True
