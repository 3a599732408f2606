"""Plain-text formats for graphs and embeddings.

Graph files:
    p graph <n> <m>
    e <u> <v>           one line per edge
    a <name> <v>        v belongs to the annotation set <name>
    a <name>            declares <name> as an empty set
Vertices are 0..n-1, and n is at most MAX_VERTICES.  Blank lines and
lines starting with '#' are ignored.  Annotation sets are instance data,
not part of the graph: parse_annotated_graph returns them next to it,
parse_graph drops them.

Embedding files:
    p embed <n> <dim> <beta>
    c <v> <x1> ... <xdim>
"""

import math

from .graph import Embedding, OrderedGraph

# parse_graph builds every vertex its header declares, so the header,
# not the file size, would bound the work; a larger n fails at once
MAX_VERTICES = 10**6


class FormatError(ValueError):
    def __init__(self, lineno, message):
        super().__init__("line %d: %s" % (lineno, message))
        self.lineno = lineno


def _content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line.split()


def parse_graph(text):
    return parse_annotated_graph(text)[0]


def parse_annotated_graph(text):
    """(graph, {name: frozenset of vertices}) read from a graph file."""
    n = m = None
    edges = set()
    annotations = {}
    for lineno, parts in _content_lines(text):
        kind = parts[0]
        if kind == "p":
            if n is not None:
                raise FormatError(lineno, "duplicate problem line")
            if len(parts) != 4 or parts[1] != "graph":
                raise FormatError(lineno, "expected 'p graph <n> <m>'")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise FormatError(lineno, "n and m must be integers")
            if n < 0 or m < 0:
                raise FormatError(lineno, "n and m must be nonnegative")
            if n > MAX_VERTICES:
                raise FormatError(lineno, "n = %d exceeds %d vertices" % (n, MAX_VERTICES))
        elif kind == "e":
            if n is None:
                raise FormatError(lineno, "edge before the problem line")
            if len(parts) != 3:
                raise FormatError(lineno, "expected 'e <u> <v>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise FormatError(lineno, "endpoints must be integers")
            e = (min(u, v), max(u, v))
            if not (0 <= u < n and 0 <= v < n) or u == v or e in edges:
                raise FormatError(lineno, "bad or repeated edge %d %d" % (u, v))
            edges.add(e)
        elif kind == "a":
            if n is None:
                raise FormatError(lineno, "annotation before the problem line")
            if len(parts) == 2:
                annotations.setdefault(parts[1], set())
                continue
            if len(parts) != 3:
                raise FormatError(lineno, "expected 'a <name> <v>'")
            try:
                v = int(parts[2])
            except ValueError:
                raise FormatError(lineno, "vertex must be an integer")
            if not 0 <= v < n:
                raise FormatError(lineno, "vertex %d out of range" % v)
            annotations.setdefault(parts[1], set()).add(v)
        else:
            raise FormatError(lineno, "unknown record %r" % kind)
    if n is None:
        raise FormatError(1, "missing problem line")
    if len(edges) != m:
        raise FormatError(1, "expected %d edges, found %d" % (m, len(edges)))
    return OrderedGraph(range(n), edges), {k: frozenset(v) for k, v in annotations.items()}


def write_graph(graph, annotations=None):
    """The file text of graph, with the annotation sets given, if any."""
    lines = ["p graph %d %d" % (graph.n, graph.m)]
    for u, v in graph.edge_list():
        lines.append("e %d %d" % (u, v))
    for name in sorted(annotations or ()):
        members = sorted(annotations[name])
        if not members:
            lines.append("a %s" % name)
        for v in members:
            lines.append("a %s %d" % (name, v))
    return "\n".join(lines) + "\n"


def parse_embedding(text):
    n = dim = beta = None
    coords = {}
    for lineno, parts in _content_lines(text):
        kind = parts[0]
        if kind == "p":
            if n is not None:
                raise FormatError(lineno, "duplicate problem line")
            if len(parts) != 5 or parts[1] != "embed":
                raise FormatError(lineno, "expected 'p embed <n> <dim> <beta>'")
            try:
                n, dim, beta = int(parts[2]), int(parts[3]), float(parts[4])
            except ValueError:
                raise FormatError(lineno, "bad problem line values")
            if n < 0 or dim < 1 or not 0 < beta < math.inf:
                raise FormatError(lineno, "bad problem line values")
        elif kind == "c":
            if n is None:
                raise FormatError(lineno, "coordinates before the problem line")
            if len(parts) != 2 + dim:
                raise FormatError(lineno, "expected %d coordinates" % dim)
            try:
                v = int(parts[1])
                xs = tuple(float(x) for x in parts[2:])
            except ValueError:
                raise FormatError(lineno, "coordinates must be numbers")
            if not all(map(math.isfinite, xs)):
                raise FormatError(lineno, "coordinates must be finite")
            if not 0 <= v < n:
                raise FormatError(lineno, "vertex %d out of range" % v)
            if v in coords:
                raise FormatError(lineno, "duplicate coordinates for %d" % v)
            coords[v] = xs
        else:
            raise FormatError(lineno, "unknown record %r" % kind)
    if n is None:
        raise FormatError(1, "missing problem line")
    if len(coords) != n:
        raise FormatError(1, "expected %d coordinate lines, found %d" % (n, len(coords)))
    return Embedding(dim, beta, coords)


def _float_text(x):
    """x as text that reads back equal: its repr, less a trailing ".0"."""
    text = repr(x)
    return text[:-2] if text.endswith(".0") else text


def write_embedding(emb):
    n = len(emb.coords)
    lines = ["p embed %d %d %s" % (n, emb.dim, _float_text(emb.beta))]
    for v in sorted(emb.coords):
        lines.append("c %d %s" % (v, " ".join(map(_float_text, emb.coords[v]))))
    return "\n".join(lines) + "\n"
