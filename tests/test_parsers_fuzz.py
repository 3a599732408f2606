"""Fuzzed text for the four text parsers.

Each parser either returns a value or raises its documented error:
FormatError for graph and embedding files, SequenceError for sequence
text and StrategyError for descriptor text.  The generators mix near
valid input with junk and lean on the cases that once slipped through:
nan and inf where numbers go, repeated edges, and deep nesting.  Numbers
stay small, because parse_graph allocates its n vertices; headers past
MAX_VERTICES must fail at once.
"""

import math
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from bakergame.fileio import (
    MAX_VERTICES,
    FormatError,
    parse_annotated_graph,
    parse_embedding,
    parse_graph,
    write_graph,
)
from bakergame.graph import Embedding
from bakergame.sequences import SequenceError, parse_rseq
from bakergame.strategies import MAX_NESTING, StrategyError, parse_descriptor

FUZZ = settings(max_examples=200, deadline=None, derandomize=True)

WORDS = st.sampled_from(["nan", "inf", "-inf", "1e400", "0.5", "-1", "x", "graph", "embed"])
NUMBERS = st.integers(-1, 5).map(str) | WORDS


def _line_soup(heads):
    line = st.tuples(st.sampled_from(heads), st.lists(NUMBERS, max_size=5))
    return st.lists(line.map(lambda t: " ".join([t[0]] + t[1])), max_size=10).map("\n".join)


@st.composite
def graph_files(draw):
    """A header and edges over few vertices, so that edges often repeat,
    in either orientation."""
    n = draw(st.integers(0, 4))
    edges = draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=6))
    m = draw(st.sampled_from([len(edges), max(len(edges) - 1, 0)]))
    lines = ["p graph %d %d" % (n, m)] + ["e %d %d" % e for e in edges]
    return "\n".join(lines + draw(st.lists(st.sampled_from(["a hit:0 0", "a hit:1", "# c"]))))


@st.composite
def embedding_files(draw):
    n = draw(st.integers(0, 3))
    dim = draw(st.integers(1, 2))
    lines = ["p embed %d %d %s" % (n, dim, draw(NUMBERS))]
    for v in range(n):
        lines.append("c %d %s" % (v, " ".join(draw(st.lists(NUMBERS, min_size=dim, max_size=dim)))))
    return "\n".join(lines)


@FUZZ
@given(graph_files() | _line_soup(["p", "e", "a", "#"]) | st.text(max_size=40))
def test_parse_graph_raises_only_format_errors(text):
    try:
        g, ann = parse_annotated_graph(text)
    except FormatError:
        return
    assert parse_graph(text) == g
    # every edge line is one edge of the graph, so it writes back whole,
    # annotation sets included
    assert g.m == sum(1 for line in text.splitlines() if line.split()[:1] == ["e"])
    assert parse_annotated_graph(write_graph(g, ann)) == (g, ann)


@FUZZ
@given(
    st.integers(MAX_VERTICES + 1, 10**12),
    st.integers(0, 2),
    st.integers(0, 2),
    st.lists(st.sampled_from(["# c", "e 0 1", "e 1 2", "a hit:0 0"]), max_size=3),
)
def test_parse_graph_refuses_huge_headers_at_once(n, m, comments, lines):
    # the header alone fails, before any vertex is built, whatever
    # follows it and whether or not m matches the edges
    text = "\n".join(["# c"] * comments + ["p graph %d %d" % (n, m)] + lines)
    t0 = time.perf_counter()
    try:
        parse_graph(text)
    except FormatError as exc:
        assert exc.lineno == comments + 1 and "exceeds" in str(exc)
    else:
        raise AssertionError("a header with %d vertices parsed" % n)
    assert time.perf_counter() - t0 < 1.0


@FUZZ
@given(embedding_files() | _line_soup(["p", "c", "#"]) | st.text(max_size=40))
def test_parse_embedding_raises_only_format_errors(text):
    try:
        emb = parse_embedding(text)
    except FormatError:
        return
    assert 0 < emb.beta < math.inf
    assert all(math.isfinite(x) for xs in emb.coords.values() for x in xs)


SEQUENCE_TEXT = (
    NUMBERS.map(lambda c: "const:" + c)
    | st.tuples(NUMBERS, NUMBERS).map(lambda ab: "geom:%s,%s" % ab)
    | st.tuples(st.sampled_from(["mis", "x"]), NUMBERS).map(lambda pk: "schedule:%s:%s" % pk)
    | st.text(max_size=20)
)


@FUZZ
@given(SEQUENCE_TEXT)
def test_parse_rseq_raises_only_sequence_errors(text):
    try:
        r = parse_rseq(text)
    except SequenceError:
        return
    # a sequence that loads yields values >= 1 or SequenceError, the
    # error on which strategies give up
    for i in (1, 2, 60, 2000):
        try:
            value = r.at(i)
        except SequenceError:
            continue
        assert isinstance(value, int) and value >= 1


LEAVES = st.sampled_from(
    ["edgeless", "chordal:1", "chordal:-1", "chordal:nan", "minorfree:5", "minorfree:inf"]
    + ["distortion", "nan", "", "(", ")", ",", "quotient(chordal:1,inf)"]
)
DESCRIPTOR_TEXT = st.recursive(
    LEAVES,
    lambda inner: st.tuples(st.sampled_from(["cliquesum", "quotient"]), st.lists(inner, max_size=3))
    .map(lambda t: "%s(%s)" % (t[0], ",".join(t[1]))),
    max_leaves=10,
)
DEEP_TEXT = st.tuples(st.integers(MAX_NESTING - 2, 3 * MAX_NESTING), LEAVES).map(
    lambda t: "cliquesum(" * t[0] + t[1] + ",edgeless)" * t[0]
)


JUNK_TEXT = st.text("cliquesum(quotient,):chordal012-x ", max_size=60)


@FUZZ
@given(DESCRIPTOR_TEXT | DEEP_TEXT | JUNK_TEXT, st.booleans())
def test_parse_descriptor_raises_only_strategy_errors(text, embedded):
    emb = Embedding(2, 1.0, {}) if embedded else None
    try:
        parse_descriptor(text, emb)
    except StrategyError as exc:
        # the text is named once, however deep the error lies
        assert len(str(exc)) < len(repr(text)) + 200
