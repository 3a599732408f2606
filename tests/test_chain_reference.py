"""The flat clique-sum chain against the nested build it replaced.

NestedCliqueSum and nested_chain below are the earlier implementation:
one CliqueSumStrategy per BFS layer, each simulating the next one down
on its induced base.  They stay here as the reference the flat
strategies.CliqueSumStrategy must match move for move, in minimax values
and in which of the strategy values met in play compare equal.
"""

import random
from contextlib import contextmanager
from functools import partial

import pytest

from bakergame import strategies
from bakergame.game import (
    DELETE,
    Action,
    GameState,
    apply_delete,
    legal_replies,
    minimax_rounds,
    parse_preserver,
    play,
    _restricted,
)
from bakergame.generators import gen_ktree
from bakergame.graph import OrderedGraph, spread_componentwise_layering
from bakergame.sequences import (
    INDEX_LIMIT,
    ConstSeq,
    GeomSeq,
    RSequence,
    ScheduleSeq,
    SequenceError,
    parse_rseq,
)
from bakergame.strategies import (
    ChainD,
    ChordalD,
    CliqueSumD,
    DestroyerStrategy,
    StrategyError,
    _build,
    build_strategy,
    parse_descriptor,
    round_bound,
)


class NestedCliqueSum(DestroyerStrategy):
    """One clique-sum level: alternate a componentwise Restrict with one
    simulated move of inner on the base; once the base is gone, a fresh
    leaf_factory() strategy moves and is the successor."""

    _fixed = ("leaf_factory",)

    def __init__(self, base, inner, leaf_factory, descriptor):
        self.base = frozenset(base)
        self.inner = inner
        self.leaf_factory = leaf_factory
        self.descriptor = descriptor
        self.sim_rseq = None
        self.j = 0
        self.phase = "spread"
        self.pending = None
        self.exhausted = False

    def next_action(self, state):
        if self.exhausted:
            return Action.delete(), self
        g = state.graph
        bp = self.base & g.vertex_set
        if not bp:
            return self.leaf_factory().next_action(state)
        s = self.fork()
        if self.sim_rseq is None:
            s.sim_rseq = state.rseq.paired()
        try:
            if self.phase == "spread":
                if g.is_connected():
                    s.phase = "mimic"
                else:
                    lam = spread_componentwise_layering(g, state.rseq.head)
                    s.pending = ("spread", None)
                    return Action.restrict(lam), s
            sim_state = GameState(g.induced(bp), s.sim_rseq.tail(self.j), self.j)
            a, s.inner = self.inner.next_action(sim_state)
        except SequenceError:
            s.exhausted = True
            return Action.delete(), s
        if a.kind == DELETE:
            if g.smallest() != min(bp):
                raise StrategyError("smallest vertex lies outside the base")
            s.pending = ("inner-delete", a)
            return Action.delete(), s
        lam_star = a.layering
        lam = dict(lam_star)
        for comp in g.induced(g.vertex_set - bp).components():
            anchors = bp & frozenset().union(*(g.adj[v] for v in comp))
            if not anchors:
                raise StrategyError("component not attached to the base")
            for v in comp:
                lam[v] = lam_star[min(anchors)]
        s.pending = ("inner-restrict", a)
        return Action.restrict(lam), s

    def observe(self, action, reply, new_state):
        if self.exhausted:
            return self
        s = self.fork()
        tag, inner_action = self.pending if self.pending else (None, None)
        s.pending = None
        if tag == "spread":
            s.phase = "mimic"
            return s
        s.j = j = self.j + 1
        sim_new = GameState(new_state.graph.induced(self.base), self.sim_rseq.tail(j), j)
        inner_reply = None if tag == "inner-delete" else reply
        try:
            s.inner = self.inner.observe(inner_action, inner_reply, sim_new)
        except SequenceError:
            s.exhausted = True
        s.phase = "spread"
        return s


def levels(lam):
    """The vertices of the layering lam, level by level."""
    return [frozenset(v for v in lam if lam[v] == lab) for lab in sorted(set(lam.values()))]


def nested_chain(lam, d, bottom=None, leaf_factory=None):
    """The nested build of _make_chain, optionally over other bottom and
    leaf strategies."""
    layers = levels(lam)
    leaf = ChordalD(d - 1)
    inner = _build(leaf) if bottom is None else bottom
    for k in range(1, len(layers)):
        inner = NestedCliqueSum(
            frozenset().union(*layers[:k]),
            inner,
            leaf_factory or partial(_build, leaf),
            CliqueSumD(ChainD(d - 1, k), leaf),
        )
    return inner


@contextmanager
def nested():
    """Chordal strategies built inside the block delegate to the nested
    chain."""
    flat = strategies._make_chain
    strategies._make_chain = nested_chain
    try:
        yield
    finally:
        strategies._make_chain = flat


def build_pair(text, g):
    """(flat, nested) strategies for the descriptor text on g."""
    flat = build_strategy(text, g)[1]
    desc = parse_descriptor(text)
    with nested():
        if isinstance(desc, CliqueSumD):
            ref = NestedCliqueSum(
                g.vertex_set, _build(desc.base, g), partial(_build, desc.leaf, g), desc
            )
        else:
            ref = build_strategy(text, g)[1]
    return flat, ref


def path(n):
    return OrderedGraph(range(n), [(i, i + 1) for i in range(n - 1)])


def _corpus():
    rng = random.Random(13)
    cases = [("chordal:1", path(rng.randint(3, 40))) for _ in range(4)]
    for seed in range(3):
        cases.append(("chordal:2", gen_ktree(rng.randint(8, 16), 2, seed=seed)))
        cases.append(("chordal:3", gen_ktree(rng.randint(8, 14), 3, seed=seed)))
    cases.append(("cliquesum(chordal:2,chordal:2)", gen_ktree(12, 2, seed=5)))
    return cases


SEQS = ("const:1", "const:2", "const:3", "schedule:mis:2")


def test_flat_chain_plays_like_the_nested_chain():
    for text, g in _corpus():
        for rs in SEQS:
            for pres in ("max", "first", "last", "random:5"):
                flat, ref = build_pair(text, g)
                got = play(flat, parse_preserver(pres), GameState(g, parse_rseq(rs)))
                with nested():
                    want = play(ref, parse_preserver(pres), GameState(g, parse_rseq(rs)))
                assert got.to_json() == want.to_json(), (text, g.n, rs, pres)
                assert got.outcome == "win", (text, g.n, rs, pres, got.diagnostic)


def test_flat_chain_minimax_like_the_nested_chain():
    for text, g in _corpus():
        if g.n > 12:
            continue
        for rs in ("const:1", "const:2", "schedule:mis:2"):
            flat, ref = build_pair(text, g)
            got, want = {}, {}
            v = minimax_rounds(flat, GameState(g, parse_rseq(rs)), 200, got)
            with nested():
                w = minimax_rounds(ref, GameState(g, parse_rseq(rs)), 200, want)
            assert (v, got) == (w, want), (text, g.n, rs)


def bfs_cycle(n):
    """The cycle on an even n >= 6 vertices, numbered in breadth-first
    order from 0: level l > 0 holds 2l - 1 and 2l, the last level n - 1."""
    edges = [(0, 1), (0, 2), (n - 3, n - 1), (n - 2, n - 1)]
    return OrderedGraph(range(n), edges + [(v, v + 2) for v in range(1, n - 3)])


@pytest.fixture
def chain_moves(monkeypatch):
    """Every flat chain move made in the test, as (number of layers,
    whether a frame below the top spread because its graph was
    disconnected while the whole graph was connected)."""
    moves = []
    flat_next = strategies.CliqueSumStrategy.next_action

    def next_action(self, state):
        a, succ = flat_next(self, state)
        if isinstance(succ, strategies.CliqueSumStrategy):
            # the frame that spread on this move is the one that now
            # holds a pending "spread"; observe clears it
            pairs = zip(self.frames[:-1], succ.frames[:-1])
            below = any(new[3] == "spread" and old[3] != "spread" for old, new in pairs)
            moves.append((len(self.layers), below and state.graph.is_connected()))
        return a, succ

    monkeypatch.setattr(strategies.CliqueSumStrategy, "next_action", next_action)
    return moves


def _compare(flat, ref, g, rs, minimax):
    for pres in ("max", "first", "last", "random:5"):
        got = play(flat, parse_preserver(pres), GameState(g, rs))
        with nested():
            want = play(ref, parse_preserver(pres), GameState(g, rs))
        assert got.to_json() == want.to_json(), (g.n, rs, pres)
        assert got.outcome == "win", (g.n, rs, pres, got.diagnostic)
    if minimax:
        got, want = {}, {}
        v = minimax_rounds(flat, GameState(g, rs), 500, got)
        with nested():
            w = minimax_rounds(ref, GameState(g, rs), 500, want)
        assert (v, got) == (w, want), (g.n, rs)


def test_frames_below_the_top_like_the_nested_chain(chain_moves):
    # k-tree windows: chordal:d restricts to a window of its BFS levels
    # and plays a chain on it, so const:3 to const:5 give chains of 2 to 4
    # layers whose frames below the top are read
    for d, n, seed in ((2, 12, 1), (2, 24, 2), (3, 12, 3), (3, 30, 4), (4, 40, 5)):
        g = gen_ktree(n, d, seed=seed)
        for c in (3, 4, 5):
            flat, ref = build_pair("chordal:%d" % d, g)
            _compare(flat, ref, g, ConstSeq(c), n <= 12)
    assert max(layers for layers, _ in chain_moves) >= 2
    # a path with one vertex per layer: a chain of n - 1 frames, every
    # move reads the frames down to the lowest live layer
    for n in (5, 9, 40):
        g = path(n)
        for c in (3, n):
            flat, ref = build_pair("chordal:1", g)
            _compare(flat, ref, g, ConstSeq(c), n <= 9)
    # a clique-sum base stays connected while the whole graph is, so
    # neither input above meets a disconnected frame below a connected
    # top; an even cycle glues its two arcs along a non-clique, and at
    # const:1 the lifted spread is still a layering
    assert not any(split for _, split in chain_moves)
    for n in (6, 8, 12):
        g = bfs_cycle(n)
        lam = strategies.bfs_layering(g, 0)
        _compare(strategies._make_chain(lam, 1), nested_chain(lam, 1), g, ConstSeq(1), True)
    assert any(split for _, split in chain_moves)


def _walk_values(strat, state, out, depth):
    """Every strategy value met on all lines of play up to depth moves,
    in a fixed order."""
    out.append(strat)
    if state.finished or depth == 0:
        return
    action, strat = strat.next_action(state)
    out.append(strat)
    if action.kind == DELETE:
        ns = apply_delete(state)
        _walk_values(strat.observe(action, None, ns), ns, out, depth - 1)
        return
    for iv, kept in legal_replies(state, action.layering):
        ns = _restricted(state, kept)
        _walk_values(strat.observe(action, iv, ns), ns, out, depth - 1)


def test_state_ids_split_memories_like_the_nested_chain():
    # two values met in one walk are equal in the flat build exactly
    # when they are in the nested one
    for text, g in _corpus():
        if g.n > 12:
            continue
        for c in (1, 2):
            flat, ref = build_pair(text, g)
            got, want = [], []
            _walk_values(flat, GameState(g, ConstSeq(c)), got, 6)
            with nested():
                _walk_values(ref, GameState(g, ConstSeq(c)), want, 6)
            assert len(got) == len(want)
            pairs = set(zip(got, want))
            assert len(pairs) == len(set(got)) == len(set(want)), (text, g.n, c)


def _moves_by_position(strat, state, moves, depth):
    """Record in moves every action played on all lines of play up to
    depth moves, under its position: the strategy, the round and the live
    vertices."""
    if state.finished or depth == 0:
        return
    action, succ = strat.next_action(state)
    moves.setdefault((strat, state.round, state.graph.vertex_set), set()).add(action)
    if action.kind == DELETE:
        ns = apply_delete(state)
        _moves_by_position(succ.observe(action, None, ns), ns, moves, depth - 1)
        return
    for iv, kept in legal_replies(state, action.layering):
        ns = _restricted(state, kept)
        _moves_by_position(succ.observe(action, iv, ns), ns, moves, depth - 1)


@pytest.mark.parametrize("make", [strategies._make_chain, nested_chain], ids=["flat", "nested"])
def test_chains_over_shifted_windows_split_positions(make):
    # two windows of one BFS layering, shifted by a level, give chains
    # with as many frames over the same vertices but other layers: they
    # differ, and a position both reach has one move
    for n, seed in ((9, 1), (10, 2), (12, 3), (14, 1)):
        g = gen_ktree(n, 2, seed=seed)
        lam = strategies.bfs_layering(g, g.smallest())
        windows = [{v: (lab + shift) // 2 for v, lab in lam.items()} for shift in (0, 1)]
        assert len(levels(windows[0])) == len(levels(windows[1])), (n, seed)
        a, b = (make(w, 3) for w in windows)
        assert a != b, (n, seed)
        for c in (1, 2):
            moves = {}
            for chain in (a, b):
                _moves_by_position(chain, GameState(g, ConstSeq(c)), moves, 5)
            assert all(len(played) == 1 for played in moves.values()), (n, seed, c)


class Flaky(DestroyerStrategy):
    """Plays inner, but raises SequenceError at its fail-th call of
    next_action or observe: it drives a chain into the paths where a
    frame gives up."""

    def __init__(self, inner, fail):
        self.inner, self.fail, self.calls = inner, fail, 0

    def _step(self):
        if self.calls + 1 == self.fail:
            raise SequenceError("flaky")
        return self.calls + 1

    def next_action(self, state):
        calls = self._step()
        a, inner = self.inner.next_action(state)
        return a, self.fork(calls=calls, inner=inner)

    def observe(self, action, reply, new_state):
        calls = self._step()
        return self.fork(calls=calls, inner=self.inner.observe(action, reply, new_state))


class Brittle(RSequence):
    """c, c + 1, c + 2, c, ... up to index limit, a SequenceError past it:
    a chain's frames read it at paired indices, so deep ones give up."""

    def __init__(self, c, limit):
        self.c, self.limit = c, limit

    def at(self, i):
        if i > self.limit:
            raise SequenceError("past %d" % self.limit)
        return self._check(i, self.c + i % 3)

    def __repr__(self):
        return "brittle:%d,%d" % (self.c, self.limit)


def flaky_leaf(d, fail):
    return Flaky(_build(ChordalD(d)), fail)


def test_give_ups_like_the_nested_chain():
    # a frame whose simulation meets a SequenceError deletes from then
    # on: bottom's error exhausts frame 1, a leaf's the frame above it,
    # and the top frame's leaf passes it on
    for g in [gen_ktree(n, 2, seed=s) for n, s in ((9, 1), (10, 2), (12, 3))] + [path(7)]:
        d = 2 if g.m > g.n - 1 else 1
        lam = strategies.bfs_layering(g, g.smallest())
        layers = levels(lam)
        desc = CliqueSumD(ChainD(d - 1, len(layers) - 1), ChordalD(d - 1))
        for fail_bottom, fail_leaf in ((1, 0), (2, 0), (3, 0), (5, 0), (0, 1), (0, 2), (0, 3), (4, 2)):
            def pair():
                bottom = flaky_leaf(d - 1, fail_bottom)
                leaf = flaky_leaf(d - 1, fail_leaf)
                flat = strategies.CliqueSumStrategy(layers[:-1], bottom, leaf, desc)
                return flat, nested_chain(lam, d, bottom, partial(flaky_leaf, d - 1, fail_leaf))

            for r in (ConstSeq(1), ConstSeq(2), ConstSeq(9), Brittle(1, 3), Brittle(2, 9)):
                for pres in ("max", "first", "random:5"):
                    flat, ref = pair()
                    got = play(flat, parse_preserver(pres), GameState(g, r))
                    want = play(ref, parse_preserver(pres), GameState(g, r))
                    assert got.to_json() == want.to_json(), (g.n, fail_bottom, fail_leaf, r, pres)
                flat, ref = pair()
                got, want = {}, {}
                try:
                    v = minimax_rounds(flat, GameState(g, r), 100, got)
                except SequenceError:
                    v = "SequenceError"
                try:
                    w = minimax_rounds(ref, GameState(g, r), 100, want)
                except SequenceError:
                    w = "SequenceError"
                assert (v, got) == (w, want), (g.n, fail_bottom, fail_leaf, r)
                if v == "SequenceError":
                    continue
                flat, ref = pair()
                got, want = [], []
                _walk_values(flat, GameState(g, r), got, 5)
                _walk_values(ref, GameState(g, r), want, 5)
                pairs = set(zip(got, want))
                assert len(pairs) == len(set(got)) == len(set(want))


def _rb_recursive(d, k, r):
    """The round bound of ChainD(d, k) as the recursion over k that the
    loop in round_bound replaced."""
    if k <= 1:
        return round_bound(ChordalD(d), r)
    t1 = _rb_recursive(d, k - 1, r.paired())
    t2 = round_bound(ChordalD(d), r.tail(2 * t1 + 1))
    return 2 * t1 + t2 + 1


@pytest.mark.parametrize("seq", [ConstSeq(1), ConstSeq(3), GeomSeq(1.0, 2.0), ScheduleSeq("mis", 2)])
def test_chain_bound_loop_matches_the_recursion(seq):
    def outcome(f, *args):
        try:
            return f(*args)
        except SequenceError:
            return "SequenceError"

    for d in (0, 1, 2):
        for k in range(1, 61):
            want = outcome(_rb_recursive, d, k, seq)
            assert outcome(round_bound, ChainD(d, k), seq) == want, (d, k)
    with pytest.raises(SequenceError):
        round_bound(ChainD(0, INDEX_LIMIT + 1), seq)
