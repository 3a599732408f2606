import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bakergame import game
from bakergame.game import (
    Action,
    FirstPreserver,
    GameState,
    IllegalActionError,
    MaxKeepPreserver,
    Preserver,
    RandomPreserver,
    Transcript,
    apply_delete,
    apply_restrict,
    legal_replies,
    minimax_rounds,
    parse_preserver,
    play,
)
from bakergame.generators import gen_grid, gen_ktree
from bakergame.graph import OrderedGraph
from bakergame.sequences import ConstSeq, parse_rseq
from bakergame.strategies import (
    DestroyerStrategy,
    EdgelessStrategy,
    StrategyError,
    build_strategy,
)


def path(n):
    return OrderedGraph(range(n), [(i, i + 1) for i in range(n - 1)])


def test_apply_delete():
    state = GameState(path(3), ConstSeq(1))
    ns = apply_delete(state)
    assert ns.graph.vertices == (1, 2)
    assert ns.round == 1


def test_apply_restrict_validates():
    state = GameState(path(3), ConstSeq(1))
    from bakergame.graph import NotALayeringError

    with pytest.raises(NotALayeringError):
        apply_restrict(state, {0: 0, 1: 2, 2: 4}, (0, 0))  # not a layering
    with pytest.raises(IllegalActionError):
        apply_restrict(state, {0: 0, 1: 1, 2: 2}, (0, 1))  # window longer than head
    ns = apply_restrict(state, {0: 0, 1: 1, 2: 2}, (1, 1))
    assert ns.graph.vertices == (1,)


def test_legal_replies_canonical():
    state = GameState(path(3), ConstSeq(2))
    lam = {0: 0, 1: 1, 2: 2}
    replies = legal_replies(state, lam)
    kept = sorted(sorted(k) for _, k in replies)
    # [DERIVED] windows of length 2 over labels 0..2, deduplicated by
    # kept set, dropping empty replies
    assert kept == [[0], [0, 1], [1, 2], [2]]


def test_legal_replies_huge_head_costs_nothing():
    state = GameState(path(3), ConstSeq(10**30))
    replies = legal_replies(state, {0: 0, 1: 1, 2: 2})
    # every distinct nonempty suffix or prefix of labels appears once
    assert len(replies) <= 5
    assert any(k == frozenset({0, 1, 2}) for _, k in replies)


def _replies_by_scan(state, lam):
    """legal_replies by its definition: the same candidate starts, each
    kept set found by a scan of every vertex."""
    head = state.rseq.head
    labels = sorted(set(lam.values()))
    lo, hi = labels[0], labels[-1]
    starts = {lo - head + 1}
    starts.update(s for lab in labels for s in (lab, lab - head + 1) if lo - head + 1 <= s <= hi)
    out = []
    for s in sorted(starts):
        kept = frozenset(v for v in state.graph.vertices if s <= lam[v] <= s + head - 1)
        if kept and all(kept != k for _, k in out):
            out.append(((s, s + head - 1), kept))
    return out


def test_legal_replies_matches_per_start_scan():
    rng = random.Random(3)
    heads = {"below span": 0, "span or more": 0}
    for _ in range(2000):
        n = rng.randint(1, 16)
        # labels with gaps and negative values; edges only where the
        # labels differ by at most one, so lam is a layering
        pool = sorted(rng.sample(range(-9, 10), rng.randint(1, 8)))
        lam = {v: rng.choice(pool) for v in range(n)}
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if abs(lam[u] - lam[v]) <= 1 and rng.random() < 0.3
        ]
        span = max(lam.values()) - min(lam.values()) + 1
        head = rng.randint(1, 2 * span + 2)
        heads["below span" if head < span else "span or more"] += 1
        state = GameState(OrderedGraph(range(n), edges), ConstSeq(head))
        assert legal_replies(state, lam) == _replies_by_scan(state, lam)
    assert min(heads.values()) >= 500, heads


def test_play_edgeless_and_transcript_roundtrip():
    g = OrderedGraph(range(3), [])
    state = GameState(g, ConstSeq(1))
    t = play(EdgelessStrategy(), MaxKeepPreserver(), state)
    assert t.outcome == "win"
    # restrict separates, so one vertex survives, then deletes finish
    assert t.rounds == 2
    t.replay(state)
    lines = t.to_lines()
    assert lines[-1] == "outcome win"
    rep = t.to_json()
    assert rep["outcome"] == "win" and len(rep["entries"]) == t.rounds


def test_play_flags_failing_strategy_as_invalid():
    g = path(3)  # edges present, edgeless strategy must fail
    t = play(EdgelessStrategy(), FirstPreserver(), GameState(g, ConstSeq(1)))
    assert t.outcome == "invalid"
    assert "edges" in t.diagnostic


class SpacedLabels(DestroyerStrategy):
    """Restricts with labels step apart along the vertex order, without
    reading the sequence."""

    def __init__(self, step):
        self.step = step

    def next_action(self, state):
        return Action.restrict({v: self.step * i for i, v in enumerate(state.graph.vertices)}), self


@pytest.mark.parametrize(
    "step, rseq, diagnostic",
    [
        (3, ConstSeq(2), "proposed layering gap 3 on edge (0,1)"),
        (0, parse_rseq("geom:1,2").tail(2000), "geometric value overflows at index 2001"),
    ],
)
def test_play_ends_invalid_on_a_bad_layering_or_head(step, rseq, diagnostic):
    # play returns a transcript for a layering that is not one and for a
    # head that cannot be computed, instead of raising
    t = play(SpacedLabels(step), FirstPreserver(), GameState(gen_grid(2, 3), rseq))
    assert (t.outcome, t.diagnostic, t.rounds) == ("invalid", diagnostic, 0)


class OffCanonPreserver(Preserver):
    """Answers from the first canonical interval's start or end with an
    interval that no canonical reply has."""

    def __init__(self, long):
        self.long = long

    def choose(self, state, layering, replies):
        lo, hi = replies[0][0]
        return (lo, lo + state.rseq.head + 3) if self.long else (hi, hi)


def test_play_referees_replies_that_are_not_canonical():
    g, strat, _ = build_strategy("minorfree:5", gen_grid(3, 3))
    state = GameState(g, ConstSeq(2))
    # too long: the game ends invalid instead of raising
    t = play(strat, OffCanonPreserver(long=True), state)
    assert (t.outcome, t.diagnostic, t.rounds) == ("invalid", "interval length 6 exceeds head 2", 0)
    # one label, shorter than head: legal, so it is played
    t = play(strat, OffCanonPreserver(long=False), state)
    restricts = [e.reply for e in t.entries if e.action == "restrict"]
    assert t.outcome == "win" and restricts
    assert all(lo == hi for lo, hi in restricts)
    assert t.replay(state).finished


class OddReplyPreserver(Preserver):
    """Answers with what make(lo, hi) returns for the first canonical
    interval (lo, hi)."""

    def __init__(self, make):
        self.make = make

    def choose(self, state, layering, replies):
        return self.make(*replies[0][0])


@pytest.mark.parametrize(
    "make, shown",
    [
        (lambda lo, hi: None, "None"),
        (lambda lo, hi: (0.5, 1.5), "(0.5, 1.5)"),
        (lambda lo, hi: [lo, hi], "[-1, 0]"),
        (lambda lo, hi: (hi, lo), "(0, -1)"),
    ],
    ids=["none", "floats", "list", "reversed"],
)
def test_play_ends_invalid_on_a_reply_that_is_no_interval(make, shown):
    # anything but a tuple (lo, hi) of ints with lo <= hi ends the game
    # invalid, naming the reply, before it is played
    g, strat, _ = build_strategy("minorfree:5", gen_grid(3, 3))
    t = play(strat, OddReplyPreserver(make), GameState(g, ConstSeq(2)))
    assert (t.outcome, t.rounds) == ("invalid", 0)
    assert t.diagnostic == "reply %s is not an interval (lo, hi) of integers" % shown
    assert t.to_lines() == ["outcome invalid"]


def test_play_budget():
    g = OrderedGraph(range(5), [])
    t = play(EdgelessStrategy(), MaxKeepPreserver(), GameState(g, ConstSeq(1)), budget=1)
    assert t.outcome == "budget_exceeded"


def test_parse_preserver():
    assert isinstance(parse_preserver("max"), MaxKeepPreserver)
    assert isinstance(parse_preserver("random:7"), RandomPreserver)
    with pytest.raises(ValueError):
        parse_preserver("bogus")


def test_random_preserver_deterministic():
    g = path(6)
    _, strat, _ = build_strategy("chordal:1", g)
    t1 = play(strat.fork(), parse_preserver("random:3"), GameState(g, ConstSeq(1)))
    t2 = play(strat.fork(), parse_preserver("random:3"), GameState(g, ConstSeq(1)))
    assert [e.to_line() for e in t1.entries] == [e.to_line() for e in t2.entries]


def test_minimax_exceeds_any_single_play():
    g = path(5)
    _, strat, _ = build_strategy("chordal:1", g)
    worst = minimax_rounds(strat.fork(), GameState(g, ConstSeq(1)))
    for name in ("first", "last", "max"):
        t = play(strat.fork(), parse_preserver(name), GameState(g, ConstSeq(1)))
        assert t.outcome == "win"
        assert t.rounds <= worst


def test_minimax_saturates_at_cap():
    g = path(5)
    _, strat, _ = build_strategy("chordal:1", g)
    assert minimax_rounds(strat.fork(), GameState(g, ConstSeq(1)), cap=1) == 2


SPOT_CASES = {
    # atlas graph 50: 5 vertices, 8 edges, no K5 minor
    "atlas50": lambda: build_strategy(
        "minorfree:5", OrderedGraph(range(5), nx.graph_atlas(50).edges())
    ),
    "2-tree": lambda: build_strategy("chordal:2", gen_ktree(20, 2, seed=0)),
    "3-tree": lambda: build_strategy("chordal:3", gen_ktree(40, 3, seed=1)),
    "grid4x4": lambda: build_strategy("minorfree:5", gen_grid(4, 4)),
}


@pytest.mark.parametrize(
    "name, c, rounds, states",
    [
        ("atlas50", 1, 6, 7),
        ("2-tree", 2, 9, 97),
        ("3-tree", 2, 13, 266),
        ("grid4x4", 1, 11, 20),
    ],
)
def test_minimax_values_and_states_pinned(name, c, rounds, states):
    # Exact worst cases, and the positions at which minimax played the
    # strategy: a change to the reply walk that altered either shows here.
    g, strat, _ = SPOT_CASES[name]()
    stats = {}
    assert minimax_rounds(strat, GameState(g, ConstSeq(c)), stats=stats) == rounds
    assert stats == {"states": states}


class FailsAtTheEnd(EdgelessStrategy):
    """The edgeless strategy, but its observe of the move that empties
    the graph raises."""

    def observe(self, action, reply, new_state):
        if new_state.finished:
            raise StrategyError("observed the game's end")
        return super().observe(action, reply, new_state)


def test_minimax_does_not_observe_the_games_end():
    # like the solvers, minimax skips the observe of the Delete that
    # empties the graph, so this strategy gets a value; play makes that
    # observe, so the same strategy ends invalid there
    state = GameState(OrderedGraph(range(3), []), ConstSeq(1))
    assert minimax_rounds(FailsAtTheEnd(), state) == minimax_rounds(EdgelessStrategy(), state) == 2
    t = play(FailsAtTheEnd(), parse_preserver("max"), state)
    assert (t.outcome, t.diagnostic) == ("invalid", "strategy error: observed the game's end")


def test_minimax_checks_each_layering_once(monkeypatch):
    # minimax builds every reply's state from the kept set legal_replies
    # has already checked, so it never goes through apply_restrict
    def refuse(*args):
        raise AssertionError("apply_restrict called by minimax_rounds")

    monkeypatch.setattr(game, "apply_restrict", refuse)
    g, strat, _ = SPOT_CASES["2-tree"]()
    assert minimax_rounds(strat, GameState(g, ConstSeq(2))) == 9


class ShortPreserver(game.Preserver):
    """Keeps only the top label of the largest canonical interval: a
    legal reply that legal_replies does not list."""

    def choose(self, state, layering, replies):
        hi = MaxKeepPreserver().choose(state, layering, replies)[1]
        return (hi, hi)


@pytest.mark.parametrize("preserver, checks_per_restrict", [("max", 1), ("random:5", 1), ("short", 2)])
def test_play_checks_each_layering_once(monkeypatch, preserver, checks_per_restrict):
    # a canonical reply takes its state from the kept set legal_replies
    # built after checking the layering; any other reply goes through
    # apply_restrict, which checks it again.  Transcripts do not change.
    def chooser():
        return ShortPreserver() if preserver == "short" else parse_preserver(preserver)

    g, strat, _ = SPOT_CASES["3-tree"]()
    state = GameState(g, ConstSeq(2))
    want = play(strat, chooser(), state).to_json()
    calls = []
    check = game.require_layering

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(game, "require_layering", counted)
    t = play(strat, chooser(), state)
    restricts = sum(e.action == "restrict" for e in t.entries)
    assert t.outcome == "win" and restricts > 1
    assert len(calls) == checks_per_restrict * restricts
    assert t.to_json() == want
    monkeypatch.undo()
    t.replay(state)


@st.composite
def refereed_games(draw):
    if draw(st.booleans()):
        g = gen_ktree(draw(st.integers(3, 30)), 2, seed=draw(st.integers(0, 10**6)))
        desc = "chordal:2"
    else:
        g = gen_grid(draw(st.integers(1, 5)), draw(st.integers(1, 6)))
        desc = "minorfree:5"
    rseq = "const:%d" % draw(st.integers(1, 3))
    preserver = draw(st.sampled_from(["first", "last", "max"]) | st.integers(0, 99).map("random:{}".format))
    return g, desc, rseq, preserver


@settings(max_examples=100, deadline=None, derandomize=True)
@given(refereed_games())
def test_transcripts_replay_to_the_empty_graph(case):
    g, desc, rseq, preserver = case
    g2, strat, _ = build_strategy(desc, g)
    state = GameState(g2, parse_rseq(rseq))
    t = play(strat, parse_preserver(preserver), state)
    assert t.replay(state).finished, (t.outcome, t.diagnostic)
