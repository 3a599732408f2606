"""The two-player delete/restrict game: states, refereed play, minimax.

One side (the strategy) either Deletes the smallest vertex or proposes
a layering; the other side (the preserver) answers a Restrict with an
interval of at most head(r) consecutive labels, and play continues on
the induced subgraph with the tail of the sequence.  The strategy wins
when the graph is empty.
"""

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from operator import or_

from .graph import GraphError, OrderedGraph, bits_of, require_layering
from .sequences import SequenceError


class GameError(ValueError):
    pass


class IllegalActionError(GameError):
    pass


DELETE = "delete"
RESTRICT = "restrict"


@dataclass(frozen=True)
class Action:
    kind: str
    layering: dict | None = None

    @staticmethod
    def delete():
        return Action(DELETE)

    @staticmethod
    def restrict(layering):
        return Action(RESTRICT, dict(layering))


@dataclass(frozen=True)
class GameState:
    graph: OrderedGraph
    rseq: object
    round: int = 0

    @property
    def finished(self):
        return self.graph.n == 0


def apply_delete(state):
    if state.finished:
        raise IllegalActionError("game already over")
    return GameState(state.graph.delete_smallest(), state.rseq.tail(1), state.round + 1)


class LabelTable:
    """A proposed layering of a graph, checked on construction: the
    graph's vertices in label order, their labels (keys) and the sorted
    distinct labels.  A label window's vertices cost two bisects; so do
    their bits, from prefix ORs that the first bits call builds."""

    __slots__ = ("order", "keys", "labels", "_prefix")

    def __init__(self, graph, lam):
        require_layering(graph, lam, "proposed layering")
        self.order = sorted(graph.vertices, key=lam.__getitem__)
        self.keys = [lam[v] for v in self.order]
        self.labels = sorted(set(self.keys))
        self._prefix = None

    def vertices(self, lo, hi):
        return self.order[bisect_left(self.keys, lo) : bisect_right(self.keys, hi)]

    def bits(self, lo, hi):
        labels, prefix = self.labels, self._prefix
        if prefix is None:
            runs = [bits_of(self.vertices(lab, lab)) for lab in labels]
            prefix = self._prefix = list(accumulate(runs, or_, initial=0))
        return prefix[bisect_right(labels, hi)] & ~prefix[bisect_left(labels, lo)]


def apply_restrict(state, layering, interval):
    """Preserver chose interval (lo, hi); keep exactly those labels."""
    if state.finished:
        raise IllegalActionError("game already over")
    table = LabelTable(state.graph, layering)
    lo, hi = interval
    if hi - lo + 1 > state.rseq.head:
        raise IllegalActionError(
            "interval length %d exceeds head %d" % (hi - lo + 1, state.rseq.head)
        )
    return _restricted(state, table.vertices(lo, hi))


def _restricted(state, kept):
    """The state after a Restrict that keeps the vertex set kept."""
    return GameState(state.graph.induced(kept), state.rseq.tail(1), state.round + 1)


def legal_replies(state, layering):
    """Canonical preserver replies: intervals of length exactly head
    starting in [minLabel - head + 1, maxLabel], deduplicated by the
    vertex set they keep (first start wins).

    The start range is walked via the label positions where the kept
    set changes (each vertex label, as a window's first or last), so
    huge heads cost nothing and every window keeps a vertex.  Kept sets
    are slices of the label order whose ends move right as the start
    grows, so a start that keeps an earlier set keeps the previous one.
    """
    table = LabelTable(state.graph, layering)
    head = state.rseq.head
    out, prev = [], None
    for s in sorted(table.labels + [lab - head + 1 for lab in table.labels]):
        kept = table.vertices(s, s + head - 1)
        if kept != prev:
            out.append(((s, s + head - 1), frozenset(kept)))
            prev = kept
    return out


@dataclass
class TranscriptEntry:
    round: int
    action: str
    layering: dict | None
    reply: tuple | None
    vertices_after: tuple

    def to_json(self):
        d = {
            "round": self.round,
            "action": self.action,
            "n": len(self.vertices_after),
            "vertices": list(self.vertices_after),
        }
        if self.action == RESTRICT:
            d["reply"] = list(self.reply)
            d["layering"] = {str(v): lab for v, lab in sorted(self.layering.items())}
        return d

    def to_line(self):
        reply = "-" if self.reply is None else "[%d,%d]" % self.reply
        return "round %d | action %s | reply %s | n %d" % (
            self.round,
            self.action,
            reply,
            len(self.vertices_after),
        )


@dataclass
class Transcript:
    initial_vertices: tuple
    entries: list = field(default_factory=list)
    outcome: str = "unfinished"  # win | budget_exceeded | invalid
    diagnostic: str = ""

    @property
    def rounds(self):
        return len(self.entries)

    def _end(self, outcome, diagnostic):
        self.outcome, self.diagnostic = outcome, diagnostic
        return self

    def to_lines(self):
        lines = [e.to_line() for e in self.entries]
        lines.append("outcome %s" % self.outcome)
        return lines

    def to_json(self):
        return {
            "initial_vertices": list(self.initial_vertices),
            "rounds": self.rounds,
            "outcome": self.outcome,
            "diagnostic": self.diagnostic,
            "entries": [e.to_json() for e in self.entries],
        }

    def replay(self, state):
        """Re-apply the recorded moves and check the vertex sets match."""
        for e in self.entries:
            if e.action == DELETE:
                state = apply_delete(state)
            else:
                lam = {int(v): lab for v, lab in e.layering.items()}
                state = apply_restrict(state, lam, tuple(e.reply))
            if tuple(state.graph.vertices) != tuple(e.vertices_after):
                raise GameError("replay diverges at round %d" % e.round)
        return state


class Preserver:
    def choose(self, state, layering, replies):
        raise NotImplementedError


class FirstPreserver(Preserver):
    def choose(self, state, layering, replies):
        return replies[0][0]


class LastPreserver(Preserver):
    def choose(self, state, layering, replies):
        return replies[-1][0]


class MaxKeepPreserver(Preserver):
    """Keeps as many vertices as possible (first such interval)."""

    def choose(self, state, layering, replies):
        return max(replies, key=lambda p: (len(p[1]), -p[0][0]))[0]


class RandomPreserver(Preserver):
    def __init__(self, seed):
        self.rng = random.Random(seed)

    def choose(self, state, layering, replies):
        return self.rng.choice(replies)[0]


def parse_preserver(text):
    if text == "first":
        return FirstPreserver()
    if text == "last":
        return LastPreserver()
    if text == "max":
        return MaxKeepPreserver()
    if text.startswith("random:"):
        return RandomPreserver(int(text.split(":", 1)[1]))
    raise GameError("unknown preserver %r" % text)


DEFAULT_BUDGET = 10**4


def play(strategy, preserver, state, budget=DEFAULT_BUDGET):
    """Referee a full game; returns a Transcript."""
    t = Transcript(initial_vertices=tuple(state.graph.vertices))
    while not state.finished:
        if t.rounds >= budget:
            return t._end("budget_exceeded", "no win within %d rounds" % budget)
        try:
            action, strategy = strategy.next_action(state)
        except Exception as exc:  # structural violation inside a strategy
            return t._end("invalid", "strategy error: %s" % exc)
        if action.kind == DELETE:
            new_state = apply_delete(state)
            reply = None
            lam = None
        elif action.kind == RESTRICT:
            lam = action.layering
            try:
                replies = legal_replies(state, lam)
            except (GraphError, SequenceError) as exc:
                return t._end("invalid", str(exc))
            reply = preserver.choose(state, lam, replies)
            # a canonical reply keeps a set legal_replies built after checking lam
            kept = next((kept for iv, kept in replies if iv == reply), None)
            try:
                new_state = apply_restrict(state, lam, reply) if kept is None else _restricted(state, kept)
            except GameError as exc:  # a reply longer than the head
                return t._end("invalid", str(exc))
        else:
            return t._end("invalid", "unknown action kind %r" % action.kind)
        try:
            strategy = strategy.observe(action, reply, new_state)
        except Exception as exc:
            return t._end("invalid", "strategy error: %s" % exc)
        t.entries.append(
            TranscriptEntry(
                round=new_state.round,
                action=action.kind,
                layering=lam,
                reply=reply,
                vertices_after=tuple(new_state.graph.vertices),
            )
        )
        state = new_state
    return t._end("win", "")


def minimax_rounds(strategy, state, cap=DEFAULT_BUDGET, stats=None):
    """Worst case number of rounds over all canonical preserver replies.

    Returns cap + 1 when some line of play exceeds cap rounds.  When
    stats is a dict it receives "states", the number of positions at
    which the strategy was played.  The walk keeps an explicit stack
    with one frame per Restrict on the current line, so deep games need
    no deep recursion.  Each reply's state is built from the kept set
    legal_replies returns when the walk reaches it, so every proposed
    layering is checked once, and replies past the saturation cut-off
    are not built.  As in the solvers, the strategy does not observe the
    Delete that empties the graph; play does.
    """
    states, stack = 0, []  # frames [strategy, state, action, replies, worst, remaining, run]
    strat, st, remaining, run = strategy, state, cap, 0  # run: Deletes since the last Restrict
    while True:
        # play down the line to its end or its next Restrict
        if st.finished:
            val = run
        elif remaining <= 0:
            val = run + 1  # saturate: one more round than allowed
        else:
            states += 1
            action, strat = strat.next_action(st)
            if action.kind == DELETE:
                ns = apply_delete(st)
                strat = strat.observe(action, None, ns) if ns.graph.n else strat
                st, remaining, run = ns, remaining - 1, run + 1
                continue
            stack.append([strat, st, action, iter(legal_replies(st, action.layering)), 0, remaining, run])
            val = None
        # back up to the deepest Restrict with a reply left to try
        reply = None
        while stack and reply is None:
            frame = stack[-1]
            if val is not None:
                frame[4] = max(frame[4], 1 + val)
            strat, st, action, replies, worst, remaining, run = frame
            reply = next(replies, None) if worst <= remaining else None
            if reply is None:
                stack.pop()
                val = run + worst
        if reply is None:
            break
        iv, kept = reply
        ns = _restricted(st, kept)
        strat, st, remaining, run = strat.observe(action, iv, ns), ns, remaining - 1, 0
    if stats is not None:
        stats["states"] = states
    return min(val, cap + 1)
