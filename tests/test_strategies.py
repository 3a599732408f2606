import hashlib
import json
import os
import re
import subprocess
import sys
import time

import networkx as nx
import pytest

import bakergame
from bakergame import ptas, strategies

from bakergame.game import (
    DELETE,
    Action,
    GameState,
    apply_delete,
    apply_restrict,
    legal_replies,
    minimax_rounds,
    parse_preserver,
    play,
)
from bakergame.generators import gen_diag_grid, gen_grid, gen_ktree
from bakergame.graph import (
    Embedding,
    GeodesicPartition,
    GraphError,
    OrderedGraph,
    check_chordal_ordering,
    check_geodesic_partition,
    quotient,
)
from bakergame.sequences import (
    INDEX_LIMIT,
    ConstSeq,
    GeomSeq,
    ScheduleSeq,
    SequenceError,
    ThinnedSeq,
)
from bakergame.strategies import (
    ChainD,
    ChordalD,
    ChordalStrategy,
    CliqueSumStrategy,
    DestroyerStrategy,
    DistortionStrategy,
    EdgelessStrategy,
    MAX_NESTING,
    MinorFreeD,
    MinorWitness,
    QuotientStrategy,
    StrategyError,
    build_strategy,
    chordal_geodesic_partition,
    parse_descriptor,
    round_bound,
    verify_minor_witness,
)


def path(n):
    return OrderedGraph(range(n), [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return OrderedGraph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_round_bound_edgeless():
    assert round_bound(ChordalD(0), ConstSeq(1)) == 2  # [PAPER] restrict + delete


def test_round_bound_chordal_frozen():
    # [DERIVED] from the recurrence bound(d) = chain(d-1, r.at(2)) + 2
    assert round_bound(ChordalD(1), ConstSeq(1)) == 4
    assert round_bound(ChordalD(1), ConstSeq(2)) == 9
    assert round_bound(ChordalD(2), ConstSeq(1)) == 6


def _const_chordal_bound(d, c):
    # ChordalD(d) on const:c restricts once and plays a chain of c levels
    # of ChordalD(d - 1), each glued on the same constant:
    # T_0 = 2, T_d = (2 T_{d-1} + 1) * 2 ** (c - 1) - T_{d-1} + 1
    t = 2
    for _ in range(d):
        t = (2 * t + 1) * 2 ** (c - 1) - t + 1
    return t


def test_round_bound_is_polynomial_in_the_chordal_degree():
    for c in (1, 2, 3):
        for d in range(41):
            assert round_bound(ChordalD(d), ConstSeq(c)) == _const_chordal_bound(d, c), (d, c)
    t0 = time.monotonic()
    assert round_bound(ChordalD(40), ConstSeq(3)) == _const_chordal_bound(40, 3)
    assert time.monotonic() - t0 < 1.0


_DEEP_BOUND = """
from bakergame.sequences import ConstSeq
from bakergame.strategies import ChordalD, round_bound
import sys
print(round_bound(ChordalD(490), ConstSeq(1)), sys.getrecursionlimit())
"""


def test_round_bound_recursion_stays_two_frames_per_degree():
    assert _run_under_default_limit(_DEEP_BOUND) == [str(_const_chordal_bound(490, 1)), "1000"]


def test_round_bound_refuses_huge_thinned_indices():
    # minorfree:3 at geom:28,1.001 needs the thinned index of a 29-level
    # chain bound, about 1.3e9, past INDEX_LIMIT: it fails fast instead
    # of walking the index one step at a time
    t0 = time.monotonic()
    with pytest.raises(SequenceError):
        round_bound(MinorFreeD(3), GeomSeq(28.0, 1.001))
    assert time.monotonic() - t0 < 1.0


def test_round_bound_of_a_quotient_over_a_constant_is_closed_form():
    # thinned, const:c is const:c read at every (d*c + 1)-th index: the
    # bound is the thinned index's where that is computable, and stays
    # finite where the index passes INDEX_LIMIT
    for c in (1, 2, 3):
        for k in (3, 4, 5, 6):
            inner = round_bound(ChordalD(k - 2), ConstSeq(c))
            assert round_bound(MinorFreeD(k), ConstSeq(c)) == ThinnedSeq(ConstSeq(c), k - 2).index(inner)
    t0 = time.monotonic()
    assert round_bound(MinorFreeD(3), ConstSeq(28)) == 29 * round_bound(ChordalD(1), ConstSeq(28))
    assert round_bound(MinorFreeD(14), ConstSeq(3)) > INDEX_LIMIT
    assert time.monotonic() - t0 < 1.0


_DEEP_PATH = """
from bakergame.game import GameState, parse_preserver, play
from bakergame.graph import OrderedGraph
from bakergame.sequences import ConstSeq
from bakergame.strategies import build_strategy, round_bound
import sys
n = 1050
g = OrderedGraph(range(n), [(i, i + 1) for i in range(n - 1)])
_, strat, _ = build_strategy("chordal:1", g)
t = play(strat, parse_preserver("max"), GameState(g, ConstSeq(n)))
print(t.outcome, t.rounds <= round_bound(strat.descriptor, ConstSeq(n)), sys.getrecursionlimit())
"""


def _run_under_default_limit(script):
    """stdout words of script run in a fresh interpreter, which keeps
    Python's default recursion limit."""
    src = os.path.dirname(os.path.dirname(bakergame.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_deep_chain_needs_no_deep_recursion():
    # a path of 1050 vertices fits one window, so chordal:1 peels it as
    # a chain of 1049 clique-sums; each move walks the chain in a loop
    assert _run_under_default_limit(_DEEP_PATH) == ["win", "True", "1000"]


_DEEP_MINIMAX = """
from bakergame.game import GameState, minimax_rounds
from bakergame.graph import OrderedGraph
from bakergame.sequences import ConstSeq
from bakergame.strategies import build_strategy, round_bound
import sys
n = 1100
g = OrderedGraph(range(n), [(i, i + 1) for i in range(n - 1)])
_, strat, _ = build_strategy("chordal:1", g)
v = minimax_rounds(strat, GameState(g, ConstSeq(n)), 5000)
print(v <= round_bound(strat.descriptor, ConstSeq(n)), sys.getrecursionlimit())
"""


def test_deep_minimax_needs_no_deep_recursion():
    # the same kind of chain, 1100 rounds deep: minimax walks the line of
    # play on an explicit stack
    assert _run_under_default_limit(_DEEP_MINIMAX) == ["True", "1000"]


def test_minimax_meets_bounds():
    cases = [
        ("chordal:1", path(5), 1),
        ("chordal:1", path(5), 2),
        ("chordal:2", complete(3), 1),
        ("chordal:2", complete(3), 2),
        ("minorfree:5", gen_grid(3, 3), 1),
    ]
    for text, g, c in cases:
        g2, strat, _ = build_strategy(text, g)
        bound = round_bound(strat.descriptor, ConstSeq(c))
        assert minimax_rounds(strat, GameState(g2, ConstSeq(c))) <= bound


def _count_partition_scans(monkeypatch):
    scans = []
    scan = bakergame.graph.geodesic_partition_violation

    def counted(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(bakergame.graph, "geodesic_partition_violation", counted)
    return scans


def test_partition_is_scanned_once_per_pair(monkeypatch):
    # every fresh quotient strategy checks its partition, and the graph
    # remembers the verdict: minimax at c = 1 and c = 2 scans it once
    scans = _count_partition_scans(monkeypatch)
    g2, strat, _ = build_strategy("minorfree:5", gen_grid(3, 3))
    got = []
    for c in (1, 2):
        stats = {}
        got.append((minimax_rounds(strat, GameState(g2, ConstSeq(c)), stats=stats), stats))
    assert got == [(7, {"states": 11}), (10, {"states": 20})]
    assert len(scans) == 1


def test_bad_partition_stays_invalid(monkeypatch):
    # vertex 4 joins the ends of part {0, 1, 2, 3}, so d(0, 3) = 2 < 3
    g = OrderedGraph(range(5), [(0, 1), (1, 2), (2, 3), (0, 4), (3, 4)])
    parts = (frozenset(range(4)), frozenset({4}))
    gp = GeodesicPartition(parts, ({v: v for v in range(4)}, {4: 0}), quotient(g, parts))
    strat = QuotientStrategy(ChordalStrategy(2), gp, parse_descriptor("quotient(chordal:2,2)"))
    scans = _count_partition_scans(monkeypatch)
    for _ in range(3):
        t = play(strat, parse_preserver("max"), GameState(g, ConstSeq(1)))
        assert t.outcome == "invalid"
        assert "not a width-2 geodesic partition" in t.diagnostic
    assert len(scans) == 1
    assert scans[0][0] is g and "not geodesic" in bakergame.graph.geodesic_partition_violation(*scans[0])


def test_chordal_rejects_wrong_graph():
    c4 = OrderedGraph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    strat = ChordalStrategy(2)
    t = play(strat, parse_preserver("max"), GameState(c4, ConstSeq(1)))
    assert t.outcome == "invalid"
    assert "chordal" in t.diagnostic


def test_chordal_rejects_large_left_degree():
    k4 = complete(4)
    t = play(ChordalStrategy(2), parse_preserver("max"), GameState(k4, ConstSeq(1)))
    assert t.outcome == "invalid"
    assert "left-degree" in t.diagnostic


def test_chordal_spreads_a_disconnected_graph_and_bfs_phase_rejects_it():
    # two triangles: phase "spread" restricts componentwise from the one
    # search it also takes its layering from; phase "bfs" expects one
    # component and says where the graph splits
    g = OrderedGraph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    state = GameState(g, ConstSeq(2))
    action, succ = ChordalStrategy(2).next_action(state)
    assert action == Action.restrict({0: 2, 1: 2, 2: 2, 3: 4, 4: 4, 5: 4})
    assert succ == ChordalStrategy(2)
    with pytest.raises(GraphError, match="no path between 0 and 3"):
        ChordalStrategy(2).fork(phase="bfs").next_action(state)


def test_strategies_win_against_every_preserver():
    graphs = {
        "chordal:2": gen_ktree(9, 2, seed=1),
        "minorfree:5": gen_grid(3, 4),
    }
    for text, g in graphs.items():
        for pres in ("first", "last", "max", "random:5"):
            g2, strat, _ = build_strategy(text, g)
            t = play(strat, parse_preserver(pres), GameState(g2, ConstSeq(2)))
            assert t.outcome == "win", (text, pres, t.diagnostic)


def test_schedule_sequences_still_win():
    g = gen_grid(3, 3)
    g2, strat, _ = build_strategy("minorfree:5", g)
    t = play(strat, parse_preserver("max"), GameState(g2, ScheduleSeq("mis", 2)))
    assert t.outcome == "win"


def test_minor_witness_on_complete_graph():
    res = build_strategy("minorfree:4", complete(4))
    assert isinstance(res, MinorWitness)
    assert verify_minor_witness(complete(4), res)
    assert res.k == 4


def test_verify_minor_witness_rejects_bad_sets():
    g = path(4)
    bad = MinorWitness(2, (frozenset({0}), frozenset({3})))  # not adjacent
    assert not verify_minor_witness(g, bad)
    grid = gen_grid(2, 2)
    assert verify_minor_witness(grid, MinorWitness(2, ((0,), (1,))))
    # 99 is not a vertex, though the rest of each set would pass
    assert not verify_minor_witness(grid, MinorWitness(2, ((0,), (1, 99))))
    assert not verify_minor_witness(grid, MinorWitness(2, ((0, 99), (1,))))


def test_decomposition_of_grid():
    g = gen_grid(4, 4)
    res = chordal_geodesic_partition(g, 5)
    assert not isinstance(res, MinorWitness)
    assert check_geodesic_partition(res.graph, res.gp, 3)
    ok, d = check_chordal_ordering(res.gp.quotient_graph)
    assert ok and d <= 3
    # the permutation is a bijection preserving adjacency
    inv = {n: o for o, n in res.perm.items()}
    for u, v in res.graph.edge_list():
        assert g.has_edge(inv[u], inv[v])


def test_distortion_strategy_on_unit_grid():
    g, emb = gen_diag_grid(2)
    strat = DistortionStrategy(emb)
    t = play(strat, parse_preserver("max"), GameState(g, ConstSeq(1)))
    assert t.outcome == "win"
    # [PAPER] dim + prod(beta * r_i + 1) = 2 + 4 rounds at most
    assert t.rounds <= 6


def test_one_vertex_chordal_plays_the_edgeless_move(monkeypatch):
    # one vertex is chordal with left-degree 0: chordal:d makes the
    # edgeless strategy's move at once, without d nested builds or an
    # ordering scan
    scans = []
    monkeypatch.setattr(strategies, "check_chordal_ordering", scans.append)
    state = GameState(OrderedGraph([7]), ConstSeq(3))
    want_action, want_next = EdgelessStrategy().next_action(state)
    for d in (1, 2, 3, 2000):
        action, succ = ChordalStrategy(d).next_action(state)
        assert action == want_action == Action.delete()
        assert type(succ) is EdgelessStrategy and succ == want_next
    assert scans == []


def test_atlas_minimax_values_and_states_pinned():
    # minimax values and states of chordal, clique-sum, quotient and
    # minorfree strategies on the atlas graphs with 1 to 6 vertices, as
    # measured before one-vertex pieces took the edgeless move directly
    # and before minimax stopped observing the Delete that ends the game
    rows = []
    for G in nx.graph_atlas_g()[1:]:
        if G.number_of_nodes() > 6:
            break
        g = OrderedGraph(range(G.number_of_nodes()), G.edges())
        ok, ld = check_chordal_ordering(g)
        texts = ["minorfree:5"]
        if ok:
            texts += ["chordal:%d" % d for d in (1, 2, 3) if ld <= d]
            if ld <= 2:
                texts += ["cliquesum(chordal:2,chordal:2)", "quotient(chordal:2,2)"]
        for text in texts:
            built = build_strategy(text, g)
            if isinstance(built, MinorWitness):
                continue
            g2, strat, _ = built
            for c in (1, 2):
                stats = {}
                value = minimax_rounds(strat, GameState(g2, ConstSeq(c)), stats=stats)
                rows.append((text, c, value, stats["states"]))
    assert (len(rows), sum(r[2] for r in rows), sum(r[3] for r in rows)) == (876, 3869, 7399)
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "6b84e81b52dfff6514d271d581f3d809efc34d2b1991d85865d141c3cecd30ee"


def test_distortion_rejects_wrong_embedding():
    g = complete(4)  # K4 cannot sit at unit spacing in this square
    emb = Embedding(2, 1, {0: (0.0, 0.0), 1: (0.0, 2.0), 2: (2.0, 0.0), 3: (2.0, 2.0)})
    t = play(DistortionStrategy(emb), parse_preserver("max"), GameState(g, ConstSeq(1)))
    assert t.outcome == "invalid"


def test_parse_descriptor():
    assert parse_descriptor("edgeless") == ChordalD(0)
    assert parse_descriptor("chordal:3") == ChordalD(3)
    nested = parse_descriptor("quotient(chordal:2,2)")
    assert nested.inner == ChordalD(2) and nested.d == 2
    assert parse_descriptor(" minorfree:5 ") == MinorFreeD(5)
    bad = [
        "nonsense",
        "chordal:x",
        "distortion",  # no embedding given
        "quotient(chordal:2)",
        "quotient(chordal:2,x)",
        "cliquesum(chordal:1,chordal:1,chordal:1)",
        "cliquesum(chordal:1),chordal:1)",
        "cliquesum((chordal:1,chordal:1)",
        # minorfree reorders the graph, so it cannot sit inside another strategy
        "cliquesum(minorfree:5,chordal:1)",
        "cliquesum(chordal:1,quotient(minorfree:5,3))",
        # numbers no strategy can win with
        "chordal:-1",
        "quotient(chordal:2,0)",
        "quotient(chordal:1,-1)",
        "minorfree:1",
        "minorfree:2",
    ]
    for text in bad:
        with pytest.raises(StrategyError, match=re.escape(repr(text))):
            parse_descriptor(text)


def test_parse_descriptor_names_a_nested_error_once():
    # the message names the whole text once, not once per level, and
    # nesting past MAX_NESTING is refused before the recursive parse
    cases = [
        (MAX_NESTING, "invalid literal"),
        (MAX_NESTING + 1, "deeper than %d" % MAX_NESTING),
        (1000, "deeper than %d" % MAX_NESTING),
    ]
    for levels, reason in cases:
        text = "cliquesum(" * levels + "chordal:x" + ",edgeless)" * levels
        with pytest.raises(StrategyError, match=reason) as exc:
            parse_descriptor(text)
        assert len(str(exc.value)) < len(text) + 100, levels


def test_built_descriptor_matches_grammar():
    edgeless = OrderedGraph(range(3), [])
    cases = [
        ("edgeless", edgeless),
        ("chordal:0", edgeless),
        ("chordal:1", path(5)),
        ("chordal:2", complete(3)),
        ("chordal:3", gen_ktree(8, 3, seed=2)),
        ("minorfree:4", gen_grid(2, 3)),
        ("minorfree:5", gen_grid(3, 3)),
        ("cliquesum(chordal:2,chordal:2)", complete(3)),
        ("quotient(chordal:2,2)", complete(3)),
        ("cliquesum(quotient(chordal:1,1),chordal:1)", path(5)),
    ]
    for text, g in cases:
        g2, strat, _ = build_strategy(text, g)
        assert strat.descriptor == parse_descriptor(text), text
        for c in (1, 2):
            bound = round_bound(parse_descriptor(text), ConstSeq(c))
            assert round_bound(strat.descriptor, ConstSeq(c)) == bound, (text, c)
            t = play(strat.fork(), parse_preserver("max"), GameState(g2, ConstSeq(c)))
            assert t.outcome == "win" and t.rounds <= bound, (text, c)


def test_chain_descriptor_is_whole():
    # with every BFS level inside one window, a chordal strategy's move
    # returns the chain of clique-sums itself, one level per leaf
    g = gen_ktree(9, 2, seed=1)
    _, strat = ChordalStrategy(2).next_action(GameState(g, ConstSeq(50)))
    assert isinstance(strat, CliqueSumStrategy)
    levels = len(set(g.bfs_distances(g.smallest()).values()))
    assert levels > 1
    for c in (1, 2):
        want = round_bound(ChainD(1, levels), ConstSeq(c))
        assert round_bound(strat.descriptor, ConstSeq(c)) == want


def test_chain_hands_over_to_its_leaf():
    # once nothing of the top frame's base is live, the chain's move is
    # a fresh leaf's, and that leaf is the successor.  On trees the
    # leaves are edgeless strategies.
    preserver = parse_preserver("max")
    for g in (path(8), gen_ktree(10, 1, seed=1), gen_ktree(12, 1, seed=2)):
        strat, state, handovers = ChordalStrategy(1), GameState(g, ConstSeq(g.n)), 0
        while not state.finished:
            chain = strat if isinstance(strat, CliqueSumStrategy) else None
            action, strat = strat.next_action(state)
            if chain is not None and not state.graph.vertex_set & frozenset().union(*chain.layers):
                handovers += 1
                assert type(strat) is type(chain.leaf) is EdgelessStrategy
            if action.kind == DELETE:
                reply, new = None, apply_delete(state)
            else:
                reply = preserver.choose(state, action.layering, legal_replies(state, action.layering))
                new = apply_restrict(state, action.layering, reply)
            strat, state = strat.observe(action, reply, new), new
        assert handovers == 1, g.n


def test_hand_over_saves_strategy_copies(monkeypatch):
    # a chain whose base is gone is replaced by its leaf, and a chordal
    # strategy by its chain, instead of wrapping them: no level copies
    # itself only to hold a changed sub-strategy; and the solver does not
    # observe the Delete that ends a game, so that move forks nothing
    calls = [0]
    fork = DestroyerStrategy.fork

    def counted(self, **changes):
        calls[0] += 1
        return fork(self, **changes)

    g2, st, _ = build_strategy("chordal:3", gen_ktree(8, 3, seed=4))
    monkeypatch.setattr(DestroyerStrategy, "fork", counted)
    sol = ptas.solve_mis(ptas.ISInstance.full(g2), st, 2, memo=True)
    assert sol.feasible
    assert calls[0] == 65


# (nodes, positions) of memo solves at k = 2 on full instances, for mis,
# domset and ccolorable, with positions keyed by strategy value.  Three
# rows are the counts of the earlier numbering by pickled (descriptor,
# config) keys.  The clique-sum of quotients merges positions on purpose:
# it fell from (539, 36), (1892, 36), (349, 36) once its frames stopped
# keeping their last-seen vertex sets, which no move reads, so positions
# that differed only there now share one entry
_KEYED_BY_DESCRIPTOR = [
    ("cliquesum(chordal:2,quotient(chordal:2,2))", [(335, 12), (888, 12), (149, 12)]),
    ("cliquesum(quotient(chordal:2,1),quotient(chordal:2,1))", [(534, 31), (1882, 31), (314, 31)]),
    ("quotient(quotient(chordal:2,1),1)", [(113, 31), (189, 31), (421, 31)]),
    ("distortion", [(330, 83), (620, 83), (470, 83)]),
]


@pytest.mark.parametrize("text, want", _KEYED_BY_DESCRIPTOR, ids=[t for t, _ in _KEYED_BY_DESCRIPTOR])
def test_positions_numbered_by_descriptor_are_pinned(monkeypatch, text, want):
    searches = []

    class Recorded(ptas._Search):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    monkeypatch.setattr(ptas, "_Search", Recorded)
    g, emb = gen_diag_grid(3) if text == "distortion" else (gen_ktree(10, 2, seed=1), None)
    g2, st, _ = build_strategy(text, g, emb)
    insts = (ptas.ISInstance.full(g2), ptas.DomSetInstance.full(g2), ptas.ColorInstance.full(g2, 2))
    solvers = (ptas.solve_mis, ptas.solve_domset, ptas.solve_ccolorable)
    for solve, inst in zip(solvers, insts):
        assert solve(inst, st, 2, memo=True).feasible
    assert [(s.nodes, len(s.positions)) for s in searches] == want


def test_fork_independence():
    g = path(6)
    _, strat, _ = build_strategy("chordal:1", g)
    state = GameState(g, ConstSeq(2))
    a, strat = strat.next_action(state)
    fork = strat.fork()
    assert fork.next_action(state)[0].kind == a.kind


def test_fork_shares_static_config_and_stays_independent():
    g2, strat, _ = build_strategy("minorfree:5", gen_grid(4, 4))
    state = GameState(g2, ConstSeq(2))
    _, strat = strat.next_action(state)  # the first move checks the partition
    fork = strat.fork()
    assert fork.gp is strat.gp
    assert fork.part_of is strat.part_of
    before = play(strat.fork(), parse_preserver("first"), state).to_json()
    # playing the fork to the end must not disturb the strategy it came from
    assert play(fork, parse_preserver("max"), state).outcome == "win"
    assert play(strat.fork(), parse_preserver("first"), state).to_json() == before


class _Fresh:
    """A fresh value, also where a strategy's key projects memory: as a
    quotient graph."""

    @property
    def vertex_set(self):
        return object()


def _compared_changes(strat):
    """For each attribute that strat compares, its value with one fresh
    value in it: a frame field for a clique-sum's frames, the whole
    attribute otherwise."""
    for name, value in vars(strat).items():
        if name in strat._fixed or name == "_keyed":
            continue
        if name != "frames":
            yield {name: _Fresh()}
            continue
        for i, frame in enumerate(value):
            for f in range(len(frame)):
                yield {name: value[:i] + (frame[:f] + (_Fresh(),) + frame[f + 1 :],) + value[i + 1 :]}


def _with_sub_strategies(values):
    """values and every sub-strategy they hold, by object."""
    out, todo = {}, list(values)
    while todo:
        s = todo.pop()
        out[id(s)] = s
        held = list(vars(s).values()) + [f[4] for f in getattr(s, "frames", ())]
        todo.extend(v for v in held if isinstance(v, DestroyerStrategy))
    return out.values()


def test_strategies_compare_as_values():
    # a copy equals its original with an equal hash, and a fresh value in
    # any attribute the descriptor does not fix splits them
    from test_chain_reference import _corpus, _walk_values

    diag, emb = gen_diag_grid(3)
    cases = [(text, g) for text, g in _corpus() if g.n <= 12]
    cases += [("quotient(chordal:2,2)", gen_ktree(8, 2, seed=4)), ("minorfree:5", gen_grid(3, 4))]
    kinds = set()
    for text, g in cases + [("distortion", diag)]:
        g2, first, _ = build_strategy(text, g, emb)
        for c in (1, 2):
            met = []
            _walk_values(first, GameState(g2, ConstSeq(c)), met, 6)
            for s in _with_sub_strategies(met):
                kinds.add(type(s))
                copy = s.fork()
                assert copy == s and hash(copy) == hash(s), (text, s)
                for changes in _compared_changes(s):
                    assert s.fork(**changes) != s, (text, type(s).__name__, changes)
    assert kinds == {EdgelessStrategy, ChordalStrategy, CliqueSumStrategy, QuotientStrategy, DistortionStrategy}


def _snapshot(strat, out):
    """Record strat's attributes, and those of every sub-strategy it
    holds, as (object, copy of vars)."""
    out.append((strat, dict(vars(strat))))
    for value in vars(strat).values():
        if isinstance(value, DestroyerStrategy):
            _snapshot(value, out)


def test_moves_leave_their_strategy_unchanged():
    # a strategy is a value: next_action and observe return the
    # successor and leave every attribute of the object they are called
    # on, and of its sub-strategies, bound to the same object
    diag, emb = gen_diag_grid(3)
    cases = [
        ("edgeless", OrderedGraph(range(4), [])),
        ("chordal:1", path(7)),
        ("chordal:2", gen_ktree(9, 2, seed=1)),
        ("chordal:3", gen_ktree(10, 3, seed=2)),
        ("cliquesum(chordal:2,chordal:2)", gen_ktree(9, 2, seed=3)),
        ("quotient(chordal:2,2)", gen_ktree(8, 2, seed=4)),
        ("cliquesum(quotient(chordal:1,1),chordal:1)", path(7)),
        ("minorfree:5", gen_grid(3, 4)),
        ("distortion", diag),
    ]
    preserver = parse_preserver("max")
    for text, g in cases:
        g2, first, _ = build_strategy(text, g, emb)
        for c in (1, 2):
            strat, state = first, GameState(g2, ConstSeq(c))
            snaps = []
            for _ in range(round_bound(strat.descriptor, ConstSeq(c))):
                if state.finished:
                    break
                _snapshot(strat, snaps)
                action, strat = strat.next_action(state)
                if action.kind == DELETE:
                    reply, new = None, apply_delete(state)
                else:
                    lam = action.layering
                    reply = preserver.choose(state, lam, legal_replies(state, lam))
                    new = apply_restrict(state, lam, reply)
                _snapshot(strat, snaps)
                strat, state = strat.observe(action, reply, new), new
            assert state.finished, (text, c)
            for obj, saved in snaps:
                now = vars(obj)
                changed = {k for k in saved.keys() | now.keys() if now.get(k) is not saved.get(k)}
                assert changed == set(), (text, c, type(obj).__name__)
