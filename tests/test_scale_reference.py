"""Approximation guarantees on 3-trees too large for the brute-force
oracles, checked against exact references: the greedy along a perfect
elimination order for independent sets, and 0/1 programs solved by
scipy.optimize.milp for dominating sets and 2-colourable subgraphs.
The library itself never imports scipy.  Minimax round counts on
graphs with up to 4,096 vertices stay within round_bound."""

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import lil_matrix

from bakergame import ptas
from bakergame.game import GameState, minimax_rounds
from bakergame.generators import gen_apex_grid, gen_grid, gen_ktree
from bakergame.sequences import ConstSeq
from bakergame.strategies import build_strategy, round_bound

K = 2


def _milp_optimum(n_vars, rows, lower, upper, maximize):
    """Optimum of sum(x) over binary x with lower <= A x <= upper, where
    row i of A has a 1 in each column of rows[i]."""
    a = lil_matrix((len(rows), n_vars))
    for i, cols in enumerate(rows):
        for j in cols:
            a[i, j] = 1
    c = -np.ones(n_vars) if maximize else np.ones(n_vars)
    res = milp(
        c,
        constraints=LinearConstraint(a.tocsr(), lower, upper),
        integrality=np.ones(n_vars),
        bounds=Bounds(0, 1),
    )
    assert res.success, res.message
    return round(abs(res.fun))


def _solve(problem, solver, graph, inst_of):
    """Solve at k = K with memo, on graph in its chordal:3 order."""
    g2, st, _ = build_strategy("chordal:3", graph)
    inst = inst_of(g2)
    sol = solver(inst, st, K, memo=True)
    assert sol.feasible and ptas.verify_solution(problem, inst, sol)
    return g2, sol


def test_mis_on_a_300_vertex_3tree_keeps_its_guarantee():
    graph = gen_ktree(300, 3, seed=1)
    _, sol = _solve("mis", ptas.solve_mis, graph, ptas.ISInstance.full)
    # gen_ktree attaches each vertex to a clique of earlier ones, so the
    # reversed construction order is a perfect elimination order, along
    # which the greedy independent set is maximum
    chosen = set()
    for v in reversed(graph.vertices):
        if not graph.adj[v] & chosen:
            chosen.add(v)
    opt = len(chosen)
    assert sol.size * K >= (K - 1) * opt, (sol.size, opt)


def test_domset_on_a_100_vertex_3tree_keeps_its_guarantee():
    graph = gen_ktree(100, 3, seed=1)
    g2, sol = _solve("domset", ptas.solve_domset, graph, ptas.DomSetInstance.full)
    col = {v: i for i, v in enumerate(g2.vertices)}
    rows = [[col[v]] + [col[w] for w in g2.adj[v]] for v in g2.vertices]
    opt = _milp_optimum(g2.n, rows, 1, np.inf, maximize=False)
    assert sol.size * K <= (K + 1) * opt, (sol.size, opt)


def test_ccolorable_on_a_200_vertex_3tree_keeps_its_guarantee():
    colors = 2
    inst_of = lambda g: ptas.ColorInstance.full(g, colors)  # noqa: E731
    g2, sol = _solve("ccolorable", ptas.solve_ccolorable, gen_ktree(200, 3, seed=1), inst_of)
    # x[v, a] = 1 when v takes colour a: one colour at most per vertex,
    # and no colour on both ends of an edge
    cells = [(v, a) for v in g2.vertices for a in range(colors)]
    col = {cell: i for i, cell in enumerate(cells)}
    rows = [[col[v, a] for a in range(colors)] for v in g2.vertices]
    rows += [[col[u, a], col[w, a]] for u, w in g2.edge_list() for a in range(colors)]
    opt = _milp_optimum(len(col), rows, -np.inf, 1, maximize=True)
    assert sol.size * K >= (K - 1) * opt, (sol.size, opt)


@pytest.mark.parametrize(
    "text, graph, rounds",
    [
        pytest.param("chordal:2", lambda: gen_ktree(256, 2), (5, 12), id="2-tree-256"),
        pytest.param("chordal:3", lambda: gen_ktree(256, 3), (7, 15), id="3-tree-256"),
        pytest.param("minorfree:5", lambda: gen_grid(16, 16), (14, 46), id="grid-16x16"),
        pytest.param("minorfree:6", lambda: gen_apex_grid(15), (22, 67), id="apexgrid-15"),
    ],
)
def test_minimax_rounds_stay_within_the_bound_at_scale(text, graph, rounds):
    # the paper's round count depends on the sequence, not on n: the
    # worst case over all canonical replies meets round_bound at const:1
    # and const:2 on graphs with about 250 vertices
    g2, strat, _ = build_strategy(text, graph())
    for c, want in zip((1, 2), rounds):
        value = minimax_rounds(strat, GameState(g2, ConstSeq(c)))
        assert value == want <= round_bound(strat.descriptor, ConstSeq(c)), (text, c)


@pytest.mark.parametrize(
    "text, graph, pinned",
    [
        pytest.param("chordal:2", lambda: gen_ktree(1024, 2), ((5, 6), (12, 30)), id="2-tree-1024"),
        pytest.param("chordal:2", lambda: gen_ktree(4096, 2), ((5, 6), (13, 30)), id="2-tree-4096"),
        pytest.param("chordal:3", lambda: gen_ktree(1024, 3), ((7, 8), (19, 93)), id="3-tree-1024"),
        pytest.param("minorfree:5", lambda: gen_grid(32, 32), ((18, 32), (74, 651)), id="grid-32x32"),
        pytest.param("minorfree:5", lambda: gen_grid(64, 64), ((18, 32), (68, 651)), id="grid-64x64"),
    ],
)
def test_round_counts_pinned_up_to_n_4096(text, graph, pinned):
    # (minimax_rounds, round_bound) at const:1 and const:2: the worst
    # case barely moves as n grows fourfold, and stays within the bound
    g2, strat, _ = build_strategy(text, graph())
    got = tuple(
        (minimax_rounds(strat, GameState(g2, ConstSeq(c))), round_bound(strat.descriptor, ConstSeq(c)))
        for c in (1, 2)
    )
    assert got == pinned
