"""Approximation guarantees on 3-trees too large for the brute-force
oracles, checked against exact references: the greedy along a perfect
elimination order for independent sets, and 0/1 programs solved by
scipy.optimize.milp for dominating sets and 2-colourable subgraphs.
The library itself never imports scipy."""

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import lil_matrix

from bakergame import ptas
from bakergame.generators import gen_ktree
from bakergame.strategies import build_strategy

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
