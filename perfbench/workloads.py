"""Seeded workloads for the benchmark.

A workload turns a seed into a list of calls.  Each call is one
top-level library call (a ``solve_*``, a ``play`` or a
``minimax_rounds``) plus a check of its output against a reference
that does not use the game code.  The library receives only the
generated graphs, instances and preserver seeds.

Why these three workloads:

* ``solve-grid``: for n <= 81 the quotient strategy pads with 81
  deletes, so the solve is exhaustive delete branching keyed by pickled
  strategies.  Strategy forking and memo keys dominate; covers idle.
* ``solve-ktree``: on 3-trees the search is driven by restricts, so
  cover enumeration and dedup dominate and forking matters less.
* ``referee``: no solver.  Minimax and refereed play use strategies
  sequentially, and graph routines run on graphs of up to 1,600
  vertices.  A solver gain that costs play or minimax shows here.
"""

import functools
import math
import random
from dataclasses import dataclass
from typing import Callable

# Every call gets this deadline; solves also pass it to the library.
CALL_DEADLINE_S = 60

# 3-tree solve cost varies about 3x between trees of one size, so a
# run draws many small trees rather than a few large ones, and solves
# each tree once: the two problems' costs on one tree are correlated.
KTREE_COUNT = 192
KTREE_N = 8


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    # Result against its reference, lower is better: the approximation
    # ratio (>= 1, 1 = optimal) for solves, rounds / round_bound for games.
    ratio: float | None = None
    rounds: int | None = None


@dataclass
class Call:
    label: str
    span: str  # root span of the call: ptas.solve, game.play or game.minimax_rounds
    run: Callable
    check: Callable


def failed(reason):
    return Outcome(False, reason)


# ---------------------------------------------------------------------------
# checks


def solve_call(bg, label, problem, inst, strat, k, optimum):
    """optimum: the exact optimum size, or a zero-argument function
    that computes it (None meaning infeasible)."""
    solver = {"mis": bg.solve_mis, "ccolorable": bg.solve_ccolorable, "domset": bg.solve_domset}[
        problem
    ]

    def run():
        return solver(inst, strat, k, memo=True, deadline_seconds=CALL_DEADLINE_S)

    ref = {}

    def check(sol):
        if not bg.verify_solution(problem, inst, sol):
            return failed("verify_solution rejects the output")
        if "opt" not in ref:
            ref["opt"] = optimum() if callable(optimum) else optimum
        opt = ref["opt"]
        if problem == "domset":
            if opt is None or not sol.feasible:
                if (opt is None) != (not sol.feasible):
                    return failed(
                        "feasible %s, reference feasible %s" % (sol.feasible, opt is not None)
                    )
                return Outcome(True)
            if sol.size * k > (k + 1) * opt:
                return failed("size %d above (1+1/%d) * optimum %d" % (sol.size, k, opt))
            return Outcome(True, ratio=sol.size / opt if opt else 1.0)
        if sol.size * k < (k - 1) * opt:
            return failed("size %d below (1-1/%d) * optimum %d" % (sol.size, k, opt))
        return Outcome(True, ratio=opt / sol.size if sol.size else 1.0)

    return Call(label, "ptas.solve", run, check)


def play_call(bg, label, graph, strat, c, preserver):
    bound = bg.round_bound(strat.descriptor, bg.ConstSeq(c))

    def run():
        return bg.play(
            strat.fork(),
            bg.parse_preserver(preserver),
            bg.GameState(graph, bg.ConstSeq(c)),
            budget=bound,
        )

    def check(transcript):
        if transcript.outcome != "win":
            return failed("outcome %s: %s" % (transcript.outcome, transcript.diagnostic))
        if transcript.rounds > bound:
            return failed("%d rounds exceed round_bound %d" % (transcript.rounds, bound))
        return Outcome(True, ratio=transcript.rounds / bound, rounds=transcript.rounds)

    return Call(label, "game.play", run, check)


def minimax_call(bg, label, graph, strat, c):
    bound = bg.round_bound(strat.descriptor, bg.ConstSeq(c))

    def run():
        return bg.minimax_rounds(strat, bg.GameState(graph, bg.ConstSeq(c)))

    def check(value):
        if value > bound:
            return failed("minimax %d exceeds round_bound %d" % (value, bound))
        return Outcome(True, ratio=value / bound, rounds=value)

    return Call(label, "game.minimax_rounds", run, check)


# ---------------------------------------------------------------------------
# references that do not use the game code


def grid_mis(rows, cols):
    return math.ceil(rows * cols / 2)


def apex_grid_mis(side):
    # the apex sees every grid vertex, so it only helps when alone
    return max(math.ceil(side * side / 2), 1)


def apex_grid_two_colorable(side):
    # the grid is bipartite; keeping the apex forces an independent rest
    return max(side * side, math.ceil(side * side / 2) + 1)


def ktree_mis(graph):
    """Greedy along a perfect elimination order.  gen_ktree attaches
    each vertex to a clique of earlier vertices, so reverse
    construction order is one, and the greedy is exact."""
    chosen = set()
    for v in reversed(graph.vertices):
        if not graph.adj[v] & chosen:
            chosen.add(v)
    return len(chosen)


def ccolorable_optimum(bg, inst):
    """Exact brute force over vertex subsets (at most 2^n of them)."""
    return len(bg.oracle_ccolorable(inst)[0])


def chordal_reorder(bg, graph, d):
    """Reorder so the natural order is chordal with left-degree <= d, or
    None when no such order exists (reversed greedy elimination)."""
    remaining = set(graph.vertices)
    order = []
    while remaining:
        pick = None
        for v in sorted(remaining):
            nb = graph.adj[v] & remaining
            if len(nb) <= d and all(graph.has_edge(a, b) for a in nb for b in nb if a < b):
                pick = v
                break
        if pick is None:
            return None
        order.append(pick)
        remaining.discard(pick)
    order.reverse()
    mp = {v: i for i, v in enumerate(order)}
    return bg.OrderedGraph(range(graph.n), [(mp[u], mp[v]) for u, v in graph.edge_list()])


def built(bg, descriptor, graph):
    res = bg.build_strategy(descriptor, graph)
    if isinstance(res, bg.MinorWitness):
        raise RuntimeError("%s refused the input with a clique minor" % descriptor)
    return res[0], res[1]


# ---------------------------------------------------------------------------
# workloads


def one_hit_domset(bg, graph, rng):
    """A gen_random_instance domset instance with exactly one hit-set.
    Solve cost roughly doubles with each hit-set, so fixing the count
    keeps one draw from setting a run's time, and every restrict has a
    hit for plan_dp to place."""
    while True:
        inst = bg.gen_random_instance("domset", graph, seed=rng.randrange(2**31))
        if len(inst.hits) == 1:
            return inst


def setup_solve_grid(bg, seed, tiny, _corpus):
    rng = random.Random(seed)
    calls = []
    # (rows, cols, domset instances).  Many cheap domset draws keep any
    # one draw from moving the median call; none on the 4x4 grid, whose
    # hit-set solves vary 0.4-2 s by draw and would set the tail.
    grids = [(2, 2, 1), (2, 3, 1)] if tiny else [(3, 3, 4), (3, 4, 1), (4, 4, 0)]
    apexes = [(2, 1)] if tiny else [(3, 4), (4, 4)]
    graphs = [
        ("grid %dx%d" % (r, c), "minorfree:5", bg.gen_grid(r, c), grid_mis(r, c), r * c, d)
        for r, c, d in grids
    ]
    graphs += [
        ("apex %d" % s, "minorfree:6", bg.gen_apex_grid(s), apex_grid_mis(s),
         apex_grid_two_colorable(s), d)
        for s, d in apexes
    ]
    for tag, descriptor, graph, mis_opt, col_opt, n_dom in graphs:
        g2, strat = built(bg, descriptor, graph)
        jobs = [
            ("mis", bg.ISInstance.full(g2), mis_opt),
            ("ccolorable", bg.ColorInstance.full(g2, 2), col_opt),
        ]
        for _ in range(n_dom):
            dom = one_hit_domset(bg, g2, rng)

            def oracle(dom=dom):
                res = bg.oracle_domset(dom)
                return None if res is bg.INFEASIBLE else len(res)

            jobs.append(("domset", dom, oracle))
        for k in (2, 3):
            for problem, inst, opt in jobs:
                label = "%s %s k=%d" % (tag, problem, k)
                calls.append(solve_call(bg, label, problem, inst, strat, k, opt))
    return calls


def setup_solve_ktree(bg, seed, tiny, _corpus):
    rng = random.Random(seed)
    calls = []
    count, n = (4, 6) if tiny else (KTREE_COUNT, KTREE_N)
    for i in range(count):
        graph = bg.gen_ktree(n, 3, seed=rng.randrange(2**31))
        g2, strat = built(bg, "chordal:3", graph)
        label = "3-tree #%d n=%d" % (i, n)
        if i % 2:
            inst = bg.ColorInstance.full(g2, 2)
            opt = functools.partial(ccolorable_optimum, bg, inst)
            calls.append(solve_call(bg, label + " ccolorable", "ccolorable", inst, strat, 2, opt))
        else:
            inst = bg.ISInstance.full(g2)
            opt = functools.partial(ktree_mis, graph)
            calls.append(solve_call(bg, label + " mis", "mis", inst, strat, 2, opt))
    return calls


def load_atlas(tiny):
    """Edge lists of the networkx graph atlas with 1 to 6 vertices (4
    when tiny): the criterion-3 corpus."""
    import networkx as nx

    limit = 4 if tiny else 6
    out = []
    for G in nx.graph_atlas_g()[1:]:
        if G.number_of_nodes() > limit:
            break
        mp = {v: i for i, v in enumerate(sorted(G.nodes()))}
        out.append((len(mp), [(mp[u], mp[v]) for u, v in G.edges()]))
    return out


def setup_referee(bg, seed, tiny, atlas):
    rng = random.Random(seed)
    calls = []
    for i, (n, edges) in enumerate(atlas):
        g = bg.OrderedGraph(range(n), edges)
        jobs = []
        if g.m == 0:
            jobs.append(("edgeless", g))
        h = chordal_reorder(bg, g, 2)
        if h is not None:
            jobs += [
                ("chordal:2", h),
                ("cliquesum(chordal:2,chordal:2)", h),
                ("quotient(chordal:2,2)", h),
            ]
        res = bg.build_strategy("minorfree:5", g)
        strategies = [] if isinstance(res, bg.MinorWitness) else [("minorfree:5", res[0], res[1])]
        strategies += [(text, *built(bg, text, graph)) for text, graph in jobs]
        for text, g2, strat in strategies:
            for c in (1, 2):
                label = "atlas #%d %s c=%d" % (i + 1, text, c)
                calls.append(minimax_call(bg, label, g2, strat, c))
    for i in range(2 if tiny else 8):
        n = rng.randint(6, 8) if tiny else rng.randint(20, 30)
        g2, strat = built(bg, "chordal:2", bg.gen_ktree(n, 2, seed=rng.randrange(2**31)))
        for c in (1, 2):
            calls.append(minimax_call(bg, "2-tree #%d n=%d c=%d" % (i, n, c), g2, strat, c))
    plays = []
    for side in (6, 8) if tiny else (30, 40):
        g2, strat = built(bg, "minorfree:5", bg.gen_grid(side, side))
        plays.append(("grid %dx%d" % (side, side), g2, strat))
    for i in range(1 if tiny else 3):
        # one size for every seed, so the seed changes the trees, not the work
        n = 60 if tiny else 1000
        g2, strat = built(bg, "chordal:3", bg.gen_ktree(n, 3, seed=rng.randrange(2**31)))
        plays.append(("3-tree #%d n=%d" % (i, n), g2, strat))
    for tag, g2, strat in plays:
        for preserver in ("max", "random:%d" % rng.randrange(10**6)):
            calls.append(play_call(bg, "%s %s" % (tag, preserver), g2, strat, 2, preserver))
    return calls


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (bg, seed, tiny, corpus) -> [Call]
    corpus: Callable = lambda tiny: None  # input read once, before timing


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-grid", setup_solve_grid),
        Workload("solve-ktree", setup_solve_ktree),
        Workload("referee", setup_referee, load_atlas),
    )
}
