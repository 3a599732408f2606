import inspect
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from bakergame import ptas
from bakergame.covers import Cover, margin, occupied_intervals
from bakergame.generators import gen_grid, gen_ktree, gen_random_instance
from bakergame.game import RESTRICT, Action, GameState, LabelTable, parse_preserver, play
from bakergame.graph import NotALayeringError, OrderedGraph
from bakergame.sequences import ConstSeq
from bakergame.strategies import DestroyerStrategy, QuotientStrategy, build_strategy


def path(n):
    return OrderedGraph(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return OrderedGraph(range(n), [(i, (i + 1) % n) for i in range(n)])


def strat(text, g):
    return build_strategy(text, g)[1]


_SOLVERS = {
    "mis": ptas.solve_mis,
    "domset": ptas.solve_domset,
    "ccolorable": ptas.solve_ccolorable,
}


def test_ratio_bound_values():
    from fractions import Fraction

    assert ptas.ratio_bound("domset", 2) == Fraction(3, 2)
    assert ptas.ratio_bound("mis", 4) == Fraction(3, 4)


def test_oracle_domset_small():
    # [DERIVED] gamma(P7) = 3, gamma(C4) = 2, gamma(star) = 1
    assert len(ptas.oracle_domset(ptas.DomSetInstance.full(path(7)))) == 3
    assert len(ptas.oracle_domset(ptas.DomSetInstance.full(cycle(4)))) == 2
    star = OrderedGraph(range(5), [(0, i) for i in range(1, 5)])
    assert ptas.oracle_domset(ptas.DomSetInstance.full(star)) == frozenset({0})


def test_oracle_domset_hits_and_infeasible():
    g = path(4)
    inst = ptas.DomSetInstance(g, frozenset(), (frozenset({0}), frozenset({3})))
    assert ptas.oracle_domset(inst) == frozenset({0, 3})
    inst = ptas.DomSetInstance(g, frozenset(), (frozenset(),))
    assert ptas.oracle_domset(inst) is ptas.INFEASIBLE


def test_oracle_mis_small():
    # [DERIVED] alpha(P5) = 3, alpha(C6) = 3, alpha(K4) = 1
    assert len(ptas.oracle_mis(ptas.ISInstance.full(path(5)))) == 3
    assert len(ptas.oracle_mis(ptas.ISInstance.full(cycle(6)))) == 3
    k4 = OrderedGraph(range(4), [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert len(ptas.oracle_mis(ptas.ISInstance.full(k4))) == 1
    inst = ptas.ISInstance(path(5), frozenset({0, 2, 4}))
    assert len(ptas.oracle_mis(inst)) == 2  # only 1 and 3 remain


def test_oracle_ccolorable_small():
    # [DERIVED] C5 is not 2-colorable, dropping any vertex is
    chosen, coloring = ptas.oracle_ccolorable(ptas.ColorInstance.full(cycle(5), 2))
    assert len(chosen) == 4
    sol = ptas.Solution("ccolorable", True, chosen, coloring)
    assert ptas.verify_solution(
        "ccolorable", ptas.ColorInstance.full(cycle(5), 2), sol
    )


def test_oracle_caps():
    with pytest.raises(ptas.OracleError):
        ptas.oracle_mis(ptas.ISInstance.full(path(30)))


def test_solver_domset_within_ratio():
    for g, text in [(path(12), "chordal:1"), (gen_grid(3, 4), "minorfree:5")]:
        g2, st, _ = build_strategy(text, g)
        inst = ptas.DomSetInstance.full(g2)
        for k in (1, 2, 3):
            sol = ptas.solve_domset(inst, st.fork(), k, memo=True)
            assert ptas.verify_solution("domset", inst, sol)
            opt = len(ptas.oracle_domset(inst))
            assert sol.size * k <= (k + 1) * opt


def test_solver_mis_within_ratio():
    for g, text in [(path(12), "chordal:1"), (gen_grid(3, 4), "minorfree:5")]:
        g2, st, _ = build_strategy(text, g)
        inst = ptas.ISInstance.full(g2)
        for k in (1, 2, 3):
            sol = ptas.solve_mis(inst, st.fork(), k, memo=True)
            assert ptas.verify_solution("mis", inst, sol)
            opt = len(ptas.oracle_mis(inst))
            assert sol.size >= math.ceil((1 - 1 / k) * opt)


def test_solver_ccolorable_within_ratio():
    g2, st, _ = build_strategy("minorfree:5", gen_grid(3, 3))
    inst = ptas.ColorInstance.full(g2, 2)
    sol = ptas.solve_ccolorable(inst, st.fork(), 2, memo=True)
    assert ptas.verify_solution("ccolorable", inst, sol)
    opt = len(ptas.oracle_ccolorable(inst)[0])
    assert sol.size >= math.ceil(0.5 * opt)


def test_solver_honors_color_lists():
    g = path(4)
    lists = ((0, frozenset({1})), (1, frozenset({1})), (2, frozenset({2})), (3, frozenset({2})))
    inst = ptas.ColorInstance(g, 2, lists)
    sol = ptas.solve_ccolorable(inst, strat("chordal:1", g), 2, memo=True)
    assert ptas.verify_solution("ccolorable", inst, sol)
    # [DERIVED] each adjacent pair shares a single available color,
    # so the optimum keeps one vertex from each pair
    opt, _ = ptas.oracle_ccolorable(inst)
    assert len(opt) == 2
    assert sol.size >= math.ceil(0.5 * len(opt))


def test_solver_domset_with_hits():
    g = path(8)
    inst = ptas.DomSetInstance(g, g.vertex_set, (frozenset({0}), frozenset({7})))
    sol = ptas.solve_domset(inst, strat("chordal:1", g), 2, memo=True)
    assert ptas.verify_solution("domset", inst, sol)
    assert {0, 7} <= set(sol.vertices)


def test_solver_domset_infeasible():
    g = path(4)
    inst = ptas.DomSetInstance(g, frozenset(), (frozenset(),))
    sol = ptas.solve_domset(inst, strat("chordal:1", g), 2)
    assert not sol.feasible
    assert ptas.verify_solution("domset", inst, sol)


def test_memo_on_off_agree():
    # memo off plays through the same position table, so it must find
    # the same answer, colouring and provenance
    g2, st, _ = build_strategy("minorfree:5", gen_grid(4, 4))
    g3, st3, _ = build_strategy("chordal:3", gen_ktree(10, 3, seed=3))
    cases = [
        (ptas.solve_mis, ptas.ISInstance.full(g2), st),
        (ptas.solve_domset, ptas.DomSetInstance.full(g2), st),
        (ptas.solve_domset, gen_random_instance("domset", g2, seed=0), st),
        (ptas.solve_ccolorable, ptas.ColorInstance.full(g2, 2), st),
        (ptas.solve_mis, ptas.ISInstance.full(g3), st3),
        (ptas.solve_domset, ptas.DomSetInstance.full(g3), st3),
        (ptas.solve_ccolorable, ptas.ColorInstance.full(g3, 2), st3),
    ]
    for solve, inst, s in cases:
        a = solve(inst, s.fork(), 2, memo=False)
        b = solve(inst, s.fork(), 2, memo=True)
        assert a.feasible and b.feasible
        assert (a.size, a.vertices, a.colors) == (b.size, b.vertices, b.colors)
        assert a.provenance == b.provenance


@settings(max_examples=60, deadline=None)
@given(
    hst.integers(5, 12),
    hst.sampled_from((2, 3)),
    hst.integers(0, 10**6),
    hst.sampled_from(sorted(_SOLVERS)),
    hst.sampled_from((2, 3)),
)
def test_memo_on_off_agree_on_random_ktrees(n, d, seed, problem, k):
    # the memo only skips nodes whose answer it already holds, so on
    # and off find the same answer, colouring and provenance, and the
    # checker accepts it
    g2, st, _ = build_strategy("chordal:%d" % d, gen_ktree(n, d, seed=seed))
    inst = gen_random_instance(problem, g2, seed=seed)
    on = _SOLVERS[problem](inst, st.fork(), k, memo=True)
    off = _SOLVERS[problem](inst, st.fork(), k, memo=False)
    assert ptas.verify_solution(problem, inst, on)
    assert (on.feasible, on.vertices, on.colors) == (off.feasible, off.vertices, off.colors)
    assert on.provenance == off.provenance


def test_delete_nodes_make_no_generators():
    # The 3x3 game restricts once at the root, then pads with deletes.
    # The walk keeps a delete node as a plain frame on its stack, so the
    # only generators of ptas.py that run belong to that Restrict.
    g2, st, _ = build_strategy("minorfree:5", gen_grid(3, 3))
    inst = ptas.ISInstance.full(g2)
    calls = {}

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == ptas.__file__:
            name = (code.co_name, bool(code.co_flags & inspect.CO_GENERATOR))
            calls[name] = calls.get(name, 0) + 1

    sys.setprofile(profile)
    try:
        sol = ptas.solve_mis(inst, st.fork(), 2, memo=True)
    finally:
        sys.setprofile(None)
    assert sol.size == 5 and [p["round"] for p in sol.provenance] == [1]
    assert calls[("_mis_branches", False)] > 100
    generators = {name for name, gen in calls if gen}
    assert generators <= {"_restrict_node", "_dedup_covers"}, calls


def test_deadline_budget_raises():
    # a deadline already past stops the search at its first node, before
    # the strategy has moved: one node, one position
    g2, st, _ = build_strategy("minorfree:5", gen_grid(3, 3))
    inst = ptas.ISInstance.full(g2)
    with pytest.raises(ptas.BudgetExceededError, match="^time budget exhausted$") as exc:
        ptas.solve_mis(inst, st.fork(), 2, memo=True, deadline_seconds=-1)
    assert (exc.value.nodes, exc.value.positions) == (1, 1)


def test_node_budget_raises():
    g2, st, _ = build_strategy("minorfree:5", gen_grid(3, 3))
    inst = ptas.ISInstance.full(g2)
    with pytest.raises(ptas.BudgetExceededError):
        ptas.solve_mis(inst, st.fork(), 2, memo=True, max_nodes=5)


def test_random_instances_verify():
    for seed in range(5):
        g = gen_ktree(10, 2, seed=seed)
        inst = gen_random_instance("mis", g, seed=seed)
        sol = ptas.solve_mis(inst, strat("chordal:2", g), 2, memo=True)
        assert ptas.verify_solution("mis", inst, sol)
        assert sol.size >= math.ceil(0.5 * len(ptas.oracle_mis(inst)))


def test_provenance_reports_windows():
    g2, st, _ = build_strategy("minorfree:5", gen_grid(3, 3))
    inst = ptas.ISInstance.full(g2)
    sol = ptas.solve_mis(inst, st.fork(), 2, memo=True)
    assert sol.provenance  # at least one restrict recorded
    entry = sol.provenance[0]
    assert {"round", "ell", "residue"} <= set(entry)


@pytest.mark.parametrize(
    "problem, rows, cols, seed, nodes",
    [
        pytest.param("mis", 4, 4, None, 600, id="mis-4-4-600"),
        pytest.param("mis", 5, 5, None, 1971, id="mis-5-5-1971"),
        pytest.param("mis", 4, 4, 1, 407, id="mis-4-4-seed1-407"),
        pytest.param("ccolorable", 4, 4, None, 3455, id="ccolorable-4-4-3455"),
        pytest.param("ccolorable", 5, 5, None, 23090, id="ccolorable-5-5-23090"),
        pytest.param("ccolorable", 4, 4, 0, 2003, id="ccolorable-4-4-seed0-2003"),
        pytest.param("domset", 4, 4, None, 2605, id="domset-4-4-2605"),
        pytest.param("domset", 5, 5, None, 15497, id="domset-5-5-15497"),
        pytest.param("domset", 4, 4, 0, 3915, id="domset-4-4-seed0-3915"),
    ],
)
def test_memo_node_counts_pinned(problem, rows, cols, seed, nodes):
    # Exact search sizes at k = 2 with the memo on: a change to forking
    # or to memo keys that altered which states count as equal would
    # move them.  seed None is the full instance, otherwise the draw of
    # gen_random_instance (mis seed 1 forbids 4 vertices, domset seed 0
    # has two hit-sets).
    g2, st, _ = build_strategy("minorfree:5", gen_grid(rows, cols))
    if seed is not None:
        inst = gen_random_instance(problem, g2, seed=seed)
    elif problem == "mis":
        inst = ptas.ISInstance.full(g2)
    elif problem == "domset":
        inst = ptas.DomSetInstance.full(g2)
    else:
        inst = ptas.ColorInstance.full(g2, 2)
    solve = _SOLVERS[problem]
    sol = solve(inst, st.fork(), 2, memo=True, max_nodes=nodes)
    assert sol.feasible and ptas.verify_solution(problem, inst, sol)
    with pytest.raises(ptas.BudgetExceededError):
        solve(inst, st.fork(), 2, memo=True, max_nodes=nodes - 1)


@pytest.mark.parametrize(
    "cols, nodes, positions",
    [
        pytest.param(5, 1971, 235, id="mis-5-5"),
        pytest.param(20, 170096, 2436, id="mis-5-20"),
    ],
)
def test_strategy_moves_once_per_position(monkeypatch, cols, nodes, positions):
    # The strategy's move depends on the position alone (its memory, the
    # round and the live vertices), so a solve plays it once per
    # position, however many nodes share one.  positions bounds the
    # distinct positions these games reach (the table numbers 226 and
    # 2,412).
    calls = [0]
    move = QuotientStrategy.next_action

    def counted(self, state):
        calls[0] += 1
        return move(self, state)

    monkeypatch.setattr(QuotientStrategy, "next_action", counted)
    g2, st, _ = build_strategy("minorfree:5", gen_grid(5, cols))
    inst = ptas.ISInstance.full(g2)
    ptas.solve_mis(inst, st.fork(), 2, memo=True, max_nodes=nodes)
    assert 0 < calls[0] <= positions
    calls[0] = 0
    with pytest.raises(ptas.BudgetExceededError) as exc:
        ptas.solve_mis(inst, st.fork(), 2, memo=True, max_nodes=nodes - 1)
    assert exc.value.nodes == nodes
    assert calls[0] <= exc.value.positions <= positions


@pytest.mark.parametrize(
    "problem, n, seed, nodes",
    [
        pytest.param("mis", 8, 4, 140, id="ktree-mis-8-seed4-140"),
        pytest.param("mis", 10, 3, 227, id="ktree-mis-10-seed3-227"),
        pytest.param("ccolorable", 8, 4, 119, id="ktree-ccolorable-8-seed4-119"),
        pytest.param("ccolorable", 10, 3, 207, id="ktree-ccolorable-10-seed3-207"),
    ],
)
def test_memo_node_counts_pinned_on_ktrees(problem, n, seed, nodes):
    # these games pass through Restrict rounds (rounds 4 and 6 at n = 8),
    # so the counts move if cover dedup keeps a different set of covers
    g2, st, _ = build_strategy("chordal:3", gen_ktree(n, 3, seed=seed))
    if problem == "mis":
        inst, solve = ptas.ISInstance.full(g2), ptas.solve_mis
    else:
        inst, solve = ptas.ColorInstance.full(g2, 2), ptas.solve_ccolorable
    sol = solve(inst, st.fork(), 2, memo=True, max_nodes=nodes)
    assert sol.feasible and ptas.verify_solution(problem, inst, sol)
    with pytest.raises(ptas.BudgetExceededError):
        solve(inst, st.fork(), 2, memo=True, max_nodes=nodes - 1)


def _reference_dedup_covers(ell, r, lam):
    """Cover dedup the slow way: build the cover at every residue and
    key it by the vertex sets of each occupied interval trimmed by 0, r,
    2r and 1."""
    labels = sorted(set(lam.values()))
    by_label = {}
    for v, lab in lam.items():
        by_label.setdefault(lab, []).append(v)
    seen = set()
    out = []
    for residue in range(ell - 2 * r):
        intervals = occupied_intervals(Cover(ell, r, residue), labels)
        sig = []
        for iv in intervals:
            trims = []
            for d in (0, r, 2 * r, 1):
                lo, hi = margin(iv, d)
                trims.append(
                    frozenset(v for lab in labels if lo <= lab <= hi for v in by_label[lab])
                )
            sig.append(tuple(trims))
        sig = tuple(sig)
        if sig not in seen:
            seen.add(sig)
            out.append((residue, intervals))
    return out


def test_dedup_covers_matches_reference():
    rng = random.Random(20261018)
    long = short = 0
    for _ in range(2000):
        r = rng.choice((0, 1, 2))
        if rng.random() < 0.3:
            # windows much longer than the labels' span
            ell, span = rng.randint(60, 400), rng.randint(0, 12)
        else:
            ell, span = rng.randint(1, 16), rng.randint(0, 45)
        lo = rng.randint(-40, 10)
        labels = {lo, lo + span} | {rng.randint(lo, lo + span) for _ in range(rng.randint(0, 8))}
        lam = {}
        for lab in labels:
            for _ in range(rng.randint(1, 3)):
                lam[len(lam)] = lab
        want = _reference_dedup_covers(ell, r, lam)
        assert list(ptas._dedup_covers(ell, r, sorted(set(lam.values())))) == want, (ell, r, lam)
        if ell - 2 * r > 6 * (span + 4 * r + 4):
            long += 1
        else:
            short += 1
    # many windows much longer than the labels' span, and many others
    assert long > 300 and short > 1000, (long, short)


def _label_bits(lam, lo, hi):
    """The bits of the vertices labelled lo..hi, by a scan of the whole
    layering: how slices read a layering before the label tables."""
    return sum(1 << v for v, lab in lam.items() if lo <= lab <= hi)


def _reference_masks(name, lam, iv, r):
    """Each problem's masks for interval iv, by the scan."""
    if name == "mis":
        keep = _label_bits(lam, *iv)
        return keep, keep & ~_label_bits(lam, *margin(iv, 2 * r))
    if name == "domset":
        return _label_bits(lam, *margin(iv, 2 * r)), _label_bits(lam, *margin(iv, r))
    return _label_bits(lam, *margin(iv, 1))


def test_label_table_matches_the_scan():
    # the table indexes the graph's vertices: labels of ids outside the
    # graph play no part
    rng = random.Random(20261019)
    seen = {"empty": 0, "outside": 0, "gaps": 0, "negative": 0, "phantom": 0}
    for _ in range(2000):
        first = rng.randint(-30, 10)
        # distinct labels with gaps between them, on sparse vertex ids
        labels = sorted({first + rng.randint(0, 25) for _ in range(rng.randint(1, 8))})
        ids = rng.sample(range(120), rng.randint(len(labels), 40))
        lam = {v: labels[i] if i < len(labels) else rng.choice(labels) for i, v in enumerate(ids)}
        graph = OrderedGraph(ids)
        if rng.random() < 0.3:
            for v in rng.sample(range(120, 160), rng.randint(1, 4)):
                lam[v] = first + rng.randint(-10, 35)
            seen["phantom"] += 1
        inside = {v: lam[v] for v in ids}
        table = LabelTable(graph, lam)
        seen["gaps"] += labels[-1] - labels[0] + 1 > len(labels)
        seen["negative"] += labels[0] < 0
        for _ in range(6):
            lo = rng.randint(labels[0] - 8, labels[-1] + 8)
            hi = lo + rng.randint(-4, 12)
            seen["empty"] += lo > hi
            seen["outside"] += hi < labels[0] or lo > labels[-1]
            want = _label_bits(inside, lo, hi)
            assert table.bits(lo, hi) == want, (lam, lo, hi)
            got = table.vertices(lo, hi)
            assert sum(1 << v for v in got) == want and len(got) == bin(want).count("1")
            assert [lam[v] for v in got] == sorted(lam[v] for v in got)
        for prob in (ptas._MIS, ptas._DOMSET, ptas._COLORABLE):
            r = prob.radius
            ell = rng.randint(2 * r + 1, 2 * r + 12)
            for _, intervals in ptas._dedup_covers(ell, r, table.labels):
                for iv in intervals:
                    want = _reference_masks(prob.name, inside, iv, r)
                    assert prob.masks(table, iv, r) == want, (prob.name, lam, iv)
    assert min(seen.values()) > 200, seen


class _SpacedLayering(DestroyerStrategy):
    """Restricts with labels 0, step, 2 step, ... along the vertex
    order: a layering of a path for step 1, and none for step 2."""

    def __init__(self, step):
        self.step = step

    def next_action(self, state):
        vs = state.graph.vertices
        return Action.restrict({v: self.step * i for i, v in enumerate(vs)}), self


def test_solver_refuses_a_non_layering():
    with pytest.raises(NotALayeringError):
        ptas.solve_mis(ptas.ISInstance.full(path(6)), _SpacedLayering(2), 2)


def test_solver_refuses_windows_longer_than_head(monkeypatch):
    # a Restrict checks its covers once, against the round's head
    monkeypatch.setattr(ptas, "_dedup_covers", lambda ell, r, labels: iter([(0, [(0, ell)])]))
    with pytest.raises(ptas.SolverInvariantError, match="longer than head"):
        ptas.solve_mis(ptas.ISInstance.full(path(6)), _SpacedLayering(1), 2)


_DEEP_GAME = """
import sys
from bakergame import ptas
from bakergame.generators import gen_grid
from bakergame.strategies import build_strategy

sys.setrecursionlimit(100)
g2, st, _ = build_strategy("minorfree:5", gen_grid(5, 20))
inst = ptas.ISInstance.full(g2)
sol = ptas.solve_mis(inst, st.fork(), 2, memo=True, max_nodes=170096)
try:
    ptas.solve_mis(inst, st.fork(), 2, memo=True, max_nodes=170095)
    print("budget not reached")
except ptas.BudgetExceededError:
    pass
print(sol.size, ptas.verify_solution("mis", inst, sol), sys.getrecursionlimit())
"""


def test_deep_game_needs_no_deep_recursion():
    # The 5x20 game is 102 rounds deep; a recursive solver needs about
    # 140 Python frames for it, more than the limit of 100 set here.
    src = os.path.dirname(os.path.dirname(ptas.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _DEEP_GAME], env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["50", "True", "100"]


def test_windows_keeping_one_vertex_set_share_a_child_state(monkeypatch):
    # two windows of one Restrict record that keep the same vertices get
    # the same GameState object, so its graph and bit set are built once
    seen = {}  # (record, kept vertices) -> child states passed to position
    current = [None]
    window_child, position = ptas._Search.window_child, ptas._Search.position

    def child(self, rec, window):
        current[0] = rec
        try:
            return window_child(self, rec, window)
        finally:
            current[0] = None

    def numbered(self, strat, state):
        if current[0] is not None:
            key = (id(current[0]), state.graph.vertex_set)
            seen.setdefault(key, []).append(state)
        return position(self, strat, state)

    monkeypatch.setattr(ptas._Search, "window_child", child)
    monkeypatch.setattr(ptas._Search, "position", numbered)
    g2, st, _ = build_strategy("chordal:3", gen_ktree(20, 3, seed=1))
    sol = ptas.solve_mis(ptas.ISInstance.full(g2), st, 2, memo=True)
    assert sol.feasible
    shared = [states for states in seen.values() if len(states) > 1]
    assert shared  # some windows of one record keep the same vertices
    assert all(s is states[0] for states in shared for s in states)


def test_quotient_observes_each_window_once(monkeypatch):
    # a quotient strategy reads the window itself, so the solver still
    # observes every distinct window of a Restrict record, once, even
    # where two windows keep the same vertices
    calls = {}  # (strategy, window) -> observe calls
    kept = {}  # strategy -> kept vertex sets of its windows
    observe = QuotientStrategy.observe

    def counted(self, action, reply, new_state):
        if reply is not None:
            calls[id(self), reply] = calls.get((id(self), reply), 0) + 1
            kept.setdefault(id(self), []).append(new_state.graph.vertex_set)
        return observe(self, action, reply, new_state)

    monkeypatch.setattr(QuotientStrategy, "observe", counted)
    g2, st, _ = build_strategy("quotient(chordal:2,2)", gen_ktree(12, 2, seed=3))
    assert ptas.solve_mis(ptas.ISInstance.full(g2), st, 2, memo=True).feasible
    assert calls and set(calls.values()) == {1}
    assert any(len(set(sets)) < len(sets) for sets in kept.values())


def test_solver_does_not_observe_the_games_end(monkeypatch):
    # only the observes that the solver itself makes count, not those
    # that composite strategies make inside
    counts = {True: 0, False: 0}  # new graph empty -> solver observe calls
    for cls in DestroyerStrategy.__subclasses__():
        if "observe" not in cls.__dict__:
            continue

        def hooked(self, action, reply, new_state, _observe=cls.__dict__["observe"]):
            if sys._getframe(1).f_globals["__name__"] == ptas.__name__:
                counts[new_state.graph.n == 0] += 1
            return _observe(self, action, reply, new_state)

        monkeypatch.setattr(cls, "observe", hooked)
    cases = [
        ("chordal:3", gen_ktree(12, 3, seed=2)),
        ("minorfree:5", gen_grid(3, 4)),
        ("quotient(chordal:2,2)", gen_ktree(10, 2, seed=3)),
    ]
    for text, g in cases:
        g2, st, _ = build_strategy(text, g)
        for problem, solve in _SOLVERS.items():
            inst = gen_random_instance(problem, g2, seed=0)
            sol = solve(inst, st.fork(), 2, memo=True)
            assert ptas.verify_solution(problem, inst, sol)
    assert counts[True] == 0 and counts[False] > 0


class _PhantomLabels(DestroyerStrategy):
    """Plays inner, but each layering it proposes also labels the two
    phantom ids, which are not vertices of the graph, far from the
    graph's labels.  Records the vertex count of every graph it
    observes."""

    _fixed = ("phantoms", "observed")

    def __init__(self, inner, phantoms, observed):
        self.inner = inner
        self.phantoms = phantoms
        self.observed = observed

    def next_action(self, state):
        action, inner = self.inner.next_action(state)
        if action.kind == RESTRICT:
            lam, far = action.layering, 3 * state.rseq.head
            low, high = self.phantoms
            action = Action.restrict({**lam, low: min(lam.values()) - far, high: max(lam.values()) + far})
        return action, self.fork(inner=inner)

    def observe(self, action, reply, new_state):
        self.observed.append(new_state.graph.n)
        if action.kind == RESTRICT:
            lam = action.layering
            action = Action.restrict({v: lab for v, lab in lam.items() if v not in self.phantoms})
        return self.fork(inner=self.inner.observe(action, reply, new_state))


def _counted_solve(monkeypatch, problem, inst, strategy):
    """The solution and the number of search nodes it took."""
    nodes = []
    tick = ptas._Search.tick
    monkeypatch.setattr(ptas._Search, "tick", lambda self: (nodes.append(1), tick(self)))
    sol = _SOLVERS[problem](inst, strategy, 2, memo=True)
    monkeypatch.undo()
    return sol, len(nodes)


def test_solver_ignores_layering_keys_outside_the_graph(monkeypatch):
    # the label table indexes the graph's vertices, so the solver tries
    # no window that holds only labels of ids outside the graph, and
    # never observes the game's end through one
    g2, st, _ = build_strategy("chordal:2", gen_ktree(14, 2, seed=3))
    phantoms = (max(g2.vertices) + 1, max(g2.vertices) + 2)
    for problem in sorted(_SOLVERS):
        inst = gen_random_instance(problem, g2, seed=0)
        want = _counted_solve(monkeypatch, problem, inst, st.fork())
        observed = []
        wrapped = _PhantomLabels(st.fork(), phantoms, observed)
        assert _counted_solve(monkeypatch, problem, inst, wrapped) == want, problem
        assert observed and 0 not in observed, problem


class _FailsAtTheEnd(DestroyerStrategy):
    """Deletes; observing the empty graph is an error."""

    def next_action(self, state):
        return Action.delete(), self

    def observe(self, action, reply, new_state):
        if new_state.graph.n == 0:
            raise RuntimeError("observed the empty graph")
        return self


def test_play_still_observes_the_last_move():
    g = path(4)
    t = play(_FailsAtTheEnd(), parse_preserver("first"), GameState(g, ConstSeq(1)))
    assert t.outcome == "invalid" and "observed the empty graph" in t.diagnostic
    # the solver never makes that call
    sol = ptas.solve_mis(ptas.ISInstance.full(g), _FailsAtTheEnd(), 2, memo=True)
    assert sol.size == 2 and ptas.verify_solution("mis", ptas.ISInstance.full(g), sol)
