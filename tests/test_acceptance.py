"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is sized to run within its stated wall-clock budget on a
modest machine; budgets are asserted so regressions surface as
failures, not slow suites.
"""

import json
import math
import random
import time
import zlib

import networkx as nx
import pytest

from bakergame import (
    ColorInstance,
    ConstSeq,
    Cover,
    DomSetInstance,
    GameState,
    ISInstance,
    MinorWitness,
    NotGeodesicError,
    OrderedGraph,
    bfs_layering,
    build_strategy,
    chordal_geodesic_partition,
    check_chordal_ordering,
    check_geodesic_partition,
    extend_geodesic_layering,
    gen_apex_grid,
    gen_diag_grid,
    gen_grid,
    gen_ktree,
    is_valid_layering,
    margin,
    minimax_rounds,
    occupied_intervals,
    oracle_ccolorable,
    oracle_domset,
    oracle_mis,
    plan_dp,
    round_bound,
    solve_ccolorable,
    solve_domset,
    solve_mis,
    verify_minor_witness,
    verify_solution,
)
from bakergame.cli import main
from bakergame.game import LabelTable
from bakergame.ptas import INFEASIBLE, _dom_masks, slice_domset
from bakergame.strategies import DistortionStrategy


def path(n):
    return OrderedGraph(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return OrderedGraph(range(n), [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return OrderedGraph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])


def all_covers(ell, r):
    return [Cover(ell, r, rho) for rho in range(ell - 2 * r)]


def random_connected(n, extra, rng):
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    present = set(edges)
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        e = (min(u, v), max(u, v))
        if e not in present:
            present.add(e)
            edges.append(e)
    return OrderedGraph(range(n), edges)


def chordal_reorder(g, d):
    """Reorder so the natural order is chordal with left-degree <= d,
    or None if no such ordering exists (reversed greedy elimination)."""
    remaining = set(g.vertices)
    order = []
    while remaining:
        pick = None
        for v in sorted(remaining):
            nb = g.adj[v] & remaining
            if len(nb) <= d and all(
                g.has_edge(a, b) for a in nb for b in nb if a < b
            ):
                pick = v
                break
        if pick is None:
            return None
        order.append(pick)
        remaining.discard(pick)
    order.reverse()
    mp = {v: i for i, v in enumerate(order)}
    return OrderedGraph(range(g.n), [(mp[u], mp[v]) for u, v in g.edge_list()])


def atlas_graphs():
    out = []
    for G in nx.graph_atlas_g()[1:]:
        if G.number_of_nodes() > 6:
            break
        mp = {v: i for i, v in enumerate(sorted(G.nodes()))}
        out.append(
            OrderedGraph(range(len(mp)), [(mp[u], mp[v]) for u, v in G.edges()])
        )
    return out


def max_preserver_payload(lam, head):
    best = None
    for lo in sorted(set(lam.values())):
        hi = lo + head - 1
        keep = sum(1 for v in lam if lo <= lam[v] <= hi)
        if best is None or keep > best[1]:
            best = ((lo, hi), keep)
    return best[0]


def test_criterion_1_geodesic_extension():
    t0 = time.monotonic()
    rng = random.Random(11)
    for trial in range(200):
        n = rng.randrange(2, 51)
        g = random_connected(n, rng.randrange(0, n), rng)
        source = rng.randrange(n)
        dist = bfs_layering(g, source)
        part = frozenset(rng.sample(range(n), rng.randrange(1, n + 1)))
        lam = {v: dist[v] for v in part}
        ext = extend_geodesic_layering(g, part, lam)
        assert is_valid_layering(g, ext)
        assert all(ext[v] == lam[v] for v in part)
    bad = 0
    rng = random.Random(13)
    while bad < 50:
        n = rng.randrange(4, 51)
        g = random_connected(n, rng.randrange(0, n), rng)
        x = rng.randrange(n)
        dist = g.bfs_distances(x)
        far = [y for y, d in dist.items() if d >= 2]
        if not far:
            continue
        y = rng.choice(far)
        lam = {x: 0, y: dist[y] + 1}  # exceeds the distance, so not geodesic
        with pytest.raises(NotGeodesicError) as exc:
            extend_geodesic_layering(g, {x, y}, lam)
        u, v = exc.value.pair
        assert abs(lam[u] - lam[v]) > dist[y]
        bad += 1
    assert time.monotonic() - t0 < 5.0


def test_criterion_2_decomposition():
    t0 = time.monotonic()
    shapes = [(r, c) for r in range(1, 16) for c in range(r, 16, 3)]
    for rows, cols in shapes:
        res = chordal_geodesic_partition(gen_grid(rows, cols), 5)
        assert check_geodesic_partition(res.graph, res.gp, 3)
        ok, d = check_chordal_ordering(res.gp.quotient_graph)
        assert ok and d <= 3
    for n in range(1, 9):
        res = chordal_geodesic_partition(gen_apex_grid(n), 6)
        assert check_geodesic_partition(res.graph, res.gp, 4)
        ok, d = check_chordal_ordering(res.gp.quotient_graph)
        assert ok and d <= 4
    for seed in range(100):
        d = seed % 3 + 1
        k = d + 2
        g = gen_ktree(8 + seed % 10, d, seed=seed)
        res = chordal_geodesic_partition(g, k)
        assert check_geodesic_partition(res.graph, res.gp, k - 2)
        ok, ld = check_chordal_ordering(res.gp.quotient_graph)
        assert ok and ld <= k - 2
    for k in (3, 4, 5, 6):
        res = chordal_geodesic_partition(complete(k), k)
        assert isinstance(res, MinorWitness)
        assert verify_minor_witness(complete(k), res)
    assert time.monotonic() - t0 < 30.0


def test_criterion_3_minimax_meets_round_bounds():
    t0 = time.monotonic()
    graphs = atlas_graphs()
    checked = 0
    for g in graphs:
        jobs = []
        if g.m == 0:
            jobs.append(("edgeless", g))
        h = chordal_reorder(g, 2)
        if h is not None:
            jobs.append(("chordal:2", h))
            jobs.append(("cliquesum(chordal:2,chordal:2)", h))
            jobs.append(("quotient(chordal:2,2)", h))
        res = build_strategy("minorfree:5", g)
        if isinstance(res, MinorWitness):
            assert verify_minor_witness(g, res)
        else:
            jobs.append((None, res))
        for text, built in jobs:
            if text is None:
                g2, st, _ = built
            else:
                g2, st, _ = build_strategy(text, built)
            for c in (1, 2):
                bound = round_bound(st.descriptor, ConstSeq(c))
                assert minimax_rounds(st.fork(), GameState(g2, ConstSeq(c))) <= bound
                checked += 1
    extra = [build_strategy("minorfree:5", gen_grid(3, 3))]
    dg, emb = gen_diag_grid(2)
    extra.append((dg, DistortionStrategy(emb), None))
    for g2, st, _ in extra:
        for c in (1, 2):
            bound = round_bound(st.descriptor, ConstSeq(c))
            assert minimax_rounds(st.fork(), GameState(g2, ConstSeq(c))) <= bound
            checked += 1
    assert checked > 700
    assert time.monotonic() - t0 < 600.0


def test_criterion_4_king_lattices_finish_quickly():
    t0 = time.monotonic()
    for n in (2, 3):
        g, emb = gen_diag_grid(n)
        assert emb.beta == 1
        st = DistortionStrategy(emb)
        assert minimax_rounds(st.fork(), GameState(g, ConstSeq(1))) <= 11
    assert time.monotonic() - t0 < 60.0


def _solver_corpus():
    small = [
        ("path8", path(8), "chordal:1"),
        ("path14", path(14), "chordal:1"),
        ("path20", path(20), "chordal:1"),
        ("cycle9", cycle(9), "minorfree:4"),
        ("cycle13", cycle(13), "minorfree:4"),
        ("cycle17", cycle(17), "minorfree:4"),
        ("grid3x4", gen_grid(3, 4), "minorfree:5"),
        ("grid4x5", gen_grid(4, 5), "minorfree:5"),
        ("ktree15", gen_ktree(15, 2, seed=3), "chordal:2"),
        ("ktree18", gen_ktree(18, 3, seed=4), "chordal:3"),
        ("apex3", gen_apex_grid(3), "minorfree:6"),
    ]
    tiny = [
        ("path10", path(10), "chordal:1"),
        ("cycle9", cycle(9), "minorfree:4"),
        ("grid3x4", gen_grid(3, 4), "minorfree:5"),
        ("ktree12", gen_ktree(12, 2, seed=5), "chordal:2"),
        ("apex3", gen_apex_grid(3), "minorfree:6"),
    ]
    return small, tiny


def test_criterion_5_solver_matches_oracle_ratios():
    t0 = time.monotonic()
    small, tiny = _solver_corpus()
    runs = 0
    for name, g, text in small:
        g2, st, _ = build_strategy(text, g)
        dom = DomSetInstance.full(g2)
        mis = ISInstance.full(g2)
        gamma = len(oracle_domset(dom))
        alpha = len(oracle_mis(mis))
        for k in (1, 2, 3, 5):
            sol = solve_domset(dom, st.fork(), k, memo=True)
            assert verify_solution("domset", dom, sol), name
            assert sol.size * k <= (k + 1) * gamma, (name, k)
            sol = solve_mis(mis, st.fork(), k, memo=True)
            assert verify_solution("mis", mis, sol), name
            assert sol.size >= math.ceil((1 - 1 / k) * alpha), (name, k)
            runs += 2
    for name, g, text in small:
        g2, st, _ = build_strategy(text, g)
        rng = random.Random(zlib.crc32(name.encode()))
        for seed in range(3):
            forb = frozenset(v for v in g2.vertices if rng.random() < 0.2)
            mis = ISInstance(g2, forb)
            alpha = len(oracle_mis(mis))
            demand = frozenset(v for v in g2.vertices if rng.random() < 0.7)
            dom = DomSetInstance(g2, demand, ())
            gamma = len(oracle_domset(dom))
            for k in (2, 3, 5):
                sol = solve_mis(mis, st.fork(), k, memo=True)
                assert verify_solution("mis", mis, sol)
                assert sol.size >= math.ceil((1 - 1 / k) * alpha), (name, k, seed)
                sol = solve_domset(dom, st.fork(), k, memo=True)
                assert verify_solution("domset", dom, sol)
                assert sol.size * k <= (k + 1) * gamma, (name, k, seed)
                runs += 2
    for name, g, text in tiny:
        g2, st, _ = build_strategy(text, g)
        for c in (2, 3):
            inst = ColorInstance.full(g2, c)
            opt = len(oracle_ccolorable(inst)[0])
            for k in (1, 2, 3, 5):
                sol = solve_ccolorable(inst, st.fork(), k, memo=True)
                assert verify_solution("ccolorable", inst, sol), (name, c, k)
                assert sol.size >= math.ceil((1 - 1 / k) * opt), (name, c, k)
                runs += 1
    assert runs >= 300
    assert time.monotonic() - t0 < 900.0


def _brute_plans(interval_costs, m_vector, mode):
    import itertools

    best = None
    tables = [sorted(t.items()) for _, t in interval_costs]
    for combo in itertools.product(*tables):
        sums = tuple(sum(t[i] for t, _ in combo) for i in range(len(m_vector)))
        if sums != tuple(m_vector):
            continue
        total = sum(c for _, c in combo)
        if best is None or (total < best if mode == "min" else total > best):
            best = total
    return best


def test_criterion_6_cover_machinery():
    t0 = time.monotonic()
    rng = random.Random(6)
    for _ in range(200):
        ell = rng.randrange(5, 30)
        r = rng.randrange(0, (ell - 1) // 2 + 1)
        covers = all_covers(ell, r)
        assert len(covers) == ell - 2 * r
        cov = covers[rng.randrange(len(covers))]
        lam = {v: rng.randrange(-20, 40) for v in range(rng.randrange(1, 15))}
        ivs = occupied_intervals(cov, sorted(set(lam.values())))
        mids = [margin(iv, r) for iv in ivs]
        for v, lab in lam.items():
            assert sum(1 for lo, hi in mids if lo <= lab <= hi) == 1  # tiling
            assert sum(1 for lo, hi in ivs if lo <= lab <= hi) >= 1
    for trial in range(1000):
        rng2 = random.Random(trial)
        t = rng2.randrange(1, 3)
        m_vec = tuple(rng2.randrange(0, 3) for _ in range(t))
        n_iv = rng2.randrange(1, 4)
        tables = []
        for i in range(n_iv):
            opts = {}
            for _ in range(rng2.randrange(1, 5)):
                tup = tuple(rng2.randrange(0, 3) for _ in range(t))
                opts[tup] = rng2.randrange(0, 10)
            tables.append(((i, i), opts))
        mode = rng2.choice(["min", "max"])
        got = plan_dp(tables, m_vec, mode)
        want = _brute_plans(tables, m_vec, mode)
        if want is None:
            assert got is None
        else:
            assert got is not None and got[1] == want
    assert time.monotonic() - t0 < 60.0


def test_criterion_7_hit_distribution():
    t0 = time.monotonic()
    rng = random.Random(7)
    done = 0
    while done < 50:
        n = rng.randrange(8, 16)
        g = random_connected(n, rng.randrange(0, n // 2), rng)
        lam = bfs_layering(g, 0)
        table = LabelTable(g, lam)
        m = rng.randrange(1, 3)
        hits = tuple(
            frozenset(rng.sample(range(n), rng.randrange(2, 5))) for _ in range(m)
        )
        inst = DomSetInstance(g, g.vertex_set, hits)
        opt = oracle_domset(inst)
        if opt is INFEASIBLE:
            continue
        ell = rng.randrange(5, 10)
        r = 1
        if ell <= 2 * r:
            continue
        bad = 0
        demand = sum(1 << v for v in inst.demand)
        hit_bits = [sum(1 << v for v in h) for h in hits]
        for cov in all_covers(ell, r):
            ivs = occupied_intervals(cov, table.labels)
            # the sliced subproblems must together dominate everything:
            # solve each slice exactly with every hit assigned somewhere
            union_ok = False
            import itertools

            for assign in itertools.product(range(len(ivs)), repeat=m):
                pieces = []
                feasible = True
                for i, iv in enumerate(ivs):
                    sub = slice_domset(
                        demand,
                        _dom_masks(table, iv, r),
                        [hit_bits[j] for j in range(m) if assign[j] == i],
                    )
                    if sub is INFEASIBLE:
                        feasible = False
                        break
                    keep = [v for v in g.vertices if iv[0] <= lam[v] <= iv[1]]
                    sub = DomSetInstance(
                        g.induced(keep),
                        frozenset(v for v in keep if sub[0] >> v & 1),
                        tuple(frozenset(v for v in keep if h >> v & 1) for h in sub[1]),
                    )
                    res = oracle_domset(sub)
                    if res is INFEASIBLE:
                        feasible = False
                        break
                    pieces.append(res)
                if feasible:
                    union = frozenset().union(*pieces) if pieces else frozenset()
                    sol = type("S", (), {})()
                    covered = set()
                    for v in union:
                        covered.add(v)
                        covered |= g.adj[v]
                    assert covered >= inst.demand
                    assert all(union & h for h in hits)
                    union_ok = True
                    break
            if not union_ok:
                bad += 1
        assert bad <= 6 * r * m, (n, ell, bad)
        done += 1
    assert time.monotonic() - t0 < 300.0


def test_criterion_8_bench_scales_quadratically(capsys):
    # 5-row grids, 5 x (n/5): the width stays fixed, so this measures the
    # PTAS's polynomial law in n.  Square grids cannot pass at k = 2: every
    # window of 27 layers is solved exactly, a band of 27 diagonals of a
    # side-s grid has treewidth about min(s, 27), and square-grid cost grows
    # about 3x per unit of side (README, Testing).  n = 25 is still the 5x5.
    t0 = time.monotonic()
    code = main(
        [
            "bench",
            "--sizes",
            "25,100,400,900,1600",
            "--rows",
            "5",
            "--k",
            "2",
            "--strategy",
            "minorfree:5",
            "--per-size-budget",
            "240",
        ]
    )
    out = capsys.readouterr().out
    report = json.loads(out)
    assert time.monotonic() - t0 < 1800.0
    assert code == 0, "bench hit its per-size budget: %s" % [
        r for r in report["rows"] if r["status"] != "ok"
    ]
    fit = report["quadratic_fit"]
    assert fit["within_3x"], fit
