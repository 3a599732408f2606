import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bakergame.covers import (
    Cover,
    margin,
    occupied_intervals,
    plan_dp,
)


def all_covers(ell, r):
    return [Cover(ell, r, rho) for rho in range(ell - 2 * r)]


def test_cover_count_and_validation():
    covers = all_covers(7, 1)
    assert len(covers) == 7 - 2  # [PAPER] ell - 2r residue classes
    with pytest.raises(ValueError):
        Cover(3, 2, 0)  # needs ell >= 2r + 1
    with pytest.raises(ValueError):
        Cover(7, 1, 5)  # residue out of range


def test_margin():
    assert margin((0, 6), 1) == (1, 5)
    assert margin((0, 6), 0) == (0, 6)


def test_occupied_intervals():
    lam = {0: 0, 1: 1, 2: 9}
    cover = Cover(5, 1, 0)  # starts at multiples of 3
    ivs = occupied_intervals(cover, sorted(set(lam.values())))
    # [DERIVED] windows [-3,1] [0,4] [6,10] [9,13] contain labels
    assert ivs == [(-3, 1), (0, 4), (6, 10), (9, 13)]


def _occupied_by_scan(cover, lam):
    """Every start of the cover from the lowest label's reach up to the
    highest label, kept when its interval holds a label."""
    labels = set(lam.values())
    if not labels:
        return []
    starts = range(min(labels) - cover.ell + 1, max(labels) + 1)
    return [
        (s, s + cover.ell - 1)
        for s in starts
        if (s - cover.residue) % cover.step == 0 and any(s <= lab < s + cover.ell for lab in labels)
    ]


def test_occupied_intervals_match_a_scan_of_every_start():
    # negative labels, gaps much wider than ell, and empty layerings
    rng = random.Random(19)
    jumped = 0
    for _ in range(3000):
        r = rng.randint(0, 3)
        ell = rng.randint(2 * r + 1, 2 * r + 8)
        cover = Cover(ell, r, rng.randrange(ell - 2 * r))
        spread = rng.choice([3, 30, 300])
        lam = {v: rng.randint(-spread, spread) for v in range(rng.randint(0, 12))}
        want = _occupied_by_scan(cover, lam)
        assert occupied_intervals(cover, sorted(set(lam.values()))) == want, (cover, lam)
        jumped += any(b[0] - a[0] > cover.step for a, b in zip(want, want[1:]))
    assert jumped > 500


def test_consecutive_overlap_is_2r():
    ell, r = 9, 2
    cover = Cover(ell, r, 1)
    step = ell - 2 * r
    lo = cover.residue
    first = (lo, lo + ell - 1)
    second = (lo + step, lo + step + ell - 1)
    overlap = first[1] - second[0] + 1
    assert overlap == 2 * r  # [PAPER]


def _brute_plans(tables, m_vector, mode):
    best = None
    choices = [sorted(t.keys()) for _, t in tables]
    for combo in product(*choices):
        used = tuple(sum(c[j] for c in combo) for j in range(len(m_vector)))
        if used != tuple(m_vector):
            continue
        total = sum(tables[i][1][combo[i]] for i in range(len(combo)))
        if best is None or (total < best if mode == "min" else total > best):
            best = total
    return best


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_plan_dp_matches_brute_force(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    m = rng.randrange(1, 3)
    n_int = rng.randrange(1, 4)
    tables = []
    for i in range(n_int):
        table = {}
        for tup in product(range(2), repeat=m):
            if rng.random() < 0.7:
                table[tup] = rng.randrange(10)
        if not table:
            table[(0,) * m] = 0
        tables.append(((i, i), table))
    m_vector = tuple(rng.randrange(2) for _ in range(m))
    mode = rng.choice(["min", "max"])
    expected = _brute_plans(tables, m_vector, mode)
    got = plan_dp(tables, m_vector, mode)
    if expected is None:
        assert got is None
    else:
        assignment, total = got
        assert total == expected
        # the assignment really achieves the total and the demands
        assert sum(tables[i][1][assignment[(i, i)]] for i in range(n_int)) == total
        for j in range(m):
            assert sum(assignment[(i, i)][j] for i in range(n_int)) == m_vector[j]


def test_plan_dp_simple():
    tables = [
        ((0, 4), {(0,): 1, (1,): 5}),
        ((3, 7), {(0,): 2, (1,): 3}),
    ]
    assignment, total = plan_dp(tables, (1,), "min")
    # [DERIVED] cheapest way to place the one requirement: second interval
    assert total == 1 + 3
    assert assignment[(0, 4)] == (0,) and assignment[(3, 7)] == (1,)


def test_plan_dp_infeasible():
    tables = [((0, 4), {(0,): 1})]
    assert plan_dp(tables, (1,), "min") is None
