"""Interval covers of the integer line, margins and assignment plans.

An (ell, r)-cover consists of the intervals of length ell whose starts
are congruent to a fixed residue modulo ell - 2r; consecutive intervals
overlap in exactly 2r integers.  There are ell - 2r covers, one per
residue.  Margins trim d integers off both ends of an interval: the
mid-margins (d = r) partition the line and the core margins (d = 2r)
of distinct intervals are more than 2r apart.
"""

from bisect import bisect_left
from dataclasses import dataclass


class CoverError(ValueError):
    pass


@dataclass(frozen=True)
class Cover:
    ell: int
    r: int
    residue: int

    def __post_init__(self):
        if self.ell < 2 * self.r + 1:
            raise CoverError("need ell >= 2r+1, got ell=%d r=%d" % (self.ell, self.r))
        if self.r < 0:
            raise CoverError("negative overlap r")
        step = self.ell - 2 * self.r
        if not 0 <= self.residue < step:
            raise CoverError("residue %d outside [0, %d)" % (self.residue, step))

    @property
    def step(self):
        return self.ell - 2 * self.r


def margin(interval, d):
    """Trim d off both ends; may be empty (lo > hi)."""
    lo, hi = interval
    return (lo + d, hi - d)


def occupied_intervals(cover, labels):
    """Intervals of the cover holding one of the sorted distinct labels;
    a start whose interval misses the next label (a bisect) jumps to it."""
    if not labels:
        return []
    ell, step = cover.ell, cover.step
    s = labels[0] - ell + 1
    s += (cover.residue - s) % step
    out = []
    while s <= labels[-1]:
        nxt = labels[bisect_left(labels, s)]
        if nxt >= s + ell:
            s += (nxt - s - ell) // step * step + step
        out.append((s, s + ell - 1))
        s += step
    return out


PLAN_INFEASIBLE = None


def plan_dp(interval_costs, m_vector, mode="min"):
    """Choose one count-tuple per interval so the tuples sum to m_vector,
    optimizing the total cost.

    interval_costs: ordered list of (interval, {tuple: cost}); a missing
    tuple is infeasible.  Returns (assignment dict, total) or None when
    no feasible plan exists.  Ties break toward lexicographically
    smaller tuples in interval order.
    """
    if mode not in ("min", "max"):
        raise CoverError("mode must be min or max")
    m_vector = tuple(m_vector)
    if any(m < 0 for m in m_vector):
        raise CoverError("negative plan count")
    better = (lambda a, b: a < b) if mode == "min" else (lambda a, b: a > b)
    # states: residual tuple -> (total, choices)
    states = {m_vector: (0, ())}
    for interval, table in interval_costs:
        rows = sorted(table.items())  # keys are distinct, so only they are compared
        if any(len(tup) != len(m_vector) for tup, _ in rows):
            raise CoverError("tuple arity mismatch in plan table")
        nxt = {}
        for residual, (total, choices) in states.items():
            for tup, cost in rows:
                if any(t > rr or t < 0 for t, rr in zip(tup, residual)):
                    continue
                rem = tuple(rr - t for rr, t in zip(residual, tup))
                cand = (total + cost, choices + ((interval, tup),))
                if rem not in nxt or better(cand[0], nxt[rem][0]):
                    nxt[rem] = cand
        states = nxt
        if not states:
            return PLAN_INFEASIBLE
    zero = tuple(0 for _ in m_vector)
    if zero not in states:
        return PLAN_INFEASIBLE
    total, choices = states[zero]
    return dict(choices), total
