"""Infinite positive-integer sequences driving the game.

Sequences are never materialized: each kind stores a closed-form rule,
and tails and every-second-element views are one affine wrapper,
at(i) = base.at(a*i + b), that composes instead of nesting, so any view
costs O(1); a constant is its own view.  All indices are 1-based.

Every kind is a frozen dataclass, so sequences compare and hash by
structure: two tails of one sequence to the same index are equal, and
so are two thinnings of one sequence by one width, whatever either has
indexed.  Strategy memories and round_bound's memo hold sequences as
they are, with no printed key, so a tail index of any size is fine.
"""

import math
from dataclasses import dataclass, field


class SequenceError(ValueError):
    pass


# Indices beyond this produce values too large to be useful in any
# refereed game; rules that grow with the index refuse to evaluate them
# so that bound computations fail fast instead of exhausting memory.
INDEX_LIMIT = 10**7


def _index(i):
    """i, if a rule that grows with the index may evaluate it."""
    if i < 1:
        raise SequenceError("index %d out of range" % i)
    if i > INDEX_LIMIT:  # too many digits to print
        raise SequenceError("index beyond the evaluation limit %d" % INDEX_LIMIT)
    return i


class RSequence:
    """Base class.  Subclasses implement at(i) for i >= 1."""

    def at(self, i):
        raise NotImplementedError

    @property
    def head(self):
        return self.at(1)

    def affine(self, a, b):
        """The sequence i -> self.at(a*i + b), for a >= 1 and b >= 0."""
        return AffineSeq(self, a, b)

    def tail(self, s=1):
        if s < 0:
            raise SequenceError("negative tail")
        return self.affine(1, s) if s else self

    def paired(self):
        """Every second element: at(i) = self.at(2*i)."""
        return self.affine(2, 0)

    def _check(self, i, value):
        if i < 1:
            raise SequenceError("index %d out of range" % i)
        if value < 1:
            raise SequenceError("sequence value %r below 1 at index %d" % (value, i))
        return value


@dataclass(frozen=True)
class ConstSeq(RSequence):
    c: int

    def __post_init__(self):
        if self.c < 1:
            raise SequenceError("constant sequence needs c >= 1")

    def at(self, i):
        return self._check(i, self.c)

    def affine(self, a, b):
        return self


@dataclass(frozen=True)
class GeomSeq(RSequence):
    """Ceil of a * b**i."""

    a: float
    b: float

    def __post_init__(self):
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):
            raise SequenceError("geometric sequence needs positive finite a, b")

    def at(self, i):
        try:
            value = math.ceil(self.a * self.b ** _index(i))
        except OverflowError as exc:
            raise SequenceError("geometric value overflows at index %d" % i) from exc
        return self._check(i, value)


@dataclass(frozen=True)
class ScheduleSeq(RSequence):
    """Window-length schedule used by the approximation solvers.

    With eps_i = 2**(-i) / (k+1) the products over all rounds satisfy
    prod(1 + eps_i) <= 1 + 1/k and prod(1 - eps_i) >= 1 - 1/k.  All
    arithmetic is exact: 2/eps_i = 2**(i+1) * (k+1).
    """

    PROBLEMS = ("domset", "mis", "ccolorable")

    problem: str
    k: int

    def __post_init__(self):
        if self.problem not in self.PROBLEMS:
            raise SequenceError("unknown schedule problem %r" % self.problem)
        if self.k < 1:
            raise SequenceError("schedule needs k >= 1")

    def at(self, i):
        _index(i)
        k = self.k
        inv = 2 ** (i + 1) * (k + 1)  # exact 2/eps_i
        if self.problem == "domset":
            val = 1 + 2 * (1 + max(inv, 6 * i * (i + 1)))
        elif self.problem == "mis":
            val = 1 + 2 * (1 + inv)
        else:  # ccolorable: smallest even integer >= 2*(k+1)*2**i
            val = 2 * (k + 1) * 2**i
        return self._check(i, val)


@dataclass(frozen=True)
class AffineSeq(RSequence):
    """at(i) = base.at(a*i + b).  Made by affine(), which on an
    AffineSeq composes the two maps, so base is never an AffineSeq."""

    base: RSequence
    a: int
    b: int

    def at(self, i):
        if i < 1:
            raise SequenceError("index %d out of range" % i)
        return self.base.at(_index(self.a * i + self.b))

    def affine(self, a, b):
        return AffineSeq(self.base, self.a * a, self.a * b + self.b)


@dataclass(frozen=True)
class ThinnedSeq(RSequence):
    """Subsequence at indices i_0=0, i_j = i_{j-1} + d*base(i_{j-1}+1) + 1.

    at(j) = base.at(i_{j-1} + 1).  index(j) returns i_j, memoized, and
    like the other rules that grow with the index refuses j > INDEX_LIMIT.
    The memo takes no part in comparisons.
    """

    base: RSequence
    d: int
    _idx: list = field(default_factory=lambda: [0], init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d < 1:
            raise SequenceError("thinning needs d >= 1")

    def index(self, j):
        if j:  # i_0 = 0 needs no rule
            _index(j)
        while len(self._idx) <= j:
            prev = self._idx[-1]
            self._idx.append(prev + self.d * self.base.at(prev + 1) + 1)
        return self._idx[j]

    def at(self, j):
        return self.base.at(self.index(_index(j) - 1) + 1)


def parse_rseq(text):
    """Parse 'const:<c>', 'geom:<a>,<b>' or 'schedule:<problem>:<k>'."""
    parts = text.split(":")
    try:
        if parts[0] == "const" and len(parts) == 2:
            return ConstSeq(int(parts[1]))
        if parts[0] == "geom" and len(parts) == 2:
            a, b = parts[1].split(",")
            return GeomSeq(float(a), float(b))
        if parts[0] == "schedule" and len(parts) == 3:
            return ScheduleSeq(parts[1], int(parts[2]))
    except (ValueError, IndexError) as exc:
        raise SequenceError("bad sequence descriptor %r: %s" % (text, exc)) from exc
    raise SequenceError("bad sequence descriptor %r" % text)
