"""Infinite positive-integer sequences driving the game.

Sequences are never materialized: each kind stores a closed-form rule
plus an offset, so tails are O(1) and arbitrary indices can be queried.
All indices are 1-based.
"""


class SequenceError(ValueError):
    pass


# Indices beyond this produce values too large to be useful in any
# refereed game; rules that grow with the index refuse to evaluate them
# so that bound computations fail fast instead of exhausting memory.
INDEX_LIMIT = 10**7


class RSequence:
    """Base class.  Subclasses implement at(i) for i >= 1."""

    def at(self, i):
        raise NotImplementedError

    @property
    def head(self):
        return self.at(1)

    def tail(self, s=1):
        if s < 0:
            raise SequenceError("negative tail")
        if s == 0:
            return self
        return TailSeq(self, s)

    def key(self):
        """repr(self), cached.  It spells out the whole structure, so
        equal keys mean equal sequences; wrappers build theirs from the
        cached key of their base, so each new wrapper costs O(1)."""
        k = self.__dict__.get("_key")
        if k is None:
            k = self._key = repr(self)
        return k

    def _check(self, i, value):
        if i < 1:
            raise SequenceError("index %d out of range" % i)
        if value < 1:
            raise SequenceError("sequence value %r below 1 at index %d" % (value, i))
        return value


class ConstSeq(RSequence):
    def __init__(self, c):
        if c < 1:
            raise SequenceError("constant sequence needs c >= 1")
        self.c = c

    def at(self, i):
        return self._check(i, self.c)

    def tail(self, s=1):
        return self

    def __repr__(self):
        return "const:%d" % self.c


class GeomSeq(RSequence):
    """Ceil of a * b**i."""

    def __init__(self, a, b):
        if a <= 0 or b <= 0:
            raise SequenceError("geometric sequence needs positive a, b")
        self.a = a
        self.b = b

    def at(self, i):
        import math

        if i > INDEX_LIMIT:
            raise SequenceError("index %d beyond evaluation limit" % i)
        try:
            value = math.ceil(self.a * self.b**i)
        except OverflowError as exc:
            raise SequenceError("geometric value overflows at index %d" % i) from exc
        return self._check(i, value)

    def __repr__(self):
        return "geom:%s,%s" % (self.a, self.b)


class ScheduleSeq(RSequence):
    """Window-length schedule used by the approximation solvers.

    With eps_i = 2**(-i) / (k+1) the products over all rounds satisfy
    prod(1 + eps_i) <= 1 + 1/k and prod(1 - eps_i) >= 1 - 1/k.  All
    arithmetic is exact: 2/eps_i = 2**(i+1) * (k+1).
    """

    PROBLEMS = ("domset", "mis", "ccolorable")

    def __init__(self, problem, k):
        if problem not in self.PROBLEMS:
            raise SequenceError("unknown schedule problem %r" % problem)
        if k < 1:
            raise SequenceError("schedule needs k >= 1")
        self.problem = problem
        self.k = k

    def at(self, i):
        if i < 1:
            raise SequenceError("index %d out of range" % i)
        if i > INDEX_LIMIT:
            raise SequenceError("index %d beyond evaluation limit" % i)
        k = self.k
        inv = 2 ** (i + 1) * (k + 1)  # exact 2/eps_i
        if self.problem == "domset":
            val = 1 + 2 * (1 + max(inv, 6 * i * (i + 1)))
        elif self.problem == "mis":
            val = 1 + 2 * (1 + inv)
        else:  # ccolorable: smallest even integer >= 2*(k+1)*2**i
            val = 2 * (k + 1) * 2**i
        return self._check(i, val)

    def __repr__(self):
        return "schedule:%s:%d" % (self.problem, self.k)


class TailSeq(RSequence):
    def __init__(self, base, offset):
        # flatten nested tails so offsets stay additive
        if isinstance(base, TailSeq):
            offset += base.offset
            base = base.base
        self.base = base
        self.offset = offset

    def at(self, i):
        if i < 1:
            raise SequenceError("index %d out of range" % i)
        return self.base.at(i + self.offset)

    def __repr__(self):
        return "tail(%s, %d)" % (self.base.key(), self.offset)


class PairedSeq(RSequence):
    """Every second element: at(i) = base.at(2*i)."""

    def __init__(self, base):
        self.base = base

    def at(self, i):
        if i < 1:
            raise SequenceError("index %d out of range" % i)
        return self.base.at(2 * i)

    def __repr__(self):
        return "paired(%s)" % (self.base.key(),)


class ThinnedSeq(RSequence):
    """Subsequence at indices i_0=0, i_j = i_{j-1} + d*base(i_{j-1}+1) + 1.

    at(j) = base.at(i_{j-1} + 1).  index(j) returns i_j; both are
    memoized so repeated queries stay cheap.
    """

    def __init__(self, base, d):
        if d < 1:
            raise SequenceError("thinning needs d >= 1")
        self.base = base
        self.d = d
        self._idx = [0]

    def index(self, j, cap=None):
        if j < 0:
            raise SequenceError("index %d out of range" % j)
        while len(self._idx) <= j:
            prev = self._idx[-1]
            if cap is not None and prev > cap:
                return prev
            self._idx.append(prev + self.d * self.base.at(prev + 1) + 1)
        return self._idx[j]

    def at(self, j):
        if j < 1:
            raise SequenceError("index %d out of range" % j)
        return self.base.at(self.index(j - 1) + 1)

    def __repr__(self):
        return "thinned(%s, %d)" % (self.base.key(), self.d)


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
