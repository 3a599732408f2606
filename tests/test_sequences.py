from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bakergame.sequences import (
    INDEX_LIMIT,
    AffineSeq,
    ConstSeq,
    GeomSeq,
    ScheduleSeq,
    SequenceError,
    ThinnedSeq,
    parse_rseq,
)


def test_const():
    s = ConstSeq(3)
    assert [s.at(i) for i in range(1, 4)] == [3, 3, 3]  # [TRIVIAL]
    assert s.tail(5).head == 3


def test_geom():
    s = GeomSeq(2, 3)
    # [DERIVED] ceil(2 * 3^i) for i = 1, 2, 3
    assert [s.at(i) for i in range(1, 4)] == [6, 18, 54]
    assert s.tail(1).at(1) == 18


def test_schedule_products_converge():
    # [DERIVED] eps_i = 2 / at(i) = 2^-i / (k+1) on the ccolorable
    # schedule, so prod(1 + eps_i) <= 1 + 1/k and prod(1 - eps_i) >= 1 - 1/k
    for k in (1, 2, 3, 5):
        s = ScheduleSeq("ccolorable", k)
        up = down = Fraction(1)
        for i in range(1, 65):
            eps = Fraction(2, s.at(i))
            up *= 1 + eps
            down *= 1 - eps
        assert up <= 1 + Fraction(1, k)
        assert down >= 1 - Fraction(1, k)


def test_schedule_values():
    # [DERIVED] from the window recipes with eps_i = 2^-i / (k+1):
    # domset: 1 + 2 * (1 + max(2^(i+1) * (k+1), 6 i (i+1)))
    s = ScheduleSeq("domset", 2)
    assert s.at(1) == 1 + 2 * (1 + max(4 * 3, 12))
    assert s.at(3) == 1 + 2 * (1 + max(16 * 3, 72))
    # mis: 1 + 2 * (1 + 2^(i+1) * (k+1))
    assert ScheduleSeq("mis", 2).at(1) == 1 + 2 * (1 + 12)
    # ccolorable: 2 * (k+1) * 2^i
    assert ScheduleSeq("ccolorable", 3).at(2) == 2 * 4 * 4


def test_schedule_rejects_bad_args():
    with pytest.raises(SequenceError):
        ScheduleSeq("nope", 2)
    with pytest.raises(SequenceError):
        ScheduleSeq("mis", 0)


def test_index_limit_guards():
    with pytest.raises(SequenceError):
        ScheduleSeq("mis", 2).at(10**8)
    with pytest.raises(SequenceError):
        GeomSeq(1, 2).at(10**8)


def test_geom_overflow_is_a_sequence_error():
    # 2.0**1100 leaves the float range long before INDEX_LIMIT; callers
    # fall back on SequenceError, so the overflow must arrive as one
    s = parse_rseq("geom:1,2")
    with pytest.raises(SequenceError):
        s.at(1100)
    with pytest.raises(SequenceError):
        s.tail(1000).at(100)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-1, 20), max_size=6), st.integers(1, 10))
def test_tail_composition(ops, i):
    # any composition of tail(s) (s >= 0) and paired() (s = -1) reads
    # the base at the composed index: tail(s) maps i to i + s and
    # paired() maps i to 2i, and the wrappers flatten to one
    j = i
    for op in reversed(ops):
        j = 2 * j if op < 0 else j + op
    for s in (GeomSeq(1.5, 1.25), ScheduleSeq("mis", 2), ConstSeq(3)):
        seq = s
        for op in ops:
            seq = seq.paired() if op < 0 else seq.tail(op)
        assert seq.at(i) == s.at(j)
        assert not isinstance(getattr(seq, "base", None), AffineSeq)
    c = ConstSeq(3)
    assert c.paired() is c and c.tail(4) is c


def test_paired_doubles_indices():
    s = GeomSeq(1, 2)
    p = s.paired()
    assert p.at(1) == s.at(2)
    assert p.at(3) == s.at(6)
    assert p.tail(1).at(1) == s.at(4)


def test_affine_index_limit():
    # an index past INDEX_LIMIT raises, whatever the base would do
    s = ScheduleSeq("ccolorable", 1).paired().tail(INDEX_LIMIT // 2)
    with pytest.raises(SequenceError):
        s.at(1)


def test_thinned_index_recurrence():
    # [DERIVED] i_0 = 0, i_j = i_{j-1} + d * r(i_{j-1} + 1) + 1
    s = ConstSeq(2)
    t = ThinnedSeq(s, 3)
    assert t.index(0) == 0
    assert t.index(1) == 0 + 3 * 2 + 1
    assert t.index(2) == 7 + 3 * 2 + 1
    assert t.at(1) == s.at(1)
    assert t.at(2) == s.at(8)
    with pytest.raises(SequenceError):
        t.index(INDEX_LIMIT + 1)


def test_values_must_be_at_least_one():
    with pytest.raises(SequenceError):
        ConstSeq(0)


def test_parse_rseq():
    assert parse_rseq("const:4").head == 4
    assert parse_rseq("geom:2,3").at(2) == 18
    assert parse_rseq("schedule:mis:2").at(1) == 27
    with pytest.raises(SequenceError):
        parse_rseq("mystery:1")


@pytest.mark.parametrize("a,b", [("nan", "2"), ("1", "nan"), ("inf", "2"), ("1", "inf")])
def test_geom_rejects_non_finite_parameters(a, b):
    with pytest.raises(SequenceError):
        GeomSeq(float(a), float(b))
    with pytest.raises(SequenceError):
        parse_rseq("geom:%s,%s" % (a, b))
