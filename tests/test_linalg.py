import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quiverhh import linalg
from quiverhh.errors import EngineError
from quiverhh.fields import PrimeField, Rationals
from quiverhh.linalg import SparseMatrix, echelon, rref, vec_add, vec_iadd

FIELD = Rationals()


def _matrix(rows, field=FIELD):
    m = SparseMatrix(len(rows), len(rows[0]) if rows else 0, field)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                m.add(i, j, field.from_int(v))
    return m


def test_echelon_identity():
    m = _matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    res = echelon(m)
    assert res.rank == 3
    assert res.kernel.dim == 0


def test_echelon_zero_matrix():
    m = SparseMatrix(2, 5, FIELD)
    res = echelon(m)
    assert res.rank == 0
    assert res.kernel.dim == 5


def test_echelon_rank_one():
    m = _matrix([[1, 1, 0, 0], [2, 2, 0, 0]])
    res = echelon(m)
    assert res.rank == 1
    assert res.kernel.dim == 3
    for v in res.kernel.rows:
        assert not m.apply(v)


def test_rank_nullity_random():
    rng = random.Random(4)
    for field in (FIELD, PrimeField(7)):
        for _ in range(25):
            rows, cols = rng.randint(1, 9), rng.randint(1, 9)
            m = SparseMatrix(rows, cols, field)
            for _ in range(rng.randint(0, rows * cols)):
                v = rng.randint(-4, 4)
                if v:
                    m.add(rng.randrange(rows), rng.randrange(cols), field.from_int(v))
            res = echelon(m)
            assert res.rank + res.kernel.dim == cols
            assert res.rank == echelon(m.transpose()).rank
            for v in res.kernel.rows:
                assert not m.apply(v)


def test_echelon_eliminates_once(monkeypatch):
    # the kernel vectors come out reduced on the free columns, so echelon
    # needs no second elimination over them
    calls = []
    real_rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda *args: calls.append(1) or real_rref(*args))
    rng = random.Random(11)
    for field in (FIELD, PrimeField(7)):
        for _ in range(25):
            rows, cols = rng.randint(1, 9), rng.randint(1, 9)
            m = SparseMatrix(rows, cols, field)
            for _ in range(rng.randint(0, rows * cols)):
                m.add(rng.randrange(rows), rng.randrange(cols), field.from_int(rng.randint(-4, 4)))
            calls.clear()
            res = linalg.echelon(m)
            assert len(calls) == 1
            kernel = res.kernel
            assert kernel.dim == cols - res.rank
            assert sorted(kernel.pivots + res.row_space.pivots) == list(range(cols))
            for row, piv in zip(kernel.rows, kernel.pivots):
                assert not m.apply(row)
                assert row[piv] == field.one()
                assert not any(other in row for other in kernel.pivots if other != piv)


def test_quotient_coords_examples():
    image = rref(FIELD, [{0: Fraction(1)}], 2)  # span of (1, 0)
    assert image.reduce({0: Fraction(1), 1: Fraction(1)}) == {1: Fraction(1)}
    assert image.reduce({0: Fraction(3)}) == {}
    empty = rref(FIELD, [], 2)
    v = {0: Fraction(2), 1: Fraction(-1)}
    assert empty.reduce(v) == v


def test_quotient_coords_linear_idempotent():
    rng = random.Random(9)
    m = _matrix([[1, 2, 0, 1], [0, 1, 1, 0]])
    image = echelon(m).row_space
    for _ in range(30):
        v = {i: Fraction(rng.randint(-3, 3)) for i in range(4)}
        w = {i: Fraction(rng.randint(-3, 3)) for i in range(4)}
        rv, rw = image.reduce(v), image.reduce(w)
        assert image.reduce(rv) == rv
        assert image.reduce(vec_add(FIELD, v, w)) == vec_add(FIELD, rv, rw)


def test_dimension_mismatch_rejected():
    image = rref(FIELD, [{0: Fraction(1)}], 2)
    with pytest.raises(EngineError):
        image.reduce({5: Fraction(1)})


def test_reduce_rejects_keys_outside_ambient():
    image = rref(FIELD, [{0: Fraction(1)}], 2)
    for key in (-1, 2):
        with pytest.raises(EngineError):
            image.reduce({key: 1})
        with pytest.raises(EngineError):
            rref(FIELD, [{key: Fraction(1)}], 2)


def test_rref_drops_zero_entries():
    basis = rref(FIELD, [{0: Fraction(0)}, {0: Fraction(0), 1: Fraction(2)}], 2)
    assert basis.rows == [{1: Fraction(1)}]
    assert basis.pivots == [1]
    assert basis.reduce({0: Fraction(0), 1: Fraction(3)}) == {}


AMBIENT = 6
SCALARS = {
    "rational": (FIELD, st.fractions(min_value=-3, max_value=3, max_denominator=4)),
    "fp:7": (PrimeField(7), st.integers(min_value=0, max_value=6)),
}


@st.composite
def _sums(draw):
    field, scalars = SCALARS[draw(st.sampled_from(sorted(SCALARS)))]
    keys = st.integers(min_value=0, max_value=AMBIENT - 1)
    u = draw(st.dictionaries(keys, scalars))
    u = {k: x for k, x in u.items() if not field.is_zero(x)}
    v = draw(st.dictionaries(keys, scalars))  # may hold zeros
    c = draw(st.one_of(st.none(), scalars))
    return field, u, v, c


@given(_sums())
def test_vec_iadd_matches_dense_reference(case):
    field, u, v, c = case
    scale = field.one() if c is None else c
    dense = [
        field.add(u.get(k, field.zero()), field.mul(scale, v.get(k, field.zero())))
        for k in range(AMBIENT)
    ]
    want = {k: x for k, x in enumerate(dense) if not field.is_zero(x)}
    before = dict(u)
    assert vec_add(field, u, v, c) == want
    assert u == before  # vec_add leaves its operands alone
    out = vec_iadd(field, u, v, c)
    assert out is u and u == want
    assert not any(field.is_zero(x) for x in u.values())


def test_echelon_canonical_for_subspace():
    # two generating sets of the same row space give identical echelon bases
    a = rref(FIELD, [{0: Fraction(1), 1: Fraction(2)}, {1: Fraction(1)}], 3)
    b = rref(FIELD, [{0: Fraction(2), 1: Fraction(5)}, {0: Fraction(1), 1: Fraction(3)}], 3)
    assert a == b


def test_fp_vs_rational_rank_agreement():
    rng = random.Random(12)
    big = PrimeField(1000003)
    for _ in range(30):
        rows, cols = rng.randint(2, 7), rng.randint(2, 7)
        mq = SparseMatrix(rows, cols, FIELD)
        mp = SparseMatrix(rows, cols, big)
        for _ in range(rng.randint(1, rows * cols)):
            r, c, v = rng.randrange(rows), rng.randrange(cols), rng.randint(-3, 3)
            if v:
                mq.add(r, c, Fraction(v))
                mp.add(r, c, v % big.p)
        assert echelon(mq).rank == echelon(mp).rank


def test_coordinate_dump_format():
    m = _matrix([[1, 0], [0, -2]])
    dump = m.dump_coordinates()
    assert dump.splitlines()[0] == "2 2"
    assert "1 1 -2" in dump
