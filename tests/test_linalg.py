import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quiverhh import linalg
from quiverhh.errors import EngineError
from quiverhh.families import CellComplexData, incidence_presentation
from quiverhh.fields import PrimeField, Rationals
from quiverhh.hochschild import HochschildCohomology
from quiverhh.linalg import (
    SparseMatrix,
    SubspaceBasis,
    _entry_vector,
    echelon,
    rref,
    vec_add,
    vec_iadd,
    vec_scale,
)

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


# --- plain Gauss-Jordan references ----------------------------------------
# Each vector in input order is reduced against every row so far, and every
# row is then cleared at its pivot; the kernel is read per free column;
# reduce walks every row.  The reduced row echelon form of a subspace is
# unique, so the elimination order of ``rref`` must not change any of them.


def _reference_rref(field, vectors, ambient):
    basis_rows = []
    pivots = []
    for v in vectors:
        v = _entry_vector(field, v, ambient)
        for row, piv in zip(basis_rows, pivots):
            c = v.get(piv)
            if c is not None:
                vec_iadd(field, v, row, field.neg(c))
        if not v:
            continue
        piv = min(v)
        v = vec_scale(field, v, field.inv(v[piv]))
        for i, row in enumerate(basis_rows):
            c = row.get(piv)
            if c is not None:
                basis_rows[i] = vec_add(field, row, v, field.neg(c))
        basis_rows.append(v)
        pivots.append(piv)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return SubspaceBasis(
        ambient, field, [basis_rows[i] for i in order], [pivots[i] for i in order]
    )


def _reference_reduce(basis, v):
    f = basis.field
    out = _entry_vector(f, v, basis.ambient)
    for row, piv in zip(basis.rows, basis.pivots):
        c = out.get(piv)
        if c is not None:
            vec_iadd(f, out, row, f.neg(c))
    return out


def _reference_kernel(m, row_space):
    f = m.field
    pivset = set(row_space.pivots)
    free_cols = [c for c in range(m.ncols) if c not in pivset]
    kernel_vectors = []
    for c in free_cols:
        v = {c: f.one()}
        for row, piv in zip(row_space.rows, row_space.pivots):
            x = row.get(c)
            if x is not None:
                v[piv] = f.neg(x)
        kernel_vectors.append(v)
    return SubspaceBasis(m.ncols, f, kernel_vectors, free_cols)


@st.composite
def _vector_lists(draw):
    """A field, an ambient size and vectors in it: with stored zeros, empty
    vectors and repeated vectors (the same dict, or a multiple of one)."""
    field, scalars = SCALARS[draw(st.sampled_from(sorted(SCALARS)))]
    ambient = draw(st.integers(min_value=1, max_value=AMBIENT + 2))
    keys = st.integers(min_value=0, max_value=ambient - 1)
    vectors = draw(st.lists(st.dictionaries(keys, scalars, max_size=ambient), max_size=9))
    for i in draw(st.lists(st.integers(min_value=0, max_value=max(len(vectors) - 1, 0)))):
        if vectors:
            c = field.from_int(draw(st.integers(min_value=1, max_value=4)))
            vectors.append(vectors[i] if draw(st.booleans()) else vec_scale(field, vectors[i], c))
    probe = draw(st.dictionaries(keys, scalars))
    return field, ambient, vectors, probe, draw(st.randoms(use_true_random=False))


@given(_vector_lists())
def test_rref_matches_gauss_jordan_in_any_order(case):
    field, ambient, vectors, probe, rng = case
    before = [dict(v) for v in vectors]
    want = _reference_rref(field, vectors, ambient)
    got = rref(field, vectors, ambient)
    assert got == want
    assert vectors == before  # the inputs are copied, not reduced in place
    shuffled = list(vectors)
    rng.shuffle(shuffled)
    assert rref(field, shuffled, ambient) == want
    assert got.reduce(probe) == _reference_reduce(want, probe)


@given(_vector_lists())
def test_echelon_matches_gauss_jordan(case):
    field, ambient, vectors, probe, _ = case
    m = SparseMatrix(len(vectors), ambient, field)
    for r, v in enumerate(vectors):
        for c, x in v.items():
            m.add(r, c, x)
    res = echelon(m)
    assert res.row_space == _reference_rref(field, m.rows(), ambient)
    assert res.kernel == _reference_kernel(m, res.row_space)
    assert res.kernel.reduce(probe) == _reference_reduce(res.kernel, probe)
    assert res.row_space.reduce(probe) == _reference_reduce(res.row_space, probe)


def _torus_grid(n):
    """n x n periodic cubical torus: vertex (r, c) is n*r + c, edge h runs
    right and v down from it, each square walks its corners clockwise."""

    def vertex(r, c):
        return n * (r % n) + (c % n)

    edges, faces = [], []
    for r in range(n):
        for c in range(n):
            edges.append((f"h{r}_{c}", (vertex(r, c), vertex(r, c + 1))))
            edges.append((f"v{r}_{c}", (vertex(r, c), vertex(r + 1, c))))
            faces.append([
                (vertex(r, c), f"h{r}_{c}"),
                (vertex(r, c + 1), f"v{r}_{(c + 1) % n}"),
                (vertex(r + 1, c + 1), f"h{(r + 1) % n}_{c}"),
                (vertex(r + 1, c), f"v{r}_{c}"),
            ])
    return CellComplexData(range(n * n), edges, faces)


def test_rref_of_torus_grid_d0_independent_of_input_order():
    pres = incidence_presentation(_torus_grid(3), FIELD, FIELD.from_int(2))
    d0 = HochschildCohomology(pres).bar.differential(0)
    rng = random.Random(6)
    for vectors, ambient in ((d0.rows(), d0.ncols), (d0.transpose().rows(), d0.nrows)):
        want = _reference_rref(FIELD, vectors, ambient)
        assert 0 < want.dim < len(vectors)
        assert rref(FIELD, vectors, ambient) == want
        for _ in range(5):
            rng.shuffle(vectors)
            assert rref(FIELD, vectors, ambient) == want
