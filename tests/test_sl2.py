import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverhh.errors import ConsistencyError, EngineError, ParseError
from quiverhh.families import p1p1_presentation
from quiverhh.fields import PrimeField, Rationals
from quiverhh.hochschild import HochschildCohomology
from quiverhh.linalg import SparseMatrix, echelon
from quiverhh.sl2 import (
    GRAM,
    SL2_MATRICES,
    KernelModelReport,
    PsiTensor,
    adjoint_matrix,
    contract,
    format_psi,
    jj_dim,
    kernel_model_dims,
    killing,
    mat2_mul,
    matrix_to_sl2,
    orbit_conjugate,
    parse_psi,
    psi_dagger_psi,
    psi_kronecker,
    sl2_to_matrix,
    stab_dim,
)

FIELD = Rationals()
E = (Fraction(1), Fraction(0), Fraction(0))
H = (Fraction(0), Fraction(1), Fraction(0))
F = (Fraction(0), Fraction(0), Fraction(1))


def _rand_psi(rng, lo=-3, hi=3):
    return PsiTensor.from_int_array(FIELD, [[rng.randint(lo, hi) for _ in range(3)] for _ in range(3)])


def _rand_unimodular(rng):
    m = ((FIELD.one(), FIELD.zero()), (FIELD.zero(), FIELD.one()))
    for _ in range(4):
        t = FIELD.from_int(rng.randint(-2, 2))
        if rng.random() < 0.5:
            elem = ((FIELD.one(), t), (FIELD.zero(), FIELD.one()))
        else:
            elem = ((FIELD.one(), FIELD.zero()), (t, FIELD.one()))
        m = mat2_mul(FIELD, m, elem)
    return m


def test_killing_values():
    assert killing(E, F, FIELD) == 1
    assert killing(H, H, FIELD) == 2
    assert killing(E, E, FIELD) == 0
    assert killing(E, H, FIELD) == 0


def test_cayley_hamilton_identity():
    rng = random.Random(0)
    for _ in range(50):
        a = tuple(Fraction(rng.randint(-4, 4)) for _ in range(3))
        b = tuple(Fraction(rng.randint(-4, 4)) for _ in range(3))
        A, B = sl2_to_matrix(FIELD, a), sl2_to_matrix(FIELD, b)
        AB, BA = mat2_mul(FIELD, A, B), mat2_mul(FIELD, B, A)
        k = killing(a, b, FIELD)
        assert AB[0][0] + BA[0][0] == k and AB[1][1] + BA[1][1] == k
        assert AB[0][1] + BA[0][1] == 0 and AB[1][0] + BA[1][0] == 0


def test_psi_literals():
    psi = parse_psi("ee:2,ff:2,hh:1", FIELD)
    assert psi.coeffs[0][0] == 2 and psi.coeffs[1][1] == 1 and psi.coeffs[2][2] == 2
    assert parse_psi(format_psi(psi), FIELD) == psi
    assert parse_psi("0", FIELD).is_zero()
    with pytest.raises(ParseError):
        parse_psi("ee", FIELD)
    with pytest.raises(ParseError):
        parse_psi("xy:1", FIELD)


def test_psi_dagger_psi_examples():
    four_id = psi_dagger_psi(parse_psi("ee:2,ff:2,hh:1", FIELD))
    assert four_id == tuple(
        tuple(Fraction(4) if i == j else Fraction(0) for j in range(3)) for i in range(3)
    )
    zero = psi_dagger_psi(parse_psi("ee:1", FIELD))
    assert all(v == 0 for row in zero for v in row)
    assert all(v == 0 for row in psi_dagger_psi(PsiTensor.zero(FIELD)) for v in row)


def test_contract_examples():
    psi = parse_psi("ee:1", FIELD)
    # pairing f against the first factor e leaves e with coefficient k(f,e)=1
    assert contract(psi, F, "left") == E
    assert contract(psi, E, "left") == (0, 0, 0)
    assert contract(PsiTensor.zero(FIELD), H, "left") == (0, 0, 0)
    with pytest.raises(EngineError):
        contract(psi, E, "up")


def test_contraction_identity_random():
    rng = random.Random(1)
    for _ in range(20):
        psi = _rand_psi(rng)
        v = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
        lhs = contract(psi, contract(psi, v, "left"), "right")
        M = psi_dagger_psi(psi)
        rhs = tuple(sum((M[i][j] * v[j] for j in range(3)), Fraction(0)) for i in range(3))
        assert lhs == rhs


def test_stab_dims():
    assert stab_dim(PsiTensor.zero(FIELD)) == 6
    assert stab_dim(parse_psi("ee:1", FIELD)) == 3
    assert stab_dim(parse_psi("ee:1,hh:1,ef:2,fe:2", FIELD)) == 1


def test_jj_dims():
    assert jj_dim(parse_psi("ee:2,ff:2,hh:1", FIELD)) == 3
    full = parse_psi("ee:1,eh:1,ef:1,he:1,hh:1,hf:1,fe:1,fh:1,ff:1", FIELD)
    assert jj_dim(full) == 0
    assert jj_dim(PsiTensor.zero(FIELD)) == 0


def test_kernel_model_dims():
    assert kernel_model_dims(PsiTensor.zero(FIELD)).total == 6
    assert kernel_model_dims(parse_psi("ee:1,ff:1,hh:1", FIELD)).total == 2
    assert kernel_model_dims(parse_psi("ee:1,hh:2,ef:1,fe:1", FIELD)).total == 0
    report = kernel_model_dims(parse_psi("ee:1,hh:1,ef:2,fe:2", FIELD))
    assert (report.total, report.stab, report.jj) == (3, 1, 2)


def test_reference_table_rows():
    rows = [
        ("ee:2,ff:2,hh:1", 3, 3),
        ("ee:1", 3, 0),
        ("ee:1,eh:1,he:1,hh:1", 2, 1),
        ("ee:1,hh:1,ef:2,fe:2", 1, 2),
        ("ee:1,eh:1,ef:1,he:1,hh:1,hf:1,fe:1,fh:1,ff:1", 2, 0),
        ("ee:1,ff:1,hh:1", 1, 1),
        ("ee:1,ff:1", 1, 0),
        ("ee:1,hh:1,ff:1,ef:2,fe:2", 0, 1),
        ("ee:1,hh:2,ef:1,fe:1", 0, 0),
    ]
    for text, s, j in rows:
        psi = parse_psi(text, FIELD)
        assert stab_dim(psi) == s, text
        assert jj_dim(psi) == j, text
        assert kernel_model_dims(psi).total == s + j, text


def test_orbit_conjugate_identity():
    psi = parse_psi("ee:1,hf:2", FIELD)
    eye = ((FIELD.one(), FIELD.zero()), (FIELD.zero(), FIELD.one()))
    assert orbit_conjugate(psi, eye, eye) == psi


def test_orbit_conjugate_rejects_non_unimodular():
    psi = parse_psi("ee:1", FIELD)
    two = ((FIELD.from_int(2), FIELD.zero()), (FIELD.zero(), FIELD.one()))
    with pytest.raises(EngineError):
        orbit_conjugate(psi, two, two)


def test_adjoint_preserves_killing():
    rng = random.Random(2)
    for _ in range(10):
        g = _rand_unimodular(rng)
        M = adjoint_matrix(FIELD, g)
        for _ in range(5):
            a = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
            b = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
            Ma = tuple(sum((M[i][j] * a[j] for j in range(3)), Fraction(0)) for i in range(3))
            Mb = tuple(sum((M[i][j] * b[j] for j in range(3)), Fraction(0)) for i in range(3))
            assert killing(Ma, Mb, FIELD) == killing(a, b, FIELD)


def test_invariance_under_conjugation():
    rng = random.Random(3)
    for text in ("ee:1", "ee:1,hh:1,ef:2,fe:2", "ee:1,ff:1"):
        psi = parse_psi(text, FIELD)
        s, j = stab_dim(psi), jj_dim(psi)
        for _ in range(5):
            conj = orbit_conjugate(psi, _rand_unimodular(rng), _rand_unimodular(rng))
            assert stab_dim(conj) == s
            assert jj_dim(conj) == j


def test_feasibility_of_random_pairs():
    feasible = {
        (6, 0), (3, 3), (3, 0), (2, 1), (2, 0),
        (1, 2), (1, 1), (1, 0), (0, 1), (0, 0),
    }
    rng = random.Random(4)
    for _ in range(200):
        psi = _rand_psi(rng)
        assert (stab_dim(psi), jj_dim(psi)) in feasible


def test_kernel_model_consistency_guard():
    # the split check is wired in; on every input it must hold or raise
    rng = random.Random(5)
    for _ in range(10):
        report = kernel_model_dims(_rand_psi(rng))
        assert report.total == report.stab + report.jj


# The fixed-size implementation the dense helpers replaced, kept verbatim
# (names prefixed with _ref) as an independent reference: 2x2, 3x3 and 4x4
# loops written out by hand, and linear systems filled entry by entry.


def _ref_mat2_mul(field, x, y):
    f = field
    return tuple(
        tuple(
            f.add(f.mul(x[i][0], y[0][j]), f.mul(x[i][1], y[1][j])) for j in range(2)
        )
        for i in range(2)
    )


def _ref_mat2_from_int(field, m):
    return tuple(tuple(field.from_int(v) for v in row) for row in m)


def _ref_mat3_mul(field, x, y):
    f = field
    return tuple(
        tuple(
            _ref_dot3(f, x[i], tuple(y[k][j] for k in range(3))) for j in range(3)
        )
        for i in range(3)
    )


def _ref_dot3(f, u, v):
    acc = f.zero()
    for a, b in zip(u, v):
        acc = f.add(acc, f.mul(a, b))
    return acc


def _ref_gram(field):
    return tuple(tuple(field.from_int(v) for v in row) for row in GRAM)


def _ref_transpose3(m):
    return tuple(tuple(m[j][i] for j in range(3)) for i in range(3))


def _ref_psi_dagger_psi(psi: PsiTensor):
    f = psi.field
    G = _ref_gram(f)
    A = psi.coeffs
    At = _ref_transpose3(A)
    return _ref_mat3_mul(f, _ref_mat3_mul(f, A, G), _ref_mat3_mul(f, At, G))


def _ref_jj_dim(psi: PsiTensor) -> int:
    f = psi.field
    M = _ref_psi_dagger_psi(psi)
    four = f.from_int(4)
    m = SparseMatrix(3, 3, f)
    for i in range(3):
        for j in range(3):
            v = M[i][j]
            if i == j:
                v = f.sub(v, four)
            if not f.is_zero(v):
                m.add(i, j, v)
    return 3 - echelon(m).rank


def _ref_kron4(field, first, second):
    f = field
    out = [[f.zero()] * 4 for _ in range(4)]
    for i1 in range(2):
        for j1 in range(2):
            for i2 in range(2):
                for j2 in range(2):
                    out[2 * i1 + i2][2 * j1 + j2] = f.mul(first[i1][j1], second[i2][j2])
    return tuple(tuple(r) for r in out)


def _ref_psi_kronecker(psi: PsiTensor):
    f = psi.field
    out = [[f.zero()] * 4 for _ in range(4)]
    for i in range(3):
        for j in range(3):
            c = psi.coeffs[i][j]
            if f.is_zero(c):
                continue
            block = _ref_kron4(
                f, _ref_mat2_from_int(f, SL2_MATRICES[i]), _ref_mat2_from_int(f, SL2_MATRICES[j])
            )
            for r in range(4):
                for s in range(4):
                    out[r][s] = f.add(out[r][s], f.mul(c, block[r][s]))
    return tuple(tuple(r) for r in out)


def _ref_stab_dim(psi: PsiTensor) -> int:
    f = psi.field
    K = _ref_psi_kronecker(psi)
    m = SparseMatrix(16, 6, f)
    for k in range(3):
        U2 = _ref_mat2_from_int(f, SL2_MATRICES[k])
        U1 = ((f.zero(), f.zero()), (f.zero(), f.zero()))
        _ref_add_commutator_column(f, m, k, U2, U1, K)
    for k in range(3):
        U2 = ((f.zero(), f.zero()), (f.zero(), f.zero()))
        U1 = _ref_mat2_from_int(f, SL2_MATRICES[k])
        _ref_add_commutator_column(f, m, 3 + k, U2, U1, K)
    return 6 - echelon(m).rank


def _ref_add_commutator_column(f, m, col, U2, U1, K):
    eye = _ref_mat2_from_int(f, ((1, 0), (0, 1)))
    U = _ref_kron4(f, U2, eye)
    V = _ref_kron4(f, eye, U1)
    for r in range(4):
        for s in range(4):
            acc = f.zero()
            for t in range(4):
                acc = f.add(acc, f.mul(f.add(U[r][t], V[r][t]), K[t][s]))
                acc = f.sub(acc, f.mul(K[r][t], f.add(U[t][s], V[t][s])))
            if not f.is_zero(acc):
                m.add(4 * r + s, col, acc)


def _ref_kernel_model_dims(psi: PsiTensor):
    f = psi.field
    K = _ref_psi_kronecker(psi)
    one_plus = tuple(
        tuple(f.add(K[r][s], f.one() if r == s else f.zero()) for s in range(4))
        for r in range(4)
    )
    eye = _ref_mat2_from_int(f, ((1, 0), (0, 1)))
    zero2 = ((f.zero(), f.zero()), (f.zero(), f.zero()))

    def column_matrix(which, basis_mat):
        f1 = f2 = f3 = f4 = zero2
        if which == 1:
            f1 = basis_mat
        elif which == 2:
            f2 = basis_mat
        elif which == 3:
            f3 = basis_mat
        else:
            f4 = basis_mat
        left = _ref_mat4_add(f, _ref_kron4(f, f2, eye), _ref_kron4(f, eye, f3))
        right = _ref_mat4_add(f, _ref_kron4(f, f4, eye), _ref_kron4(f, eye, f1))
        return _ref_mat4_sub(
            f, _ref_mat4_mul(f, one_plus, left), _ref_mat4_mul(f, right, one_plus)
        )

    m = SparseMatrix(16, 13, f)
    cmat = column_matrix(1, eye)
    for r in range(4):
        for s in range(4):
            if not f.is_zero(cmat[r][s]):
                m.add(4 * r + s, 0, cmat[r][s])
    for which in (1, 2, 3, 4):
        for k in range(3):
            col = 1 + (which - 1) * 3 + k
            mat = column_matrix(which, _ref_mat2_from_int(f, SL2_MATRICES[k]))
            for r in range(4):
                for s in range(4):
                    if not f.is_zero(mat[r][s]):
                        m.add(4 * r + s, col, mat[r][s])
    total = 13 - echelon(m).rank
    stab = _ref_stab_dim(psi)
    jj = _ref_jj_dim(psi)
    if total != stab + jj:
        raise ConsistencyError(
            f"kernel model dim {total} != stab {stab} + eigenspace {jj}"
        )
    return KernelModelReport(total, stab, jj)


def _ref_mat4_add(f, x, y):
    return tuple(tuple(f.add(x[i][j], y[i][j]) for j in range(4)) for i in range(4))


def _ref_mat4_sub(f, x, y):
    return tuple(tuple(f.sub(x[i][j], y[i][j]) for j in range(4)) for i in range(4))


def _ref_mat4_mul(f, x, y):
    out = []
    for i in range(4):
        row = []
        for j in range(4):
            acc = f.zero()
            for k in range(4):
                acc = f.add(acc, f.mul(x[i][k], y[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _ref_adjoint_matrix(field, g):
    f = field
    det = f.sub(f.mul(g[0][0], g[1][1]), f.mul(g[0][1], g[1][0]))
    if det != f.one():
        raise EngineError("matrix is not unimodular")
    ginv = ((g[1][1], f.neg(g[0][1])), (f.neg(g[1][0]), g[0][0]))
    cols = []
    for k in range(3):
        m = _ref_mat2_mul(f, _ref_mat2_mul(f, g, _ref_mat2_from_int(f, SL2_MATRICES[k])), ginv)
        cols.append(matrix_to_sl2(f, m))
    return tuple(tuple(cols[j][i] for j in range(3)) for i in range(3))


def _ref_orbit_conjugate(psi: PsiTensor, g, h) -> PsiTensor:
    f = psi.field
    Mg = _ref_adjoint_matrix(f, g)
    Mh = _ref_adjoint_matrix(f, h)
    A = psi.coeffs
    out = _ref_mat3_mul(f, Mg, _ref_mat3_mul(f, A, _ref_transpose3(Mh)))
    return PsiTensor(f, out)


FIELDS = (Rationals(), PrimeField(3), PrimeField(7))


@st.composite
def _sl2_case(draw):
    """A field, a psi tensor over it and two unimodular 2x2 matrices."""
    field = draw(st.sampled_from(FIELDS))
    if field.kind == "rationals":
        scalar = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)).map(
            lambda x: field.parse_scalar(str(x))
        )
    else:
        scalar = st.integers(-4, 4).map(field.from_int)
    psi = PsiTensor(field, [[draw(scalar) for _ in range(3)] for _ in range(3)])
    one, zero = field.one(), field.zero()
    unimodular = []
    for _ in range(2):
        m = ((one, zero), (zero, one))
        for t, upper in draw(st.lists(st.tuples(scalar, st.booleans()), max_size=4)):
            elem = ((one, t), (zero, one)) if upper else ((one, zero), (t, one))
            m = _ref_mat2_mul(field, m, elem)
        unimodular.append(m)
    return field, psi, unimodular[0], unimodular[1]


def _is_canonical(x):
    """A rational in the field's canonical form: an int, or a Fraction that is
    not integral."""
    if isinstance(x, tuple):
        return all(_is_canonical(y) for y in x)
    return type(x) is int or x.denominator != 1


@settings(deadline=None, max_examples=150)
@given(_sl2_case())
def test_dense_helpers_match_fixed_size_reference(case):
    field, psi, g, h = case
    assert psi_kronecker(psi) == _ref_psi_kronecker(psi)
    assert psi_dagger_psi(psi) == _ref_psi_dagger_psi(psi)
    try:
        ref = _ref_kernel_model_dims(psi)
    except ConsistencyError:
        with pytest.raises(ConsistencyError):
            kernel_model_dims(psi)
    else:
        got = kernel_model_dims(psi)
        assert (got.total, got.stab, got.jj) == (ref.total, ref.stab, ref.jj)
    assert (stab_dim(psi), jj_dim(psi)) == (_ref_stab_dim(psi), _ref_jj_dim(psi))
    assert adjoint_matrix(field, g) == _ref_adjoint_matrix(field, g)
    conj = orbit_conjugate(psi, g, h)
    assert conj == _ref_orbit_conjugate(psi, g, h)
    assert mat2_mul(field, g, h) == _ref_mat2_mul(field, g, h)
    if field.kind == "rationals":
        for value in (
            psi_kronecker(psi),
            psi_dagger_psi(psi),
            adjoint_matrix(field, g),
            conj.coeffs,
        ):
            assert _is_canonical(value)


def test_mat2_mul_any_shape():
    row = ((1, 2, 3),)
    col = ((4,), (5,), (6,))
    assert mat2_mul(FIELD, row, col) == ((32,),)
    assert mat2_mul(FIELD, col, row) == ((4, 8, 12), (5, 10, 15), (6, 12, 18))


def test_kernel_model_matches_p1p1_hh1_over_fp7():
    field = PrimeField(7)
    rng = random.Random(6)
    for _ in range(4):
        psi = PsiTensor.from_int_array(
            field, [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        )
        hh1 = HochschildCohomology(p1p1_presentation(field, psi), nmax=1).report().dims[1]
        assert kernel_model_dims(psi).total == hh1, format_psi(psi)
