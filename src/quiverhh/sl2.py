"""The sl2 toolkit behind the Kronecker-square deformations.

Conventions: ordered basis (e, h, f) realized as the standard traceless 2x2
matrices; the trace pairing k(a, b) = tr(ab) has Gram matrix
[[0,0,1],[0,2,0],[1,0,0]].  A deformation tensor is a 3x3 coefficient array
over (e,h,f) x (e,h,f).  The composite v -> right_contract(left_contract(v))
plays the role of the squared singular-value operator; its eigenvalue-4
eigenspace enters the first-cohomology count.

Every matrix is dense: a tuple of rows, of any shape.  The Kronecker product
x (x) y puts x[i1][j1] * y[i2][j2] at row i1 * len(y) + i2 and column
j1 * len(y[0]) + j2, so on the tensor square of the arrow space (x, y) the
rows and columns run x@x, x@y, y@x, y@y.  A linear system is a list of
matrices, one per unknown; its equations are their entries, read row by row.
The kernel model's 13 unknowns are c, then f1, f2, f3, f4, each over (e,h,f).
"""

from __future__ import annotations

import re
from itertools import chain

from .errors import ConsistencyError, EngineError, ParseError
from .linalg import SparseMatrix, echelon

# standard 2x2 matrices of e, h, f as integer entries, row-major
SL2_MATRICES = (
    ((0, 1), (0, 0)),  # e
    ((1, 0), (0, -1)),  # h
    ((0, 0), (1, 0)),  # f
)
BASIS_NAMES = ("e", "h", "f")
# Gram matrix of k(a,b) = tr(ab) over (e, h, f)
GRAM = ((0, 0, 1), (0, 2, 0), (1, 0, 0))
EYE2 = ((1, 0), (0, 1))


def _dot(field, u, v):
    """sum_k u[k] * v[k].  A product with a zero (falsy) factor is skipped:
    the sl2 basis matrices and their Kronecker products are mostly zeros."""
    acc = field.zero()
    for a, b in zip(u, v):
        if a and b:
            acc = field.add(acc, field.mul(a, b))
    return acc


def _ints(field, m):
    """Integers, in tuples nested to any depth, as field scalars."""
    if isinstance(m, int):
        return field.from_int(m)
    return tuple(_ints(field, x) for x in m)


def _combination(field, coeffs, mats):
    """sum_k coeffs[k] * mats[k], for matrices of one shape."""
    return tuple(
        tuple(_dot(field, coeffs, entries) for entries in zip(*rows)) for rows in zip(*mats)
    )


def _kron(field, x, y):
    """Kronecker product x (x) y, in the index order of the module docstring."""
    return tuple(tuple(field.mul(a, b) for a in xr for b in yr) for xr in x for yr in y)


def _nullity(field, columns):
    """Dimension of {u : sum_k u[k] * columns[k] = 0} for matrices of one
    shape; entry (r, s) of a matrix with w columns is equation r * w + s."""
    entries = {
        (i, k): v
        for k, m in enumerate(columns)
        for i, v in enumerate(chain.from_iterable(m))
        if not field.is_zero(v)
    }
    nrows = len(columns[0]) * len(columns[0][0])
    return len(columns) - echelon(SparseMatrix(nrows, len(columns), field, entries)).rank


def mat2_mul(field, x, y):
    """The product x y of dense matrices, each a tuple of rows, of any shapes
    m x k and k x n."""
    cols = tuple(zip(*y))
    return tuple(tuple(_dot(field, row, col) for col in cols) for row in x)


def killing(a, b, field):
    """tr(ab) for sl2 coordinate vectors a, b over (e, h, f)."""
    return _dot(field, a, [_dot(field, row, b) for row in _ints(field, GRAM)])


def sl2_to_matrix(field, coords):
    """Coordinates over (e,h,f) to a 2x2 matrix."""
    return _combination(field, coords, _ints(field, SL2_MATRICES))


def matrix_to_sl2(field, m):
    """2x2 traceless matrix to (e,h,f) coordinates."""
    f = field
    if not f.is_zero(f.add(m[0][0], m[1][1])):
        raise EngineError("matrix is not traceless")
    return (m[0][1], m[0][0], m[1][0])


class PsiTensor:
    """3x3 coefficient array over (e,h,f) tensor (e,h,f)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(tuple(row) for row in coeffs)
        if len(self.coeffs) != 3 or any(len(r) != 3 for r in self.coeffs):
            raise EngineError("psi tensor must be 3x3")

    @classmethod
    def zero(cls, field):
        z = field.zero()
        return cls(field, [[z] * 3 for _ in range(3)])

    @classmethod
    def from_int_array(cls, field, arr):
        return cls(field, [[field.from_int(v) for v in row] for row in arr])

    def is_zero(self):
        return all(self.field.is_zero(c) for row in self.coeffs for c in row)

    def __eq__(self, other):
        return (
            isinstance(other, PsiTensor)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"PsiTensor({format_psi(self)!r})"


_PSI_TOKEN = re.compile(r"([ehf])([ehf]):(-?[0-9]+(?:/[1-9][0-9]*)?)$")


def parse_psi(text: str, field) -> PsiTensor:
    """Parse comma-separated g1g2:coeff tokens, e.g. ``ee:2,ff:2,hh:1``."""
    psi = [[field.zero() for _ in range(3)] for _ in range(3)]
    text = text.strip()
    if text in ("", "0"):
        return PsiTensor(field, psi)
    for token in text.split(","):
        token = token.strip()
        m = _PSI_TOKEN.match(token)
        if not m:
            raise ParseError(f"bad psi token {token!r}")
        i = BASIS_NAMES.index(m.group(1))
        j = BASIS_NAMES.index(m.group(2))
        psi[i][j] = field.add(psi[i][j], field.parse_scalar(m.group(3)))
    return PsiTensor(field, psi)


def format_psi(psi: PsiTensor) -> str:
    f = psi.field
    bits = []
    for i in range(3):
        for j in range(3):
            c = psi.coeffs[i][j]
            if not f.is_zero(c):
                bits.append(f"{BASIS_NAMES[i]}{BASIS_NAMES[j]}:{f.format_scalar(c)}")
    return ",".join(bits) if bits else "0"


def contract(psi: PsiTensor, v, side: str):
    """Killing contraction: side 'left' is v -| psi (against the first factor),
    side 'right' is psi |- v (against the second factor)."""
    f = psi.field
    A = psi.coeffs
    gv = [_dot(f, row, v) for row in _ints(f, GRAM)]
    if side == "left":
        # sum_ij psi_ij k(v, g_i) g_j  =  A^T G v
        return tuple(_dot(f, col, gv) for col in zip(*A))
    if side == "right":
        # sum_ij psi_ij g_i k(g_j, v)  =  A G v
        return tuple(_dot(f, row, gv) for row in A)
    raise EngineError("side must be 'left' or 'right'")


def psi_dagger_psi(psi: PsiTensor):
    """Matrix of v -> (psi |- (v -| psi)) over the (e,h,f) basis."""
    f = psi.field
    G = _ints(f, GRAM)
    A = psi.coeffs
    return mat2_mul(f, mat2_mul(f, A, G), mat2_mul(f, tuple(zip(*A)), G))


def jj_dim(psi: PsiTensor) -> int:
    """Dimension of the eigenvalue-4 eigenspace of psi_dagger_psi."""
    f = psi.field
    eye3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    shifted = _combination(
        f, (f.one(), f.from_int(-4)), (psi_dagger_psi(psi), _ints(f, eye3))
    )
    return _nullity(f, [(col,) for col in zip(*shifted)])


def psi_kronecker(psi: PsiTensor):
    """The action of psi on the 4-dim tensor square of the arrow space."""
    f = psi.field
    basis = _ints(f, SL2_MATRICES)
    return _combination(
        f, list(chain.from_iterable(psi.coeffs)), [_kron(f, x, y) for x in basis for y in basis]
    )


def stab_dim(psi: PsiTensor) -> int:
    """Dimension of the solution space of [u2 x 1 + 1 x u1, psi] = 0."""
    f = psi.field
    K = psi_kronecker(psi)
    eye = _ints(f, EYE2)
    basis = _ints(f, SL2_MATRICES)
    # unknowns: u2 over (e,h,f), then u1 over (e,h,f); column [T, K] = TK - KT
    columns = []
    for T in [_kron(f, u, eye) for u in basis] + [_kron(f, eye, u) for u in basis]:
        TK, KT = mat2_mul(f, T, K), mat2_mul(f, K, T)
        columns.append(tuple(tuple(map(f.sub, r, s)) for r, s in zip(TK, KT)))
    return _nullity(f, columns)


class KernelModelReport:
    """Solution dimensions of the restricted degree-1 cocycle model."""

    __slots__ = ("total", "stab", "jj")

    def __init__(self, total, stab, jj):
        self.total = total
        self.stab = stab
        self.jj = jj

    def __repr__(self):
        return f"KernelModelReport(total={self.total}, stab={self.stab}, jj={self.jj})"


def kernel_model_dims(psi: PsiTensor) -> KernelModelReport:
    """Solve (1+psi)(f2 x 1 + 1 x f3) = (f4 x 1 + 1 x f1)(1+psi) on the
    13-dimensional space c(1,0,0,0) + sl2^4, and check the split count."""
    f = psi.field
    eye = _ints(f, EYE2)
    P = _combination(f, (f.one(), f.one()), (psi_kronecker(psi), _kron(f, eye, eye)))
    basis = _ints(f, SL2_MATRICES)
    # one matrix per unknown, c then f1..f4, each up to a sign the nullity
    # ignores; c sits in the f1 slot as c * identity
    columns = (
        [P]
        + [mat2_mul(f, _kron(f, eye, u), P) for u in basis]
        + [mat2_mul(f, P, _kron(f, u, eye)) for u in basis]
        + [mat2_mul(f, P, _kron(f, eye, u)) for u in basis]
        + [mat2_mul(f, _kron(f, u, eye), P) for u in basis]
    )
    total = _nullity(f, columns)
    stab = stab_dim(psi)
    jj = jj_dim(psi)
    if total != stab + jj:
        raise ConsistencyError(
            f"kernel model dim {total} != stab {stab} + eigenspace {jj}"
        )
    return KernelModelReport(total, stab, jj)


def adjoint_matrix(field, g):
    """Matrix of Ad(g): x -> g x g^-1 on sl2 over (e,h,f); g unimodular 2x2."""
    f = field
    det = f.sub(f.mul(g[0][0], g[1][1]), f.mul(g[0][1], g[1][0]))
    if det != f.one():
        raise EngineError("matrix is not unimodular")
    ginv = ((g[1][1], f.neg(g[0][1])), (f.neg(g[1][0]), g[0][0]))
    cols = [matrix_to_sl2(f, mat2_mul(f, mat2_mul(f, g, u), ginv)) for u in _ints(f, SL2_MATRICES)]
    return tuple(zip(*cols))


def orbit_conjugate(psi: PsiTensor, g, h) -> PsiTensor:
    """Apply Ad(g) x Ad(h) to the deformation tensor; g, h unimodular."""
    f = psi.field
    Mg = adjoint_matrix(f, g)
    Mh = adjoint_matrix(f, h)
    return PsiTensor(f, mat2_mul(f, Mg, mat2_mul(f, psi.coeffs, tuple(zip(*Mh)))))
