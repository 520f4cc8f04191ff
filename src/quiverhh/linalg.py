"""Exact sparse linear algebra over the field contract.

Vectors are dicts {column: nonzero scalar}: a sparse vector never stores a
zero.  ``vec_iadd`` is the one place that adds into a sparse vector, so it is
the one place that maintains the invariant; ``SubspaceBasis.reduce`` and
``rref`` drop zeros from the vectors they are given.  Elimination is plain
Gauss-Jordan with unit pivots; over the rationals Fraction keeps every entry
reduced, which bounds coefficient growth at the sizes this engine meets.
"""

from __future__ import annotations

from .errors import EngineError


def vec_iadd(field, out: dict, v: dict, c=None):
    """out += c*v in place (c defaults to 1), storing no zero; returns out."""
    for k, x in v.items():
        if c is not None:
            x = field.mul(c, x)
        cur = out.get(k)
        if cur is not None:
            x = field.add(cur, x)
        if field.is_zero(x):
            out.pop(k, None)
        else:
            out[k] = x
    return out


def vec_add(field, u: dict, v: dict, c=None):
    """u + c*v (c defaults to 1)."""
    return vec_iadd(field, dict(u), v, c)


def vec_scale(field, u: dict, c):
    if field.is_zero(c):
        return {}
    return {k: field.mul(c, x) for k, x in u.items()}


class SparseMatrix:
    def __init__(self, nrows: int, ncols: int, field, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.field = field
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                self.add(r, c, v)

    def add(self, r, c, v):
        if not (0 <= r < self.nrows and 0 <= c < self.ncols):
            raise EngineError("matrix index out of range")
        vec_iadd(self.field, self.entries, {(r, c): v})

    def rows(self):
        out = [dict() for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def columns(self):
        """Column vectors {col: {row: value}}, read straight from the entries."""
        out = {}
        for (r, c), v in self.entries.items():
            out.setdefault(c, {})[r] = v
        return out

    def transpose(self):
        m = SparseMatrix(self.ncols, self.nrows, self.field)
        m.entries = {(c, r): v for (r, c), v in self.entries.items()}
        return m

    def apply(self, v: dict) -> dict:
        """Matrix times a column vector indexed by columns."""
        return combine(self.field, self.columns(), v)

    def dump_coordinates(self) -> str:
        """`row col value` triplet text, for external verification."""
        lines = [f"{self.nrows} {self.ncols}"]
        for (r, c) in sorted(self.entries):
            lines.append(f"{r} {c} {self.field.format_scalar(self.entries[(r, c)])}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, {len(self.entries)} entries)"


class SubspaceBasis:
    """Reduced echelon basis of a subspace: row k has 1 at ``pivots[k]`` and 0
    at every other pivot.  ``rref`` pivots each row at its first nonzero
    column, which makes the basis canonical for the subspace."""

    def __init__(self, ambient: int, field, rows=(), pivots=()):
        self.ambient = ambient
        self.field = field
        self.rows = list(rows)
        self.pivots = list(pivots)

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, v: dict) -> dict:
        """Canonical representative of v modulo this subspace."""
        f = self.field
        out = _entry_vector(f, v, self.ambient)
        for row, piv in zip(self.rows, self.pivots):
            c = out.get(piv)
            if c is not None:
                vec_iadd(f, out, row, f.neg(c))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SubspaceBasis)
            and self.ambient == other.ambient
            and self.pivots == other.pivots
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"SubspaceBasis(dim {self.dim} in k^{self.ambient})"


def combine(field, vectors: dict, coeffs: dict) -> dict:
    """The sum of coeffs[k] * vectors[k]; a key missing from vectors adds 0."""
    out = {}
    for k, c in coeffs.items():
        vec_iadd(field, out, vectors.get(k, {}), c)
    return out


def _entry_vector(field, v, ambient):
    """A copy of v without stored zeros; every key must lie in [0, ambient)."""
    if v and (min(v) < 0 or max(v) >= ambient):
        raise EngineError("vector outside the ambient space")
    return vec_iadd(field, {}, v)


def rref(field, vectors, ambient):
    """Reduced row echelon form of a list of dict-vectors."""
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
                # a fresh copy keeps the kept row's hash table compact
                basis_rows[i] = vec_add(field, row, v, field.neg(c))
        basis_rows.append(v)
        pivots.append(piv)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return SubspaceBasis(
        ambient, field, [basis_rows[i] for i in order], [pivots[i] for i in order]
    )


class EchelonResult:
    __slots__ = ("rank", "row_space", "kernel")

    def __init__(self, rank, row_space, kernel):
        self.rank = rank
        self.row_space = row_space
        self.kernel = kernel


def echelon(m: SparseMatrix) -> EchelonResult:
    """Exact rank, RREF row-space basis, and kernel basis of m.

    The kernel has one vector per free column c: 1 at c and minus the entries
    of column c at the row-space pivots.  It is reduced on the free columns
    (1 at its own, 0 at every other), which serve as its pivots."""
    f = m.field
    row_space = rref(f, m.rows(), m.ncols)
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
    kernel = SubspaceBasis(m.ncols, f, kernel_vectors, free_cols)
    return EchelonResult(row_space.dim, row_space, kernel)


def column_space(m: SparseMatrix) -> SubspaceBasis:
    """Image of the map v -> m v, as a subspace of k^nrows."""
    return rref(m.field, m.transpose().rows(), m.nrows)
