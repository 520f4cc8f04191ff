"""Exact sparse linear algebra over the field contract.

Vectors are dicts {column: nonzero scalar}: a sparse vector never stores a
zero.  ``vec_iadd`` is the one place that adds into a sparse vector, so it is
the one place that maintains the invariant; ``SubspaceBasis.reduce`` and
``rref`` drop zeros from the vectors they are given.

Elimination is ordered for low fill-in, not by the input order: ``rref``
takes its vectors by leading column, largest first, and only top-reduces each
one (clears its leading entry against the row already pivoted there, until it
reaches a new pivot).  One back-substitution from the largest pivot down then
clears every other pivot out of each row; the rows it subtracts are already
final when it reaches a row.  The reduced row echelon form of a subspace is
unique, so the order changes the cost and not the output: every basis, class
and report is the one plain Gauss-Jordan elimination gives.  Over the
rationals Fraction keeps every entry reduced, which bounds coefficient growth
at the sizes this engine meets.
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
        self._row_at = dict(zip(self.pivots, self.rows))

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, v: dict) -> dict:
        """Canonical representative of v modulo this subspace.

        Relies on the basis being reduced (0 at every pivot but its own):
        subtracting the row of pivot p clears p and leaves v's coefficient at
        every other pivot as it was.  So v's own pivot keys are each visited
        once, in sorted order, and the same multiples are subtracted as by a
        walk over every row."""
        f = self.field
        out = _entry_vector(f, v, self.ambient)
        row_at = self._row_at
        for piv in sorted(k for k in out if k in row_at):
            vec_iadd(f, out, row_at[piv], f.neg(out[piv]))
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
    """Reduced row echelon form of a list of dict-vectors.

    The vectors are copied one at a time, taken by leading column, largest
    first.  Each is top-reduced against the rows pivoted so far until its
    leading column is a new pivot, where it is scaled to 1.  Back-substitution
    then runs once, from the largest pivot down, and makes the basis reduced:
    the row of pivot p gets 0 at every other pivot.  Those pivots are all
    larger than p, and their rows are already reduced when p is reached, so
    subtracting one of them clears its pivot and adds entries at non-pivot
    columns only."""
    rows = {}
    for v in sorted((v for v in vectors if v), key=min, reverse=True):
        v = _entry_vector(field, v, ambient)
        while v:
            piv = min(v)
            row = rows.get(piv)
            if row is None:
                rows[piv] = vec_scale(field, v, field.inv(v[piv]))
                break
            vec_iadd(field, v, row, field.neg(v[piv]))
    pivots = sorted(rows)
    for piv in reversed(pivots):
        row = rows[piv]
        later = [k for k in row if k != piv and k in rows]
        if later:
            rows[piv] = out = dict(row)
            for k in later:
                vec_iadd(field, out, rows[k], field.neg(row[k]))
    return SubspaceBasis(ambient, field, [rows[p] for p in pivots], pivots)


class EchelonResult:
    __slots__ = ("rank", "row_space", "kernel")

    def __init__(self, rank, row_space, kernel):
        self.rank = rank
        self.row_space = row_space
        self.kernel = kernel


def echelon(m: SparseMatrix) -> EchelonResult:
    """Exact rank, RREF row-space basis, and kernel basis of m.

    The kernel has one vector per free column c: 1 at c and minus the entries
    of column c at the row-space pivots, read in one pass over the rows.  It
    is reduced on the free columns (1 at its own, 0 at every other), which
    serve as its pivots."""
    f = m.field
    row_space = rref(f, m.rows(), m.ncols)
    pivset = set(row_space.pivots)
    kernel = {c: {c: f.one()} for c in range(m.ncols) if c not in pivset}
    # every entry of a reduced row off its pivot sits in a free column
    for row, piv in zip(row_space.rows, row_space.pivots):
        for c, x in row.items():
            if c != piv:
                kernel[c][piv] = f.neg(x)
    return EchelonResult(
        row_space.dim, row_space, SubspaceBasis(m.ncols, f, kernel.values(), kernel)
    )


def column_space(m: SparseMatrix) -> SubspaceBasis:
    """Image of the map v -> m v, as a subspace of k^nrows."""
    return rref(m.field, m.transpose().rows(), m.nrows)
