"""Hochschild cochain complexes for bound quiver algebras.

Two complexes are built from a quotient algebra A with vertex subalgebra E:

* the reduced E-relative bar complex, C^n = E-bimodule maps from n-fold
  composable tensors of radical basis paths to A, with the standard
  differential; cup products and Gerstenhaber brackets live here;
* the three-term small complex (parallel pairs basis || irreducible path)
  available for quadratic confluent systems on quivers without length-3
  paths, used as an independent cross-check of (h0, h1, h2).

Cochain vectors are sparse dicts over one block layout shared by both
complexes: a block per tuple (per vertex, arrow or rule in the small complex)
holds one coordinate per basis path parallel to it, in basis order, so value b
of the block starting at offset o sits at o + algebra.slot[b].  All cohomology
coordinates are canonical: cocycles are reduced against the coboundary image
in echelon form.

Products read only their operands' nonzero blocks, decoded into
{tuple: {value: coeff}}: the cup product joins each block of f to each block
of g that ends where it starts, and the circle product puts a block of g in
place of each entry of a block of f that is one of g's values on it.  Their
cost follows the operands' nonzero coordinates, not the target degree's size.
A class keeps its decoded blocks, so ``cup`` and ``bracket`` decode each
operand class once however many products it enters.
"""

from __future__ import annotations

from bisect import bisect_right

from .errors import ConsistencyError, EngineError
from .linalg import SparseMatrix, column_space, combine, echelon, rref, vec_add, vec_iadd
from .quiver import Path
from .rewrite import QuotientAlgebra, quotient_algebra


class SmallComplexUnavailable(EngineError):
    """The presentation is outside the small complex's scope."""


class CohomologyClass:
    """A cohomology class with a canonical cocycle representative.

    ``vector`` is the canonical representative: the cocycle reduced against
    the echelon basis of the coboundary image.  It is zero iff the class is.
    """

    __slots__ = ("degree", "vector", "complex", "_blocks")

    def __init__(self, degree, vector, complex_):
        self.degree = degree
        self.vector = vector
        self.complex = complex_
        self._blocks = None

    def is_zero(self):
        return not self.vector

    def blocks(self):
        """The representative as {tuple: {value: coeff}}, decoded on first use."""
        if self._blocks is None:
            self._blocks = self.complex._blocks(self.vector, self.degree)
        return self._blocks

    def __repr__(self):
        return f"CohomologyClass(degree {self.degree}, {len(self.vector)} terms)"


def block_offsets(algebra: QuotientAlgebra, ends):
    """Start of each block in a cochain vector, plus the total length.

    Block k holds one coordinate per basis path parallel to ends[k], a
    (source, target) pair, so value b of block k sits at
    ``offsets[k] + algebra.slot[b]``."""
    offsets = [0]
    for source, target in ends:
        offsets.append(offsets[-1] + len(algebra.parallel(source, target)))
    return offsets


class RelativeBarComplex:
    """Reduced bar complex of A relative to the span of vertex idempotents.

    ``tuples[n]`` lists the composable n-tuples of radical basis indices in
    sorted order, the first entry acting last; ``tuples[0]`` is the vertex
    list.  A degree-n cochain vector is a block per tuple: the block of
    ``tuples[n][ti]`` starts at ``offset[n][ti]`` and holds one coordinate per
    basis path parallel to the tuple, in basis order, so the value b on that
    tuple sits at ``offset[n][ti] + algebra.slot[b]``.
    """

    def __init__(self, algebra: QuotientAlgebra, nmax: int):
        if nmax < 0:
            raise EngineError("nmax must be nonnegative")
        self.algebra = algebra
        self.field = algebra.field
        self.nmax = nmax
        A = algebra

        self.tuples = {0: list(range(A.quiver.n_vertices))}
        self.tuples[1] = [(i,) for i in A.radical]
        for n in range(2, nmax + 2):
            # extend each tuple on the left by every x that acts after it;
            # both loops run in sorted order, so the output is sorted
            by_target = {}
            for t in self.tuples[n - 1]:
                by_target.setdefault(A.target(t[0]), []).append(t)
            self.tuples[n] = [
                (x,) + t for x in A.radical for t in by_target.get(A.source(x), ())
            ]

        self.tuple_index = {
            n: {t: k for k, t in enumerate(self.tuples[n])} for n in self.tuples
        }
        self.offset = {
            n: block_offsets(A, (self._ends(n, t) for t in tuples))
            for n, tuples in self.tuples.items()
        }

        self._diff = {}
        self._ech = {}
        self._image = {}
        self._classes = {}

    def _ends(self, n, t):
        """(source, target) of a degree-n tuple; a vertex when n = 0."""
        if n == 0:
            return t, t
        A = self.algebra
        return A.source(t[-1]), A.target(t[0])

    def _segment(self, seglen, t, pos):
        """Block offset and values of the cochain coordinates on the segment
        t[pos : pos + seglen] of a tuple t.  Degree 0 reads the vertex at pos:
        the target of t[pos], or the source of the last entry when pos is the
        end of t."""
        if seglen:
            seg = t[pos : pos + seglen]
        elif pos < len(t):
            seg = self.algebra.target(t[pos])
        else:
            seg = self.algebra.source(t[-1])
        off = self.offset[seglen][self.tuple_index[seglen][seg]]
        return off, self.algebra.parallel(*self._ends(seglen, seg))

    def _blocks(self, vec, n):
        """A degree-n cochain as {tuple: {value: coeff}}, over the blocks it has entries in."""
        offsets, tuples = self.offset[n], self.tuples[n]
        out = {}
        start = end = 0
        # in sorted order a block's keys are contiguous: look its values up once
        for k in sorted(vec):
            if not start <= k < end:
                if not 0 <= k < offsets[-1]:
                    raise EngineError(f"coordinate {k} outside C^{n}")
                ti = bisect_right(offsets, k) - 1
                start, end = offsets[ti], offsets[ti + 1]
                values = self.algebra.parallel(*self._ends(n, tuples[ti]))
                block = out[tuples[ti]] = {}
            block[values[k - start]] = vec[k]
        return out

    def _vector(self, blocks, n):
        """The degree-n cochain vector of {tuple: {value: coeff}}."""
        slot, offsets, index = self.algebra.slot, self.offset[n], self.tuple_index[n]
        return {
            offsets[index[t]] + slot[b]: c for t, vals in blocks.items() for b, c in vals.items()
        }

    def dim(self, n):
        return self.offset[n][-1] if n in self.offset else 0

    def top_degree_complete(self):
        """True when C^{nmax+1} vanishes, so all h^n up to nmax are final."""
        return self.dim(self.nmax + 1) == 0

    def differential(self, n) -> SparseMatrix:
        """Matrix of d: C^n -> C^{n+1}; rows C^{n+1}, columns C^n."""
        if n in self._diff:
            return self._diff[n]
        if n > self.nmax:
            raise EngineError(f"differential {n} beyond computed window {self.nmax}")
        A = self.algebra
        slot = A.slot
        f = self.field
        m = SparseMatrix(self.dim(n + 1), self.dim(n), f)
        minus_one = f.from_int(-1)
        for ti, t in enumerate(self.tuples[n + 1]):
            row = self.offset[n + 1][ti]
            # leftmost face: x1 * f(x2..x_{n+1})
            col, values = self._segment(n, t, 1)
            for j, b in enumerate(values):
                for k, c in A.mul_basis(t[0], b).items():
                    m.add(row + slot[k], col + j, c)
            # inner faces: (-1)^i f(.., x_i x_{i+1}, ..); u is parallel to t,
            # so its block lines up with t's own
            width = self.offset[n + 1][ti + 1] - row
            for i in range(n):
                s = minus_one if i % 2 == 0 else f.one()
                for k, c in A.mul_basis(t[i], t[i + 1]).items():
                    if A.basis[k].is_trivial():
                        continue
                    col = self.offset[n][self.tuple_index[n][t[:i] + (k,) + t[i + 2 :]]]
                    sc = f.mul(s, c)
                    for j in range(width):
                        m.add(row + j, col + j, sc)
            # rightmost face: (-1)^{n+1} f(x1..xn) * x_{n+1}
            s = minus_one if (n + 1) % 2 == 1 else f.one()
            col, values = self._segment(n, t, 0)
            for j, b in enumerate(values):
                for k, c in A.mul_basis(b, t[-1]).items():
                    m.add(row + slot[k], col + j, f.mul(s, c))
        self._diff[n] = m
        return m

    def _echelon(self, n):
        if n not in self._ech:
            self._ech[n] = echelon(self.differential(n))
        return self._ech[n]

    def coboundaries(self, n):
        """Image of d^{n-1} inside C^n, in echelon form."""
        if n not in self._image:
            if n == 0 or self.dim(n - 1) == 0:
                self._image[n] = rref(self.field, [], self.dim(n))
            else:
                self._image[n] = column_space(self.differential(n - 1))
        return self._image[n]

    def rank(self, n):
        if self.dim(n) == 0 or self.dim(n + 1) == 0:
            return 0
        return self._echelon(n).rank

    def hh_dim(self, n):
        if n > self.nmax:
            raise EngineError(f"degree {n} beyond computed window")
        ker = self.dim(n) - self.rank(n)
        im = self.rank(n - 1) if n >= 1 else 0
        return ker - im

    def canonical(self, vec, n):
        """Canonical coordinates of a cocycle modulo coboundaries."""
        return self.coboundaries(n).reduce(vec)

    def is_cocycle(self, vec, n) -> bool:
        return not self.differential(n).apply(vec)

    def classes(self, n):
        """Basis of HH^n as canonical cocycle representatives."""
        if n > self.nmax:
            raise EngineError(f"degree {n} beyond computed window")
        if n not in self._classes:
            basis = []
            if self.dim(n):
                image = self.coboundaries(n)
                residues = [image.reduce(v) for v in self._echelon(n).kernel.rows]
                basis = rref(self.field, [r for r in residues if r], self.dim(n)).rows
            # keep the vectors only: a class refers back to this complex, and
            # the cycle would leave the complex to the cyclic garbage collector
            self._classes[n] = basis
        return [CohomologyClass(n, row, self) for row in self._classes[n]]

    # --- cochain-level products -------------------------------------------

    def cup_cochain(self, fvec, p, gvec, q):
        """(f cup g)(x1..x_{p+q}) = f(x1..xp) * g(x_{p+1}..x_{p+q})."""
        return self._cup(self._blocks(fvec, p), p, self._blocks(gvec, q), q)

    def _cup(self, fblocks, p, gblocks, q):
        """``cup_cochain`` on decoded operands."""
        n = p + q
        if n > self.nmax + 1:
            raise EngineError("cup lands beyond the computed window")
        by_target = {}
        for tg, gvals in gblocks.items():
            by_target.setdefault(self._ends(q, tg)[1], []).append((tg, gvals))
        out = {}
        for tf, fvals in fblocks.items():
            for tg, gvals in by_target.get(self._ends(p, tf)[0], ()):
                # a degree-0 operand is a vertex, the unit of the join
                t = tf if q == 0 else tg if p == 0 else tf + tg
                out[t] = self.algebra.mul_vec(fvals, gvals)
        return self._vector(out, n)

    def circle_cochain(self, fvec, p, gvec, q):
        """Gerstenhaber pre-Lie circle product of cochains of degrees p, q >= 1:
        (f o g)(x1..xn) = sum_i (-1)^((q-1)i) f(x1..xi, g(x_{i+1}..x_{i+q}), ..)."""
        return self._circle(self._blocks(fvec, p), p, self._blocks(gvec, q), q)

    def _circle(self, fblocks, p, gblocks, q):
        """``circle_cochain`` on decoded operands."""
        if p < 1 or q < 1:
            raise EngineError("circle product needs positive degrees")
        f = self.field
        n = p + q - 1
        if n > self.nmax + 1:
            raise EngineError("circle product lands beyond the computed window")
        minus_one = f.from_int(-1)
        signs = [f.one() if ((q - 1) * i) % 2 == 0 else minus_one for i in range(p)]
        # f's blocks by (position, entry); entries are radical indices, so a
        # trivial value of g matches none
        by_entry = {}
        for u, fvals in fblocks.items():
            for i, x in enumerate(u):
                by_entry.setdefault((i, x), []).append((u, fvals))
        out = {}
        for tg, gvals in gblocks.items():
            for w, cw in gvals.items():
                for i, s in enumerate(signs):
                    # w is parallel to tg, so putting tg in its place gives a tuple
                    for u, fvals in by_entry.get((i, w), ()):
                        t = u[:i] + tg + u[i + 1 :]
                        vec_iadd(f, out.setdefault(t, {}), fvals, f.mul(s, cw))
        return self._vector(out, n)

    def cup(self, fc: CohomologyClass, gc: CohomologyClass) -> CohomologyClass:
        if fc.complex is not self or gc.complex is not self:
            raise EngineError("classes belong to a different complex")
        n = fc.degree + gc.degree
        vec = self._cup(fc.blocks(), fc.degree, gc.blocks(), gc.degree)
        return CohomologyClass(n, self.canonical(vec, n), self)

    def bracket(self, fc: CohomologyClass, gc: CohomologyClass) -> CohomologyClass:
        if fc.complex is not self or gc.complex is not self:
            raise EngineError("classes belong to a different complex")
        p, q = fc.degree, gc.degree
        fg = self._circle(fc.blocks(), p, gc.blocks(), q)
        gf = self._circle(gc.blocks(), q, fc.blocks(), p)
        f = self.field
        sign = f.one() if ((p - 1) * (q - 1)) % 2 == 0 else f.from_int(-1)
        vec = vec_add(f, fg, gf, f.neg(sign))
        n = p + q - 1
        return CohomologyClass(n, self.canonical(vec, n), self)


class SmallComplex:
    """Three-term complex on parallel pairs, for quadratic systems on quivers
    without length-3 paths."""

    def __init__(self, algebra: QuotientAlgebra):
        A = algebra
        quiver = A.quiver
        longest = quiver.longest_path_length()
        if longest is None or longest > 2:
            raise SmallComplexUnavailable("quiver has paths of length 3")
        rules = A.system.rules
        for r in rules:
            if r.leading.length != 2:
                raise SmallComplexUnavailable("reduction system is not quadratic")
        self.algebra = A
        self.field = A.field

        # cochain blocks: one per vertex, per arrow and per rule, each holding
        # the basis paths parallel to it (see block_offsets)
        arrow_ends = list(zip(quiver.arrow_source, quiver.arrow_target))
        self.offset = (
            block_offsets(A, ((v, v) for v in range(quiver.n_vertices))),
            block_offsets(A, arrow_ends),
            block_offsets(A, ((r.leading.source, r.leading.target) for r in rules)),
        )
        off0, off1, off2 = self.offset
        slot = A.slot
        arrow_basis = [A.index[Path(quiver, s, (a,))] for a, (s, _) in enumerate(arrow_ends)]

        f = A.field
        dim0, dim1, dim2 = self.term_dims
        d0 = SparseMatrix(dim1, dim0, f)
        for v in range(quiver.n_vertices):
            for j, b0 in enumerate(A.parallel(v, v)):
                col = off0[v] + j
                for a, (source, target) in enumerate(arrow_ends):
                    if source == v:
                        for k, c in A.mul_basis(arrow_basis[a], b0).items():
                            d0.add(off1[a] + slot[k], col, c)
                    if target == v:
                        for k, c in A.mul_basis(b0, arrow_basis[a]).items():
                            d0.add(off1[a] + slot[k], col, f.neg(c))
        self.d0 = d0

        # relation element of rule k: leading - rest
        d1 = SparseMatrix(dim2, dim1, f)
        for k, rule in enumerate(rules):
            row = off2[k]
            words = [(rule.leading, f.one())] + [
                (s, f.neg(c)) for s, c in rule.rest.sorted_terms()
            ]
            for word, cw in words:
                a_first, a_second = word.arrows
                mid = quiver.arrow_target[a_first]
                # substitute into the later arrow: f(a2) * a1
                for j, b in enumerate(A.parallel(mid, word.target)):
                    for kk, c in A.mul_basis(b, arrow_basis[a_first]).items():
                        d1.add(row + slot[kk], off1[a_second] + j, f.mul(cw, c))
                # substitute into the earlier arrow: a2 * f(a1)
                for j, b in enumerate(A.parallel(word.start, mid)):
                    for kk, c in A.mul_basis(arrow_basis[a_second], b).items():
                        d1.add(row + slot[kk], off1[a_first] + j, f.mul(cw, c))
        self.d1 = d1
        self._r0 = None
        self._r1 = None

    @property
    def term_dims(self):
        return tuple(off[-1] for off in self.offset)

    def _ranks(self):
        if self._r0 is None:
            dim0, dim1, dim2 = self.term_dims
            self._r0 = echelon(self.d0).rank if dim0 and dim1 else 0
            self._r1 = echelon(self.d1).rank if dim1 and dim2 else 0
        return self._r0, self._r1

    def hh_dims(self):
        r0, r1 = self._ranks()
        dim0, dim1, dim2 = self.term_dims
        return (dim0 - r0, dim1 - r1 - r0, dim2 - r1)

    def euler(self):
        d = self.term_dims
        return d[0] - d[1] + d[2]


class HHReport:
    """Dimension report for one presentation."""

    def __init__(self, dims, bar_dims, small_dims, small_hh, euler, complete):
        self.dims = tuple(dims)
        self.bar_dims = tuple(bar_dims)
        self.small_dims = tuple(small_dims) if small_dims is not None else None
        self.small_hh = tuple(small_hh) if small_hh is not None else None
        self.euler = euler
        self.complete = complete

    def __repr__(self):
        return f"HHReport(dims={self.dims}, euler={self.euler})"


class HochschildCohomology:
    """Shared engine: quotient algebra, bar complex, optional small complex."""

    def __init__(self, presentation, nmax=3, trace=None):
        """``trace`` receives one line per ambiguity that completion checks."""
        self.presentation = presentation
        self.nmax = nmax
        self.algebra = quotient_algebra(presentation, trace=trace)
        self.bar = RelativeBarComplex(self.algebra, nmax)
        try:
            self.small = SmallComplex(self.algebra)
        except SmallComplexUnavailable:
            self.small = None

    def report(self) -> HHReport:
        bar = self.bar
        dims = [bar.hh_dim(n) for n in range(self.nmax + 1)]
        bar_dims = [bar.dim(n) for n in range(self.nmax + 2)]
        small_dims = small_hh = None
        if self.small is not None:
            small_dims = self.small.term_dims
            small_hh = self.small.hh_dims()
            upto = min(3, self.nmax + 1)
            if tuple(small_hh[:upto]) != tuple(dims[:upto]):
                raise ConsistencyError(
                    f"small complex {small_hh} disagrees with bar complex {tuple(dims[:3])}"
                )
        complete = bar.top_degree_complete()
        euler = None
        if complete:
            euler = sum((-1) ** n * bar.dim(n) for n in range(self.nmax + 2))
            euler_h = sum((-1) ** n * d for n, d in enumerate(dims))
            if euler != euler_h:
                raise ConsistencyError("Euler characteristic mismatch")
        return HHReport(dims, bar_dims, small_dims, small_hh, euler, complete)

    def classes(self, n):
        return self.bar.classes(n)

    def cup_rank(self):
        """Rank of the pairing HH^1 x HH^1 -> HH^2, and whether it is nonzero."""
        ones = self.classes(1)
        prods = []
        for fc in ones:
            for gc in ones:
                prods.append(self.bar.cup(fc, gc).vector)
        span = rref(self.bar.field, [p for p in prods if p], self.bar.dim(2))
        return span.dim, span.dim > 0

    def bracket_rank(self):
        """Rank of the span of all [f, g] for f, g in an HH^1 basis."""
        ones = self.classes(1)
        brs = []
        for i, fc in enumerate(ones):
            for gc in ones[i + 1 :]:
                brs.append(self.bar.bracket(fc, gc).vector)
        span = rref(self.bar.field, [b for b in brs if b], self.bar.dim(1))
        return span.dim


def d_squared_zero(bar) -> bool:
    """True when d^{n+1} d^n = 0 for every n < nmax, checked column by column."""
    for n in range(bar.nmax):
        later = bar.differential(n + 1).columns()
        for col in bar.differential(n).columns().values():
            if combine(bar.field, later, col):
                return False
    return True


def hh_report(presentation, nmax=3) -> HHReport:
    return HochschildCohomology(presentation, nmax).report()


def hh_classes(presentation, n, nmax=None):
    eng = HochschildCohomology(presentation, max(3 if nmax is None else nmax, n))
    return eng.classes(n)


def build_small_complex(presentation) -> SmallComplex:
    return SmallComplex(quotient_algebra(presentation))
