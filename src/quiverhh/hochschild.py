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
{tuple: {value: coeff}} and grouped once into three indexes (``Blocks``): by
the tuple's source end, by its target end and, in degree >= 1, by (position,
entry).  The cup product joins f's source groups with g's target groups, so
each block of f meets exactly the blocks of g that end where it starts; the
circle product puts a block of g in place of each entry of a block of f that
is one of g's values on it, found through f's (position, entry) index.  Their
cost follows the operands' nonzero coordinates, not the target degree's size.
A class keeps its indexed blocks, so ``cup`` and ``bracket`` decode and group
each operand class once however many products it enters.
"""

from __future__ import annotations

from bisect import bisect_right

from .errors import ConsistencyError, EngineError
from .linalg import SparseMatrix, column_space, combine, echelon, rref, vec_iadd
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
        """The representative's blocks, decoded and grouped on first use."""
        if self._blocks is None:
            self._blocks = self.complex._index(self.vector, self.degree)
        return self._blocks

    def __repr__(self):
        return f"CohomologyClass(degree {self.degree}, {len(self.vector)} terms)"


class Blocks:
    """A cochain's nonzero blocks, grouped for the products.

    ``items`` lists its (tuple, {value: coeff}) pairs; ``by_source`` and
    ``by_target`` group them by the tuple's source and target end, and
    ``by_entry`` by (position, entry) of the tuple's radical indices, which a
    degree-0 tuple, a vertex, does not have."""

    __slots__ = ("items", "by_source", "by_target", "by_entry")

    def __init__(self, items):
        self.items = items
        self.by_source = {}
        self.by_target = {}
        self.by_entry = {}


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

    def _index(self, vec, n):
        """A degree-n cochain as ``Blocks``: decoded by ``_blocks``, then grouped."""
        index = Blocks(list(self._blocks(vec, n).items()))
        for t, vals in index.items:
            source, target = self._ends(n, t)
            index.by_source.setdefault(source, []).append((t, vals))
            index.by_target.setdefault(target, []).append((t, vals))
            if n:
                for i, x in enumerate(t):
                    index.by_entry.setdefault((i, x), []).append((t, vals))
        return index

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
        """``echelon`` of d^n: ``rank(n)`` reads its rank, ``classes(n)`` its
        kernel, which is built only then."""
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
        return self._cup(self._index(fvec, p), p, self._index(gvec, q), q)

    def _cup(self, fi, p, gi, q):
        """``cup_cochain`` on indexed operands: f's blocks by source end meet
        g's blocks by target end."""
        n = p + q
        if n > self.nmax + 1:
            raise EngineError("cup lands beyond the computed window")
        mul = self.algebra.mul_vec
        out = {}
        for end, fpairs in fi.by_source.items():
            gpairs = gi.by_target.get(end)
            if gpairs is None:
                continue
            for tf, fvals in fpairs:
                for tg, gvals in gpairs:
                    # a degree-0 operand is a vertex, the unit of the join
                    t = tf if q == 0 else tg if p == 0 else tf + tg
                    out[t] = mul(fvals, gvals)
        return self._vector(out, n)

    def circle_cochain(self, fvec, p, gvec, q):
        """Gerstenhaber pre-Lie circle product of cochains of degrees p, q >= 1:
        (f o g)(x1..xn) = sum_i (-1)^((q-1)i) f(x1..xi, g(x_{i+1}..x_{i+q}), ..)."""
        out = {}
        self._circle(out, self._index(fvec, p), p, self._index(gvec, q), q, self.field.one())
        return self._vector(out, p + q - 1)

    def _circle(self, out, fi, p, gi, q, scale):
        """Add scale * (f o g) of indexed operands into ``out``, a degree
        p + q - 1 cochain as {tuple: {value: coeff}}."""
        if p < 1 or q < 1:
            raise EngineError("circle product needs positive degrees")
        if p + q - 1 > self.nmax + 1:
            raise EngineError("circle product lands beyond the computed window")
        f = self.field
        minus = f.neg(scale)
        signs = [scale if ((q - 1) * i) % 2 == 0 else minus for i in range(p)]
        for tg, gvals in gi.items:
            for w, cw in gvals.items():
                for i, s in enumerate(signs):
                    # entries are radical indices, so a trivial value w
                    # matches none; w is parallel to tg, so putting tg in its
                    # place gives a tuple
                    fpairs = fi.by_entry.get((i, w))
                    if fpairs is None:
                        continue
                    c = f.mul(s, cw)
                    for u, fvals in fpairs:
                        vec_iadd(f, out.setdefault(u[:i] + tg + u[i + 1 :], {}), fvals, c)

    def cup(self, fc: CohomologyClass, gc: CohomologyClass) -> CohomologyClass:
        if fc.complex is not self or gc.complex is not self:
            raise EngineError("classes belong to a different complex")
        n = fc.degree + gc.degree
        vec = self._cup(fc.blocks(), fc.degree, gc.blocks(), gc.degree)
        return CohomologyClass(n, self.canonical(vec, n), self)

    def bracket(self, fc: CohomologyClass, gc: CohomologyClass) -> CohomologyClass:
        """[f, g] = f o g - (-1)^((p-1)(q-1)) g o f, both added into one cochain."""
        if fc.complex is not self or gc.complex is not self:
            raise EngineError("classes belong to a different complex")
        p, q = fc.degree, gc.degree
        f = self.field
        sign = f.one() if ((p - 1) * (q - 1)) % 2 == 0 else f.from_int(-1)
        out = {}
        self._circle(out, fc.blocks(), p, gc.blocks(), q, f.one())
        self._circle(out, gc.blocks(), q, fc.blocks(), p, f.neg(sign))
        n = p + q - 1
        return CohomologyClass(n, self.canonical(self._vector(out, n), n), self)


class SmallComplex:
    """Three-term complex on parallel pairs, for quivers without length-3
    paths.  There every rule is quadratic: relations are homogeneous of length
    >= 2, so of length 2, and two length-2 leading words have no overlap or
    proper inclusion for completion to resolve."""

    def __init__(self, algebra: QuotientAlgebra):
        A = algebra
        quiver = A.quiver
        longest = quiver.longest_path_length()
        if longest is None or longest > 2:
            raise SmallComplexUnavailable("quiver has paths of length 3")
        rules = A.system.rules
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
        # (d0 f)(a) = a f(source) - f(target) a, one pass over the arrows
        d0 = SparseMatrix(dim1, dim0, f)
        for a, (source, target) in enumerate(arrow_ends):
            for j, b0 in enumerate(A.parallel(source, source)):
                for k, c in A.mul_basis(arrow_basis[a], b0).items():
                    d0.add(off1[a] + slot[k], off0[source] + j, c)
            for j, b0 in enumerate(A.parallel(target, target)):
                for k, c in A.mul_basis(b0, arrow_basis[a]).items():
                    d0.add(off1[a] + slot[k], off0[target] + j, f.neg(c))
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

    @property
    def small_bar_agree(self):
        """Whether both complexes give the same HH^n for n < min(3, nmax + 1),
        the degrees both compute; None without a small complex."""
        if self.small_hh is None:
            return None
        upto = min(3, len(self.dims))
        return self.small_hh[:upto] == self.dims[:upto]

    @property
    def euler_consistent(self):
        """Whether the alternating sum of the HH^n equals that of the cochain
        dimensions; None when the complex is incomplete and has no Euler
        characteristic."""
        if self.euler is None:
            return None
        return self.euler == sum((-1) ** n * d for n, d in enumerate(self.dims))

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
        complete = bar.top_degree_complete()
        euler = sum((-1) ** n * d for n, d in enumerate(bar_dims)) if complete else None
        report = HHReport(dims, bar_dims, small_dims, small_hh, euler, complete)
        if report.small_bar_agree is False:
            raise ConsistencyError(
                f"small complex {small_hh} disagrees with bar complex {tuple(dims[:3])}"
            )
        if report.euler_consistent is False:
            raise ConsistencyError("Euler characteristic mismatch")
        return report

    def classes(self, n):
        return self.bar.classes(n)

    def cup_rank(self):
        """Rank of the pairing HH^1 x HH^1 -> HH^2, and whether it is nonzero.

        The rank is that of the span of the k^2 products' canonical vectors,
        for k = dim HH^1.  Canonical reduction is linear and injective on
        HH^2, so the rank is at most dim HH^2: when HH^2 = 0 lies inside the
        window (nmax >= 2) the rank is 0 and no product is computed.  At
        nmax 1, HH^2 is outside the window and every product is."""
        bar = self.bar
        if bar.nmax >= 2 and bar.hh_dim(2) == 0:
            return 0, False
        ones = self.classes(1)
        prods = []
        for fc in ones:
            for gc in ones:
                prods.append(bar.cup(fc, gc).vector)
        span = rref(bar.field, [p for p in prods if p], bar.dim(2))
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
    """True when d^{n+1} d^n = 0 for every n < nmax, checked column by column.

    Each degree's column dict is built once: d^{n+1}'s columns are carried
    into the next degree as its own, so at most two are held at once."""
    later = bar.differential(0).columns() if bar.nmax else None
    for n in range(bar.nmax):
        cols = later
        later = bar.differential(n + 1).columns()
        for col in cols.values():
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
