"""Hochschild cochain complexes for bound quiver algebras.

Two complexes are built from a quotient algebra A with vertex subalgebra E:

* the reduced E-relative bar complex, C^n = E-bimodule maps from n-fold
  composable tensors of radical basis paths to A, with the standard
  differential; cup products and Gerstenhaber brackets live here;
* the three-term small complex (parallel pairs basis || irreducible path)
  available for quadratic confluent systems on quivers without length-3
  paths, used as an independent cross-check of (h0, h1, h2).

Cochain vectors are dicts over pair indices.  All cohomology coordinates are
canonical: cocycles are reduced against the coboundary image in echelon form.
"""

from __future__ import annotations

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

    __slots__ = ("degree", "vector", "complex")

    def __init__(self, degree, vector, complex_):
        self.degree = degree
        self.vector = vector
        self.complex = complex_

    def is_zero(self):
        return not self.vector

    def __repr__(self):
        return f"CohomologyClass(degree {self.degree}, {len(self.vector)} terms)"


class RelativeBarComplex:
    """Reduced bar complex of A relative to the span of vertex idempotents."""

    def __init__(self, algebra: QuotientAlgebra, nmax: int):
        if nmax < 0:
            raise EngineError("nmax must be nonnegative")
        self.algebra = algebra
        self.field = algebra.field
        self.nmax = nmax
        A = algebra

        # tuples[n]: composable n-tuples of radical basis indices (first entry
        # acts last); tuples[0] is the vertex list.
        self.tuples = {0: list(range(A.quiver.n_vertices))}
        rad = A.radical
        self.tuples[1] = [(i,) for i in rad]
        for n in range(2, nmax + 2):
            prev = self.tuples[n - 1]
            cur = []
            for i in rad:
                src_i = A.source(i)
                for t in prev:
                    if A.target(t[0]) == src_i:
                        cur.append((i,) + t)
            cur.sort()
            self.tuples[n] = cur

        self.tuple_index = {
            n: {t: k for k, t in enumerate(self.tuples[n])} for n in self.tuples
        }

        # pairs[n]: cochain basis (tuple index, value basis index)
        self.pairs = {}
        self.pair_index = {}
        for n in self.tuples:
            plist = []
            for ti, t in enumerate(self.tuples[n]):
                for b in self._values(n, t):
                    plist.append((ti, b))
            self.pairs[n] = plist
            self.pair_index[n] = {p: k for k, p in enumerate(plist)}

        self._diff = {}
        self._ech = {}
        self._image = {}

    def _tuple_source(self, t):
        return self.algebra.source(t[-1])

    def _tuple_target(self, t):
        return self.algebra.target(t[0])

    def _values(self, n, t):
        """Basis indices a degree-n cochain may take on t (a vertex when n = 0)."""
        ends = (t, t) if n == 0 else (self._tuple_source(t), self._tuple_target(t))
        return self.algebra.by_endpoints.get(ends, ())

    def dim(self, n):
        return len(self.pairs.get(n, ()))

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
        f = self.field
        m = SparseMatrix(self.dim(n + 1), self.dim(n), f)
        minus_one = f.from_int(-1)
        for ti, t in enumerate(self.tuples[n + 1]):
            # leftmost face: x1 * f(x2..x_{n+1})
            x1 = t[0]
            rest = t[1:]
            if n == 0:
                v = A.source(x1)
                cols = [(v, b) for b in A.parallel(v, v)]
            else:
                ri = self.tuple_index[n][rest]
                cols = [(ri, b) for b in self._values(n, rest)]
            for col_key in cols:
                col = self.pair_index[n][col_key]
                for k, c in A.mul_basis(x1, col_key[1]).items():
                    m.add(self.pair_index[n + 1][(ti, k)], col, c)
            # inner faces: (-1)^i f(.., x_i x_{i+1}, ..)
            for i in range(n):
                s = minus_one if i % 2 == 0 else f.one()
                prod = A.mul_basis(t[i], t[i + 1])
                if not prod:
                    continue
                for k, c in prod.items():
                    if A.basis[k].is_trivial():
                        continue
                    u = t[:i] + (k,) + t[i + 2 :]
                    ui = self.tuple_index[n][u]
                    sc = f.mul(s, c)
                    for b in self._values(n, u):
                        row = self.pair_index[n + 1].get((ti, b))
                        if row is not None:
                            m.add(row, self.pair_index[n][(ui, b)], sc)
            # rightmost face: (-1)^{n+1} f(x1..xn) * x_{n+1}
            s = minus_one if (n + 1) % 2 == 1 else f.one()
            xl = t[-1]
            front = t[:-1]
            if n == 0:
                v = A.target(xl)
                cols = [(v, b) for b in A.parallel(v, v)]
            else:
                fi = self.tuple_index[n][front]
                cols = [(fi, b) for b in self._values(n, front)]
            for col_key in cols:
                col = self.pair_index[n][col_key]
                for k, c in A.mul_basis(col_key[1], xl).items():
                    m.add(self.pair_index[n + 1][(ti, k)], col, f.mul(s, c))
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
        if self.dim(n) == 0:
            return []
        if self.dim(n + 1) == 0:
            kernel_rows = rref(
                self.field,
                [{i: self.field.one()} for i in range(self.dim(n))],
                self.dim(n),
            ).rows
        else:
            kernel_rows = self._echelon(n).kernel.rows
        image = self.coboundaries(n)
        residues = [image.reduce(v) for v in kernel_rows]
        basis = rref(self.field, [r for r in residues if r], self.dim(n))
        return [CohomologyClass(n, row, self) for row in basis.rows]

    # --- cochain-level products -------------------------------------------

    def eval_pairs(self, vec, n, tuple_idx):
        """Value of the cochain on one tuple, as {basis index: coeff}."""
        out = {}
        for b in self._values(n, self.tuples[n][tuple_idx]):
            c = vec.get(self.pair_index[n].get((tuple_idx, b)))
            if c is not None:
                out[b] = c
        return out

    def cup_cochain(self, fvec, p, gvec, q):
        """(f cup g)(x1..x_{p+q}) = f(x1..xp) * g(x_{p+1}..x_{p+q})."""
        n = p + q
        if n > self.nmax + 1:
            raise EngineError("cup lands beyond the computed window")
        out = {}
        for ti, t in enumerate(self.tuples[n]):
            fvals = self._segment_values(fvec, p, t, 0)
            if not fvals:
                continue
            gvals = self._segment_values(gvec, q, t, p)
            if not gvals:
                continue
            # the product is parallel to t, so every row exists and is t's own
            for k, c in self.algebra.mul_vec(fvals, gvals).items():
                out[self.pair_index[n][(ti, k)]] = c
        return out

    def _segment_values(self, vec, seglen, t, pos):
        """Cochain values on t[pos : pos + seglen].  Degree 0 reads the vertex
        where the segment sits: t itself when t is a vertex, else the target
        of t at the front and its source at the back."""
        if seglen:
            ti = self.tuple_index[seglen].get(t[pos : pos + seglen])
            if ti is None:
                return {}
        elif isinstance(t, int):
            ti = t
        else:
            ti = self._tuple_target(t) if pos == 0 else self._tuple_source(t)
        return self.eval_pairs(vec, seglen, ti)

    def circle_cochain(self, fvec, p, gvec, q):
        """Gerstenhaber pre-Lie circle product of cochains of degrees p, q >= 1."""
        if p < 1 or q < 1:
            raise EngineError("circle product needs positive degrees")
        A = self.algebra
        f = self.field
        n = p + q - 1
        if n > self.nmax + 1:
            raise EngineError("circle product lands beyond the computed window")
        minus_one = f.from_int(-1)
        out = {}
        for ti, t in enumerate(self.tuples[n]):
            vals = {}
            for i in range(p):  # insertion slot, 0-based
                window = t[i : i + q]
                wi = self.tuple_index[q].get(window)
                if wi is None:
                    continue
                gvals = self.eval_pairs(gvec, q, wi)
                if not gvals:
                    continue
                sign = f.one() if ((q - 1) * i) % 2 == 0 else minus_one
                for w, cw in gvals.items():
                    if A.basis[w].is_trivial():
                        continue
                    u = t[:i] + (w,) + t[i + q :]
                    ui = self.tuple_index[p].get(u)
                    if ui is None:
                        continue
                    fvals = self.eval_pairs(fvec, p, ui)
                    if fvals:
                        vec_iadd(f, vals, fvals, f.mul(sign, cw))
            # u is parallel to t, so every row exists and is t's own
            for v, c in vals.items():
                out[self.pair_index[n][(ti, v)]] = c
        return out

    def cup(self, fc: CohomologyClass, gc: CohomologyClass) -> CohomologyClass:
        if fc.complex is not self or gc.complex is not self:
            raise EngineError("classes belong to a different complex")
        n = fc.degree + gc.degree
        vec = self.cup_cochain(fc.vector, fc.degree, gc.vector, gc.degree)
        return CohomologyClass(n, self.canonical(vec, n), self)

    def bracket(self, fc: CohomologyClass, gc: CohomologyClass) -> CohomologyClass:
        if fc.complex is not self or gc.complex is not self:
            raise EngineError("classes belong to a different complex")
        p, q = fc.degree, gc.degree
        fg = self.circle_cochain(fc.vector, p, gc.vector, q)
        gf = self.circle_cochain(gc.vector, q, fc.vector, p)
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

        self.term0 = []
        for v in range(quiver.n_vertices):
            for b in A.parallel(v, v):
                self.term0.append((v, b))
        self.term1 = []
        for a in range(quiver.n_arrows):
            for b in A.parallel(quiver.arrow_source[a], quiver.arrow_target[a]):
                self.term1.append((a, b))
        self.term2 = []
        for k, r in enumerate(rules):
            for b in A.parallel(r.leading.source, r.leading.target):
                self.term2.append((k, b))
        t0 = {p: i for i, p in enumerate(self.term0)}
        t1 = {p: i for i, p in enumerate(self.term1)}
        t2 = {p: i for i, p in enumerate(self.term2)}

        f = A.field
        d0 = SparseMatrix(len(self.term1), len(self.term0), f)
        for col, (v, b0) in enumerate(self.term0):
            for a in range(quiver.n_arrows):
                arrow_basis = A.index[Path(quiver, quiver.arrow_source[a], (a,))]
                if quiver.arrow_source[a] == v:
                    for k, c in A.mul_basis(arrow_basis, b0).items():
                        d0.add(t1[(a, k)], col, c)
                if quiver.arrow_target[a] == v:
                    for k, c in A.mul_basis(b0, arrow_basis).items():
                        d0.add(t1[(a, k)], col, f.neg(c))
        self.d0 = d0

        # relation element of rule k: leading - rest
        d1 = SparseMatrix(len(self.term2), len(self.term1), f)
        for k, rule in enumerate(rules):
            words = [(rule.leading, f.one())] + [
                (s, f.neg(c)) for s, c in rule.rest.sorted_terms()
            ]
            for word, cw in words:
                a_first, a_second = word.arrows
                first_idx = A.index[Path(quiver, word.start, (a_first,))]
                mid = quiver.arrow_target[a_first]
                second_idx = A.index[Path(quiver, mid, (a_second,))]
                # substitute into the later arrow: f(a2) * a1
                for b in A.parallel(mid, word.target):
                    col = t1.get((a_second, b))
                    if col is None:
                        continue
                    for kk, c in A.mul_basis(b, first_idx).items():
                        d1.add(t2[(k, kk)], col, f.mul(cw, c))
                # substitute into the earlier arrow: a2 * f(a1)
                for b in A.parallel(word.start, mid):
                    col = t1.get((a_first, b))
                    if col is None:
                        continue
                    for kk, c in A.mul_basis(second_idx, b).items():
                        d1.add(t2[(k, kk)], col, f.mul(cw, c))
        self.d1 = d1
        self._r0 = None
        self._r1 = None

    @property
    def term_dims(self):
        return (len(self.term0), len(self.term1), len(self.term2))

    def _ranks(self):
        if self._r0 is None:
            self._r0 = echelon(self.d0).rank if self.term0 and self.term1 else 0
            self._r1 = echelon(self.d1).rank if self.term1 and self.term2 else 0
        return self._r0, self._r1

    def hh_dims(self):
        r0, r1 = self._ranks()
        h0 = len(self.term0) - r0
        h1 = (len(self.term1) - r1) - r0
        h2 = len(self.term2) - r1
        return (h0, h1, h2)

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

    def __init__(self, presentation, nmax=3, algebra=None):
        self.presentation = presentation
        self.nmax = nmax
        self.algebra = algebra if algebra is not None else quotient_algebra(presentation)
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


def build_small_complex(presentation, algebra=None) -> SmallComplex:
    if algebra is None:
        algebra = quotient_algebra(presentation)
    return SmallComplex(algebra)
