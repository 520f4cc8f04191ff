"""Quivers, paths, path-algebra elements, and bound quiver presentations.

Composition is written right to left, as for functions: in ``compose(p, q)``
the path q acts first.  Internally a path stores its arrows in application
order, so the printed form ``c*b*a`` corresponds to the tuple (a, b, c).
"""

from __future__ import annotations

from .errors import EngineError
from .linalg import vec_add, vec_iadd


class Quiver:
    def __init__(self, vertices, arrows):
        """vertices: list of names; arrows: list of (name, source, target)."""
        self.vertices = list(vertices)
        self.arrows = [tuple(a) for a in arrows]
        if len(set(self.vertices)) != len(self.vertices):
            raise EngineError("duplicate vertex names")
        names = [a[0] for a in self.arrows]
        if len(set(names)) != len(names):
            raise EngineError("duplicate arrow names")
        if set(names) & set(self.vertices):
            raise EngineError("arrow names must not clash with vertex names")
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        for name, s, t in self.arrows:
            if s not in self.vertex_index or t not in self.vertex_index:
                raise EngineError(f"arrow {name}: unknown endpoint")
        self.arrow_index = {a[0]: i for i, a in enumerate(self.arrows)}
        self.arrow_source = [self.vertex_index[a[1]] for a in self.arrows]
        self.arrow_target = [self.vertex_index[a[2]] for a in self.arrows]
        self.arrows_from = [[] for _ in self.vertices]
        for i in range(len(self.arrows)):
            self.arrows_from[self.arrow_source[i]].append(i)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_arrows(self):
        return len(self.arrows)

    def is_acyclic(self) -> bool:
        indeg = [0] * self.n_vertices
        for i in range(self.n_arrows):
            indeg[self.arrow_target[i]] += 1
        stack = [v for v in range(self.n_vertices) if indeg[v] == 0]
        seen = 0
        while stack:
            v = stack.pop()
            seen += 1
            for i in self.arrows_from[v]:
                w = self.arrow_target[i]
                indeg[w] -= 1
                if indeg[w] == 0:
                    stack.append(w)
        return seen == self.n_vertices

    def longest_path_length(self):
        """Length of the longest path, or None if the quiver has a cycle."""
        if not self.is_acyclic():
            return None
        memo = {}

        def depth(v):
            if v not in memo:
                memo[v] = 0
                memo[v] = max((1 + depth(self.arrow_target[i]) for i in self.arrows_from[v]), default=0)
            return memo[v]

        return max((depth(v) for v in range(self.n_vertices)), default=0)

    def __eq__(self, other):
        return isinstance(other, Quiver) and self.vertices == other.vertices and self.arrows == other.arrows

    def __repr__(self):
        return f"Quiver({self.n_vertices} vertices, {self.n_arrows} arrows)"


class Path:
    """A path in a quiver: either trivial at a vertex or a composable arrow run.

    ``arrows`` holds arrow indices in application order (first-applied first).
    """

    __slots__ = ("quiver", "start", "arrows", "_hash")

    def __init__(self, quiver: Quiver, start: int, arrows=()):
        self.quiver = quiver
        self.start = start
        self.arrows = tuple(arrows)
        v = start
        for i in self.arrows:
            if quiver.arrow_source[i] != v:
                raise EngineError("non-composable arrow sequence")
            v = quiver.arrow_target[i]
        self._hash = hash((start, self.arrows))

    @property
    def source(self) -> int:
        return self.start

    @property
    def target(self) -> int:
        if not self.arrows:
            return self.start
        return self.quiver.arrow_target[self.arrows[-1]]

    @property
    def length(self) -> int:
        return len(self.arrows)

    def is_trivial(self) -> bool:
        return not self.arrows

    def sort_key(self):
        return (len(self.arrows), self.arrows, self.start)

    def __eq__(self, other):
        return (
            isinstance(other, Path)
            and self.start == other.start
            and self.arrows == other.arrows
            and self.quiver is other.quiver
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Path({self})"

    def __str__(self):
        if not self.arrows:
            return f"e_{self.quiver.vertices[self.start]}"
        return "*".join(self.quiver.arrows[i][0] for i in reversed(self.arrows))


def trivial_path(quiver: Quiver, vertex) -> Path:
    if isinstance(vertex, str):
        vertex = quiver.vertex_index[vertex]
    return Path(quiver, vertex)


def arrow_path(quiver: Quiver, name: str) -> Path:
    i = quiver.arrow_index[name]
    return Path(quiver, quiver.arrow_source[i], (i,))


def path_from_names(quiver: Quiver, names) -> Path:
    """Build a path from arrow names in written order (rightmost acts first)."""
    idx = [quiver.arrow_index[n] for n in reversed(names)]
    if not idx:
        raise EngineError("empty path needs a vertex")
    return Path(quiver, quiver.arrow_source[idx[0]], idx)


def compose(p: Path, q: Path) -> Path:
    """p after q: requires source(p) = target(q)."""
    if p.quiver is not q.quiver:
        raise EngineError("paths over different quivers")
    if p.source != q.target:
        raise EngineError("non-composable paths")
    return Path(p.quiver, q.start, q.arrows + p.arrows)


def enumerate_paths(quiver: Quiver, max_len: int):
    """All paths of length <= max_len, ordered by length then arrow tuple."""
    if max_len < 0:
        return []
    out = [Path(quiver, v) for v in range(quiver.n_vertices)]
    level = out[:]
    for _ in range(max_len):
        nxt = []
        for p in level:
            for i in quiver.arrows_from[p.target]:
                nxt.append(Path(quiver, p.start, p.arrows + (i,)))
        nxt.sort(key=Path.sort_key)
        out.extend(nxt)
        if not nxt:
            break
        level = nxt
    return out


class AlgebraElement:
    """Finite linear combination of paths of one quiver with field scalars."""

    __slots__ = ("quiver", "field", "terms")

    def __init__(self, quiver, field, terms=None):
        self.quiver = quiver
        self.field = field
        self.terms = {}
        if terms:
            for p, c in terms.items() if isinstance(terms, dict) else terms:
                vec_iadd(field, self.terms, {p: c})

    @classmethod
    def from_path(cls, quiver, field, path: Path, coeff=None):
        coeff = field.one() if coeff is None else coeff
        return cls(quiver, field, {path: coeff})

    @classmethod
    def zero(cls, quiver, field):
        return cls(quiver, field)

    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0].sort_key())

    def __add__(self, other):
        self._check(other)
        e = AlgebraElement(self.quiver, self.field)
        e.terms = vec_add(self.field, self.terms, other.terms)
        return e

    def __neg__(self):
        e = AlgebraElement(self.quiver, self.field)
        e.terms = {p: self.field.neg(c) for p, c in self.terms.items()}
        return e

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        f = self.field
        if f.is_zero(c):
            return AlgebraElement.zero(self.quiver, f)
        e = AlgebraElement(self.quiver, f)
        e.terms = {p: f.mul(c, v) for p, v in self.terms.items()}
        return e

    def __mul__(self, other):
        """Path-algebra product; in self * other, other acts first."""
        self._check(other)
        out = AlgebraElement.zero(self.quiver, self.field)
        for p, c in self.terms.items():
            for q, d in other.terms.items():
                if p.source == q.target:
                    vec_iadd(self.field, out.terms, {compose(p, q): d}, c)
        return out

    def is_parallel(self):
        """True if all terms share one (source, target) pair."""
        ends = {(p.source, p.target) for p in self.terms}
        return len(ends) <= 1

    def canonical_terms(self):
        """Quiver-instance-independent form, for structural comparison."""
        return {(p.start, p.arrows): c for p, c in self.terms.items()}

    def lengths(self):
        return {p.length for p in self.terms}

    def _check(self, other):
        if self.quiver is not other.quiver or self.field != other.field:
            raise EngineError("elements over different quivers or fields")

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.quiver is other.quiver
            and self.field == other.field
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for p, c in self.sorted_terms():
            bits.append(f"{self.field.format_scalar(c)}*{p}")
        return " + ".join(bits)


class BoundQuiverPresentation:
    """Quiver, coefficient field, relations, and the reduction-order policy.

    Relations must be linear combinations of parallel paths of one common
    length >= 2.  ``leading_terms`` optionally designates the leading path of
    each relation (families use this); otherwise the order policy decides.
    """

    def __init__(self, quiver, field, relations, leading_terms=None):
        self.quiver = quiver
        self.field = field
        self.relations = list(relations)
        self.leading_terms = list(leading_terms) if leading_terms is not None else None
        self._validate()

    def _validate(self):
        for r in self.relations:
            if r.is_zero():
                raise EngineError("zero relation")
            if not r.is_parallel():
                raise EngineError(f"relation terms not parallel: {r!r}")
            lens = r.lengths()
            if len(lens) != 1:
                raise EngineError(f"relation not length-homogeneous: {r!r}")
            if min(lens) < 2:
                raise EngineError(f"relation of length < 2: {r!r}")
        if self.leading_terms is not None:
            if len(self.leading_terms) != len(self.relations):
                raise EngineError("one leading term per relation required")
            for lead, r in zip(self.leading_terms, self.relations):
                if lead not in r.terms:
                    raise EngineError(f"designated leading term {lead} not in relation")

    def path_order_key(self, path: Path):
        """Length first, then arrow indices lexicographically on the written word."""
        return (path.length, tuple(reversed(path.arrows)))

    def oriented_relations(self):
        """Yield (leading path, relation element) pairs."""
        for k, r in enumerate(self.relations):
            if self.leading_terms is not None:
                lead = self.leading_terms[k]
            else:
                lead = max(r.terms, key=self.path_order_key)
            yield lead, r

    def __eq__(self, other):
        return (
            isinstance(other, BoundQuiverPresentation)
            and self.quiver == other.quiver
            and self.field == other.field
            and len(self.relations) == len(other.relations)
            and all(
                a.canonical_terms() == b.canonical_terms()
                for a, b in zip(self.relations, other.relations)
            )
        )
