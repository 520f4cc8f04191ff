"""Built-in algebra families: torus incidence algebras with a deformation
scalar, the Kronecker quiver and its tensor square with sl2-tensor
deformations, the three-arrow-pair cubic-relation algebra, and seeded random
monomial presentations.

Cell complexes carry faces as closed alternating walks (v0, e0, v1, e1, ...)
whose order fixes the face orientation; the validator enforces the surface
axioms instead of trusting the transcribed data.
"""

from __future__ import annotations

import random
import warnings

from .errors import EngineError, FieldError
from .hochschild import SmallComplex
from .linalg import combine
from .quiver import AlgebraElement, BoundQuiverPresentation, Path, Quiver
from .rewrite import quotient_algebra
from .sl2 import PsiTensor, psi_kronecker


class CellComplexData:
    """An oriented 2-complex: vertices, edge cells, and oriented face walks.

    edges: list of (label, (v1, v2)); multiple edges between the same vertex
    pair are distinct cells.  faces: list of walks [(v0, e0), (v1, e1), ...],
    closing back to v0; the cyclic direction of the walk is the orientation.
    """

    def __init__(self, vertices, edges, faces):
        self.vertices = list(vertices)
        self.edges = [(label, tuple(ends)) for label, ends in edges]
        self.faces = [list(walk) for walk in faces]
        self.edge_index = {label: i for i, (label, _) in enumerate(self.edges)}
        if len(self.edge_index) != len(self.edges):
            raise EngineError("duplicate edge labels")
        self.validate()

    def euler_characteristic(self):
        return len(self.vertices) - len(self.edges) + len(self.faces)

    def validate(self):
        vset = set(self.vertices)
        for label, (a, b) in self.edges:
            if a not in vset or b not in vset:
                raise EngineError(f"edge {label}: unknown endpoint")
        traversals = {}
        for fi, walk in enumerate(self.faces):
            k = len(walk)
            if k < 3:
                raise EngineError("face walk too short")
            for i, (v, e) in enumerate(walk):
                w = walk[(i + 1) % k][0]
                if e not in self.edge_index:
                    raise EngineError(f"face {fi}: unknown edge {e}")
                ends = self.edges[self.edge_index[e]][1]
                if {v, w} != set(ends) and (v, w) != ends and (w, v) != ends:
                    raise EngineError(f"face {fi}: edge {e} does not join {v},{w}")
                traversals.setdefault(e, []).append((v, w))
        for label, _ in self.edges:
            runs = traversals.get(label, [])
            if len(runs) != 2:
                raise EngineError(f"edge {label} lies in {len(runs)} faces, not 2")
            (a1, b1), (a2, b2) = runs
            if (a1, b1) != (b2, a2):
                raise EngineError(f"edge {label} is traversed incoherently")

    def flags(self):
        """(vertex, face index, leading edge, irreducible edge) per corner.

        At each corner the face's outgoing walk edge is the leading side and
        the incoming one the irreducible side; the walk direction realizes the
        positive rotation of the oriented surface.
        """
        out = []
        for fi, walk in enumerate(self.faces):
            k = len(walk)
            for i in range(k):
                v, e_out = walk[i]
                e_in = walk[(i - 1) % k][1]
                out.append((v, fi, e_out, e_in))
        return out


# Fig-style minimal simplicial torus: 7 vertices, all 21 edges, 14 triangles.
# Triples are listed in the coherent positively-oriented cyclic order.
SIMPLICIAL_TORUS_TRIANGLES = (
    (0, 3, 1), (1, 3, 5), (1, 5, 2), (2, 5, 0), (3, 4, 5), (5, 4, 6), (5, 6, 0),
    (0, 6, 3), (4, 0, 1), (4, 1, 6), (6, 1, 2), (6, 2, 3), (3, 2, 4), (2, 0, 4),
)

# Minimal cubical torus: 4 vertices on a 2x2 periodic grid, 8 edge cells,
# 4 squares, corner cycles positively oriented.
CUBICAL_TORUS_SQUARES = (
    ((0, 1, 3, 2), ("h0", "v2", "h2", "v0")),
    ((1, 0, 2, 3), ("h1", "v0", "h3", "v2")),
    ((2, 3, 1, 0), ("h2", "v3", "h0", "v1")),
    ((3, 2, 0, 1), ("h3", "v1", "h1", "v3")),
)
CUBICAL_TORUS_EDGES = (
    ("h0", (0, 1)), ("h1", (1, 0)), ("h2", (2, 3)), ("h3", (3, 2)),
    ("v0", (0, 2)), ("v1", (2, 0)), ("v2", (1, 3)), ("v3", (3, 1)),
)


def torus_simplicial_complex() -> CellComplexData:
    edge_label = {}
    edges = []
    for t in SIMPLICIAL_TORUS_TRIANGLES:
        for i in range(3):
            pair = tuple(sorted((t[i], t[(i + 1) % 3])))
            if pair not in edge_label:
                edge_label[pair] = f"e{pair[0]}{pair[1]}"
                edges.append((edge_label[pair], pair))
    edges.sort()
    faces = []
    for t in SIMPLICIAL_TORUS_TRIANGLES:
        walk = []
        for i in range(3):
            pair = tuple(sorted((t[i], t[(i + 1) % 3])))
            walk.append((t[i], edge_label[pair]))
        faces.append(walk)
    cell = CellComplexData(range(7), edges, faces)
    if cell.euler_characteristic() != 0:
        raise EngineError("simplicial torus data has nonzero Euler characteristic")
    return cell


def torus_cubical_complex() -> CellComplexData:
    faces = []
    for corners, es in CUBICAL_TORUS_SQUARES:
        faces.append([(corners[i], es[i]) for i in range(4)])
    cell = CellComplexData(range(4), CUBICAL_TORUS_EDGES, faces)
    if cell.euler_characteristic() != 0:
        raise EngineError("cubical torus data has nonzero Euler characteristic")
    return cell


def incidence_presentation(cell: CellComplexData, field, q) -> BoundQuiverPresentation:
    """Deformed incidence algebra of the face poset: one quiver vertex per
    cell, arrows vertex->edge and edge->face, one two-term relation per
    (vertex, face) incidence with scalar q on the irreducible side."""
    if field.is_zero(q):
        raise EngineError("deformation scalar q must be nonzero")
    if field.characteristic == 3:
        q3 = field.mul(q, field.mul(q, q))
        if q3 == field.one():
            warnings.warn("characteristic 3 with q^3 = 1 is outside the usual assumptions")
    vnames = [f"p{v}" for v in cell.vertices]
    enames = {label: label for label, _ in cell.edges}
    fnames = [f"f{i}" for i in range(len(cell.faces))]
    vertices = vnames + [enames[label] for label, _ in cell.edges] + fnames
    arrows = []
    alpha = {}
    for label, (a, b) in cell.edges:
        for v in (a, b):
            name = f"a{v}_{label}"
            alpha[(v, label)] = name
            arrows.append((name, f"p{v}", label))
    beta = {}
    for fi, walk in enumerate(cell.faces):
        for _, e in walk:
            name = f"b{e}_f{fi}"
            beta[(e, fi)] = name
            arrows.append((name, e, f"f{fi}"))
    quiver = Quiver(vertices, arrows)

    def path2(v, e, fi):
        a = quiver.arrow_index[alpha[(v, e)]]
        b = quiver.arrow_index[beta[(e, fi)]]
        return Path(quiver, quiver.arrow_source[a], (a, b))

    relations = []
    leading = []
    one = field.one()
    for v, fi, e_lead, e_irr in cell.flags():
        m = path2(v, e_lead, fi)
        n = path2(v, e_irr, fi)
        rel = AlgebraElement(quiver, field, {m: one, n: field.neg(q)})
        relations.append(rel)
        leading.append(m)
    return BoundQuiverPresentation(quiver, field, relations, leading_terms=leading)


def angle_label_assignment(cell: CellComplexData):
    """Mod-3 corner labels: +1 per positive step around a vertex, -1 per
    positive step around a face; built by propagation and checked globally."""
    flags = cell.flags()
    flag_id = {(v, fi): k for k, (v, fi, _, _) in enumerate(flags)}
    adj = []
    # face steps: consecutive corners of one face differ by -1
    for fi, walk in enumerate(cell.faces):
        k = len(walk)
        for i in range(k):
            a = flag_id[(walk[i][0], fi)]
            b = flag_id[(walk[(i + 1) % k][0], fi)]
            adj.append((a, b, -1))
    # vertex steps: crossing an edge positively around a vertex adds +1;
    # the flag whose leading edge is e follows the flag whose irreducible
    # edge is e
    by_lead = {}
    by_irr = {}
    for k, (v, fi, e_lead, e_irr) in enumerate(flags):
        by_lead[(v, e_lead)] = k
        by_irr[(v, e_irr)] = k
    for (v, e), a in by_irr.items():
        b = by_lead.get((v, e))
        if b is None:
            raise EngineError("open vertex link; labelling undefined")
        adj.append((a, b, 1))
    graph = {}
    for a, b, d in adj:
        graph.setdefault(a, []).append((b, d))
        graph.setdefault(b, []).append((a, -d))
    labels = {0: 0}
    stack = [0]
    while stack:
        a = stack.pop()
        for b, d in graph.get(a, ()):
            want = (labels[a] + d) % 3
            if b in labels:
                if labels[b] != want:
                    raise EngineError("no consistent corner labelling exists")
            else:
                labels[b] = want
                stack.append(b)
    if len(labels) != len(flags):
        raise EngineError("corner labelling did not reach every flag")
    return [labels[k] for k in range(len(flags))]


def angle_functional_check(field, q) -> bool:
    """Build the corner-label functional with values 1, q, q^2 on the
    deformed simplicial torus and test whether it annihilates the image of
    the degree-1 differential of the small complex."""
    q3 = field.mul(q, field.mul(q, q))
    if q3 != field.one():
        raise EngineError("the labelling functional needs q^3 = 1")
    cell = torus_simplicial_complex()
    labels = angle_label_assignment(cell)
    pres = incidence_presentation(cell, field, q)
    algebra = quotient_algebra(pres)
    small = SmallComplex(algebra)
    # rule order equals flag order by construction
    powers = [field.one(), q, field.mul(q, q)]
    off = small.offset[2]
    functional = {
        row: powers[labels[k]] for k in range(len(off) - 1) for row in range(off[k], off[k + 1])
    }
    # functional . d1, accumulated over the rows of d1
    return not combine(field, dict(enumerate(small.d1.rows())), functional)


def kronecker_presentation(field) -> BoundQuiverPresentation:
    quiver = Quiver(["v1", "v2"], [("x", "v1", "v2"), ("y", "v1", "v2")])
    return BoundQuiverPresentation(quiver, field, [])


# arrow names of the Kronecker tensor square; first-factor arrows move the
# first coordinate (x1, y1 at second coordinate 1; x2, y2 at 2), second-factor
# arrows move the second coordinate (lx, ly from column 1; rx, ry after the
# first factor moved).
P1P1_VERTICES = ["v11", "v12", "v21", "v22"]
P1P1_ARROWS = [
    ("x1", "v11", "v21"), ("y1", "v11", "v21"),
    ("x2", "v12", "v22"), ("y2", "v12", "v22"),
    ("lx", "v11", "v12"), ("ly", "v11", "v12"),
    ("rx", "v21", "v22"), ("ry", "v21", "v22"),
]


def p1p1_presentation(field, psi: PsiTensor) -> BoundQuiverPresentation:
    """Kronecker tensor square with the sl2-tensor deformation: relations
    leading(u) - u - psi(u) over the four basis tensors u of the arrow pairs."""
    if field.characteristic == 2:
        raise FieldError("tensor-square deformations need characteristic != 2")
    if psi.field != field:
        raise EngineError("psi tensor over a different field")
    quiver = Quiver(P1P1_VERTICES, P1P1_ARROWS)

    def leading_path(i, j):
        # (alpha x e2)(e1 x beta): second factor moves first, through v12
        second = quiver.arrow_index["lx" if j == 0 else "ly"]
        first = quiver.arrow_index["x2" if i == 0 else "y2"]
        return Path(quiver, quiver.vertex_index["v11"], (second, first))

    def irreducible_path(i, j):
        # (e2 x beta)(alpha x e1): first factor moves first, through v21
        first = quiver.arrow_index["x1" if i == 0 else "y1"]
        second = quiver.arrow_index["rx" if j == 0 else "ry"]
        return Path(quiver, quiver.vertex_index["v11"], (first, second))

    K = psi_kronecker(psi)
    relations = []
    leading = []
    one = field.one()
    for i in range(2):
        for j in range(2):
            u = 2 * i + j
            terms = {leading_path(i, j): one, irreducible_path(i, j): field.neg(one)}
            for i2 in range(2):
                for j2 in range(2):
                    c = K[2 * i2 + j2][u]
                    if not field.is_zero(c):
                        p = irreducible_path(i2, j2)
                        terms[p] = field.sub(terms.get(p, field.zero()), c)
            rel = AlgebraElement(quiver, field, terms)
            relations.append(rel)
            leading.append(leading_path(i, j))
    return BoundQuiverPresentation(quiver, field, relations, leading_terms=leading)


def pi_presentation(field) -> BoundQuiverPresentation:
    """Four-vertex quiver with doubled arrows and the two cubic relations
    y2*x1*x0 = x2*x1*y0 and x2*y1*y0 = y2*y1*x0."""
    if field.characteristic == 2:
        raise FieldError("this family is studied in characteristic != 2")
    quiver = Quiver(
        ["v1", "v2", "v3", "v4"],
        [
            ("x0", "v1", "v2"), ("y0", "v1", "v2"),
            ("x1", "v2", "v3"), ("y1", "v2", "v3"),
            ("x2", "v3", "v4"), ("y2", "v3", "v4"),
        ],
    )

    def path3(a0, a1, a2):
        idx = [quiver.arrow_index[a0], quiver.arrow_index[a1], quiver.arrow_index[a2]]
        return Path(quiver, quiver.vertex_index["v1"], idx)

    one = field.one()
    r1 = AlgebraElement(
        quiver, field, {path3("x0", "x1", "y2"): one, path3("y0", "x1", "x2"): field.neg(one)}
    )
    r2 = AlgebraElement(
        quiver, field, {path3("y0", "y1", "x2"): one, path3("x0", "y1", "y2"): field.neg(one)}
    )
    leading = [path3("x0", "x1", "y2"), path3("y0", "y1", "x2")]
    return BoundQuiverPresentation(quiver, field, [r1, r2], leading_terms=leading)


def random_monomial_presentation(field, seed) -> BoundQuiverPresentation:
    """Seeded random acyclic quiver with path (monomial) relations only: 3 to 6
    vertices, up to 10 arrows and up to 6 relations of length 2 or 3."""
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    vertices = [f"v{i}" for i in range(1, n + 1)]
    arrows = []
    n_arrows = rng.randint(n - 1, 10)
    for k in range(n_arrows):
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        arrows.append((f"a{k}", f"v{i}", f"v{j}"))
    quiver = Quiver(vertices, arrows)

    candidates = []
    level = [Path(quiver, v) for v in range(quiver.n_vertices)]
    for _ in range(3):
        nxt = []
        for p in level:
            for a in quiver.arrows_from[p.target]:
                nxt.append(Path(quiver, p.start, p.arrows + (a,)))
        level = nxt
        candidates.extend(p for p in level if p.length >= 2)
    relations = []
    seen = set()
    if candidates:
        k = rng.randint(0, min(6, len(candidates)))
        for p in rng.sample(candidates, k):
            if p in seen:
                continue
            seen.add(p)
            relations.append(AlgebraElement.from_path(quiver, field, p))
    return BoundQuiverPresentation(quiver, field, relations)


FAMILY_NAMES = ("torus-s", "torus-c", "p1p1", "pi", "kronecker")


def family_presentation(name, field, q=None, psi=None) -> BoundQuiverPresentation:
    """Look up a built-in family by CLI name."""
    if name == "torus-s":
        return incidence_presentation(
            torus_simplicial_complex(), field, q if q is not None else field.one()
        )
    if name == "torus-c":
        return incidence_presentation(
            torus_cubical_complex(), field, q if q is not None else field.one()
        )
    if name == "p1p1":
        return p1p1_presentation(field, psi if psi is not None else PsiTensor.zero(field))
    if name == "pi":
        return pi_presentation(field)
    if name == "kronecker":
        return kronecker_presentation(field)
    raise EngineError(f"unknown family {name!r}; available: {', '.join(FAMILY_NAMES)}")
