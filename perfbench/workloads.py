"""Inputs of the report-pipeline benchmark.

Every workload is a list of report inputs, built from the engine's public
constructors.  ``mods`` is the namespace of engine modules that ``run.py``
imported; ``span(name)`` is a context manager around each input-construction
call (a no-op unless the run is traced).

The grid and exterior inputs are fixed by their definition.  The sweep is
where the workload seed acts: it relabels every random monomial
presentation (vertex order, arrow order, relation order) and shuffles the
order of the list.  The monomial seeds themselves are a fixed pool, because
their report times are heavy-tailed (a few take 100-400x the median), so
drawing a fresh handful per seed would make throughput depend on the seed
rather than on the code.  Relabelling keeps every report document
identical, so one reference digest per input checks every seed.
"""

from __future__ import annotations

import contextlib
import random

GRID_N = 8
GRID_Q = 2
EXTERIOR_NMAX = 6
REPORT_NMAX = 3
MONOMIALS_PER_FIELD = 50
SWEEP_QS = range(1, 7)
SWEEP_FIELDS = ("rational", "fp:7")

EXTERIOR_TEXT = """\
# exterior algebra on two loops at one vertex
field fp:7
quiver { vertices: o ; arrows: x: o -> o ; y: o -> o }
relations { x*x ; y*y ; x*y + y*x ; }
"""


def _no_span(name):
    return contextlib.nullcontext()


class ReportInput:
    """One report: a presentation plus the provenance fields of its document.

    ``expect`` holds invariants the document must show besides its digest.
    """

    __slots__ = ("name", "presentation", "field", "nmax", "family", "params", "seed", "expect")

    def __init__(self, name, presentation, field, nmax, family=None, params=None, seed=None,
                 expect=None):
        self.name = name
        self.presentation = presentation
        self.field = field
        self.nmax = nmax
        self.family = family
        self.params = params or {}
        self.seed = seed
        self.expect = expect or {}


def torus_grid_complex(mods, n):
    """n x n periodic cubical torus, tiled like the 2 x 2 CUBICAL_TORUS_SQUARES.

    Vertex (r, c) is n*r + c; edge h(r, c) runs right and v(r, c) down from
    it; each square walks top-left, top-right, bottom-right, bottom-left.
    The constructor runs the surface validator.
    """

    def vertex(r, c):
        return n * (r % n) + (c % n)

    edges = []
    for r in range(n):
        for c in range(n):
            edges.append((f"h{r}_{c}", (vertex(r, c), vertex(r, c + 1))))
            edges.append((f"v{r}_{c}", (vertex(r, c), vertex(r + 1, c))))
    faces = []
    for r in range(n):
        for c in range(n):
            faces.append([
                (vertex(r, c), f"h{r}_{c}"),
                (vertex(r, c + 1), f"v{r}_{(c + 1) % n}"),
                (vertex(r + 1, c + 1), f"h{(r + 1) % n}_{c}"),
                (vertex(r + 1, c), f"v{r}_{c}"),
            ])
    cell = mods.families.CellComplexData(range(n * n), edges, faces)
    if cell.euler_characteristic() != 0:
        raise ValueError("torus grid has nonzero Euler characteristic")
    return cell


def grid(mods, n, field_name, span=_no_span):
    field = mods.fields.field_parse(field_name)
    q = field.from_int(GRID_Q)
    with span("families.build"):
        pres = mods.families.incidence_presentation(torus_grid_complex(mods, n), field, q)
    expect = {"hh": [1, 2, 1, 0], "cup_rank": 1, "bracket_rank": 0}
    return [ReportInput(f"grid{n}-q{GRID_Q}-{field_name}", pres, field, REPORT_NMAX,
                        params={"q": field.format_scalar(q)}, expect=expect)]


def exterior(mods, nmax, span=_no_span):
    with span("dsl.parse"):
        pres = mods.dsl.parse_presentation(EXTERIOR_TEXT)
    return [ReportInput(f"exterior2-nmax{nmax}-{pres.field}", pres, pres.field, nmax)]


def relabel(mods, pres, rng):
    """An isomorphic copy of a presentation without designated leading terms,
    with vertices, arrows and relations listed in a shuffled order."""
    if pres.leading_terms is not None:
        raise ValueError("relabel keeps no designated leading terms")
    Q = mods.quiver
    old = pres.quiver
    vorder = list(range(old.n_vertices))
    aorder = list(range(old.n_arrows))
    rng.shuffle(vorder)
    rng.shuffle(aorder)
    new = Q.Quiver([old.vertices[v] for v in vorder], [old.arrows[a] for a in aorder])

    def move(path):
        start = new.vertex_index[old.vertices[path.start]]
        return Q.Path(new, start, tuple(new.arrow_index[old.arrows[a][0]] for a in path.arrows))

    relations = [
        Q.AlgebraElement(new, pres.field, {move(p): c for p, c in r.terms.items()})
        for r in pres.relations
    ]
    rng.shuffle(relations)
    return Q.BoundQuiverPresentation(new, pres.field, relations)


def sweep(mods, seed, monomials_per_field=MONOMIALS_PER_FIELD, span=_no_span):
    """Built-in families as the CLI builds them, plus relabelled monomials."""
    fam = mods.families
    fp7 = mods.fields.field_parse("fp:7")
    rat = mods.fields.field_parse("rational")
    items = []
    with span("families.build"):
        for name in ("torus-s", "torus-c"):
            for qv in SWEEP_QS:
                q = fp7.parse_scalar(str(qv))
                params = {"q": fp7.format_scalar(q)}
                pres = fam.family_presentation(name, fp7, q=q)
                items.append(ReportInput(f"{name}-q{qv}-fp:7", pres, fp7, REPORT_NMAX,
                                         family=name, params=params))
        for k, text in enumerate(mods.cli.PSI_EXAMPLE_ROWS):
            psi = mods.sl2.parse_psi(text, rat)
            pres = fam.family_presentation("p1p1", rat, psi=psi)
            items.append(ReportInput(f"p1p1-psi{k}-rational", pres, rat, REPORT_NMAX,
                                     family="p1p1", params={"psi": mods.sl2.format_psi(psi)}))
        for name in ("pi", "kronecker"):
            items.append(ReportInput(f"{name}-rational", fam.family_presentation(name, rat), rat,
                                     REPORT_NMAX, family=name))
        rng = random.Random(seed)
        for f, field_name in enumerate(SWEEP_FIELDS):
            field = mods.fields.field_parse(field_name)
            for k in range(monomials_per_field):
                mseed = f * MONOMIALS_PER_FIELD + k
                pres = relabel(mods, fam.random_monomial_presentation(field, mseed), rng)
                items.append(ReportInput(f"monomial{mseed}-{field_name}", pres, field, REPORT_NMAX,
                                         seed=mseed))
    rng.shuffle(items)
    return items


WORKLOADS = {
    "grid-q": lambda mods, seed, span: grid(mods, GRID_N, "rational", span),
    "grid-fp": lambda mods, seed, span: grid(mods, GRID_N, "fp:7", span),
    "exterior": lambda mods, seed, span: exterior(mods, EXTERIOR_NMAX, span),
    "sweep": lambda mods, seed, span: sweep(mods, seed, span=span),
}


def build(mods, workload, seed, span=_no_span):
    return WORKLOADS[workload](mods, seed, span)
