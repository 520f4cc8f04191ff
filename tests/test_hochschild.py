import gc
import random
import weakref
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverhh import linalg
from quiverhh.dsl import parse_presentation
from quiverhh.errors import ConsistencyError, EngineError
from quiverhh.families import (
    incidence_presentation,
    kronecker_presentation,
    p1p1_presentation,
    pi_presentation,
    random_monomial_presentation,
    torus_cubical_complex,
    torus_simplicial_complex,
)
from quiverhh.fields import PrimeField, Rationals
from quiverhh.hochschild import (
    CohomologyClass,
    HochschildCohomology,
    SmallComplex,
    SmallComplexUnavailable,
    build_small_complex,
    d_squared_zero,
    hh_classes,
    hh_report,
)
from quiverhh.linalg import SparseMatrix, rref, vec_add, vec_iadd
from quiverhh.sl2 import PsiTensor, parse_psi

FIELD = Rationals()


def _engine(pres, nmax=3):
    return HochschildCohomology(pres, nmax=nmax)


def _count_calls(monkeypatch, obj, name):
    calls = []
    original = getattr(obj, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(obj, name, counting)
    return calls


def test_small_complex_term_dims():
    q2 = FIELD.from_int(2)
    small = build_small_complex(incidence_presentation(torus_simplicial_complex(), FIELD, q2))
    assert small.term_dims == (42, 84, 42)
    small = build_small_complex(incidence_presentation(torus_cubical_complex(), FIELD, q2))
    assert small.term_dims == (16, 32, 16)
    small = build_small_complex(p1p1_presentation(FIELD, parse_psi("ee:1", FIELD)))
    assert small.term_dims == (4, 16, 16)
    assert small.euler() == 4


def test_small_complex_unavailable_for_cubic_relations():
    with pytest.raises(SmallComplexUnavailable):
        build_small_complex(pi_presentation(FIELD))


def test_bar_complex_dims():
    eng = _engine(p1p1_presentation(FIELD, PsiTensor.zero(FIELD)))
    assert [eng.bar.dim(n) for n in range(4)] == [4, 32, 32, 0]
    eng = _engine(incidence_presentation(torus_simplicial_complex(), FIELD, FIELD.one()))
    assert [eng.bar.dim(n) for n in range(4)] == [42, 126, 84, 0]
    eng = _engine(pi_presentation(FIELD))
    assert [eng.bar.dim(n) for n in range(5)] == [4, 80, 128, 48, 0]


def test_report_dims_families():
    assert hh_report(incidence_presentation(torus_simplicial_complex(), FIELD, FIELD.one())).dims == (1, 2, 1, 0)
    assert hh_report(kronecker_presentation(FIELD)).dims == (1, 3, 0, 0)
    assert hh_report(p1p1_presentation(FIELD, PsiTensor.zero(FIELD))).dims == (1, 6, 9, 0)
    rep = hh_report(pi_presentation(FIELD))
    assert rep.dims == (1, 6, 9, 0)
    assert rep.small_dims is None


def test_report_euler_consistency():
    rep = hh_report(p1p1_presentation(FIELD, parse_psi("ee:1,ff:1", FIELD)))
    assert rep.complete
    assert rep.euler == 4
    assert rep.euler == sum((-1) ** n * d for n, d in enumerate(rep.dims))


def test_small_bar_agreement_everywhere():
    instances = [
        incidence_presentation(torus_simplicial_complex(), FIELD, FIELD.from_int(2)),
        incidence_presentation(torus_cubical_complex(), FIELD, FIELD.from_int(-1)),
        p1p1_presentation(FIELD, parse_psi("ee:2,ff:2,hh:1", FIELD)),
        p1p1_presentation(FIELD, parse_psi("ee:1,hh:2,ef:1,fe:1", FIELD)),
    ]
    for pres in instances:
        rep = hh_report(pres)  # raises ConsistencyError on disagreement
        assert rep.small_hh == rep.dims[:3]


def test_euler_consistent_property():
    rep = hh_report(pi_presentation(FIELD))
    assert rep.complete and rep.euler_consistent is True
    rep = _engine(p1p1_presentation(FIELD, PsiTensor.zero(FIELD)), nmax=1).report()
    assert not rep.complete and rep.euler is None and rep.euler_consistent is None


def test_report_raises_on_euler_mismatch(monkeypatch):
    # negative control: one more HH^1 than the bar complex gives; pi has no
    # small complex, so only the Euler check can notice
    eng = _engine(pi_presentation(FIELD))
    hh_dim = type(eng.bar).hh_dim
    monkeypatch.setattr(
        type(eng.bar), "hh_dim", lambda self, n: hh_dim(self, n) + (n == 1)
    )
    with pytest.raises(ConsistencyError, match="Euler"):
        eng.report()


def test_hh0_class_is_unit():
    eng = _engine(pi_presentation(FIELD))
    classes = eng.classes(0)
    assert len(classes) == 1
    # the class vector is supported on every vertex idempotent pair
    (cls,) = classes
    assert len(cls.vector) == eng.algebra.quiver.n_vertices


def test_hh_classes_counts():
    f7 = PrimeField(7)
    pres = incidence_presentation(torus_simplicial_complex(), f7, 2)
    eng = _engine(pres)
    assert len(eng.classes(2)) == 1
    assert len(hh_classes(p1p1_presentation(FIELD, parse_psi("ee:1", FIELD)), 1)) == 3


def test_classes_are_canonical_cocycles():
    eng = _engine(p1p1_presentation(FIELD, PsiTensor.zero(FIELD)))
    for n in (1, 2):
        for cls in eng.classes(n):
            assert eng.bar.is_cocycle(cls.vector, n)
            assert eng.bar.canonical(cls.vector, n) == cls.vector


def test_cup_unit_law():
    eng = _engine(p1p1_presentation(FIELD, PsiTensor.zero(FIELD)))
    (unit,) = eng.classes(0)
    for n in (1, 2):
        for cls in eng.classes(n):
            assert eng.bar.cup(unit, cls).vector == cls.vector
            assert eng.bar.cup(cls, unit).vector == cls.vector


def test_torus_cup_structure():
    eng = _engine(incidence_presentation(torus_simplicial_complex(), FIELD, FIELD.one()))
    x, y = eng.classes(1)
    assert eng.bar.cup(x, x).is_zero()
    assert eng.bar.cup(y, y).is_zero()
    xy = eng.bar.cup(x, y)
    assert not xy.is_zero()
    rank, nonzero = eng.cup_rank()
    assert (rank, nonzero) == (1, True)
    assert eng.bar.bracket(x, y).is_zero()


def test_p1p1_cup_and_bracket_ranks():
    eng = _engine(p1p1_presentation(FIELD, PsiTensor.zero(FIELD)))
    assert eng.cup_rank() == (9, True)
    assert eng.bracket_rank() == 6


def test_pi_cup_nonzero():
    eng = _engine(pi_presentation(FIELD))
    rank, nonzero = eng.cup_rank()
    assert nonzero and rank == 9
    assert eng.bracket_rank() == 6
    assert len(eng.classes(2)) == 9
    assert eng.classes(3) == []


def test_deformed_cup_vanishing_pattern():
    vanishing = ["ee:2,ff:2,hh:1", "ee:1", "ee:1,ff:1,hh:1", "ee:1,ff:1"]
    for text in vanishing:
        eng = _engine(p1p1_presentation(FIELD, parse_psi(text, FIELD)))
        assert eng.cup_rank() == (0, False), text
    full = parse_psi("ee:1,eh:1,ef:1,he:1,hh:1,hf:1,fe:1,fh:1,ff:1", FIELD)
    eng = _engine(p1p1_presentation(FIELD, full))
    assert eng.cup_rank()[1] is True


def _random_cochain(bar, n, rng):
    return {
        i: bar.field.from_int(rng.randint(-2, 2))
        for i in range(bar.dim(n))
        if rng.random() < 0.5
    }


def test_d_squared_zero_matrices():
    rng = random.Random(3)
    presentations = [
        p1p1_presentation(FIELD, parse_psi("ee:1,hf:2", FIELD)),
        pi_presentation(FIELD),
        incidence_presentation(torus_cubical_complex(), FIELD, FIELD.from_int(3)),
    ] + [random_monomial_presentation(FIELD, seed) for seed in range(5)]
    for pres in presentations:
        bar = _engine(pres).bar
        for n in range(bar.nmax):
            dn = bar.differential(n)
            dn1 = bar.differential(n + 1)
            for _ in range(10):
                v = _random_cochain(bar, n, rng)
                assert not dn1.apply(dn.apply(v))


EXTERIOR_TEXT = """
field fp:7
quiver { vertices: o ; arrows: x: o -> o ; y: o -> o }
relations { x*x ; y*y ; x*y + y*x ; }
"""


def test_d_squared_zero_check_on_cyclic_quiver():
    # the exterior algebra on two loops has no small complex, so the d^2
    # check is the only certificate its report carries
    pres = parse_presentation(EXTERIOR_TEXT)
    assert d_squared_zero(_engine(pres, nmax=4).bar)
    for n in (2, 3):
        eng = _engine(pres, nmax=4)
        assert eng.small is None
        bar = eng.bar
        # one more unit at column r of d^n changes d^n d^{n-1} by row r of d^{n-1}
        r = min(row for row, _ in bar.differential(n - 1).entries)
        bar.differential(n).add(0, r, bar.field.one())
        assert not d_squared_zero(bar), n


def test_d_squared_zero_builds_each_column_dict_once(monkeypatch):
    bar = _engine(parse_presentation(EXTERIOR_TEXT), nmax=4).bar
    built = _count_calls(monkeypatch, SparseMatrix, "columns")
    assert d_squared_zero(bar)
    assert len(built) == bar.nmax + 1
    assert {id(args[0]) for args in built} == {id(bar.differential(n)) for n in range(bar.nmax + 1)}


def test_canonical_drops_stored_zeros():
    bar = _engine(pi_presentation(FIELD)).bar
    vec = bar.canonical({5: FIELD.zero()}, 1)
    assert vec == {}
    assert CohomologyClass(1, vec, bar).is_zero()


def test_cochain_leibniz_rule():
    rng = random.Random(7)
    minus_one = FIELD.from_int(-1)
    for pres in (p1p1_presentation(FIELD, parse_psi("eh:1,fe:1", FIELD)), pi_presentation(FIELD)):
        bar = _engine(pres).bar
        for p, q in ((1, 1), (1, 2), (2, 1)):
            fv = _random_cochain(bar, p, rng)
            gv = _random_cochain(bar, q, rng)
            lhs = bar.differential(p + q).apply(bar.cup_cochain(fv, p, gv, q))
            rhs = bar.cup_cochain(bar.differential(p).apply(fv), p + 1, gv, q)
            sign = FIELD.one() if p % 2 == 0 else minus_one
            rhs = vec_add(
                FIELD, rhs, bar.cup_cochain(fv, p, bar.differential(q).apply(gv), q + 1), sign
            )
            assert lhs == rhs


def test_graded_commutativity_on_classes():
    eng = _engine(p1p1_presentation(FIELD, PsiTensor.zero(FIELD)))
    ones = eng.classes(1)
    for a in ones:
        for b in ones:
            ab = eng.bar.cup(a, b).vector
            ba = eng.bar.cup(b, a).vector
            assert ab == {k: FIELD.neg(v) for k, v in ba.items()}


def test_bracket_antisymmetry_and_cocycle():
    eng = _engine(p1p1_presentation(FIELD, PsiTensor.zero(FIELD)))
    ones = eng.classes(1)
    for a in ones:
        assert eng.bar.bracket(a, a).is_zero()
        for b in ones:
            ab = eng.bar.bracket(a, b)
            assert eng.bar.is_cocycle(ab.vector, 1)
            ba = eng.bar.bracket(b, a)
            assert ab.vector == {k: FIELD.neg(v) for k, v in ba.vector.items()}


def test_bracket_rank_detects_perfect_lie_algebra():
    # HH^1 of the undeformed tensor square is a direct sum of two copies of a
    # simple 3-dimensional Lie algebra, so brackets span all of HH^1
    eng = _engine(p1p1_presentation(FIELD, PsiTensor.zero(FIELD)))
    assert eng.bracket_rank() == 6


def test_bracket_jacobi_identity_on_degree_one():
    eng = _engine(p1p1_presentation(FIELD, PsiTensor.zero(FIELD)))
    ones = eng.classes(1)
    rng = random.Random(17)
    for _ in range(10):
        x, y, z = (rng.choice(ones) for _ in range(3))
        xyz = eng.bar.bracket(x, eng.bar.bracket(y, z))
        yzx = eng.bar.bracket(y, eng.bar.bracket(z, x))
        zxy = eng.bar.bracket(z, eng.bar.bracket(x, y))
        total = dict(xyz.vector)
        for other in (yzx.vector, zxy.vector):
            total = vec_add(FIELD, total, other)
        assert not total


def test_deformation_invisible_to_torus_dimensions():
    # two-term scalar deformations rescale one side of each relation; the
    # derivation constraints are scale-invariant, so all q give (1, 2, 1)
    from fractions import Fraction

    for qv in (1, -1, 2, 5):
        rep = hh_report(incidence_presentation(torus_simplicial_complex(), FIELD, FIELD.from_int(qv)))
        assert rep.dims == (1, 2, 1, 0)
        rep = hh_report(incidence_presentation(torus_cubical_complex(), FIELD, FIELD.from_int(qv)))
        assert rep.dims == (1, 2, 1, 0)
    for qv in (Fraction(5, 3), Fraction(-7, 2)):
        rep = hh_report(incidence_presentation(torus_cubical_complex(), FIELD, qv))
        assert rep.dims == (1, 2, 1, 0)
    f7 = PrimeField(7)
    for qv in range(1, 7):
        rep = hh_report(incidence_presentation(torus_simplicial_complex(), f7, qv))
        assert rep.dims == (1, 2, 1, 0)


def _random_quadratic_presentation(seed):
    """Three-layer quiver with random two-term parallel quadratic relations;
    no length-3 paths exist, so the small complex applies."""
    from quiverhh.dsl import parse_presentation
    from quiverhh.quiver import BoundQuiverPresentation, Path, Quiver

    rng = random.Random(seed)
    n0, n1, n2 = rng.randint(1, 2), rng.randint(2, 3), rng.randint(1, 2)
    vertices = [f"u{i}" for i in range(n0)] + [f"m{i}" for i in range(n1)] + [f"w{i}" for i in range(n2)]
    arrows = []
    k = 0
    for i in range(n0):
        for j in range(n1):
            for _ in range(rng.randint(1, 2)):
                arrows.append((f"a{k}", f"u{i}", f"m{j}"))
                k += 1
    for j in range(n1):
        for l in range(n2):
            for _ in range(rng.randint(1, 2)):
                arrows.append((f"a{k}", f"m{j}", f"w{l}"))
                k += 1
    quiver = Quiver(vertices, arrows)
    by_ends = {}
    for v in range(n0):
        for w in range(n2):
            paths = []
            for a1 in quiver.arrows_from[v]:
                mid = quiver.arrow_target[a1]
                for a2 in quiver.arrows_from[mid]:
                    if quiver.arrow_target[a2] == n0 + n1 + w:
                        paths.append(Path(quiver, v, (a1, a2)))
            if len(paths) >= 2:
                by_ends[(v, w)] = paths
    relations = []
    from quiverhh.quiver import AlgebraElement

    for paths in by_ends.values():
        if rng.random() < 0.7:
            p, q = rng.sample(paths, 2)
            c = FIELD.from_int(rng.choice([1, 2, -1, 3]))
            relations.append(AlgebraElement(quiver, FIELD, {p: FIELD.one(), q: FIELD.neg(c)}))
    return BoundQuiverPresentation(quiver, FIELD, relations)


def test_small_bar_agreement_random_quadratic():
    for seed in range(15):
        pres = _random_quadratic_presentation(seed)
        rep = hh_report(pres)  # ConsistencyError on any disagreement
        if rep.small_hh is not None:
            assert rep.small_hh == rep.dims[:3]
        assert rep.euler == sum((-1) ** n * d for n, d in enumerate(rep.dims))


def test_monomial_algebra_a3_example():
    from quiverhh.dsl import parse_presentation

    text = """
    field rational
    quiver { vertices: v1 v2 v3 ; arrows: a: v1 -> v2 ; b: v2 -> v3 }
    relations { b*a ; }
    """
    pres = parse_presentation(text)
    rep = hh_report(pres)
    assert rep.dims[:3] == (1, 0, 0)
    eng = _engine(pres)
    for p in (1, 2):
        for q in (1, 2):
            if p + q > eng.nmax:
                continue
            for a in eng.classes(p):
                for b in eng.classes(q):
                    assert eng.bar.cup(a, b).is_zero()


def test_nmax_validation():
    with pytest.raises(EngineError):
        _engine(kronecker_presentation(FIELD), nmax=-1)


def test_low_nmax_reports():
    from quiverhh.dsl import parse_presentation

    a2 = parse_presentation(
        "field rational\nquiver { vertices: v1 v2 ; arrows: a: v1 -> v2 }"
    )
    assert hh_report(a2, nmax=0).dims == (1,)
    assert hh_report(a2, nmax=1).dims == (1, 0)
    assert hh_report(a2).dims == (1, 0, 0, 0)


def test_contractible_poset_algebra():
    # incidence algebra of a single commuting square: cohomology of a point
    from quiverhh.dsl import parse_presentation
    from quiverhh.rewrite import quotient_algebra

    pres = parse_presentation(
        """
        field rational
        quiver { vertices: a b c d ;
                 arrows: ab: a -> b ; ac: a -> c ; bd: b -> d ; cd: c -> d }
        relations { bd*ab - cd*ac ; }
        """
    )
    assert quotient_algebra(pres).dim == 9
    assert hh_report(pres).dims == (1, 0, 0, 0)


def test_torus_small_characteristic():
    # torsion-free cohomology: dims are field-independent
    import warnings

    for spec in ("fp:2", "fp:3", "fp:5"):
        field = PrimeField(int(spec.split(":")[1]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = hh_report(incidence_presentation(torus_cubical_complex(), field, field.one()))
        assert rep.dims == (1, 2, 1, 0)


def test_classes_beyond_window_rejected():
    # C^{nmax+1} is built but d^{nmax+1} is not, so HH^{nmax+1} is unknown
    from quiverhh.dsl import parse_presentation

    pres = parse_presentation(EXTERIOR_TEXT)
    with pytest.raises(EngineError):
        _engine(pres, nmax=1).classes(2)
    eng = _engine(pres, nmax=2)
    assert len(eng.classes(2)) == eng.bar.hh_dim(2) == 6


def test_hh1_basis_built_once_for_both_products(monkeypatch):
    eng = _engine(p1p1_presentation(FIELD, PsiTensor.zero(FIELD)))
    bar = eng.bar
    kernel = bar._echelon(1).kernel.rows
    image = bar.coboundaries(1)
    reduce = image.reduce
    reduced = []

    def counting_reduce(v):
        if any(v is row for row in kernel):
            reduced.append(v)
        return reduce(v)

    monkeypatch.setattr(image, "reduce", counting_reduce)
    assert eng.cup_rank() == (9, True)
    assert eng.bracket_rank() == 6
    assert len(reduced) == len(kernel) > 0


def test_exterior_report_eliminates_each_differential_on_its_shorter_side(monkeypatch):
    # C^n has 4*3^n coordinates, so every d^n is tall: d6 is 8748 x 2916 and
    # 6568 of its rows would reduce to zero, against 736 of its columns.  The
    # only vectors eliminated in k^2916 are then d5's at most 972 columns.
    sizes = []
    real_rref = linalg.rref

    def recording_rref(field, vectors, ambient):
        vectors = list(vectors)
        sizes.append((ambient, len(vectors)))
        return real_rref(field, vectors, ambient)

    monkeypatch.setattr(linalg, "rref", recording_rref)
    eng = _engine(parse_presentation(EXTERIOR_TEXT), nmax=6)
    assert eng.bar.differential(6).nrows == 8748
    assert eng.report().dims == (2, 4, 6, 8, 10, 12, 14)
    eng.cup_rank()
    eng.bracket_rank()
    assert all(count <= 972 for ambient, count in sizes if ambient == 2916)
    assert [ambient for ambient, _ in sizes].count(8748) == 1


def test_each_hh1_class_decoded_once_per_product_rank(monkeypatch):
    eng = _engine(p1p1_presentation(FIELD, PsiTensor.zero(FIELD)))
    bar = eng.bar
    decode = bar._blocks
    decoded = []

    def counting_blocks(vec, n):
        decoded.append(n)
        return decode(vec, n)

    monkeypatch.setattr(bar, "_blocks", counting_blocks)
    k = len(eng.classes(1))
    assert k > 1
    assert eng.cup_rank() == (9, True)  # k^2 cups
    assert decoded == [1] * k
    decoded.clear()
    assert eng.bracket_rank() == 6  # k(k-1)/2 brackets, two circles each
    assert decoded == [1] * k


# --- references for the HH^1 product ranks ---------------------------------
# Plain loops: every product of two HH^1 basis classes, then the rank of
# their span, with no shortcut when HH^2 = 0.


def _reference_cup_rank(eng):
    ones = eng.classes(1)
    prods = []
    for fc in ones:
        for gc in ones:
            prods.append(eng.bar.cup(fc, gc).vector)
    span = rref(eng.bar.field, [p for p in prods if p], eng.bar.dim(2))
    return span.dim, span.dim > 0


def _reference_bracket_rank(eng):
    ones = eng.classes(1)
    brs = []
    for i, fc in enumerate(ones):
        for gc in ones[i + 1 :]:
            brs.append(eng.bar.bracket(fc, gc).vector)
    span = rref(eng.bar.field, [b for b in brs if b], eng.bar.dim(1))
    return span.dim


def _family_presentations(field):
    two = field.from_int(2)
    yield incidence_presentation(torus_simplicial_complex(), field, two)
    yield incidence_presentation(torus_cubical_complex(), field, field.one())
    for text in ("", "ee:1", "ee:2,ff:2,hh:1", "ee:1,eh:1,ef:1,he:1,hh:1,hf:1,fe:1,fh:1,ff:1"):
        yield p1p1_presentation(field, parse_psi(text, field) if text else PsiTensor.zero(field))
    yield pi_presentation(field)
    yield kronecker_presentation(field)


def _product_rank_engines():
    for field in (FIELD, PrimeField(7)):
        for nmax in (2, 3):
            for pres in _family_presentations(field):
                yield f"family {field} nmax {nmax}", _engine(pres, nmax)
            for seed in range(20):
                yield f"monomial {seed} {field} nmax {nmax}", _engine(
                    random_monomial_presentation(field, seed), nmax
                )
    for nmax in (2, 3):
        yield f"exterior nmax {nmax}", _engine(parse_presentation(EXTERIOR_TEXT), nmax)


def test_product_ranks_match_reference_loops():
    hh2 = set()
    for name, eng in _product_rank_engines():
        hh2.add(eng.bar.hh_dim(2) > 0)
        assert eng.cup_rank() == _reference_cup_rank(eng), name
        assert eng.bracket_rank() == _reference_bracket_rank(eng), name
    assert hh2 == {False, True}


def test_cup_rank_computes_no_cup_when_hh2_vanishes(monkeypatch):
    for nmax in (2, 3):
        eng = _engine(kronecker_presentation(FIELD), nmax)
        assert eng.bar.hh_dim(2) == 0 and len(eng.classes(1)) == 3
        cups = _count_calls(monkeypatch, eng.bar, "cup")
        assert eng.cup_rank() == (0, False)
        assert cups == []


def test_cup_rank_computes_every_cup_at_nmax_1(monkeypatch):
    # HH^2 lies outside the window, so its dimension cannot rule the cups out
    for pres in (kronecker_presentation(FIELD), pi_presentation(FIELD)):
        eng = _engine(pres, 1)
        k = len(eng.classes(1))
        cups = _count_calls(monkeypatch, eng.bar, "cup")
        assert eng.cup_rank() == _reference_cup_rank(_engine(pres, 2))
        assert len(cups) == k * k


def test_cup_rank_looks_up_each_block_end_once(monkeypatch):
    for pres in (
        p1p1_presentation(FIELD, PsiTensor.zero(FIELD)),
        incidence_presentation(torus_simplicial_complex(), FIELD, FIELD.one()),
        random_monomial_presentation(FIELD, 19),
    ):
        eng = _engine(pres)
        eng.report()  # builds the differentials, which look ends up too
        bar = eng.bar
        assert bar.hh_dim(2) > 0
        blocks = sum(len(bar._blocks(c.vector, 1)) for c in eng.classes(1))
        ends = _count_calls(monkeypatch, bar, "_ends")
        eng.cup_rank()
        assert 0 < len(ends) <= 2 * blocks
        monkeypatch.undo()


def test_bracket_is_one_accumulation_of_both_circles():
    # [f, g] = f o g - (-1)^((p-1)(q-1)) g o f, from the cochain-level circles
    for pres in (pi_presentation(FIELD), p1p1_presentation(FIELD, parse_psi("ee:1,hf:2", FIELD))):
        eng = _engine(pres)
        bar = eng.bar
        for p, q in ((1, 1), (1, 2), (2, 1), (2, 2)):
            sign = FIELD.from_int(-((-1) ** ((p - 1) * (q - 1))))
            for a in eng.classes(p):
                for b in eng.classes(q):
                    fg = bar.circle_cochain(a.vector, p, b.vector, q)
                    gf = bar.circle_cochain(b.vector, q, a.vector, p)
                    want = bar.canonical(vec_add(FIELD, fg, gf, sign), p + q - 1)
                    assert bar.bracket(a, b).vector == want


def test_engine_holds_no_reference_cycle():
    # dropping an engine frees its matrices at once, not at the cyclic
    # garbage collector's next run, which would raise peak memory
    gc.disable()
    try:
        eng = _engine(pi_presentation(FIELD))
        eng.cup_rank()
        eng.bracket_rank()
        bar = weakref.ref(eng.bar)
        del eng
        assert bar() is None
    finally:
        gc.enable()


def test_cochain_keys_outside_their_degree_rejected():
    bar = _engine(pi_presentation(FIELD)).bar
    one = FIELD.one()
    for bad in (-1, bar.dim(1)):
        with pytest.raises(EngineError):
            bar.cup_cochain({bad: one}, 1, {0: one}, 1)
        with pytest.raises(EngineError):
            bar.cup_cochain({0: one}, 1, {bad: one}, 1)
        with pytest.raises(EngineError):
            bar.circle_cochain({0: one}, 1, {bad: one}, 1)


# --- dense reference for the products -----------------------------------
# The per-tuple formulas: scan every tuple of the target degree and evaluate
# both operands on its segments.


def _vertex_at(A, t, pos):
    """The vertex between t[pos - 1] and t[pos]; t itself when it is a vertex."""
    if isinstance(t, int):
        return t
    return A.target(t[pos]) if pos < len(t) else A.source(t[-1])


def _value(bar, vec, n, seg):
    """Value of a degree-n cochain on a tuple (a vertex when n = 0)."""
    A = bar.algebra
    ends = (seg, seg) if n == 0 else (A.source(seg[-1]), A.target(seg[0]))
    off = bar.offset[n][bar.tuple_index[n][seg]]
    return {b: vec[off + j] for j, b in enumerate(A.parallel(*ends)) if off + j in vec}


def _dense_cup(bar, fvec, p, gvec, q):
    A = bar.algebra
    out = {}
    for ti, t in enumerate(bar.tuples[p + q]):
        fseg = t[:p] if p else _vertex_at(A, t, 0)
        gseg = t[p:] if q else _vertex_at(A, t, p)
        prod = A.mul_vec(_value(bar, fvec, p, fseg), _value(bar, gvec, q, gseg))
        for k, c in prod.items():
            out[bar.offset[p + q][ti] + A.slot[k]] = c
    return out


def _dense_circle(bar, fvec, p, gvec, q):
    A, f = bar.algebra, bar.field
    n = p + q - 1
    out = {}
    for ti, t in enumerate(bar.tuples[n]):
        acc = {}
        for i in range(p):
            sign = f.from_int((-1) ** ((q - 1) * i))
            for w, cw in _value(bar, gvec, q, t[i : i + q]).items():
                if A.basis[w].is_trivial():
                    continue
                u = t[:i] + (w,) + t[i + q :]
                vec_iadd(f, acc, _value(bar, fvec, p, u), f.mul(sign, cw))
        for k, c in acc.items():
            out[bar.offset[n][ti] + A.slot[k]] = c
    return out


@lru_cache(maxsize=None)
def _product_bar(name):
    f7 = PrimeField(7)
    presentations = {
        "exterior": lambda: parse_presentation(EXTERIOR_TEXT),
        "torus-c fp:7": lambda: incidence_presentation(torus_cubical_complex(), f7, 2),
        "p1p1": lambda: p1p1_presentation(FIELD, parse_psi("ee:1,hf:2", FIELD)),
        "monomial 7": lambda: random_monomial_presentation(FIELD, 7),
    }
    return _engine(presentations[name]()).bar


@st.composite
def _cochain(draw, bar, n):
    """A sparse or a dense degree-n cochain; either may store zeros."""
    dim = bar.dim(n)
    scalars = st.integers(min_value=-2, max_value=2)
    if dim and draw(st.booleans()):
        raw = dict(enumerate(draw(st.lists(scalars, min_size=dim, max_size=dim))))
    else:
        keys = st.integers(min_value=0, max_value=max(dim - 1, 0))
        raw = draw(st.dictionaries(keys, scalars, max_size=6)) if dim else {}
    return {k: bar.field.from_int(v) for k, v in raw.items()}


@st.composite
def _product_case(draw):
    bar = _product_bar(draw(st.sampled_from(["exterior", "torus-c fp:7", "p1p1", "monomial 7"])))
    kind = draw(st.sampled_from(["cup", "circle"]))
    if kind == "cup":
        p, q = draw(st.sampled_from([(p, q) for p in range(3) for q in range(3)]))
    else:
        p, q = draw(st.sampled_from([(p, q) for p in (1, 2, 3) for q in (1, 2, 3) if p + q <= 4]))
    return bar, kind, draw(_cochain(bar, p)), p, draw(_cochain(bar, q)), q


@settings(deadline=None, max_examples=150)
@given(_product_case())
def test_products_match_dense_reference(case):
    bar, kind, fvec, p, gvec, q = case
    if kind == "cup":
        assert bar.cup_cochain(fvec, p, gvec, q) == _dense_cup(bar, fvec, p, gvec, q)
    else:
        assert bar.circle_cochain(fvec, p, gvec, q) == _dense_circle(bar, fvec, p, gvec, q)
