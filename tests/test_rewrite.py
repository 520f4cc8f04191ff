import random

import pytest

from quiverhh.dsl import parse_presentation
from quiverhh.errors import CompletionError, InfiniteDimensionalError
from quiverhh.families import (
    FAMILY_NAMES,
    family_presentation,
    incidence_presentation,
    p1p1_presentation,
    pi_presentation,
    random_monomial_presentation,
    torus_cubical_complex,
    torus_simplicial_complex,
)
from quiverhh.fields import PrimeField, Rationals
from quiverhh.quiver import AlgebraElement, enumerate_paths, path_from_names
from quiverhh.rewrite import ReductionSystem, quotient_algebra
from quiverhh.sl2 import parse_psi

FIELD = Rationals()


def test_normal_form_pi_relation():
    pres = pi_presentation(FIELD)
    sys_ = ReductionSystem.from_presentation(pres)
    q = pres.quiver
    lead = path_from_names(q, ["y2", "x1", "x0"])
    nf = sys_.normal_form(AlgebraElement.from_path(q, FIELD, lead))
    (p, c), = nf.terms.items()
    assert str(p) == "x2*x1*y0"
    assert c == FIELD.one()


def test_normal_form_fixes_irreducible():
    pres = pi_presentation(FIELD)
    sys_ = ReductionSystem.from_presentation(pres)
    q = pres.quiver
    p = path_from_names(q, ["x2", "x1", "y0"])
    e = AlgebraElement.from_path(q, FIELD, p)
    assert sys_.normal_form(e) == e


def test_torus_single_step_rewrite():
    q2 = FIELD.from_int(2)
    pres = incidence_presentation(torus_simplicial_complex(), FIELD, q2)
    sys_ = ReductionSystem.from_presentation(pres)
    lead, rel = next(pres.oriented_relations())
    e = AlgebraElement.from_path(pres.quiver, FIELD, lead)
    nf = sys_.normal_form(e)
    (p, c), = nf.terms.items()
    assert c == q2 and p != lead


def test_confluence_families():
    for pres in (
        pi_presentation(FIELD),
        incidence_presentation(torus_simplicial_complex(), FIELD, FIELD.from_int(3)),
        incidence_presentation(torus_cubical_complex(), FIELD, FIELD.from_int(-1)),
    ):
        report = ReductionSystem.from_presentation(pres).check_confluence()
        assert report.confluent
        assert report.ambiguities == []


_CRAFTED_NON_CONFLUENT = """
field rational
quiver { vertices: v1 v2 v3 v4 ;
         arrows: a: v1 -> v2 ; a2: v1 -> v2 ; b: v2 -> v3 ; b2: v2 -> v3 ;
                 c: v3 -> v4 ; c2: v3 -> v4 }
relations { b*a - b2*a2 ; c*b - c2*b2 ; }
"""


def test_crafted_non_confluent_pair():
    # the order policy picks b2*a2 and c2*b2 as leading words; the overlap
    # word c2*b2*a2 rewrites to c2*b*a one way and to c*b*a2 the other, both
    # irreducible, so the pair is not confluent as given
    pres = parse_presentation(_CRAFTED_NON_CONFLUENT)
    sys_ = ReductionSystem.from_presentation(pres)
    report = sys_.check_confluence()
    assert not report.confluent
    unresolved = [a for a in report.ambiguities if not a.resolved]
    assert len(unresolved) == 1
    assert str(unresolved[0].word) == "c2*b2*a2"
    # hand reduction: the two normal forms differ by c2*b*a - c*b*a2
    s = unresolved[0].s_element
    assert sorted(str(p) for p in s.terms) == ["c*b*a2", "c2*b*a"]
    # completion adds exactly one length-3 rule and becomes confluent
    n_before = len(sys_.rules)
    sys_.complete(length_bound=3)
    assert len(sys_.rules) == n_before + 1
    assert sys_.rules[-1].leading.length == 3
    assert sys_.check_confluence().confluent


def test_complete_is_identity_on_confluent_systems():
    for pres in (
        pi_presentation(FIELD),
        incidence_presentation(torus_simplicial_complex(), FIELD, FIELD.one()),
    ):
        sys_ = ReductionSystem.from_presentation(pres)
        n = len(sys_.rules)
        sys_.complete(length_bound=4)
        assert len(sys_.rules) == n


def test_degenerate_relation_warns_and_drops():
    pres = pi_presentation(FIELD)
    sys_ = ReductionSystem.from_presentation(pres)
    rel = pres.relations[0]
    with pytest.warns(UserWarning):
        sys_.add_oriented(rel)  # already in the ideal; reduces to zero
    assert len(sys_.rules) == 2


def test_quotient_dimensions():
    assert quotient_algebra(
        incidence_presentation(torus_simplicial_complex(), FIELD, FIELD.one())
    ).dim == 168
    assert quotient_algebra(
        incidence_presentation(torus_cubical_complex(), FIELD, FIELD.one())
    ).dim == 64
    from quiverhh.sl2 import PsiTensor

    assert quotient_algebra(p1p1_presentation(FIELD, PsiTensor.zero(FIELD))).dim == 16
    A = quotient_algebra(pi_presentation(FIELD))
    assert A.dim == 24
    assert A.dims_by_length == {0: 4, 1: 6, 2: 8, 3: 6}


def test_ideal_membership():
    for pres in (
        pi_presentation(FIELD),
        incidence_presentation(torus_cubical_complex(), FIELD, FIELD.from_int(5)),
    ):
        sys_ = ReductionSystem.from_presentation(pres)
        for rel in pres.relations:
            assert sys_.normal_form(rel).is_zero()


def test_quotient_associativity_random():
    rng = random.Random(11)
    A = quotient_algebra(pi_presentation(FIELD))
    one = FIELD.one()
    for _ in range(200):
        i, j, k = (rng.randrange(A.dim) for _ in range(3))
        assert A.mul_vec(A.mul_basis(i, j), {k: one}) == A.mul_vec({i: one}, A.mul_basis(j, k))


def test_unit_is_sum_of_vertex_idempotents():
    A = quotient_algebra(pi_presentation(FIELD))
    u = A.unit()
    rng = random.Random(2)
    for _ in range(30):
        i = rng.randrange(A.dim)
        assert A.mul_vec(u, {i: FIELD.one()}) == {i: FIELD.one()}
        assert A.mul_vec({i: FIELD.one()}, u) == {i: FIELD.one()}


def test_normal_form_strategy_independence():
    rng = random.Random(8)
    pres = pi_presentation(FIELD)
    base = ReductionSystem.from_presentation(pres)
    base.complete(4)
    paths = enumerate_paths(pres.quiver, 3)
    for _ in range(100):
        elem = AlgebraElement.zero(pres.quiver, FIELD)
        for _ in range(rng.randint(1, 4)):
            elem = elem + AlgebraElement.from_path(
                pres.quiver, FIELD, rng.choice(paths), FIELD.from_int(rng.randint(-3, 3))
            )
        reference = base.normal_form(elem).canonical_terms()
        for _ in range(5):
            rules = base.rules[:]
            rng.shuffle(rules)
            alt = ReductionSystem(pres.quiver, FIELD, rules, order_key=base.order_key)
            assert alt.normal_form(elem).canonical_terms() == reference


def test_unbounded_completion_raises():
    text = """
    field rational
    quiver { vertices: v ; arrows: y: v -> v ; x: v -> v }
    relations { x*x - x*y ; }
    """
    with pytest.raises(CompletionError):
        quotient_algebra(parse_presentation(text))


def test_infinite_dimensional_detection():
    text = """
    field rational
    quiver { vertices: v ; arrows: x: v -> v }
    """
    with pytest.raises(InfiniteDimensionalError):
        quotient_algebra(parse_presentation(text))


def test_finite_dimensional_cyclic_quiver():
    text = """
    field rational
    quiver { vertices: v ; arrows: x: v -> v }
    relations { x*x ; }
    """
    assert quotient_algebra(parse_presentation(text)).dim == 2


def test_trace_mode_logs_ambiguities():
    lines = []
    pres = parse_presentation(_CRAFTED_NON_CONFLUENT)
    sys_ = ReductionSystem.from_presentation(pres, trace=lines.append)
    sys_.check_confluence()
    assert any("overlap" in line for line in lines)


def _brute_force_redex(system, path):
    """First (position, rule) by scanning every rule at every position."""
    arrows = path.arrows
    for pos in range(len(arrows)):
        for rule in system.rules:
            la = rule.leading.arrows
            if arrows[pos : pos + len(la)] == la:
                return pos, rule
    return None


def _brute_force_ambiguities(system):
    """Overlaps and inclusions over every ordered pair of rules."""
    out = []
    for i, ra in enumerate(system.rules):
        a = ra.leading.arrows
        for j, rb in enumerate(system.rules):
            b = rb.leading.arrows
            for t in range(1, min(len(a), len(b))):
                if a[len(a) - t :] == b[:t]:
                    out.append(("overlap", i, j, a + b[t:], len(a) - t))
            if i != j and len(b) < len(a):
                for pos in range(len(a) - len(b) + 1):
                    if a[pos : pos + len(b)] == b:
                        out.append(("inclusion", i, j, a, pos))
    return out


_EXTERIOR = """
field fp:7
quiver { vertices: o ; arrows: x: o -> o ; y: o -> o }
relations { x*x ; y*y ; x*y + y*x ; }
"""

# c*b sits inside c*b*a, and e*d (the leading word of e*d - b*a) inside c*e*d
_NESTED_LEADING_WORDS = """
field rational
quiver { vertices: v1 v2 v3 v4 ;
         arrows: a: v1 -> v2 ; d: v1 -> v2 ; b: v2 -> v3 ; e: v2 -> v3 ; c: v3 -> v4 }
relations { c*b ; c*b*a ; e*d - b*a ; c*e*d ; }
"""


def _rule_index_systems():
    psi = parse_psi("ee:1,hf:2", FIELD)
    for name in FAMILY_NAMES:
        pres = family_presentation(name, FIELD, q=FIELD.from_int(2), psi=psi)
        yield name, quotient_algebra(pres).system, 4
    yield "exterior", quotient_algebra(parse_presentation(_EXTERIOR)).system, 5
    for seed in range(20):
        pres = random_monomial_presentation(PrimeField(7), seed)
        yield f"monomial {seed}", quotient_algebra(pres).system, 4
    pres = parse_presentation(_NESTED_LEADING_WORDS)
    yield "nested", ReductionSystem.from_presentation(pres), 3
    yield "nested completed", quotient_algebra(pres).system, 3


def test_first_arrow_index_matches_brute_force():
    for name, system, length in _rule_index_systems():
        ambiguities = system._ambiguities()
        assert ambiguities == _brute_force_ambiguities(system), name
        if name == "nested":
            assert [amb[0] for amb in ambiguities].count("inclusion") == 2
        for path in enumerate_paths(system.quiver, length):
            assert system._find_redex(path) == _brute_force_redex(system, path), (name, path)
