"""Engine invariant suites behind the ``checks`` CLI subcommand.

Each check is a named callable that raises AssertionError on failure; the
runner collects pass/fail results.  The fast scope covers every module's
structural invariants; the full scope adds the randomized sweeps.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import families
from .errors import EngineError
from .fields import PrimeField, Rationals, is_prime, primitive_root_of_unity
from .hochschild import HochschildCohomology, d_squared_zero
from .linalg import SparseMatrix, echelon, rref, vec_add
from .quiver import AlgebraElement, compose, enumerate_paths
from .rewrite import ReductionSystem, quotient_algebra
from .sl2 import (
    PsiTensor,
    contract,
    jj_dim,
    kernel_model_dims,
    killing,
    mat2_mul,
    psi_dagger_psi,
    sl2_to_matrix,
    stab_dim,
)

FEASIBLE_PAIRS = {
    (6, 0), (3, 3), (3, 0), (2, 1), (2, 0),
    (1, 2), (1, 1), (1, 0), (0, 1), (0, 0),
}
DIM_TRIPLES = {(1, 0, 3), (1, 1, 4), (1, 2, 5), (1, 3, 6), (1, 6, 9)}


def _rand_scalar(field, rng):
    if field.kind == "rationals":
        return field.div(field.from_int(rng.randint(-9, 9)), field.from_int(rng.randint(1, 9)))
    return rng.randrange(field.p)


def _canonical_rational(x) -> bool:
    """An int, or a Fraction that is not integral: the one form Rationals keeps."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def check_field_axioms(seed):
    rng = random.Random(seed)
    for field in (Rationals(), PrimeField(7), PrimeField(101)):
        for _ in range(50):
            a, b, c = (_rand_scalar(field, rng) for _ in range(3))
            lhs = (
                field.mul(a, field.mul(b, c)),
                field.add(a, field.add(b, c)),
                field.mul(a, field.add(b, c)),
                field.sub(field.add(a, b), b),
            )
            rhs = (
                field.mul(field.mul(a, b), c),
                field.add(field.add(a, b), c),
                field.add(field.mul(a, b), field.mul(a, c)),
                a,
            )
            assert lhs == rhs
            results = (a, b, c) + lhs + rhs
            if not field.is_zero(a):
                inv = field.inv(a)
                assert field.mul(a, inv) == field.one()
                results += (inv, field.neg(inv))
            if field.kind == "rationals":
                assert all(_canonical_rational(x) for x in results)


def check_scalar_roundtrip(seed):
    rng = random.Random(seed)
    for field in (Rationals(), PrimeField(13)):
        for _ in range(50):
            a = _rand_scalar(field, rng)
            back = field.parse_scalar(field.format_scalar(a))
            assert back == a and type(back) is type(a)


def check_roots_of_unity(seed):
    for p in range(2, 101):
        if not is_prime(p):
            continue
        field = PrimeField(p)
        for n in range(1, 13):
            root = primitive_root_of_unity(n, field)
            if (p - 1) % n == 0:
                assert root is not None and pow(root, n, p) == 1
                assert all(pow(root, k, p) != 1 for k in range(1, n))
            else:
                assert root is None


def check_path_associativity(seed):
    rng = random.Random(seed)
    field = Rationals()
    pres = families.pi_presentation(field)
    paths = [p for p in enumerate_paths(pres.quiver, 3) if not p.is_trivial()]
    found = 0
    while found < 30:
        p, q, r = rng.choice(paths), rng.choice(paths), rng.choice(paths)
        if p.source == q.target and q.source == r.target:
            assert compose(compose(p, q), r) == compose(p, compose(q, r))
            found += 1


def check_dsl_roundtrip(seed):
    from .dsl import parse_presentation, serialize_presentation

    field = Rationals()
    built = [
        families.kronecker_presentation(field),
        families.pi_presentation(field),
        families.p1p1_presentation(field, PsiTensor.from_int_array(field, [[2, 0, 0], [0, 1, 0], [0, 0, 2]])),
        families.incidence_presentation(families.torus_cubical_complex(), field, field.from_int(2)),
        families.incidence_presentation(families.torus_simplicial_complex(), field, field.from_int(-1)),
    ]
    for pres in built:
        text = serialize_presentation(pres)
        again = parse_presentation(text)
        assert again == pres


def check_family_confluence(seed):
    field = Rationals()
    for pres in (
        families.pi_presentation(field),
        families.p1p1_presentation(field, PsiTensor.from_int_array(field, [[1, 0, 0], [0, 0, 0], [0, 2, 0]])),
        families.incidence_presentation(families.torus_simplicial_complex(), field, field.from_int(2)),
    ):
        system = ReductionSystem.from_presentation(pres)
        report = system.check_confluence()
        assert report.confluent and not report.ambiguities
        for rel in pres.relations:
            assert system.normal_form(rel).is_zero()


def check_quotient_dims(seed):
    field = Rationals()
    q2 = field.from_int(2)
    assert quotient_algebra(families.incidence_presentation(families.torus_simplicial_complex(), field, q2)).dim == 168
    assert quotient_algebra(families.incidence_presentation(families.torus_cubical_complex(), field, q2)).dim == 64
    assert quotient_algebra(families.p1p1_presentation(field, PsiTensor.zero(field))).dim == 16
    A = quotient_algebra(families.pi_presentation(field))
    assert A.dim == 24 and A.dims_by_length == {0: 4, 1: 6, 2: 8, 3: 6}


def check_quotient_associativity(seed):
    rng = random.Random(seed)
    field = Rationals()
    A = quotient_algebra(families.pi_presentation(field))
    for _ in range(200):
        i, j, k = (rng.randrange(A.dim) for _ in range(3))
        u = A.mul_vec(A.mul_basis(i, j), {k: field.one()})
        v = A.mul_vec({i: field.one()}, A.mul_basis(j, k))
        assert u == v


def check_rank_transpose(seed):
    rng = random.Random(seed)
    for field in (Rationals(), PrimeField(7)):
        for _ in range(10):
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            m = SparseMatrix(rows, cols, field)
            for _ in range(rng.randint(0, rows * cols)):
                m.add(rng.randrange(rows), rng.randrange(cols), _rand_scalar(field, rng))
            res = echelon(m)
            assert res.rank == echelon(m.transpose()).rank
            # echelon(m) and echelon(m^T) eliminate the same side of m, so
            # take the rank off m's rows and off its columns as well
            assert res.rank == res.row_space.dim
            assert res.rank == rref(field, list(m.columns().values()), m.nrows).dim


def check_quotient_coords(seed):
    rng = random.Random(seed)
    field = Rationals()
    m = SparseMatrix(4, 6, field)
    for _ in range(12):
        m.add(rng.randrange(4), rng.randrange(6), _rand_scalar(field, rng))
    ech = echelon(m)
    image = ech.row_space
    for _ in range(20):
        v = {i: _rand_scalar(field, rng) for i in range(6) if rng.random() < 0.6}
        red = image.reduce(v)
        assert image.reduce(red) == red
        # linearity
        w = {i: _rand_scalar(field, rng) for i in range(6) if rng.random() < 0.6}
        lhs = image.reduce(vec_add(field, v, w))
        rhs = vec_add(field, image.reduce(v), image.reduce(w))
        assert lhs == rhs
    for row in image.rows:
        assert not image.reduce(row)


def check_fp_rational_rank_agreement(seed):
    rng = random.Random(seed)
    big = PrimeField(1000003)
    rat = Rationals()
    for _ in range(10):
        rows, cols = rng.randint(2, 7), rng.randint(2, 7)
        mq = SparseMatrix(rows, cols, rat)
        mp = SparseMatrix(rows, cols, big)
        for _ in range(rng.randint(1, rows * cols)):
            r, c, v = rng.randrange(rows), rng.randrange(cols), rng.randint(-3, 3)
            if v:
                mq.add(r, c, rat.from_int(v))
                mp.add(r, c, v % big.p)
        assert echelon(mq).rank == echelon(mp).rank


def _family_engines(field):
    yield "torus-s", HochschildCohomology(
        families.incidence_presentation(families.torus_simplicial_complex(), field, field.from_int(2))
    )
    yield "torus-c", HochschildCohomology(
        families.incidence_presentation(families.torus_cubical_complex(), field, field.from_int(-1))
    )
    yield "p1p1", HochschildCohomology(
        families.p1p1_presentation(field, PsiTensor.from_int_array(field, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    )
    yield "pi", HochschildCohomology(families.pi_presentation(field))
    yield "kronecker", HochschildCohomology(families.kronecker_presentation(field))


def check_d_squared_zero(seed):
    field = Rationals()
    for name, eng in _family_engines(field):
        assert d_squared_zero(eng.bar), name
    for s in range(3):
        pres = families.random_monomial_presentation(field, seed + s)
        eng = HochschildCohomology(pres)
        assert d_squared_zero(eng.bar)


def check_small_bar_agreement(seed):
    field = Rationals()
    for name, eng in _family_engines(field):
        report = eng.report()  # raises ConsistencyError on disagreement
        if eng.small is not None:
            assert report.small_hh == report.dims[:3], name


def check_euler_consistency(seed):
    field = Rationals()
    for name, eng in _family_engines(field):
        report = eng.report()
        assert report.complete, name
        assert report.euler == sum((-1) ** n * d for n, d in enumerate(report.dims)), name


def check_leibniz(seed):
    rng = random.Random(seed)
    field = Rationals()
    minus_one = field.from_int(-1)
    for pres in (
        families.p1p1_presentation(field, PsiTensor.from_int_array(field, [[1, 0, 0], [0, 0, 2], [0, 0, 0]])),
        families.pi_presentation(field),
    ):
        bar = HochschildCohomology(pres).bar
        for p, q in ((1, 1), (1, 2), (2, 1)):
            if p + q + 1 > bar.nmax + 1:
                continue
            fv = {i: field.from_int(rng.randint(-2, 2)) for i in range(bar.dim(p)) if rng.random() < 0.5}
            gv = {i: field.from_int(rng.randint(-2, 2)) for i in range(bar.dim(q)) if rng.random() < 0.5}
            lhs = bar.differential(p + q).apply(bar.cup_cochain(fv, p, gv, q))
            rhs = bar.cup_cochain(bar.differential(p).apply(fv), p + 1, gv, q)
            sign = field.one() if p % 2 == 0 else minus_one
            rhs = vec_add(field, rhs, bar.cup_cochain(fv, p, bar.differential(q).apply(gv), q + 1), sign)
            assert lhs == rhs


def check_graded_commutativity(seed):
    field = Rationals()
    for name, eng in _family_engines(field):
        classes = {n: eng.classes(n) for n in (1, 2)}
        for p in (1, 2):
            for q in (1, 2):
                if p + q > eng.nmax:
                    continue
                sign = field.one() if (p * q) % 2 == 0 else field.from_int(-1)
                for a in classes[p]:
                    for b in classes[q]:
                        ab = eng.bar.cup(a, b).vector
                        ba = eng.bar.cup(b, a).vector
                        assert ab == {k: field.mul(sign, v) for k, v in ba.items()}, name


def check_bracket_properties(seed):
    field = Rationals()
    for name, eng in _family_engines(field):
        ones = eng.classes(1)
        for a in ones:
            fa = eng.bar.bracket(a, a)
            assert fa.is_zero(), name  # [f, f] = 0 in degree 1, char 0
            for b in ones:
                br = eng.bar.bracket(a, b)
                assert eng.bar.is_cocycle(br.vector, br.degree), name
                rev = eng.bar.bracket(b, a)
                assert br.vector == {k: field.neg(v) for k, v in rev.vector.items()}, name


def check_cell_complexes(seed):
    cs = families.torus_simplicial_complex()
    cc = families.torus_cubical_complex()
    assert (len(cs.vertices), len(cs.edges), len(cs.faces)) == (7, 21, 14)
    assert (len(cc.vertices), len(cc.edges), len(cc.faces)) == (4, 8, 4)
    assert cs.euler_characteristic() == 0 and cc.euler_characteristic() == 0
    # every vertex pair of the simplicial torus is an edge
    pairs = {ends for _, ends in cs.edges}
    assert len(pairs) == 21


def check_orientation_reversal(seed):
    field = Rationals()
    for cell_fn in (families.torus_simplicial_complex, families.torus_cubical_complex):
        cell = cell_fn()
        reversed_faces = []
        for walk in cell.faces:
            k = len(walk)
            rev = [(walk[(i + 1) % k][0], walk[i][1]) for i in range(k - 1, -1, -1)]
            reversed_faces.append(rev)
        rcell = families.CellComplexData(cell.vertices, cell.edges, reversed_faces)
        q = field.from_int(2)
        d1 = HochschildCohomology(families.incidence_presentation(cell, field, q)).report().dims
        d2 = HochschildCohomology(families.incidence_presentation(rcell, field, q)).report().dims
        assert d1 == d2


def check_cayley_hamilton(seed):
    rng = random.Random(seed)
    field = Rationals()
    for _ in range(50):
        a = tuple(field.from_int(rng.randint(-4, 4)) for _ in range(3))
        b = tuple(field.from_int(rng.randint(-4, 4)) for _ in range(3))
        A, B = sl2_to_matrix(field, a), sl2_to_matrix(field, b)
        AB, BA = mat2_mul(field, A, B), mat2_mul(field, B, A)
        k = killing(a, b, field)
        assert field.add(AB[0][0], BA[0][0]) == k
        assert field.add(AB[1][1], BA[1][1]) == k
        assert field.is_zero(field.add(AB[0][1], BA[0][1]))
        assert field.is_zero(field.add(AB[1][0], BA[1][0]))


def check_contraction_identity(seed):
    rng = random.Random(seed)
    field = Rationals()
    for _ in range(20):
        psi = PsiTensor.from_int_array(field, [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        v = tuple(field.from_int(rng.randint(-3, 3)) for _ in range(3))
        lhs = contract(psi, contract(psi, v, "left"), "right")
        M = psi_dagger_psi(psi)
        rhs = tuple(
            sum((field.mul(M[i][j], v[j]) for j in range(3)), start=field.zero())
            for i in range(3)
        )
        assert lhs == rhs


def check_normal_form_strategy_independence(seed):
    rng = random.Random(seed)
    field = Rationals()
    pres = families.pi_presentation(field)
    base = ReductionSystem.from_presentation(pres)
    base.complete(4)
    paths = [p for p in enumerate_paths(pres.quiver, 3)]
    for _ in range(25):
        elem = AlgebraElement.zero(pres.quiver, field)
        for _ in range(rng.randint(1, 4)):
            elem = elem + AlgebraElement.from_path(
                pres.quiver, field, rng.choice(paths), field.from_int(rng.randint(-3, 3))
            )
        reference = base.normal_form(elem)
        for _ in range(5):
            rules = base.rules[:]
            rng.shuffle(rules)
            alt = ReductionSystem(pres.quiver, field, rules, order_key=base.order_key)
            assert alt.normal_form(elem).canonical_terms() == reference.canonical_terms()


def check_three_way_psi(seed):
    for field in (Rationals(), PrimeField(7)):
        rng = random.Random(seed)
        for _ in range(25):
            psi = PsiTensor.from_int_array(field, [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            report = HochschildCohomology(families.p1p1_presentation(field, psi)).report()
            km = kernel_model_dims(psi)
            s, j = stab_dim(psi), jj_dim(psi)
            assert report.dims[0] == 1, field
            assert report.dims[2] == report.dims[1] + 3, field
            assert report.dims[:3] in DIM_TRIPLES, field
            assert report.dims[1] == km.total == s + j, field
            assert (s, j) in FEASIBLE_PAIRS, field


def check_feasibility_sample(seed):
    rng = random.Random(seed)
    field = Rationals()
    for _ in range(200):
        psi = PsiTensor.from_int_array(field, [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        assert (stab_dim(psi), jj_dim(psi)) in FEASIBLE_PAIRS


def check_monomial_cup_vanishing(seed):
    field = Rationals()
    for s in range(20):
        pres = families.random_monomial_presentation(field, seed + s)
        length = pres.quiver.longest_path_length()
        eng = HochschildCohomology(pres, nmax=max(3, length + 1))
        assert eng.bar.top_degree_complete()
        classes = {n: eng.classes(n) for n in range(1, eng.nmax)}
        for p, ap in classes.items():
            for q, aq in classes.items():
                if p + q > eng.nmax:
                    continue
                for a in ap:
                    for b in aq:
                        assert eng.bar.cup(a, b).is_zero(), (s, p, q)


def check_product_ranks(seed):
    """cup_rank and bracket_rank against the span of every HH^1 product."""
    for field in (Rationals(), PrimeField(7)):
        engines = [eng for _, eng in _family_engines(field)] + [
            HochschildCohomology(families.random_monomial_presentation(field, seed + s))
            for s in range(10)
        ]
        for eng in engines:
            bar = eng.bar
            ones = eng.classes(1)
            cups = [bar.cup(a, b).vector for a in ones for b in ones]
            brackets = [bar.bracket(a, b).vector for i, a in enumerate(ones) for b in ones[i + 1 :]]
            cup_dim = rref(field, [v for v in cups if v], bar.dim(2)).dim
            assert eng.cup_rank() == (cup_dim, cup_dim > 0)
            assert eng.bracket_rank() == rref(field, [v for v in brackets if v], bar.dim(1)).dim


FAST_CHECKS = [
    ("field-axioms", check_field_axioms),
    ("scalar-roundtrip", check_scalar_roundtrip),
    ("roots-of-unity", check_roots_of_unity),
    ("path-associativity", check_path_associativity),
    ("dsl-roundtrip", check_dsl_roundtrip),
    ("family-confluence", check_family_confluence),
    ("quotient-dims", check_quotient_dims),
    ("quotient-associativity", check_quotient_associativity),
    ("rank-transpose", check_rank_transpose),
    ("quotient-coords", check_quotient_coords),
    ("fp-rational-rank-agreement", check_fp_rational_rank_agreement),
    ("d-squared-zero", check_d_squared_zero),
    ("small-bar-agreement", check_small_bar_agreement),
    ("euler-consistency", check_euler_consistency),
    ("cochain-leibniz", check_leibniz),
    ("graded-commutativity", check_graded_commutativity),
    ("bracket-properties", check_bracket_properties),
    ("cell-complex-validation", check_cell_complexes),
    ("orientation-reversal", check_orientation_reversal),
    ("cayley-hamilton", check_cayley_hamilton),
    ("contraction-identity", check_contraction_identity),
    ("normal-form-strategy-independence", check_normal_form_strategy_independence),
]

FULL_CHECKS = FAST_CHECKS + [
    ("three-way-psi-agreement", check_three_way_psi),
    ("feasibility-sample", check_feasibility_sample),
    ("monomial-cup-vanishing", check_monomial_cup_vanishing),
    ("product-ranks", check_product_ranks),
]


def run_checks(scope="fast", seed=0):
    """Run the invariant suite; returns a machine-readable summary."""
    if scope not in ("fast", "full"):
        raise EngineError("scope must be fast or full")
    table = FAST_CHECKS if scope == "fast" else FULL_CHECKS
    passed, failed = [], []
    for name, fn in table:
        try:
            fn(seed)
        except Exception as exc:  # collect everything; the caller decides
            failed.append({"name": name, "error": f"{type(exc).__name__}: {exc}"})
        else:
            passed.append(name)
    return {
        "scope": scope,
        "seed": seed,
        "passed": passed,
        "failed": failed,
        "ok": not failed,
    }
