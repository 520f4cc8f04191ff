"""Pin the coordinate layout of cochain vectors.

The report digests cover only dimensions and ranks; these digests cover the
coordinates themselves: the differential matrices, the small complex, and
the class, cup and bracket vectors.  They were recorded before the block
layout (``offset[n][ti] + algebra.slot[b]``) replaced the pair lists, which
it must reproduce exactly.
"""

import hashlib
import itertools

from quiverhh.dsl import parse_presentation
from quiverhh.families import (
    incidence_presentation,
    p1p1_presentation,
    random_monomial_presentation,
    torus_cubical_complex,
    torus_simplicial_complex,
)
from quiverhh.fields import PrimeField, Rationals
from quiverhh.hochschild import HochschildCohomology, SmallComplex
from quiverhh.rewrite import quotient_algebra
from quiverhh.sl2 import parse_psi

EXTERIOR_TEXT = """
field fp:7
quiver { vertices: o ; arrows: x: o -> o ; y: o -> o }
relations { x*x ; y*y ; x*y + y*x ; }
"""

TORUS_C_FP7_Q2 = [
    "214dbda99f0bfcea20c310afdd8d8bed07a67bc1b6c3dc9e3b928c07398954be",
    "d3d62660f3cb92974b088e24217a6df34b30e7bf19e75a91129150a7bbb94b9f",
    "acf006f292d8a4b7cacb2b8ba7434c5f796207e9f0e189c8fcb4250720baed95",
    "0ccdb5a77ba5bf7687f2565a8ed97dfb9c1af45503c496fb646312239fab5101",
]
EXTERIOR_NMAX4 = [
    "7ee574c5926ba9c0c5d5dd44fcec1c033180b3d731cb47c161cf1b6ef95fdbd3",
    "b725e3ab6d02653ffa0c48a37629b9805489113a68022261bfa9a7ad71fe6894",
    "c8a4e55849b884534c1f4dd5974f11909cb32afdfae2c32c27a296d4b8f9fbcf",
    "a8926053efb96e6378640632e1e40875a7c8ad7dabf84ec4364c3e4b08bc32fd",
    "2031220099f5a85ce22e8f139ced77e28816d634cc02c93df30f83f3ba88a280",
]
SMALL_TORUS_S_Q2 = (
    "b2c5d4145f5651873b3df0ac9bd1634866fc9a593e2d82fb90bc747978d3e5bc",
    "7f7b58f812ba22cf59d47b06ec80e878693cd97189cd98eff8cb9b536fded8da",
)
PRODUCTS = {
    "exterior": "b7d284f5ffa9bfbd53c659a24cb31424551be47283addef62237f20583409795",
    "torus-c": "db1d807353e0cb9d7324935239f46e22c362d9d5295a01ddd8ada5f65dce8cdc",
    "p1p1": "35e5027ab0c83682db54651fb35a25edd706c0cbc584417790aa35cb39a6fd67",
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _differential_digests(bar):
    return [_sha(bar.differential(n).dump_coordinates()) for n in range(bar.nmax + 1)]


def test_differential_coordinates_torus_cubical():
    f = PrimeField(7)
    pres = incidence_presentation(torus_cubical_complex(), f, f.from_int(2))
    assert _differential_digests(HochschildCohomology(pres).bar) == TORUS_C_FP7_Q2


def test_differential_coordinates_exterior():
    pres = parse_presentation(EXTERIOR_TEXT)
    assert _differential_digests(HochschildCohomology(pres, nmax=4).bar) == EXTERIOR_NMAX4


def test_small_complex_coordinates_torus_simplicial():
    f = Rationals()
    pres = incidence_presentation(torus_simplicial_complex(), f, f.from_int(2))
    small = SmallComplex(quotient_algebra(pres))
    got = (_sha(small.d0.dump_coordinates()), _sha(small.d1.dump_coordinates()))
    assert got == SMALL_TORUS_S_Q2


def _products_text(eng):
    """Every HH^1 class vector, then every cup and bracket of two of them."""
    bar = eng.bar
    fmt = bar.field.format_scalar
    ones = eng.classes(1)
    vecs = [c.vector for c in ones]
    vecs += [bar.cup(a, b).vector for a in ones for b in ones]
    vecs += [bar.bracket(a, b).vector for a in ones for b in ones]
    return "\n".join(" ".join(f"{k}:{fmt(v[k])}" for k in sorted(v)) for v in vecs) + "\n"


def test_product_coordinates():
    f7, q = PrimeField(7), Rationals()
    full = parse_psi("ee:1,eh:1,ef:1,he:1,hh:1,hf:1,fe:1,fh:1,ff:1", q)
    engines = {
        "exterior": HochschildCohomology(parse_presentation(EXTERIOR_TEXT), nmax=4),
        "torus-c": HochschildCohomology(
            incidence_presentation(torus_cubical_complex(), f7, f7.one())
        ),
        "p1p1": HochschildCohomology(p1p1_presentation(q, full)),
    }
    got = {name: _sha(_products_text(eng)) for name, eng in engines.items()}
    assert got == PRODUCTS


def _brute_force_tuples(algebra, n):
    """Sorted composable n-tuples of radical indices; the first entry acts last."""
    return [
        t
        for t in itertools.product(algebra.radical, repeat=n)
        if all(algebra.target(t[k + 1]) == algebra.source(t[k]) for k in range(n - 1))
    ]


def _check_tuples(bar):
    A = bar.algebra
    assert bar.tuples[0] == list(range(A.quiver.n_vertices))
    for n in range(1, bar.nmax + 2):
        assert bar.tuples[n] == _brute_force_tuples(A, n), n


def test_tuples_match_brute_force_exterior():
    _check_tuples(HochschildCohomology(parse_presentation(EXTERIOR_TEXT), nmax=4).bar)


def test_tuples_match_brute_force_random_monomial():
    # seed 7 has composable tuples in every degree up to nmax + 1 = 4
    bar = HochschildCohomology(random_monomial_presentation(Rationals(), 7)).bar
    assert all(bar.tuples[n] for n in range(5))
    _check_tuples(bar)
