import json
import random
from fractions import Fraction

import pytest

from magma_tits.exact import QQ, GF, Matrix, vec_eq
from magma_tits.algebra import (
    SuperAlgebra, LinearMap, Grading, ODD,
    check_super_jacobi, check_super_jacobi_reference,
    is_automorphism, is_derivation, map_failures, check_grading, centralizer,
)
from magma_tits.composition import ground, split_cayley, split_quaternion
from magma_tits.jordan import h3, jordan_super_jvtheta
from magma_tits.structurable import a_of_j
from magma_tits.tits import tits
from magma_tits.s4 import s4_on_tits_right
from magma_tits.isomorphisms import homomorphism_failures, jordan_to_aj_map, theorem41


def sl2(field=QQ):
    # e, f, h with [e,f]=h, [h,e]=2e, [h,f]=-2f
    sc = {
        (0, 1): {2: 1}, (1, 0): {2: -1},
        (2, 0): {0: 2}, (0, 2): {0: -2},
        (2, 1): {1: -2}, (1, 2): {1: 2},
    }
    return SuperAlgebra(["e", "f", "h"], sc, field=field, name="sl2", is_lie_claimed=True)


def bad_two_dim():
    # start from [a,b] = a = -[b,a], inject the wrong constant [a,b] = b:
    # the table is no longer super-anticommutative
    sc = {(0, 1): {1: 1}, (1, 0): {0: -1}}
    return SuperAlgebra(["a", "b"], sc, name="bad2")


def bad_three_dim():
    # so3 table with [a,c] corrupted: the Jacobiator of (a,b,c) is -c
    sc = {
        (0, 1): {2: 1}, (1, 0): {2: -1},
        (1, 2): {0: 1}, (2, 1): {0: -1},
        (0, 2): {0: 1}, (2, 0): {0: -1},
    }
    return SuperAlgebra(["a", "b", "c"], sc, name="bad3")


def good_two_dim():
    # [a,b] = a: the nonabelian 2-dimensional Lie algebra
    sc = {(0, 1): {0: 1}, (1, 0): {0: -1}}
    return SuperAlgebra(["a", "b"], sc, name="aff1")


def test_multiply_bilinear():
    L = sl2()
    e, f, h = L.e("e"), L.e("f"), L.e("h")
    assert vec_eq(L.multiply(e, f), h)
    x = [Fraction(2), Fraction(0), Fraction(1)]   # 2e + h
    y = [Fraction(0), Fraction(1), Fraction(0)]   # f
    # [2e+h, f] = 2h - 2f
    assert L.multiply(x, y) == [Fraction(0), Fraction(-2), Fraction(2)]


def test_multiply_dimension_mismatch():
    L = sl2()
    with pytest.raises(ValueError):
        L.multiply([1, 0], [0, 1, 0])


def test_jacobi_pass_sl2():
    rep = check_super_jacobi(sl2())
    assert rep.ok
    assert rep.triples_checked == 3 * 4 * 5 // 6


def test_jacobi_pass_abelian():
    A = SuperAlgebra(["x", "y", "z"], {}, name="abelian")
    assert check_super_jacobi(A).ok


def test_jacobi_negative_control_anticom():
    rep = check_super_jacobi(bad_two_dim())
    assert not rep.ok
    assert rep.anticom_failures == [(0, 1)]


def test_jacobi_negative_control_triple():
    rep = check_super_jacobi(bad_three_dim())
    assert not rep.ok
    assert rep.failures
    i, j, k, witness = rep.failures[0]
    assert (i, j, k) == (0, 1, 2)
    assert witness != "0"
    ref = check_super_jacobi_reference(bad_three_dim())
    assert not ref.ok and ref.failures[0][:3] == (0, 1, 2)


def test_jacobi_good_two_dim():
    assert check_super_jacobi(good_two_dim()).ok


def test_jacobi_anticommutativity_precheck():
    sc = {(0, 1): {0: 1}, (1, 0): {0: 1}}  # symmetric, not skew
    A = SuperAlgebra(["a", "b"], sc)
    rep = check_super_jacobi(A)
    assert not rep.ok and rep.anticom_failures


def _random_super_table(rng, field, pool, n=5, density=0.3):
    """Seeded super-anticommutative table with odd basis elements."""
    parity = [rng.randint(0, 1) for _ in range(n)]
    sc = {}
    for i in range(n):
        for j in range(i, n):
            if i == j and not parity[i]:
                continue
            want = (parity[i] + parity[j]) % 2
            row = {k: field.of(rng.choice(pool)) for k in range(n)
                   if parity[k] == want and rng.random() < density}
            row = {k: c for k, c in row.items() if c}
            if row:
                sign = -1 if (parity[i] and parity[j]) else 1
                sc[(i, j)] = row
                sc[(j, i)] = {k: -sign * c for k, c in row.items()}
    return SuperAlgebra(["b%d" % i for i in range(n)], sc, parity=parity, field=field)


def _cyclic_jacobiator(A, i, j, k):
    p, m = A.parity, A.multiply
    x, y, z = A.e(i), A.e(j), A.e(k)
    terms = [(-1 if p[i] and p[k] else 1, m(m(x, y), z)),
             (-1 if p[j] and p[i] else 1, m(m(y, z), x)),
             (-1 if p[k] and p[j] else 1, m(m(z, x), y))]
    return [sum((s * v[l] for s, v in terms), start=A.field.zero) for l in range(A.n)]


def _assert_witnesses_hold(A, rep):
    for i, j, k, shown in rep.failures:
        jac = _cyclic_jacobiator(A, i, j, k)
        assert any(jac)
        assert A.format_vector(jac) == shown


def _all_failing_triples(A):
    """Every (i, j, k), i <= j, with a nonzero jacobiator, in sorted order."""
    return [(i, j, k) for i in range(A.n) for j in range(i, A.n) for k in range(A.n)
            if any(_cyclic_jacobiator(A, i, j, k))]


JACOBI_POOLS = (
    (QQ, [Fraction(v) for v in (-2, -1, 1, 2)]),
    (QQ, [Fraction(1), Fraction(-3), Fraction(2 ** 70), Fraction(1, 2 ** 70),
          Fraction(-5, 2 ** 70)]),
    (GF(10007), [1, 2, 5003, 10006]),
    (GF(2 ** 31 - 1), [1, 3, 2 ** 30, 2 ** 31 - 2]),   # past the int64 sum bound
)


def test_jacobi_fast_agrees_with_reference():
    rng = random.Random(0)
    for field, pool in JACOBI_POOLS:
        verdicts = set()
        for trial in range(40):
            A = _random_super_table(rng, field, pool, density=rng.choice((0.15, 0.3, 0.5)))
            fast = check_super_jacobi(A, max_witnesses=A.n ** 3)
            assert fast.ok == check_super_jacobi_reference(A).ok
            assert [w[:3] for w in fast.failures] == _all_failing_triples(A)
            _assert_witnesses_hold(A, fast)
            verdicts.add(fast.ok)
        assert verdicts == {True, False}


def test_jacobi_constants_past_int64():
    # [e,f] = 2^70 h is sl2 with f rescaled: the cleared constants pass int64
    for big in (Fraction(2 ** 70), Fraction(1, 2 ** 70)):
        sc = {(0, 1): {2: big}, (1, 0): {2: -big},
              (2, 0): {0: 2}, (0, 2): {0: -2},
              (2, 1): {1: -2}, (1, 2): {1: 2}}
        A = SuperAlgebra(["e", "f", "h"], sc)
        rep = check_super_jacobi(A)
        assert rep.ok and rep.path == "python-int"
        sc[(2, 0)], sc[(0, 2)] = {0: 3}, {0: -3}
        bad = SuperAlgebra(["e", "f", "h"], sc)
        rep = check_super_jacobi(bad)
        assert not rep.ok and rep.failures
        _assert_witnesses_hold(bad, rep)
        assert not check_super_jacobi_reference(bad).ok


def map_failures_reference(src, tgt, M, derivation=False, odd=False):
    """Every pair (i, j), sorted, where M(b_i b_j) differs from M(b_i) M(b_j),
    or for a derivation from M(b_i) b_j + (-1)^{|M||i|} b_i M(b_j); pure
    field arithmetic through SuperAlgebra.multiply."""
    cols = [M.column(j) for j in range(src.n)]
    out = []
    for i in range(src.n):
        for j in range(src.n):
            lhs = M.apply(src.multiply(src.e(i), src.e(j)))
            if derivation:
                sign = -1 if odd and src.parity[i] else 1
                rhs = [a + sign * b for a, b in zip(tgt.multiply(cols[i], tgt.e(j)),
                                                    tgt.multiply(tgt.e(i), cols[j]))]
            else:
                rhs = tgt.multiply(cols[i], cols[j])
            if not vec_eq(lhs, rhs):
                out.append((i, j))
    return out


CORRUPTIONS = (1, -2, Fraction(1, 3), Fraction(-5, 7))


def _corrupted(M, rng):
    """M with one or two entries shifted by a nonzero scalar."""
    N = M.copy()
    for _ in range(rng.randint(1, 2)):
        r, c = rng.randrange(N.nrows), rng.randrange(N.ncols)
        N[r, c] = N[r, c] + M.field.of(rng.choice(CORRUPTIONS))
    return N


def _map_cases(field, rng):
    """(src, tgt, matrix, derivation) for the S4 generators on
    T(quaternion, H3(k)), Phi41 on F4, J -> A(J) and ad(x), each as it is
    and with two seeded corruptions."""
    T = tits(split_quaternion(field), h3(ground(field)))
    A = T.algebra
    maps = [(A, A, M, False) for M in s4_on_tits_right(T).gens.values()]
    hom = theorem41(h3(ground(field)))[3]
    maps.append((hom.source.algebra, hom.target.algebra, hom.matrix, False))
    J = h3(ground(field))
    hom = jordan_to_aj_map(J, a_of_j(J))
    maps.append((hom.source.algebra, hom.target.algebra, hom.matrix, False))
    x = [field.of(rng.choice(CORRUPTIONS)) for _ in range(A.n)]
    maps.append((A, A, A.ad_matrix(x), True))
    for src, tgt, M, der in maps:
        for N in (M, _corrupted(M, rng), _corrupted(M, rng)):
            yield src, tgt, N, der


@pytest.mark.parametrize("field", (QQ, GF(10007), GF(2 ** 31 - 1)), ids=str)
def test_map_checks_agree_with_reference(field):
    rng = random.Random(11)
    verdicts = set()
    for src, tgt, M, der in _map_cases(field, rng):
        ref = map_failures_reference(src, tgt, M, derivation=der)
        if der:
            assert map_failures(src, tgt, M, derivation=True) == ref
            assert is_derivation(src, LinearMap(src, tgt, M)) == (not ref)
        else:
            assert homomorphism_failures(src, tgt, M, max_witnesses=src.n ** 2) == ref
            assert homomorphism_failures(src, tgt, M) == ref[:5]
            if src is tgt:
                f = LinearMap(src, tgt, M)
                assert is_automorphism(src, f) == (not ref and f.is_invertible())
        verdicts.add(not ref)
    assert verdicts == {True, False}


def test_odd_derivations():
    # ad of an odd element is an odd derivation: the sign (-1)^{|f||i|} is on
    heis = SuperAlgebra(["z", "u", "v"], {(1, 2): {0: 1}, (2, 1): {0: 1}},
                        parity=[0, 1, 1], name="heis(1|2)")
    G3 = tits(split_cayley(), jordan_super_jvtheta()).algebra
    rng = random.Random(3)
    for A in (heis, G3):
        for k in [i for i in range(A.n) if A.parity[i]][:4]:
            D = A.ad_matrix(A.e(k))
            assert is_derivation(A, LinearMap(A, A, D, parity=ODD))
            for odd, M in ((True, _corrupted(D, rng)), (False, D)):
                assert (map_failures(A, A, M, derivation=True, odd=odd)
                        == map_failures_reference(A, A, M, derivation=True, odd=odd))
    # on G(3) the even sign breaks ad of an odd element
    D = G3.ad_matrix(G3.e(G3.parity.index(ODD)))
    assert not is_derivation(G3, LinearMap(G3, G3, D))


def test_map_checks_reject_wrong_shape():
    for field in (QQ, GF(7)):
        L = sl2(field)
        with pytest.raises(ValueError):
            homomorphism_failures(L, L, Matrix.identity(2, field))
        with pytest.raises(ValueError):
            map_failures(L, L, Matrix.zeros(3, 2, field), derivation=True)


def test_dense_checks_past_int64():
    # [e,f] = 2^70 h over QQ, 2^60 h over GF(2^61 - 1): the cleared constants
    # or their products pass int64, so the sums must run on Python ints
    rng = random.Random(7)
    for field, big in ((QQ, Fraction(2 ** 70)), (GF(2 ** 61 - 1), 2 ** 60)):
        sc = {(0, 1): {2: big}, (1, 0): {2: -big},
              (2, 0): {0: 2}, (0, 2): {0: -2}, (2, 1): {1: -2}, (1, 2): {1: 2}}
        L = SuperAlgebra(["e", "f", "h"], sc, field=field)
        ident = Matrix.identity(3, field)
        ad_e = L.ad_matrix(L.e("e"))
        assert is_automorphism(L, LinearMap(L, L, ident))
        assert is_derivation(L, LinearMap(L, L, ad_e))
        assert not is_derivation(L, LinearMap(L, L, ident))
        assert homomorphism_failures(L, L, ident) == []
        assert LinearMap(L, L, ad_e.scale(2 ** 70) + ident).is_invertible()
        for M in (_corrupted(ident, rng), _corrupted(ident, rng)):
            assert homomorphism_failures(L, L, M, 9) == map_failures_reference(L, L, M)
            assert (map_failures(L, L, M, derivation=True)
                    == map_failures_reference(L, L, M, derivation=True))


def test_jacobi_super_case():
    # gl(1|1): basis x (even, = diag(1,-1) say h), plus odd u, v with
    # [u,v] = h (h central here? no) -- use the (1|2) Heisenberg-like superalgebra:
    # [u, v] = z with z even central, u,v odd; super-Jacobi holds.
    sc = {(1, 2): {0: 1}, (2, 1): {0: 1}}  # [u,v] = z = +[v,u] (odd pair)
    A = SuperAlgebra(["z", "u", "v"], sc, parity=[0, 1, 1], name="heis(1|2)")
    rep = check_super_jacobi(A)
    assert rep.ok
    # now corrupt: make [u,u] = u: parity violation is rejected at construction
    with pytest.raises(ValueError):
        SuperAlgebra(["z", "u", "v"], {(1, 1): {1: 1}}, parity=[0, 1, 1])


def test_is_automorphism_identity():
    L = sl2()
    f = LinearMap(L, L, Matrix.identity(3))
    assert is_automorphism(L, f)


def test_is_automorphism_negative():
    L = sl2()
    # swapping e and f alone is not an automorphism ([f,e] = -h)
    M = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert not is_automorphism(L, LinearMap(L, L, M))
    # but e<->f with h -> -h is one
    M2 = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, -1]])
    assert is_automorphism(L, LinearMap(L, L, M2))


def test_is_automorphism_needs_invertible():
    L = sl2()
    assert not is_automorphism(L, LinearMap(L, L, Matrix.zeros(3, 3)))


def test_is_derivation():
    L = sl2()
    # ad(x) is a derivation for every x in a Lie algebra
    for lbl in ("e", "f", "h"):
        d = LinearMap(L, L, L.ad_matrix(L.e(lbl)))
        assert is_derivation(L, d)
    # the identity map is not (fails on any nonzero product)
    assert not is_derivation(L, LinearMap(L, L, Matrix.identity(3)))
    # the zero map is
    assert is_derivation(L, LinearMap(L, L, Matrix.zeros(3, 3)))


def test_commutator_of_derivations_is_derivation():
    L = sl2()
    d1 = L.ad_matrix(L.e("e"))
    d2 = L.ad_matrix(L.e("f"))
    comm = d1 @ d2 - d2 @ d1
    assert is_derivation(L, LinearMap(L, L, comm))


def test_check_grading():
    L = sl2()
    g = Grading("Z3", [1, 2, 0])  # e:1, f:-1, h:0 mod 3
    assert check_grading(L, g)
    assert not check_grading(L, Grading("Z3", [1, 1, 0]))
    assert check_grading(L, Grading("Z2xZ2", [(0, 0)] * 3))


def test_centralizer():
    L = sl2()
    # centralizer of h is the Cartan (h itself)
    c = centralizer(L, [L.e("h")])
    assert len(c) == 1
    # centralizer of everything is the center = 0
    assert centralizer(L, [L.e("e"), L.e("f"), L.e("h")]) == []
    # centralizer of nothing is everything
    assert len(centralizer(L, [])) == 3


def test_json_round_trip():
    L = sl2()
    d = L.to_json_dict()
    text = json.dumps(d)
    L2 = SuperAlgebra.from_json_dict(json.loads(text), name="sl2rt")
    assert L2.basis == L.basis
    assert L2.parity == L.parity
    assert L2.sc == L.sc
    # canonical ordering: lexicographic on (i, j, k)
    assert d["sc"] == sorted(d["sc"], key=lambda e: (e[0], e[1], e[2]))


def test_json_gfp():
    F = GF(7)
    L = sl2(field=F)
    d = L.to_json_dict()
    assert d["field"] == 7
    L2 = SuperAlgebra.from_json_dict(d)
    assert L2.sc == L.sc


def test_transport_round_trip():
    L = sl2()
    U = Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    L2 = L.transported(U)
    assert check_super_jacobi(L2).ok
    back = L2.transported(U.inverse())
    assert back.sc == L.sc


def test_gfp_jacobi():
    L = sl2(field=GF(7))
    assert check_super_jacobi(L).ok
    assert check_super_jacobi_reference(L).ok
