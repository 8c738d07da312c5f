import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from magma_tits.exact import QQ, GF, Matrix, Subspace, vec_eq, vec_is_zero, flatten_matrix
from magma_tits.algebra import (LinearMap, Grading, SuperAlgebra, check_grading,
                                is_automorphism, is_derivation)
from magma_tits.composition import (
    CompositionAlgebra, split_cayley, split_quaternion, binarion, ground, invariant_quaternion,
    inner_derivation, derivation_algebra, s4_on_cayley, identity_failures,
)
from magma_tits.s4 import klein_grading

from reference_construction import as_transported_grading


@pytest.fixture(scope="module")
def C():
    return split_cayley()


def rand_vec(alg, rng, lo=-4, hi=4):
    return [Fraction(rng.randint(lo, hi)) for _ in range(alg.n)]


def test_cayley_table_spot_checks(C):
    alg = C.algebra
    # u_i u_{i+1} = v_{i+2} = -u_{i+1} u_i, v_i v_{i+1} = u_{i+2}
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        assert vec_eq(alg.multiply(alg.e("u%d" % i), alg.e("u%d" % j)), alg.e("v%d" % k))
        assert vec_eq(alg.multiply(alg.e("u%d" % j), alg.e("u%d" % i)),
                      [-x for x in alg.e("v%d" % k)])
        assert vec_eq(alg.multiply(alg.e("v%d" % i), alg.e("v%d" % j)), alg.e("u%d" % k))
    # u_i v_j = -delta e1, v_i u_j = -delta e2
    for i in range(3):
        for j in range(3):
            uv = alg.multiply(alg.e("u%d" % i), alg.e("v%d" % j))
            vu = alg.multiply(alg.e("v%d" % i), alg.e("u%d" % j))
            if i == j:
                assert vec_eq(uv, [-x for x in alg.e("e1")])
                assert vec_eq(vu, [-x for x in alg.e("e2")])
            else:
                assert vec_is_zero(uv) and vec_is_zero(vu)
    # idempotents and unit
    assert vec_eq(alg.multiply(alg.e("e1"), alg.e("e1")), alg.e("e1"))
    assert vec_is_zero(alg.multiply(alg.e("e1"), alg.e("e2")))
    assert vec_eq(C.unit, [x + y for x, y in zip(alg.e("e1"), alg.e("e2"))])


def test_norm_and_trace(C):
    alg = C.algebra
    assert C.norm_bilinear(alg.e("e1"), alg.e("e2")) == 1
    for i in range(3):
        for j in range(3):
            assert C.norm_bilinear(alg.e("u%d" % i), alg.e("v%d" % j)) == (1 if i == j else 0)
    assert C.trace(alg.e("e1")) == 1
    assert C.trace(alg.e("u0")) == 0
    assert C.norm(alg.e("u1")) == 0
    assert C.norm(C.unit) == 1


def test_norm_multiplicativity_seeded(C):
    rng = random.Random(0)
    for _ in range(100):
        a, b = rand_vec(C.algebra, rng), rand_vec(C.algebra, rng)
        assert C.norm(C.product(a, b)) == C.norm(a) * C.norm(b)


def test_degree_two_identity_seeded(C):
    rng = random.Random(0)
    for _ in range(100):
        a = rand_vec(C.algebra, rng)
        lhs = C.product(a, a)
        t = C.trace(a)
        n = C.norm(a)
        rhs = [t * x - n * u for x, u in zip(a, C.unit)]
        assert vec_eq(lhs, rhs)


def halved_cayley(field):
    """Split Cayley in the basis b_i / 2, so that its table, norm and unit
    all carry denominators (1/2, 1/4 and 2)."""
    C = split_cayley(field)
    half = field.of(Fraction(1, 2))
    N = Matrix([[x * half * half for x in row] for row in C.norm_polar.rows], field)
    return CompositionAlgebra(C.algebra.transported(Matrix.identity(8, field).scale(half)),
                              N, [x + x for x in C.unit], "halved cayley")


@pytest.mark.parametrize("field", [QQ, GF(10007)], ids=str)
@pytest.mark.parametrize("make", [split_cayley, split_quaternion, binarion, ground,
                                  invariant_quaternion, halved_cayley],
                         ids=lambda make: make.__name__)
def test_identities_hold_on_every_basis_tuple(make, field):
    assert identity_failures(make(field)) == ([], [])


def pointwise_failures(C):
    """The basis quadruples and pairs at which C fails the polarized norm
    multiplicativity and degree-2 identity, each evaluated in the field."""
    n, nb = C.dim, C.norm_bilinear
    e = [C.algebra.e(x) for x in range(n)]
    xy = [[C.product(a, b) for b in e] for a in e]
    quads = [(x, y, z, w) for x, y, z, w in product(range(n), repeat=4)
             if nb(xy[x][y], xy[z][w]) + nb(xy[x][w], xy[z][y]) != nb(e[x], e[z]) * nb(e[y], e[w])]
    pairs = [(x, y) for x, y in product(range(n), repeat=2)
             if any(xy[x][y][k] + xy[y][x][k] - C.trace(e[x]) * e[y][k] - C.trace(e[y]) * e[x][k]
                    + nb(e[x], e[y]) * C.unit[k] for k in range(n))]
    return quads, pairs


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([split_cayley, split_quaternion]), st.sampled_from([QQ, GF(10007)]),
       st.data())
def test_identity_failures_match_pointwise_evaluation(make, field, data):
    # one table entry changed by a nonzero integer
    C = make(field)
    alg = C.algebra
    i, j, k = (data.draw(st.integers(0, C.dim - 1)) for _ in range(3))
    sc = {ij: dict(row) for ij, row in alg.sc.items()}
    row = sc.setdefault((i, j), {})
    row[k] = row.get(k, field.zero) + field.of(data.draw(st.integers(-3, 3).filter(bool)))
    cand = CompositionAlgebra(SuperAlgebra(alg.basis, sc, field=field), C.norm_polar, C.unit,
                              "candidate")
    quads, pairs = identity_failures(cand)
    assert (quads, pairs) == pointwise_failures(cand)
    assert quads or pairs


def test_conjugation_antiautomorphism(C):
    rng = random.Random(1)
    for _ in range(25):
        a, b = rand_vec(C.algebra, rng), rand_vec(C.algebra, rng)
        assert vec_eq(C.conj(C.product(a, b)), C.product(C.conj(b), C.conj(a)))
        # n(a) = a abar read off the unit coordinate
        aab = C.product(a, C.conj(a))
        assert vec_eq(aab, [C.norm(a) * u for u in C.unit])
    cm = C.conj_matrix()
    assert cm @ cm == Matrix.identity(8)


def test_nondegenerate_norm(C):
    assert C.norm_polar.rank() == 8


def test_subalgebras():
    Q = split_quaternion()
    alg = Q.algebra
    assert Q.dim == 4
    assert vec_eq(alg.multiply(alg.e("u1"), alg.e("v1")), [-x for x in alg.e("e1")])
    B = binarion()
    assert B.dim == 2
    assert vec_is_zero(B.algebra.multiply(B.algebra.e("e1"), B.algebra.e("e2")))
    G = ground()
    assert G.dim == 1
    assert vec_eq(G.product(G.unit, G.unit), G.unit)
    assert G.trace(G.unit) == 2
    assert G.traceless_basis() == []


def test_invariant_quaternion():
    Q = invariant_quaternion()
    alg = Q.algebra
    # p_i p_{i+1} = p_{i+2}, p_i^2 = -1
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        assert vec_eq(alg.multiply(alg.e("p%d" % i), alg.e("p%d" % j)), alg.e("p%d" % k))
        assert vec_eq(alg.multiply(alg.e("p%d" % i), alg.e("p%d" % i)),
                      [-x for x in Q.unit])
    # it really is the subalgebra span{1, u_i+v_i} of split Cayley
    C = split_cayley()
    embed = {"1": C.unit}
    for i in range(3):
        embed["p%d" % i] = [a + b for a, b in zip(C.algebra.e("u%d" % i), C.algebra.e("v%d" % i))]
    for x in ("1", "p0", "p1", "p2"):
        for y in ("1", "p0", "p1", "p2"):
            prod_q = alg.multiply(alg.e(x), alg.e(y))
            img = [sum((c * embed[lbl][t] for lbl, c in zip(alg.basis, prod_q)), start=Fraction(0))
                   for t in range(8)]
            assert vec_eq(img, C.product(embed[x], embed[y]))
    # norm multiplicativity on the invariant quaternions
    rng = random.Random(2)
    for _ in range(50):
        a, b = rand_vec(alg, rng), rand_vec(alg, rng)
        assert Q.norm(Q.product(a, b)) == Q.norm(a) * Q.norm(b)


def test_inner_derivation_values(C):
    alg = C.algebra
    D = inner_derivation(C, alg.e("v2"), alg.e("u0"))
    assert vec_eq(D.apply(alg.e("v0")), [-3 * x for x in alg.e("v2")])
    assert is_derivation(alg, D)
    # D_{1,a} = 0
    for lbl in alg.basis:
        assert inner_derivation(C, C.unit, alg.e(lbl)).matrix.is_zero()
    # D_{u1,u2} = -1/2 D_{e2-e1,v0}
    e2me1 = [a - b for a, b in zip(alg.e("e2"), alg.e("e1"))]
    lhs = inner_derivation(C, alg.e("u1"), alg.e("u2")).matrix
    rhs = inner_derivation(C, e2me1, alg.e("v0")).matrix.scale(Fraction(-1, 2))
    assert lhs == rhs
    # D_{v1,v2} = -1/2 D_{e1-e2,u0}
    e1me2 = [-x for x in e2me1]
    lhs = inner_derivation(C, alg.e("v1"), alg.e("v2")).matrix
    rhs = inner_derivation(C, e1me2, alg.e("u0")).matrix.scale(Fraction(-1, 2))
    assert lhs == rhs


def test_derivation_skew_and_cyclic(C):
    alg = C.algebra
    n = C.dim
    for i in range(n):
        for j in range(n):
            Dij = inner_derivation(C, alg.e(i), alg.e(j)).matrix
            Dji = inner_derivation(C, alg.e(j), alg.e(i)).matrix
            assert Dij == Dji.scale(-1)
    rng = random.Random(3)
    triples = [(rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(40)]
    triples += [(i, j, k) for i in range(3) for j in range(3, 6) for k in range(6, 8)]
    for (i, j, k) in triples:
        a, b, c = alg.e(i), alg.e(j), alg.e(k)
        total = Matrix.zeros(n, n)
        for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
            total = total + inner_derivation(C, alg.multiply(x, y), z).matrix
        assert total.is_zero()


def test_derivation_cyclic_exhaustive(C):
    # D_{ab,c} + D_{bc,a} + D_{ca,b} = 0 on all basis triples
    alg = C.algebra
    n = C.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                a, b, c = alg.e(i), alg.e(j), alg.e(k)
                total = inner_derivation(C, alg.multiply(a, b), c).matrix
                total = total + inner_derivation(C, alg.multiply(b, c), a).matrix
                total = total + inner_derivation(C, alg.multiply(c, a), b).matrix
                assert total.is_zero()


def test_derivation_algebra_dimensions(C):
    assert derivation_algebra(C).dim == 14
    assert derivation_algebra(split_quaternion()).dim == 3
    assert derivation_algebra(binarion()).dim == 0
    assert derivation_algebra(ground()).dim == 0


def test_derivation_algebra_is_lie(C):
    from magma_tits.algebra import check_super_jacobi
    derC = derivation_algebra(C)
    rep = check_super_jacobi(derC.lie)
    assert rep.ok
    # every matrix is a derivation of C
    for D in derC.matrices:
        assert is_derivation(C.algebra, LinearMap(C.algebra, C.algebra, D))


def test_z3_grading_of_der(C):
    # C = (ke1+ke2) + U + V is a Z3 grading, and
    # der C = D_{U,V} + D_{e1-e2,U} + D_{e2-e1,V} with dims summing to 14
    alg = C.algebra
    deg = []
    for lbl in alg.basis:
        deg.append(0 if lbl.startswith("e") else (1 if lbl.startswith("u") else 2))
    assert check_grading(alg, Grading("Z3", deg))
    e1me2 = [a - b for a, b in zip(alg.e("e1"), alg.e("e2"))]
    e2me1 = [-x for x in e1me2]
    spans = []
    for gens in (
        [(alg.e("u%d" % i), alg.e("v%d" % j)) for i in range(3) for j in range(3)],
        [(e1me2, alg.e("u%d" % i)) for i in range(3)],
        [(e2me1, alg.e("v%d" % i)) for i in range(3)],
    ):
        S = Subspace(64)
        for a, b in gens:
            S.add(flatten_matrix(inner_derivation(C, a, b).matrix))
        spans.append(S)
    assert spans[0].dim + spans[1].dim + spans[2].dim == 14
    assert [s.dim for s in spans] == [8, 3, 3]


def test_der_klein_component_dimension(C):
    # dim (der C)_{(1,0)} = 4, spanned by the four listed derivations
    alg = C.algebra
    e1me2 = [a - b for a, b in zip(alg.e("e1"), alg.e("e2"))]
    e2me1 = [-x for x in e1me2]
    four = [
        inner_derivation(C, e1me2, alg.e("u0")).matrix,
        inner_derivation(C, e2me1, alg.e("v0")).matrix,
        inner_derivation(C, alg.e("u1"), alg.e("v2")).matrix,
        inner_derivation(C, alg.e("v1"), alg.e("u2")).matrix,
    ]
    S = Subspace(64)
    for M in four:
        S.add(flatten_matrix(M))
    assert S.dim == 4
    # evaluations after eq-style displays: D_{e1-e2,u_i}(e1) = -2u_i etc.
    for i in range(3):
        D = inner_derivation(C, e1me2, alg.e("u%d" % i))
        assert vec_eq(D.apply(alg.e("e1")), [-2 * x for x in alg.e("u%d" % i)])
    for i in range(3):
        D = inner_derivation(C, alg.e("u%d" % i), alg.e("v%d" % ((i + 1) % 3)))
        assert vec_is_zero(D.apply(alg.e("u%d" % i)))
        assert vec_eq(D.apply(alg.e("v%d" % i)), [3 * x for x in alg.e("v%d" % ((i + 1) % 3))])
        Dvu = inner_derivation(C, alg.e("v%d" % i), alg.e("u%d" % ((i + 1) % 3)))
        assert vec_is_zero(Dvu.apply(alg.e("v%d" % i)))
        assert vec_eq(Dvu.apply(alg.e("u%d" % i)), [3 * x for x in alg.e("u%d" % ((i + 1) % 3))])


def test_s4_action_values(C):
    alg = C.algebra
    act = s4_on_cayley(C)
    tau, phi = act["tau"], act["phi"]
    assert vec_eq(tau.apply(alg.e("u1")), [-x for x in alg.e("u2")])
    assert vec_eq(phi.apply(alg.e("u0")), alg.e("u1"))
    assert phi @ phi @ phi == Matrix.identity(8)
    assert act["tau1"] @ act["tau2"] == act["tau2"] @ act["tau1"]
    act.verify()


def test_s4_negative_control(C):
    # swapping u0 <-> e1 (others fixed) is not an automorphism
    alg = C.algebra
    M = Matrix.identity(8)
    i, j = alg.index("u0"), alg.index("e1")
    M[i, i] = 0
    M[j, j] = 0
    M[i, j] = 1
    M[j, i] = 1
    assert not is_automorphism(alg, LinearMap(alg, alg, M))


def test_klein_grading_of_cayley(C):
    act = s4_on_cayley(C)
    kg = klein_grading(act)
    alg = C.algebra
    comp = {k: {alg.format_vector(v) for v in vs} for k, vs in kg.components.items()}
    assert comp[(0, 0)] == {"1*e1", "1*e2"}
    assert comp[(1, 0)] == {"1*u0", "1*v0"}
    assert comp[(0, 1)] == {"1*u1", "1*v1"}
    assert comp[(1, 1)] == {"1*u2", "1*v2"}
    A2, grading = as_transported_grading(kg)
    assert check_grading(A2, grading)
    assert kg.generator_permutes_components()


def test_klein_grading_negative_control(C):
    # reassigning u0 to degree (0,0) breaks the grading
    alg = C.algebra
    deg = []
    for lbl in alg.basis:
        if lbl in ("e1", "e2", "u0"):
            deg.append((0, 0))
        elif lbl == "v0":
            deg.append((1, 0))
        elif lbl in ("u1", "v1"):
            deg.append((0, 1))
        else:
            deg.append((1, 1))
    assert not check_grading(alg, Grading("Z2xZ2", deg))
    # the all-zero assignment is trivially a grading
    assert check_grading(alg, Grading("Z2xZ2", [(0, 0)] * 8))


def test_s4_respects_klein_degrees(C):
    act = s4_on_cayley(C)
    kg = klein_grading(act)
    assert kg.generator_permutes_components()


def test_gfp_cayley():
    F = GF(7)
    C7 = split_cayley(F)
    assert derivation_algebra(C7).dim == 14
    act = s4_on_cayley(C7)
    act.verify()
