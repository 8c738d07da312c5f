import random
from fractions import Fraction

import pytest

from magma_tits import registry
from magma_tits.exact import GF, QQ, Matrix, Subspace, vec_eq, vec_is_zero
from magma_tits.algebra import SuperAlgebra
from magma_tits.registry import involution_algebra_by_name
from magma_tits.s4 import _find_unit
from magma_tits.composition import split_cayley, split_quaternion, binarion, ground
from magma_tits.jordan import (JordanAlgebra, h3, jordan_super_jvtheta, jordan_super_dt, d2,
                               kaplansky)
from magma_tits.structurable import (
    AlgebraWithInvolution, a_of_j, a_of_cubic, tensor_product, check_structurable,
)

from reference_construction import (a_of_cubic_pointwise, a_of_j_pointwise, diag_transported,
                                    hermitian_basis, unimodular)


def test_a_of_j_products():
    J = h3(ground())
    AJ = a_of_j(J)
    alg = AJ.algebra
    assert alg.n == 2 + 2 * J.dim
    AJ.verify_involution()
    nj = J.dim
    # (0,x;0,0)(0,0;y,0) = (3 t(xy), 0; 0, 0)
    x = J.j0_basis()[0]
    y = J.j0_basis()[1]
    X = [Fraction(0)] * alg.n
    Y = [Fraction(0)] * alg.n
    for i, c in enumerate(x):
        X[1 + i] = c
    for i, c in enumerate(y):
        Y[1 + nj + i] = c
    prod = alg.multiply(X, Y)
    txy = J.trace_of(J.multiply(x, y))
    want = [Fraction(0)] * alg.n
    want[0] = 3 * txy
    assert vec_eq(prod, want)
    # unit: (1,0;0,1)
    one = [Fraction(0)] * alg.n
    one[0] = Fraction(1)
    one[-1] = Fraction(1)
    rng = random.Random(0)
    z = [Fraction(rng.randint(-3, 3)) for _ in range(alg.n)]
    assert vec_eq(alg.multiply(one, z), z)
    assert vec_eq(alg.multiply(z, one), z)
    # (0,1;0,0)^2 = (0,0;2*1,0)
    E = [Fraction(0)] * alg.n
    for i, c in enumerate(J.unit):
        E[1 + i] = c
    sq = alg.multiply(E, E)
    want = [Fraction(0)] * alg.n
    for i, c in enumerate(J.unit):
        want[1 + nj + i] = 2 * c
    assert vec_eq(sq, want)


def test_a_of_cubic_kaplansky():
    K = kaplansky()
    AK = a_of_cubic(K)
    alg = AK.algebra
    AK.verify_involution()
    nk = K.algebra.n
    # (0,x;0,0)(0,0;y,0) = (3<x|y>,0;0,0) = (6,0;0,0)
    X = [Fraction(0)] * alg.n
    Y = [Fraction(0)] * alg.n
    X[1 + K.algebra.index("x")] = Fraction(1)
    Y[1 + nk + K.algebra.index("y")] = Fraction(1)
    prod = alg.multiply(X, Y)
    want = [Fraction(0)] * alg.n
    want[0] = Fraction(6)
    assert vec_eq(prod, want)
    # unit law
    one = [Fraction(0)] * alg.n
    one[0] = one[-1] = Fraction(1)
    rng = random.Random(1)
    z = [Fraction(rng.randint(-3, 3)) for _ in range(alg.n)]
    assert vec_eq(alg.multiply(one, z), z)
    # (0,e;0,0)^2 = (0,0;2e,0)
    E = [Fraction(0)] * alg.n
    E[1 + K.algebra.index("e")] = Fraction(1)
    sq = alg.multiply(E, E)
    want = [Fraction(0)] * alg.n
    want[1 + nk + K.algebra.index("e")] = Fraction(2)
    assert vec_eq(sq, want)


def test_tensor_product_basics():
    C = split_cayley()
    TP = tensor_product(C, C)
    alg = TP.algebra
    assert alg.n == 64
    TP.verify_involution()
    i = alg.index("e1(x)e1")
    assert vec_eq(alg.multiply(alg.e(i), alg.e(i)), alg.e(i))
    # (u0 x 1)(u1 x 1) = v2 x 1
    u0_1 = [Fraction(0)] * 64
    u1_1 = [Fraction(0)] * 64
    v2_1 = [Fraction(0)] * 64
    for lbl, vec in (("u0", u0_1), ("u1", u1_1), ("v2", v2_1)):
        for l2 in ("e1", "e2"):
            vec[alg.index("%s(x)%s" % (lbl, l2))] = Fraction(1)
    assert vec_eq(alg.multiply(u0_1, u1_1), v2_1)
    # involution of 1 x u0 = -(1 x u0)
    one_u0 = [Fraction(0)] * 64
    for l1 in ("e1", "e2"):
        one_u0[alg.index("%s(x)u0" % l1)] = Fraction(1)
    assert vec_eq(TP.conj(one_u0), [-c for c in one_u0])


def test_hermitian_part_closed():
    J = h3(ground())
    AJ = a_of_j(J)
    alg = AJ.algebra
    herm = hermitian_basis(AJ)
    S = Subspace(alg.n)
    for v in herm:
        S.add(v)
    for a in herm:
        for b in herm:
            ab = alg.multiply(a, b)
            ba = alg.multiply(b, a)
            sym = [x + y for x, y in zip(ab, ba)]
            assert S.contains(sym)


def test_structurable_small_cases():
    assert check_structurable(a_of_j(h3(ground()))).ok
    assert check_structurable(a_of_j(h3(binarion()))).ok
    assert check_structurable(tensor_product(ground(), split_quaternion())).ok
    assert check_structurable(tensor_product(binarion(), binarion())).ok


def test_structurable_super_cases():
    assert check_structurable(a_of_j(jordan_super_jvtheta())).ok
    assert check_structurable(a_of_j(d2())).ok
    assert check_structurable(a_of_cubic(kaplansky())).ok


def test_structurable_negative_control():
    # a corrupted unital table with the exchange involution on {w, v}:
    # every corruption of k x k itself destroys the unit, so the smallest
    # honest control is 3-dimensional (unit + swapped pair, skewed product)
    sc = {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
        (0, 2): {2: 1}, (2, 0): {2: 1},
        (1, 1): {2: 1}, (2, 2): {0: 1},
        (1, 2): {1: 1}, (2, 1): {1: -1},
    }
    A = SuperAlgebra(["one", "w", "v"], sc, name="corrupt3")
    sigma = Matrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    AI = AlgebraWithInvolution(A, sigma)
    rep = check_structurable(AI)
    assert not rep.ok
    assert rep.failures


def test_involution_checker_negative():
    # transposition is not an involutive antiautomorphism of a noncommutative algebra
    sc = {(0, 1): {0: 1}}  # ab = a, ba = 0: sigma = swap fails
    A = SuperAlgebra(["a", "b"], sc, name="nc")
    AI = AlgebraWithInvolution(A, Matrix([[0, 1], [1, 0]]))
    assert AI.involution_failures()
    with pytest.raises(ValueError):
        AI.verify_involution()


def test_ak_ajv_involutions():
    AK = a_of_cubic(kaplansky())
    AJV = a_of_j(jordan_super_jvtheta())
    AK.verify_involution()
    AJV.verify_involution()
    assert AK.dim == AJV.dim == 8


# -- pure-field reference ---------------------------------------------------

def _lin(coeffs, vecs, field):
    """sum_i coeffs[i] * vecs[i] over the nonzero coefficients."""
    out = [field.zero] * len(vecs[0])
    for c, v in zip(coeffs, vecs):
        if c:
            out = [a + c * b for a, b in zip(out, v)]
    return out


def structurable_failures_reference(AI):
    """Every (u, x, y) on which the structurable identity fails, computed
    with field arithmetic through SuperAlgebra.multiply.

    V_{x,y} z is built on basis triples from its three monomials with the
    Koszul signs of check_structurable and extended trilinearly (the
    arguments used below are homogeneous); the unit is checked by
    multiplication before use.
    """
    A, f, n = AI.algebra, AI.algebra.field, AI.algebra.n
    par, m, e = A.parity, A.multiply, A.e
    unit = _find_unit(A)
    assert all(vec_eq(m(unit, e(i)), e(i)) and vec_eq(m(e(i), unit), e(i)) for i in range(n))
    sig = [AI.conj(e(i)) for i in range(n)]

    def G(p, q, r):
        return m(m(e(p), sig[q]), e(r))

    Vb = [[[None] * n for _ in range(n)] for _ in range(n)]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                sB = (-1) ** (par[x] * par[y] + par[y] * par[z] + par[z] * par[x])
                sC = (-1) ** (par[z] * (par[x] + par[y]))
                Vb[x][y][z] = [a + sB * b - sC * c
                               for a, b, c in zip(G(x, y, z), G(z, y, x), G(z, x, y))]
    # T[u][z] = T_u b_z = V_{u,1} b_z
    T = [[_lin(unit, [Vb[u][y][z] for y in range(n)], f) for z in range(n)] for u in range(n)]

    def T_apply(u, v):
        return _lin(v, T[u], f)

    def Tsig_apply(u, v):
        return _lin(sig[u], [T_apply(w, v) for w in range(n)], f)

    failures = []
    for u in range(n):
        for x in range(n):
            Tux = T_apply(u, e(x))
            for y in range(n):
                Tsy = Tsig_apply(u, e(y))
                s_comm = (-1) ** (par[u] * (par[x] + par[y]))
                s_ux = (-1) ** (par[u] * par[x])
                for z in range(n):
                    lhs = [a - s_comm * b for a, b in zip(
                        T_apply(u, Vb[x][y][z]),
                        _lin(T[u][z], [Vb[x][y][r] for r in range(n)], f))]
                    rhs = [a - s_ux * b for a, b in zip(
                        _lin(Tux, [Vb[p][y][z] for p in range(n)], f),
                        _lin(Tsy, [Vb[x][q][z] for q in range(n)], f))]
                    if not vec_eq(lhs, rhs):
                        failures.append((u, x, y))
                        break
    return failures


def _corrupt(AI, rng):
    """b_i b_j += b_k for i, j outside the unit's support, so the unit stays."""
    A = AI.algebra
    unit = _find_unit(A)
    outside = [i for i in range(A.n) if not unit[i]]
    i, j = rng.choice(outside), rng.choice(outside)
    k = rng.choice([k for k in range(A.n) if A.parity[k] == (A.parity[i] + A.parity[j]) % 2])
    sc = {key: dict(row) for key, row in A.sc.items()}
    row = sc.setdefault((i, j), {})
    row[k] = row.get(k, A.field.zero) + A.field.one
    bad = SuperAlgebra(A.basis, sc, parity=A.parity, field=A.field, name=A.name + "/bad")
    return AlgebraWithInvolution(bad, AI.sigma)


DIFFERENTIAL_NAMES = ("aj:jvtheta", "aj:d2", "ak", "tensor:quaternion:binarion")


@pytest.mark.parametrize("field", [QQ, GF(10007), GF(2 ** 31 - 1)], ids=str)
def test_structurable_agrees_with_reference(field):
    rng = random.Random(7)
    for name in DIFFERENTIAL_NAMES:
        AI = involution_algebra_by_name(name, field)
        for trial in range(2):
            bad = _corrupt(AI, rng)
            want = structurable_failures_reference(bad)
            rep = check_structurable(bad, max_witnesses=bad.dim ** 3)
            assert rep.failures == want and want
            assert not rep.ok and rep.triples_checked == bad.dim ** 3
            assert check_structurable(bad).failures == want[:10]


def test_structurable_gfp():
    F = GF(101)
    for name in DIFFERENTIAL_NAMES + ("aj:h3:ground",):
        rep = check_structurable(involution_algebra_by_name(name, F))
        assert rep.ok and rep.path == "int64"


def test_structurable_constants_past_int64():
    # A(H3(k)) in the basis diag(1/3, 2^40, 2^-40, 1, ...): the cleared
    # constants pass int64, so the sums run on Python ints, and sigma gets
    # the denominator 3.  A diagonal change of basis keeps the failing
    # (u, x, y) of a corrupted table.
    AI = a_of_j(h3(ground()))
    bad = _corrupt(AI, random.Random(3))
    n = AI.dim
    U = Matrix.identity(n)
    U[0, 0], U[1, 1], U[2, 2] = Fraction(1, 3), Fraction(2 ** 40), Fraction(1, 2 ** 40)
    Uinv = U.inverse()
    AlgebraWithInvolution(AI.algebra.transported(U), Uinv @ AI.sigma @ U).verify_involution()
    for src, ok in ((AI, True), (bad, False)):
        moved = AlgebraWithInvolution(src.algebra.transported(U), Uinv @ src.sigma @ U)
        rep = check_structurable(moved, max_witnesses=n ** 3)
        assert rep.ok is ok and rep.path == "python-int"
        assert rep.failures == check_structurable(src, max_witnesses=n ** 3).failures


@pytest.mark.parametrize("name", ["aj:h3:ground", "aj:jvtheta"])
def test_structurable_verdicts_survive_unimodular_transport(name):
    # the table in the basis of a parity-preserving unimodular U and sigma
    # conjugated to U^-1 sigma U: the identity holds in every basis, so the
    # genuine A(J) still passes and a corrupted table still fails
    rng = random.Random(29)
    AI = involution_algebra_by_name(name)
    bad = _corrupt(AI, rng)
    U, Ui = unimodular(AI.algebra.parity, rng, AI.algebra.field, steps=12)
    for src, ok in ((AI, True), (bad, False)):
        moved = AlgebraWithInvolution(src.algebra.transported(U), Ui @ src.sigma @ U)
        assert moved.algebra.sc != src.algebra.sc
        assert check_structurable(src).ok is ok and check_structurable(moved).ok is ok


# -- the 2x2 construction against its pointwise oracle -----------------------

def _same_construction(AI, ref):
    A, B = AI.algebra, ref.algebra
    assert A.sc == B.sc and AI.sigma == ref.sigma
    assert (A.basis, A.parity, A.name) == (B.basis, B.parity, B.name)


@pytest.mark.parametrize("field", [QQ, GF(10007), GF(2 ** 31 - 1)], ids=str)
def test_two_by_two_matches_pointwise_oracle(field):
    names = ("h3:ground", "h3:binarion", "h3:quaternion", "h3:quatq", "jvtheta") + (
        ("h3:cayley",) if field.is_rational else ())
    for name in names:
        J = registry.jordan_by_name(name, field)
        _same_construction(a_of_j(J), a_of_j_pointwise(J))
    K = kaplansky(field)
    _same_construction(a_of_cubic(K), a_of_cubic_pointwise(K))
    for t in (2, Fraction(1, 2)):
        J = jordan_super_dt(t, field)
        _same_construction(a_of_j(J), a_of_j_pointwise(J))
    # J = k: the 4-dimensional A(k)
    J = JordanAlgebra(SuperAlgebra(["1"], {(0, 0): {0: 1}}, field=field, name="k"),
                      [field.one], [field.one])
    AI = a_of_j(J)
    _same_construction(AI, a_of_j_pointwise(J))
    assert AI.dim == 4 and check_structurable(AI).ok


def test_two_by_two_past_int64():
    # the denominator D_c D_t^2 D_u and the scaled constants pass int64, so
    # the folds sum on Python ints
    for J in (h3(binarion()), jordan_super_jvtheta()):
        moved = diag_transported(J, (2 ** 40, Fraction(1, 2 ** 40), Fraction(1, 3)))
        AI = a_of_j(moved)
        _same_construction(AI, a_of_j_pointwise(moved))
        assert check_structurable(AI).ok


def test_a_of_j_needs_a_trace():
    with pytest.raises(ValueError, match="no normalized trace"):
        a_of_j(jordan_super_dt(-1))


AJ_NAMES = tuple("aj:h3:" + c for c in registry.COMPOSITION_NAMES) + (
    "aj:jvtheta", "aj:d2", "aj:dt:1/2")


def test_registry_builds_two_by_two_without_pointwise_products(monkeypatch):
    monkeypatch.setattr(registry, "_CACHE", {})
    for name in AJ_NAMES:
        registry.jordan_by_name(name[3:])

    def refuse(*args, **kwargs):
        raise AssertionError("pointwise product in the 2x2 construction")

    monkeypatch.setattr(JordanAlgebra, "cross", refuse)
    monkeypatch.setattr(JordanAlgebra, "trace_of", refuse)
    monkeypatch.setattr(SuperAlgebra, "multiply", refuse)
    for name in AJ_NAMES + ("ak",):
        assert involution_algebra_by_name(name).dim > 0
