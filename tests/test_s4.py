from fractions import Fraction

import numpy as np
import pytest

from magma_tits.exact import GF, QQ, Matrix, vec_eq, vec_is_zero
from magma_tits.algebra import SuperAlgebra, check_grading, is_automorphism, LinearMap
from magma_tits.structurable import AlgebraWithInvolution
from magma_tits.composition import split_cayley, ground, binarion, s4_on_cayley
from magma_tits.jordan import h3
from magma_tits.tits import tits
from magma_tits.registry import tits_by_name
from magma_tits.s4 import (
    GEN_NAMES, GroupAction, klein_grading, coordinate_algebra, iota_maps,
    s4_on_h3, s4_on_tits_left, s4_on_tits_right,
)

from reference_construction import as_transported_grading


@pytest.fixture(scope="module")
def C():
    return split_cayley()


@pytest.fixture(scope="module")
def Tk(C):
    return tits(C, h3(ground()))


@pytest.fixture(scope="module")
def left_action(Tk):
    return s4_on_tits_left(Tk)


@pytest.fixture(scope="module")
def ca_f4(Tk, left_action):
    return coordinate_algebra(Tk.algebra, left_action, basis=theorem41_basis(Tk))


def theorem41_basis(T):
    alg = T.C.algebra
    e1me2 = [a - b for a, b in zip(alg.e("e1"), alg.e("e2"))]
    e2me1 = [-x for x in e1me2]
    basis = [
        T.der_vector(alg.e("v1"), alg.e("u2")),
        T.der_vector(alg.e("u1"), alg.e("v2")),
        T.der_vector(e1me2, alg.e("u0")),
        T.der_vector(e2me1, alg.e("v0")),
    ]
    for x in T.j0_basis:
        basis.append(T.tensor_vector(alg.e("u0"), x))
    for x in T.j0_basis:
        basis.append(T.tensor_vector(alg.e("v0"), x))
    return basis


def test_word_evaluation(C):
    act = s4_on_cayley(C)
    assert act.element("phi phi phi") == Matrix.identity(8)
    assert act.element(("tau1", "tau2")) == act.element(("tau2", "tau1"))


def test_left_action_verifies(Tk, left_action):
    left_action.verify()


def test_both_actions_verify_on_e8():
    # T(cayley, H3(cayley)) is E8 (dim 248): relations and the automorphism
    # check of every generator, for both actions
    T = tits_by_name("cayley", "h3:cayley")
    assert T.dim == 248
    assert s4_on_tits_left(T).verify()
    assert s4_on_tits_right(T).verify()


def test_left_action_values(Tk, left_action):
    alg = Tk.C.algebra
    # tau(D_{u1,v2}) = D_{tau u1, tau v2} = D_{u2,v1} = -D_{v1,u2}
    X = Tk.der_vector(alg.e("u1"), alg.e("v2"))
    want = Tk.der_vector(alg.e("u2"), alg.e("v1"))
    assert vec_eq(left_action["tau"].apply(X), want)
    negv = Tk.der_vector(alg.e("v1"), alg.e("u2"))
    assert vec_eq(want, [-c for c in negv])
    # phi(u0 x x) = u1 x x
    x = Tk.j0_basis[0]
    X = Tk.tensor_vector(alg.e("u0"), x)
    assert vec_eq(left_action["phi"].apply(X), Tk.tensor_vector(alg.e("u1"), x))
    # d_{J,J} fixed pointwise
    off = Tk.djj_offset
    for s in range(Tk.djj_dim):
        v = Tk.algebra.e(off + s)
        for g in ("tau1", "tau2", "phi", "tau"):
            assert vec_eq(left_action[g].apply(v), v)


def test_klein_grading_of_tits(Tk, left_action):
    kg = klein_grading(left_action)
    dims = kg.dims()
    # (1,0) component: 4 derivations + u0 x J0 + v0 x J0 = 4 + 2*5
    assert dims[(1, 0)] == 14
    assert sum(dims.values()) == Tk.dim
    assert kg.generator_permutes_components()
    A2, grading = as_transported_grading(kg)
    assert check_grading(A2, grading)


def test_trivial_action_grading(C):
    alg = C.algebra
    I = Matrix.identity(8)
    act = GroupAction(alg, I, I, I, I, name="trivial")
    kg = klein_grading(act)
    assert kg.dims() == {(0, 0): 8, (1, 0): 0, (0, 1): 0, (1, 1): 0}


def test_mismatched_fields_and_dimensions_are_named():
    A3 = SuperAlgebra(["a", "b", "c"], {(0, 0): {0: 1}}, name="A3")
    I, G = Matrix.identity(3), Matrix.identity(3, GF(7))
    with pytest.raises(ValueError, match=r"over GF\(7\), the target has dimension 3 over QQ"):
        GroupAction(A3, G, G, G, G).verify()
    with pytest.raises(ValueError, match=r"generator matrices over QQ and GF\(7\)"):
        GroupAction(A3, I, I, I, G).verify()
    with pytest.raises(ValueError, match=r"involution matrix over GF\(7\), the algebra over QQ"):
        AlgebraWithInvolution(A3, G).involution_failures()
    with pytest.raises(ValueError, match="unknown generator 'foo'"):
        GroupAction(A3, I, I, I, I).element("foo")
    T = tits(split_cayley(), h3(ground()))
    with pytest.raises(ValueError, match="base action has dimension 3 over QQ but C has "
                                         "dimension 8"):
        s4_on_tits_left(T, base_action=GroupAction(None, I, I, I, I))
    # from_coo shares the validation
    one = ((np.arange(3), np.arange(3)), [1, 1, 1], 1)
    with pytest.raises(ValueError, match="an S4 action needs"):
        GroupAction.from_coo(A3, {"tau1": one}, 3, QQ)
    bad = {**dict.fromkeys(GEN_NAMES, one), "phi": (([0], [3]), [1], 1)}
    with pytest.raises(ValueError, match=r"generator phi has an entry outside range\(3\)"):
        GroupAction.from_coo(A3, bad, 3, QQ)
    with pytest.raises(ValueError, match=r"over GF\(7\), the target has dimension 3 over QQ"):
        GroupAction.from_coo(A3, dict.fromkeys(GEN_NAMES, one), 3, GF(7))


@pytest.mark.parametrize("F", [QQ, GF(7)], ids=str)
def test_from_coo_stores_the_canonical_integers(F):
    """Unsorted, repeated and cancelling entries over a common denominator
    are summed, sorted row-major and put in lowest terms: the integers the
    constructor lowers from the same Matrices."""
    A3 = SuperAlgebra(["a", "b", "c"], {(0, 0): {0: 1}}, field=F, name="A3")
    messy = (([2, 0, 1, 1, 0], [2, 0, 1, 1, 2]), [6, 6, 2, 4, 0], 6)
    swap = (([1, 0, 2, 0], [0, 1, 2, 1]), [3, 3, 3, 0], 3)
    act = GroupAction.from_coo(A3, {"tau1": messy, "tau2": messy, "phi": messy, "tau": swap},
                               3, F)
    I = Matrix.identity(3, F)
    S = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]], F)
    want = GroupAction(A3, I, I, I, S)
    for g in GEN_NAMES:
        (R, C), V, D = act.lowered(g)
        (Rw, Cw), Vw, Dw = want.lowered(g)
        assert D == Dw and all(np.array_equal(x, y) for x, y in ((R, Rw), (C, Cw), (V, Vw)))
        assert act[g] == want[g]
    assert act.relation_failures() == [] and act.automorphism_failures() == ["tau"]
    # D = 0 is rejected (it raised ZeroDivisionError inside the fold)
    with pytest.raises(ValueError, match="denominator D = 0"):
        GroupAction.from_coo(A3, {**dict.fromkeys(GEN_NAMES, messy), "tau": (*swap[:2], 0)}, 3, F)


def test_non_action_rejected(C):
    alg = C.algebra
    M = Matrix.identity(8)
    M[0, 1] = 1  # not an involution
    with pytest.raises(ValueError):
        klein_grading(GroupAction(alg, M, M, M, M))


def test_basis_outside_the_component_rejected(Tk, left_action):
    kg = klein_grading(left_action)
    for key in ((0, 0), (0, 1), (1, 1)):
        with pytest.raises(ValueError, match=r"not in the \(1,0\) component"):
            coordinate_algebra(Tk.algebra, left_action,
                               basis=theorem41_basis(Tk) + kg.components[key][:1])


def test_coordinate_algebra_f4(Tk, ca_f4):
    assert ca_f4.dim == 14
    assert ca_f4.is_unital
    awi = ca_f4.awi
    awi.verify_involution()
    # unit = (D_{v1,u2} + D_{u1,v2})/3 in the distinguished basis
    third = Fraction(1, 3)
    expected_unit = [third, third] + [Fraction(0)] * 12
    assert vec_eq(ca_f4.unit, expected_unit)


def test_proof_cases_coordinate_products(Tk, ca_f4):
    """Reference product evaluations in the first coordinate algebra."""
    alg = Tk.C.algebra
    f = Fraction
    e1me2 = [a - b for a, b in zip(alg.e("e1"), alg.e("e2"))]
    e2me1 = [-x for x in e1me2]
    Dvu = Tk.der_vector(alg.e("v1"), alg.e("u2"))
    Duv = Tk.der_vector(alg.e("u1"), alg.e("v2"))
    De1u0 = [f(1, 2) * c for c in Tk.der_vector(e1me2, alg.e("u0"))]   # D_{e1,u0}
    De2v0 = [f(1, 2) * c for c in Tk.der_vector(e2me1, alg.e("v0"))]   # D_{e2,v0}
    x = Tk.j0_basis[1]
    y = Tk.j0_basis[3]
    u0x = Tk.tensor_vector(alg.e("u0"), x)
    u0y = Tk.tensor_vector(alg.e("u0"), y)
    v0x = Tk.tensor_vector(alg.e("v0"), x)
    v0y = Tk.tensor_vector(alg.e("v0"), y)
    prod = ca_f4.product_ambient

    def eq(a, b):
        return vec_eq(a, b)

    def scale(c, v):
        return [f(c) * t for t in v]

    # (i)-(vi): X = D_{v1,u2}
    assert eq(prod(Dvu, Dvu), scale(3, Dvu))
    assert vec_is_zero(prod(Dvu, Duv))
    assert eq(prod(Dvu, De1u0), scale(3, De1u0))
    assert vec_is_zero(prod(Dvu, De2v0))
    assert eq(prod(Dvu, u0x), scale(3, u0x))
    assert vec_is_zero(prod(Dvu, v0x))
    # (vii)-(xii): X = D_{e1,u0}
    assert vec_is_zero(prod(De1u0, Dvu))
    assert eq(prod(De1u0, Duv), scale(3, De1u0))
    assert eq(prod(De1u0, De1u0), scale(2, De2v0))
    assert eq(prod(De1u0, De2v0), Dvu)
    assert eq(prod(De1u0, u0x), scale(-1, v0x))
    assert vec_is_zero(prod(De1u0, v0x))
    # (xiii)-(xviii): X = u0 x x
    assert vec_is_zero(prod(u0x, Dvu))
    assert eq(prod(u0x, Duv), scale(3, u0x))
    assert eq(prod(u0x, De1u0), scale(-1, v0x))
    assert vec_is_zero(prod(u0x, De2v0))
    J = Tk.J
    txy = J.trace_of(J.multiply(x, y))
    starxy = J.star(x, y)
    want = [(-txy) * a + 2 * b for a, b in
            zip(De2v0, Tk.tensor_vector(alg.e("v0"), starxy))]
    assert eq(prod(u0x, u0y), want)
    assert eq(prod(u0x, v0y), scale(txy, Dvu))


def test_iota_maps(Tk, ca_f4):
    i0, i1, i2 = iota_maps(ca_f4)
    g = Tk.algebra
    m = ca_f4.dim
    src = ca_f4.awi.algebra
    sigma = ca_f4.awi.sigma
    # [iota_i(x), iota_{i+1}(y)] = iota_{i+2}(conj(x . y)) on all pairs
    iotas = [i0, i1, i2]
    for i in range(3):
        for a in range(m):
            for b in range(m):
                xa, yb = src.e(a), src.e(b)
                lhs = g.multiply(iotas[i].apply(xa), iotas[(i + 1) % 3].apply(yb))
                prod = src.multiply(xa, yb)
                rhs = iotas[(i + 2) % 3].apply(sigma.apply(prod))
                assert vec_eq(lhs, rhs)
    # so3 relations for iota_i(1)
    one = ca_f4.unit
    for i in range(3):
        lhs = g.multiply(iotas[i].apply(one), iotas[(i + 1) % 3].apply(one))
        assert vec_eq(lhs, iotas[(i + 2) % 3].apply(one))
        # [iota_i(1), iota_i(1)] = 0
        assert vec_is_zero(g.multiply(iotas[i].apply(one), iotas[i].apply(one)))
    # symmetric x: [iota_i(1), iota_i(x)] = 0; skew x: double bracket = -4 iota_0(x)
    for a in range(m):
        x = src.e(a)
        sx = sigma.apply(x)
        if vec_eq(sx, x):
            for i in range(3):
                assert vec_is_zero(g.multiply(iotas[i].apply(one), iotas[i].apply(x)))
        if vec_eq(sx, [-c for c in x]):
            inner = g.multiply(i0.apply(one), i0.apply(x))
            outer = g.multiply(i0.apply(one), inner)
            assert vec_eq(outer, [-4 * c for c in i0.apply(x)])


def test_s4_on_h3_values():
    J = h3(split_cayley())
    act = s4_on_h3(J)
    act.verify()
    Chat = J.source
    x = Chat.algebra.e("u0")
    # tau(iota_1(x)) = iota_2(xbar)
    got = act["tau"].apply(J.iota(1, x))
    assert vec_eq(got, J.iota(2, Chat.conj(x)))
    # tau2(iota_0(x)) = -iota_0(x)
    got = act["tau2"].apply(J.iota(0, x))
    assert vec_eq(got, [-c for c in J.iota(0, x)])
    # phi(e_i) = e_{i+1}
    assert vec_eq(act["phi"].apply(J.algebra.e(J.e_index(0))), J.algebra.e(J.e_index(1)))


def test_right_action_on_tits():
    C = binarion()
    J = h3(binarion())
    T = tits(C, J)
    act = s4_on_tits_right(T)
    act.verify()
    # der C fixed pointwise (there is none for binarion), d_{J,J} conjugated,
    # (1,0) component is C0 x iota_0(Chat) + d_0(Chat)
    kg = klein_grading(act)
    dims = kg.dims()
    assert dims[(1, 0)] == 1 * 2 + 2
    assert sum(dims.values()) == T.dim


def test_right_action_h3k_over_cayley():
    C = split_cayley()
    J = h3(ground())
    T = tits(C, J)
    act = s4_on_tits_right(T)
    act.verify()
    kg = klein_grading(act)
    assert kg.dims()[(1, 0)] == 7 * 1 + 1  # C0 x iota_0(k) + d_0(k)
