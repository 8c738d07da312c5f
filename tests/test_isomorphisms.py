import random
import sys
from fractions import Fraction

import pytest

from magma_tits import registry
from magma_tits.exact import GF, QQ, Matrix, vec_eq, vec_is_zero
from magma_tits.algebra import check_super_jacobi
from magma_tits.composition import (split_cayley, split_quaternion, binarion, ground,
                                    inner_derivation)
from magma_tits.jordan import h3, jordan_super_jvtheta, d2, JordanAlgebra
from magma_tits.structurable import (AlgebraWithInvolution, a_of_j, a_of_cubic,
                                     check_structurable)
from magma_tits.isomorphisms import (
    IsomorphismError, InvolutionHomomorphism, theorem41, theorem61, tqj_maps,
    ak_to_ajv, phi_theorem41, theorem41_basis,
)
from magma_tits.tits import jordan_side, tits, verify_lie_conditions
from magma_tits.s4 import coordinate_algebra, iota_maps, s4_on_tits_left

from reference_construction import (a_of_j_pointwise, ak_to_ajv_dense, conj_ambient,
                                    coordinate_constants, inner_derivation_pointwise, iota_dense,
                                    jordan_inner_derivation, jordan_to_aj_dense, phi41_dense,
                                    phi61_dense, psi_dense, tensor_product_pointwise, unimodular)
from test_tits import corrupted_h3k


def test_theorem41_h3k():
    T, ca, AJ, hom = theorem41(h3(ground()))
    assert AJ.algebra.n == 2 + 2 * 6
    # Phi carries the exact scales: Phi(D_{v1,u2}) = diag(3, 0)
    img = hom.matrix.column(0)
    assert img[0] == 3 and all(not c for c in img[1:])
    img = hom.matrix.column(1)
    assert img[-1] == 3 and all(not c for c in img[:-1])


def test_theorem41_h3_binarion():
    theorem41(h3(binarion()))


def test_theorem41_degenerate_ground_jordan():
    # J = k: J0 = 0, both sides 4-dimensional
    from magma_tits.algebra import SuperAlgebra
    alg = SuperAlgebra(["1"], {(0, 0): {0: 1}}, name="k")
    J = JordanAlgebra(alg, [Fraction(1)], [Fraction(1)], provenance="custom")
    T, ca, AJ, hom = theorem41(J)
    assert ca.dim == 4 and AJ.algebra.n == 4


def test_theorem41_super_cases():
    theorem41(jordan_super_jvtheta())
    theorem41(d2())


def test_theorem41_negative_control():
    # corrupting one scale factor must break the verification
    J = h3(ground())
    C = split_cayley()
    T = tits(C, J)
    action = s4_on_tits_left(T)
    ca = coordinate_algebra(T.algebra, action, basis=theorem41_basis(T))
    AJ = a_of_j(J)
    hom = phi_theorem41(ca, AJ, J)
    M = hom.matrix.copy()
    M[0, 0] = Fraction(4)  # should be 3
    bad = InvolutionHomomorphism(ca.awi, AJ, M, name="corrupt")
    with pytest.raises(IsomorphismError):
        bad.verify()


@pytest.mark.parametrize("field", [QQ, GF(10007)], ids=str)
def test_theorems_reject_a_jordan_algebra_that_is_not_one(field):
    """The corrupted H3(k) (iota_0 iota_1 = 5/2 iota_2) breaks the Jordan
    identity: theorem41 and tqj_maps refuse it, naming the first failing
    basis triple, as the Lie conditions of T(C, Jbad) fail."""
    Jbad = corrupted_h3k(field)
    assert Jbad.jordan_failure == (0, 3, 4)
    for run in (theorem41, tqj_maps):
        with pytest.raises(IsomorphismError, match=r"fails on the basis triple \(E0, i0\(1\), "
                                                   r"i1\(1\)\)"):
            run(Jbad)
    assert not verify_lie_conditions(split_quaternion(field), Jbad).ok


def test_involution_homomorphism_must_intertwine():
    AJ = a_of_j(h3(ground()))
    n = AJ.dim
    InvolutionHomomorphism(AJ, AJ, Matrix.identity(n)).verify()
    plain = AlgebraWithInvolution(AJ.algebra, Matrix.identity(n))
    with pytest.raises(IsomorphismError, match="intertwine"):
        InvolutionHomomorphism(AJ, plain, Matrix.identity(n), name="id").verify()


def test_theorem61_small_pairs():
    for C, Chat in ((binarion(), binarion()),
                    (ground(), split_quaternion()),
                    (split_quaternion(), binarion())):
        T, ca, TP, hom = theorem61(C, Chat)
        assert ca.dim == C.dim * Chat.dim


def test_theorem61_proof_case_identities():
    """d0(x).d0(y) = -d0(xy)/2 and friends, via the coordinate product."""
    C = split_quaternion()
    Chat = split_quaternion()
    T, ca, TP, hom = theorem61(C, Chat)
    J = T.J
    f = Fraction
    alg = Chat.algebra

    def d0(x):
        e1me2 = [a - b for a, b in zip(J.algebra.e(J.e_index(1)),
                                       J.algebra.e(J.e_index(2)))]
        return T.djj_vector(e1me2, J.iota(0, x))

    def a_iota(a, x):
        return T.tensor_vector(a, J.iota(0, x))

    x = alg.e("u1")
    y = alg.e("v1")
    a = T.c0_basis[0]
    b = T.c0_basis[1]
    xy = Chat.product(x, y)
    prod = ca.product_ambient
    # (i) d0(x) . d0(y) = -1/2 d0(xy)
    assert vec_eq(prod(d0(x), d0(y)), [f(-1, 2) * c for c in d0(xy)])
    # (ii) d0(x) . (a x iota0(y)) = -1/2 a x iota0(xy)
    assert vec_eq(prod(d0(x), a_iota(a, y)), [f(-1, 2) * c for c in a_iota(a, xy)])
    # (iii) (a x iota0(x)) . d0(y) = -1/2 a x iota0(xy)
    assert vec_eq(prod(a_iota(a, x), d0(y)), [f(-1, 2) * c for c in a_iota(a, xy)])
    # (iv) (a x iota0(x)) . (b x iota0(y)) = -1/2 [a,b] x iota0(xy) - t(ab) d0(xy)
    br = [p - q for p, q in zip(C.product(a, b), C.product(b, a))]
    want = [f(-1, 2) * c for c in a_iota(br, xy)]
    tab = C.trace(C.product(a, b))
    want = [w - tab * c for w, c in zip(want, d0(xy))]
    assert vec_eq(prod(a_iota(a, x), a_iota(b, y)), want)


def test_theorem61_involution_on_d0():
    # conj(d0(x)) = -tau(d0(x)) = d0(xbar)
    C = binarion()
    Chat = split_quaternion()
    T, ca, TP, hom = theorem61(C, Chat)
    J = T.J
    alg = Chat.algebra
    e1me2 = [a - b for a, b in zip(J.algebra.e(J.e_index(1)),
                                   J.algebra.e(J.e_index(2)))]
    for lbl in alg.basis:
        x = alg.e(lbl)
        lhs = conj_ambient(ca, T.djj_vector(e1me2, J.iota(0, x)))
        rhs = T.djj_vector(e1me2, J.iota(0, Chat.conj(x)))
        assert vec_eq(lhs, rhs)


def test_tqj_maps_h3k():
    hom_a, hom_b, lie, TQ, T62 = tqj_maps(h3(ground()))
    # Remark-style spot check: alpha=1, x=0 -> (3/4, -1/4; -1/4, 3/4)
    J = TQ.J
    col = hom_a.matrix.apply(J.unit)
    n = hom_a.target.algebra.n
    assert col[0] == Fraction(3, 4) and col[n - 1] == Fraction(3, 4)
    x_slot = col[1:1 + J.dim]
    assert vec_eq(x_slot, [Fraction(-1, 4) * u for u in J.unit])
    # image of 1 is idempotent in A(J)
    sq = hom_a.target.algebra.multiply(col, col)
    assert vec_eq(sq, col)


def test_tqj_maps_h3quaternion():
    hom_a, hom_b, lie, TQ, T62 = tqj_maps(h3(split_quaternion()))
    assert check_super_jacobi(TQ.algebra).ok
    assert check_super_jacobi(T62.algebra).ok
    # the mapped bracket satisfies [a x x, b x y] = [a,b] x xy + 2t(ab) d_{x,y}
    Q, J = TQ.C, TQ.J
    qalg = Q.algebra
    x, y = TQ.j0_basis[0], TQ.j0_basis[1]
    lhs62 = T62.algebra.multiply(
        lie.apply(TQ.tensor_vector(qalg.e("p0"), x)),
        lie.apply(TQ.tensor_vector(qalg.e("p1"), y)))
    src = TQ.algebra.multiply(TQ.tensor_vector(qalg.e("p0"), x),
                              TQ.tensor_vector(qalg.e("p1"), y))
    assert vec_eq(lhs62, lie.apply(src))


def test_tqj_ground_jordan():
    from magma_tits.algebra import SuperAlgebra
    alg = SuperAlgebra(["1"], {(0, 0): {0: 1}}, name="k")
    J = JordanAlgebra(alg, [Fraction(1)], [Fraction(1)], provenance="custom")
    hom_a, hom_b, lie, TQ, T62 = tqj_maps(J)
    # S is 1-dimensional, spanned by a symmetric element
    assert hom_b.source.algebra.n == 1
    img = hom_a.matrix.apply(J.unit)
    assert vec_eq(hom_a.target.conj(img), img)


def test_ak_to_ajv():
    hom = ak_to_ajv()
    n = hom.source.algebra.n
    # gamma row: (0, e; 0, 0) -> (0, 1; 0, 0)
    src = [Fraction(0)] * n
    src[1] = Fraction(1)          # upper e
    img = hom.apply(src)
    want = [Fraction(0)] * n
    want[1] = Fraction(1)         # upper 1
    assert vec_eq(img, want)
    # mu row: (0, x; 0, 0) -> (0, -u; 0, 0)
    src = [Fraction(0)] * n
    src[2] = Fraction(1)
    img = hom.apply(src)
    want = [Fraction(0)] * n
    want[2] = Fraction(-1)
    assert vec_eq(img, want)
    # unit goes to unit
    one = [Fraction(0)] * n
    one[0] = one[n - 1] = Fraction(1)
    assert vec_eq(hom.apply(one), one)


def test_composite_t10_jv_to_ak():
    """(ak_to_ajv)^{-1} . Phi41 : T(C, J(V,theta))_(1,0) -> A(K), verified."""
    J = jordan_super_jvtheta()
    T, ca, AJV_from41, hom41 = theorem41(J)
    homk = ak_to_ajv()
    comp = homk.matrix.inverse() @ hom41.matrix
    AK = homk.source
    InvolutionHomomorphism(ca.awi, AK, comp, name="T10->AK").verify()


def _count_builds(monkeypatch):
    """An empty registry, and a list that records the (C, J) of every T
    built through it or fresh."""
    builds = []
    build = registry.build_tits

    def counting(C, J, *args):
        builds.append((C, J))
        return build(C, J, *args)
    monkeypatch.setattr(registry, "_CACHE", {})
    monkeypatch.setattr(registry, "build_tits", counting)
    return builds


@pytest.mark.parametrize("F", [QQ, GF(10007)], ids=str)
def test_theorems_take_registry_constructions(monkeypatch, F):
    """On registry inputs the theorems read C, Q, H3(C^) and T(C, J) off the
    registry: a T the registry holds is never built again."""
    builds = _count_builds(monkeypatch)
    J = registry.jordan_by_name("h3:ground", F)
    cayley, k = (registry.composition_by_name(c, F) for c in ("cayley", "ground"))
    T = registry.tits_by_name("cayley", "h3:ground", F)
    TQ = registry.tits_by_name("quatq", "h3:ground", F)
    assert len(builds) == 2
    assert theorem41(J)[0] is T
    assert theorem61(cayley, k)[0] is T
    assert tqj_maps(J)[3] is TQ
    assert len(builds) == 2
    # a registry input with no T held yet builds it once, into the registry
    theorem61(registry.composition_by_name("binarion", F), k)
    T2 = theorem61(registry.composition_by_name("binarion", F), k)[0]
    assert len(builds) == 3 and T2 is registry.tits_by_name("binarion", "h3:ground", F)
    assert T2.J is J and T2.djj is J.djj()


def test_theorems_on_fresh_inputs_leave_the_registry_alone(monkeypatch):
    """Fresh inputs get fresh constructions, even where the registry holds
    algebras of the same names, and the registry is left as it was."""
    builds = _count_builds(monkeypatch)
    T = registry.tits_by_name("cayley", "h3:ground")
    TQ = registry.tits_by_name("quatq", "h3:ground")
    held = dict(registry._CACHE)
    J = h3(ground())
    assert J.name == T.J.name
    T41 = theorem41(J)[0]
    T61 = theorem61(split_cayley(), ground())[0]
    TQ2 = tqj_maps(J)[3]
    assert len(builds) == 2 + 3
    assert not {id(x) for x in (T41, T61, TQ2)} & {id(T), id(TQ)}
    assert T41.djj is J.djj() is TQ2.djj and T41.djj is not T.djj
    assert registry._CACHE.keys() == held.keys()
    assert all(registry._CACHE[key] is value for key, value in held.items())


def test_theorems_share_a_of_j_with_the_registry(monkeypatch):
    """theorem41 and tqj_maps take A(J) off the registry when it holds J,
    matched by identity: the aj:<J> that the structurable checks use."""
    _count_builds(monkeypatch)
    J = registry.jordan_by_name("h3:ground")
    AJ = registry.involution_algebra_by_name("aj:h3:ground")
    assert theorem41(J)[2] is AJ and registry.aj_of(J) is AJ
    assert tqj_maps(J)[0].target is AJ
    fresh = h3(ground())
    assert registry.aj_of(fresh) is not AJ and theorem41(fresh)[2] is not AJ


def test_shared_spans_stay_read_only(monkeypatch):
    """The C0 and J0 spans are frozen: every T over one factor shares them,
    so no add may grow them, and thm41, thm61 and tqj on two T over one C
    (and one Q) leave each span object and its dimension as they were."""
    _count_builds(monkeypatch)
    Ts = [registry.tits_by_name("cayley", j) for j in ("h3:ground", "h3:binarion")]
    TQs = [registry.tits_by_name("quatq", j) for j in ("h3:ground", "jvtheta")]

    def spans():
        return [(S, S.dim) for T in Ts + TQs for S in (T.c0_span, T.j0_span)]
    before = spans()
    assert Ts[0].c0_span is Ts[1].c0_span and TQs[0].c0_span is TQs[1].c0_span
    for T in Ts:
        theorem41(T.J)
        theorem61(T.C, T.J.source)
    for T in TQs:
        tqj_maps(T.J)
    assert spans() == before and all(S.frozen for S, _dim in before)
    with pytest.raises(ValueError, match="frozen"):
        Ts[0].c0_span.add(Ts[0].C.unit)


def test_registry_name_alone_shares_nothing(monkeypatch):
    """A corrupted H3(k) that carries the registry H3(k)'s name gets its own
    T, d_{J,J}, J-side and A(J), and the Lie conditions still fail on it
    with a witness.
    theorem41 refuses it (it breaks the Jordan identity); its T comes from
    the registry lookup that theorem41 makes."""
    _count_builds(monkeypatch)
    T = registry.tits_by_name("cayley", "h3:ground")
    Jbad = corrupted_h3k()
    Jbad.algebra.name = T.J.name
    held = dict(registry._CACHE)
    with pytest.raises(IsomorphismError, match="not a Jordan algebra"):
        theorem41(Jbad)
    Tbad = registry.tits_of(registry.composition_for("cayley", Jbad), Jbad)
    assert Tbad is not T and Tbad.J is Jbad
    assert Tbad.djj is Jbad.djj() and Tbad.djj is not T.djj
    assert Tbad.sides[1] is jordan_side(Jbad) and Tbad.sides[1] is not T.sides[1]
    assert Tbad.j0_span is not T.j0_span
    assert registry.aj_of(Jbad) is not registry.aj_of(T.J)
    assert Tbad.algebra.name == T.algebra.name
    assert all(registry._CACHE[key] is value for key, value in held.items())
    rep = verify_lie_conditions(Tbad.C, Jbad, T=Tbad)
    assert not rep.ok and rep.witnesses
    assert not check_super_jacobi(Tbad.algebra).ok
    assert verify_lie_conditions(T.C, T.J, T=T).ok


# -- the held maps: their dense oracles, no dense round trip, transport ------

@pytest.mark.parametrize("field", [QQ, GF(10007)], ids=str)
def test_held_maps_equal_dense_oracles(field):
    """Every map built as lowered COO is, as a Matrix, what its dense
    column-by-column builder gives: Phi41, Phi61, J -> S, psi, AK -> AJV,
    the three involutions, the embedding with its iota maps and both inner
    derivations."""
    J = h3(ground(field))
    T, ca, AJ, hom41 = theorem41(J)
    assert hom41.matrix == phi41_dense(ca, AJ, J)
    T61, ca61, TP, hom61 = theorem61(split_quaternion(field), binarion(field))
    assert hom61.matrix == phi61_dense(T61)
    hom_a, hom_b, _lie, _TQ, _T62 = tqj_maps(J)
    assert hom_a.matrix == jordan_to_aj_dense(J)
    assert hom_b.matrix == psi_dense(J)
    assert ak_to_ajv(field).matrix == ak_to_ajv_dense(field)
    assert AJ.sigma == a_of_j_pointwise(J).sigma
    assert TP.sigma == tensor_product_pointwise(T61.C, T61.J.source)[1]
    assert [ca.awi.sigma.column(j) for j in range(ca.dim)] == coordinate_constants(ca)[1]
    iotas = iota_dense(ca, theorem41_basis(T))
    assert ca.embedding == iotas[0]
    assert [i.matrix for i in iota_maps(ca)] == iotas
    C = split_cayley(field)
    e = C.algebra.e
    mixed = [a + field.of(2) * b for a, b in zip(e("e1"), e("v2"))]
    for a, b in ((e("u1"), e("v2")), (mixed, e("u0")), (C.unit, e("v1"))):
        assert inner_derivation(C, a, b).matrix == inner_derivation_pointwise(C, a, b).matrix
    x, y = J.j0_basis()[0], J.j0_basis()[3]
    assert J.inner_derivation(x, y).matrix == jordan_inner_derivation(J, x, y).matrix


def test_held_map_checks_build_no_dense_matrix(monkeypatch):
    """On maps built beforehand, verify, involution_failures,
    check_structurable and iota_maps read the held integers: with
    int_fast.rows_coo (in every module that imports it) and the dense
    Matrix constructors raising, all of them still pass."""
    J = h3(ground())
    _T, ca, AJ, hom41 = theorem41(J)
    _T61, _ca61, TP, hom61 = theorem61(split_cayley(), ground())
    hom_a, hom_b, _lie, _TQ, _T62 = tqj_maps(J)
    hom_k = ak_to_ajv()

    def dense(*_args, **_kwargs):
        raise AssertionError("a held map was lowered again or built dense")

    for name, module in list(sys.modules.items()):
        if name.startswith("magma_tits") and hasattr(module, "rows_coo"):
            monkeypatch.setattr(module, "rows_coo", dense)
    for name in ("from_columns", "from_coo", "zeros"):
        monkeypatch.setattr(Matrix, name, dense)
    for hom in (hom41, hom61, hom_b, hom_k):
        assert hom.verify()
    assert hom_a.verify(require_bijective=False)
    for AI in (AJ, TP, ca.awi, hom_k.source):
        assert AI.involution_failures() == []
        assert check_structurable(AI).ok
    assert len(iota_maps(ca)) == 3


def _transported(AI, rng):
    """AI in the basis of a parity-preserving unimodular U, its involution
    conjugated to U^-1 sigma U; with U and U^-1."""
    U, Ui = unimodular(AI.algebra.parity, rng, AI.algebra.field, steps=12)
    return AlgebraWithInvolution(AI.algebra.transported(U), Ui @ AI.sigma @ U), U, Ui


@pytest.mark.parametrize("J", [h3(ground()), jordan_super_jvtheta()], ids=["h3k", "jvtheta"])
def test_phi41_verdicts_survive_unimodular_transport(J):
    """With source and target each moved to the basis of a
    parity-preserving unimodular U, Phi' = U_t^-1 Phi U_s still verifies,
    and with one entry corrupted it still fails."""
    rng = random.Random(41)
    _T, ca, AJ, hom = theorem41(J)
    (src, Us, _Usi), (tgt, _Ut, Uti) = _transported(ca.awi, rng), _transported(AJ, rng)
    assert src.algebra.sc != ca.awi.algebra.sc and tgt.algebra.sc != AJ.algebra.sc
    Phi = Uti @ hom.matrix @ Us
    assert InvolutionHomomorphism(src, tgt, Phi, name="Phi41'").verify()
    for _trial in range(3):
        bad = Phi.copy()
        r, c = rng.randrange(bad.nrows), rng.randrange(bad.ncols)
        bad[r, c] = bad[r, c] + 1
        with pytest.raises(IsomorphismError):
            InvolutionHomomorphism(src, tgt, bad, name="Phi41'/bad").verify()
