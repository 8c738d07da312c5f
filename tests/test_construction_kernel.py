"""The sparse exact construction against its Fraction reference.

tits(), tits62_variant, der C, matrix Lie algebras, coordinate algebras and
C x C^ are built by int_fast contractions with batched Subspace
coordinates; the oracles in reference_construction.py build the same
tables one product and one Subspace.coords at a time.  Both must agree over
QQ, GF(10007) and GF(2^31 - 1), and past int64; the integer assemblies of
tits(), tits62_variant and C x C^ also over GF(2^61 - 1), where their
outer products pass int64 before they are reduced.  The batch of inner
derivations d_{x,y} is checked against its other contraction order.
"""

import importlib
from fractions import Fraction

import pytest

from magma_tits.algebra import SuperAlgebra
from magma_tits.composition import (
    CompositionAlgebra, derivation_algebra, invariant_quaternion, split_cayley,
    split_quaternion,
)
from magma_tits.decompose import classical_examples, glw
from magma_tits.exact import GF, QQ, Matrix
from magma_tits.isomorphisms import theorem41_basis, theorem61_basis
from magma_tits.jordan import JordanAlgebra, d2, h3, jordan_super_dt, jordan_super_jvtheta
from magma_tits.registry import composition_by_name, jordan_by_name
from magma_tits.s4 import (
    GroupAction, coordinate_algebra, klein_grading, s4_on_tits_left, s4_on_tits_right,
)
from magma_tits.structurable import tensor_product
from magma_tits.tits import (inner_derivation_pairs, tits, tits62_variant, verify_lie_conditions,
                              verify_lie_conditions_reference)

from reference_construction import (
    clean, coordinate_constants, derivation_constants, diag_transported,
    inner_derivation_pairs_by_basis, lie_from_matrices, tensor_product_pointwise,
    tits62_constants, tits_constants,
)
from test_tits import corrupted_h3k

# the package re-exports the function decompose() under its module's name
decompose_module = importlib.import_module("magma_tits.decompose")
tits_module = importlib.import_module("magma_tits.tits")

FIELDS = [QQ, GF(10007), GF(2 ** 31 - 1)]
WIDE_FIELDS = FIELDS + [GF(2 ** 61 - 1)]
COMPOSITIONS = ("ground", "binarion", "quaternion", "cayley")
JORDANS = ("h3:ground", "h3:binarion", "h3:quaternion", "jvtheta", "d2", "dt:3")


def _reference_tits(C, J, T):
    return clean(tits_constants(C, J, T.derC, T.c0_basis, T.j0_basis))


@pytest.mark.parametrize("F", WIDE_FIELDS, ids=str)
def test_tits_matches_reference(F):
    for cname in COMPOSITIONS:
        for jname in JORDANS:
            C, J = composition_by_name(cname, F), jordan_by_name(jname, F)
            T = tits(C, J)
            assert T.algebra.sc == _reference_tits(C, J, T), (cname, jname)


@pytest.mark.parametrize("F", WIDE_FIELDS, ids=str)
def test_tits62_matches_reference(F):
    Q = invariant_quaternion(F)
    for J in (h3(composition_by_name("ground", F)), h3(composition_by_name("binarion", F)),
              jordan_super_jvtheta(F), d2(F), jordan_super_dt(Fraction(-1, 2), F)):
        assert tits62_variant(Q, J).algebra.sc == clean(tits62_constants(Q, J)), J.name


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_derivation_algebra_matches_reference(F):
    for name in ("binarion", "quaternion", "cayley", "quatq"):
        C = composition_by_name(name, F)
        der = derivation_algebra(C)
        gens, sc = derivation_constants(C)
        assert der.generators == gens, name
        assert der.lie.sc == clean(sc), name


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_small_composition_algebras_have_zero_der(F):
    for cname in ("ground", "binarion"):
        for jname in ("h3:ground", "jvtheta"):
            T = tits(composition_by_name(cname, F), jordan_by_name(jname, F))
            assert T.derC.dim == 0 and T.der_dim == 0 and T.derC.lie.dim == 0, cname
            assert T.derC.matrices == []


def _batch(pairs):
    ids, rc, d, D = pairs
    return ids.tolist(), rc.tolist(), [int(v) for v in d], D


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_inner_derivation_pairs_match_basis_order(F):
    Js = [jordan_by_name(name, F) for name in ("h3:ground", "h3:binarion", "h3:quaternion",
                                               "jvtheta", "d2")]
    if F is QQ:
        Js.append(diag_transported(h3(composition_by_name("ground")),
                                   (Fraction(1, 3), 2 ** 40, Fraction(1, 2 ** 40))))
        assert Js[-1].algebra.coo[1].dtype == object
    for J in Js:
        for vectors in (J.j0_basis(), [J.algebra.e(i) for i in range(J.dim)]):
            assert (_batch(inner_derivation_pairs(J, vectors))
                    == _batch(inner_derivation_pairs_by_basis(J, vectors))), J.name


@pytest.mark.parametrize("F", WIDE_FIELDS, ids=str)
def test_tensor_product_matches_reference(F):
    for a in COMPOSITIONS:
        for b in COMPOSITIONS:
            AI = tensor_product(composition_by_name(a, F), composition_by_name(b, F))
            sc, sigma = tensor_product_pointwise(composition_by_name(a, F),
                                                 composition_by_name(b, F))
            assert AI.algebra.sc == clean(sc) and AI.sigma == sigma, (a, b)


def _recorded_matrix_algebras(monkeypatch, build):
    """(matrices, algebra) of every lie_from_matrices call made by build()."""
    seen = []
    original = decompose_module.lie_from_matrices

    def recording(mats, *args, **kwargs):
        g = original(mats, *args, **kwargs)
        seen.append((mats, g))
        return g

    monkeypatch.setattr(decompose_module, "lie_from_matrices", recording)
    build()
    return seen


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_matrix_lie_algebras_match_reference(F, monkeypatch):
    builds = [lambda kind=kind: classical_examples(kind, 2, F)
              for kind in ("orthogonal", "special", "symplectic")]
    builds.append(lambda: glw(F))
    for build in builds:
        (mats, g), = _recorded_matrix_algebras(monkeypatch, build)
        assert g.sc == clean(lie_from_matrices(mats, F)), g.name


def _assert_coordinate_algebra_matches(ca):
    sc, sigma = coordinate_constants(ca)
    alg = ca.awi.algebra
    assert alg.sc == clean(sc)
    assert [ca.awi.sigma.column(j) for j in range(alg.n)] == sigma
    # the unit, certified on the reference table
    ref = SuperAlgebra(alg.basis, sc, alg.parity, alg.field)
    assert ca.unit is not None
    for j in range(ref.n):
        assert ref.multiply(ca.unit, ref.e(j)) == ref.e(j) == ref.multiply(ref.e(j), ca.unit)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_coordinate_algebras_match_reference(F):
    cayley = composition_by_name("cayley", F)
    for jname in ("h3:ground", "h3:binarion", "jvtheta", "d2"):
        T = tits(cayley, jordan_by_name(jname, F))
        _assert_coordinate_algebra_matches(
            coordinate_algebra(T.algebra, s4_on_tits_left(T), basis=theorem41_basis(T)))
    for cname, chat in (("binarion", "binarion"), ("quaternion", "ground"),
                        ("cayley", "ground")):
        T = tits(composition_by_name(cname, F), jordan_by_name("h3:" + chat, F))
        _assert_coordinate_algebra_matches(
            coordinate_algebra(T.algebra, s4_on_tits_right(T), basis=theorem61_basis(T)))


def _big_diagonal(n):
    """diag(1/3, 2^40, 2^-40, 1, ...): cleared constants pass int64."""
    U = Matrix.identity(n)
    for i, d in enumerate((Fraction(1, 3), Fraction(2 ** 40), Fraction(1, 2 ** 40))):
        U[i, i] = d
    return U


def test_past_int64_transport_matches_reference(monkeypatch):
    C = split_cayley()
    U = _big_diagonal(8)
    Ct = CompositionAlgebra(C.algebra.transported(U, name="cayley'"),
                            U.T @ C.norm_polar @ U, U.inverse().apply(C.unit), "cayley'")
    der = derivation_algebra(Ct)
    gens, sc = derivation_constants(Ct)
    assert der.generators == gens and der.lie.sc == clean(sc)
    J = h3(composition_by_name("ground"))
    T = tits(Ct, J)
    assert T.algebra.sc == _reference_tits(Ct, J, T)

    # so5 conjugated by the same kind of diagonal
    (mats, _g), = _recorded_matrix_algebras(monkeypatch,
                                            lambda: classical_examples("orthogonal", 2, QQ))
    V = _big_diagonal(5)
    Vinv = V.inverse()
    big = [V @ M @ Vinv for M in mats]
    assert decompose_module.lie_from_matrices(big).sc == clean(lie_from_matrices(big, QQ))

    # the coordinate algebra of the left action on F4, transported
    Tk = tits(C, J)
    act = s4_on_tits_left(Tk)
    W = _big_diagonal(Tk.dim)
    Winv = W.inverse()
    g = Tk.algebra.transported(W, name="f4'")
    gens = [Winv @ act[name] @ W for name in ("tau1", "tau2", "phi", "tau")]
    basis = [Winv.apply(v) for v in theorem41_basis(Tk)]
    _assert_coordinate_algebra_matches(
        coordinate_algebra(g, GroupAction(g, *gens), basis=basis))


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_matrices_not_closed_under_commutator_rejected(F):
    E12 = Matrix([[0, 1], [0, 0]], F)
    E21 = Matrix([[0, 0], [1, 0]], F)
    with pytest.raises(ValueError, match="not closed"):
        decompose_module.lie_from_matrices([E12, E21], field=F)
    with pytest.raises(ValueError):
        lie_from_matrices([E12, E21], F)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_basis_outside_component_rejected(F):
    T = tits(composition_by_name("cayley", F), jordan_by_name("h3:ground", F))
    act = s4_on_tits_left(T)
    outside = klein_grading(act).components[(0, 1)][0]
    with pytest.raises(ValueError, match="not in the \\(1,0\\) component"):
        coordinate_algebra(T.algebra, act, basis=theorem41_basis(T)[:-1] + [outside])


@pytest.mark.parametrize("F", [QQ, GF(10007)], ids=str)
def test_lowered_split_matches_reference(F, monkeypatch):
    # H3(k) whose iota_0 iota_1 also carries an E0 term: a d_{x,y} of it
    # moves J0 basis vectors out of J0, so _split_coords splits them along
    # k1 with its fold of J's held unit and trace, and T's table still
    # equals the oracle's, which splits one vector at a time
    J = h3(composition_by_name("ground", F))
    sc = {k: dict(v) for k, v in J.algebra.sc.items()}
    for key in ((J.iota_index(0, 0), J.iota_index(1, 0)), (J.iota_index(1, 0), J.iota_index(0, 0))):
        sc[key][J.e_index(0)] = F.one
    Jbad = JordanAlgebra(SuperAlgebra(J.algebra.basis, sc, field=F, name="H3bad3"), J.unit,
                         J.trace_row, provenance="custom")
    split, outside = tits_module._split_coords, []

    def spy(span, batch, unit, trace):
        outside.append(len(span.coords_many(*batch)[-1]))
        return split(span, batch, unit, trace)
    monkeypatch.setattr(tits_module, "_split_coords", spy)
    Q = split_quaternion(F)
    T = tits(Q, Jbad)
    assert outside == [0, 0, 8, 0]
    assert T.algebra.sc == _reference_tits(Q, Jbad, T)
    rep = verify_lie_conditions(Q, Jbad, T=T, max_witnesses=1000)
    assert (rep.ok, rep.cond1_ok, rep.cond2_ok, rep.cond3_ok) == (False, False, False, True)
    assert len(rep.witnesses) == 708 and rep.witnesses[:2] == [
        ("(ii)", (0, 0, 1), (0, 2, 3)), ("(ii)", (0, 0, 1), (0, 3, 2))]
    ref = verify_lie_conditions_reference(Q, Jbad, T=T, max_witnesses=1000)
    assert (ref.ok, ref.witnesses) == (rep.ok, rep.witnesses)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_corrupted_jordan_projection_matches_reference(F):
    Q, Jbad = split_quaternion(F), corrupted_h3k(F)
    T = tits(Q, Jbad)
    assert T.algebra.sc == _reference_tits(Q, Jbad, T)
    assert not T.jacobi_report().ok
