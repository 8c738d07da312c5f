import dataclasses
import importlib
from fractions import Fraction

import numpy as np
import pytest

from magma_tits.exact import GF, QQ, Matrix, Subspace, basis_vector, flatten_matrix, vec_eq
from magma_tits.algebra import SuperAlgebra, check_super_jacobi, centralizer
from magma_tits.composition import binarion, ground, invariant_quaternion, split_cayley
from magma_tits.jordan import h3, jordan_super_dt, jordan_super_jvtheta
from magma_tits.tits import tits, tits62_variant
from magma_tits.s4 import coordinate_algebra, s4_on_tits_left, klein_grading
from magma_tits.isomorphisms import theorem41_basis
from magma_tits.decompose import (
    hgd_matrices, so3_basis, h_basis, s4_on_w, invariant_maps,
    check_invariant_maps, decompose, extract_b1, round_trip_matches,
    synthesize_s4, assemble_b1, b1data_from_jordan, classical_examples,
    glw, so_h_negative_control,
)

from magma_tits import registry

from reference_construction import (
    b1_validate, commutator, copy_columns_per_vector, invariant_map_closures,
    invariant_maps_dense,
)

# the package re-exports the function decompose() under its module's name
decompose_module = importlib.import_module("magma_tits.decompose")

FIELDS = [QQ, GF(10007), GF(2 ** 31 - 1)]
# the coefficient maps B1Data.validate constrains
CHECKED = ("circ_HH", "brk_HH", "brk_HS", "circ_HS", "circ_SS", "brk_SS", "d_HH", "d_SS")


def det3(M):
    r = M.rows
    return (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))


def test_hgd_relations():
    m = hgd_matrices()
    for i in range(3):
        assert commutator(m["D%d" % i], m["D%d" % ((i + 1) % 3)]) == m["D%d" % ((i + 2) % 3)]
    # D's are skew, G/H symmetric; h is trace-zero symmetric
    for i in range(3):
        assert m["D%d" % i].T == m["D%d" % i].scale(-1)
        assert m["G%d" % i].T == m["G%d" % i]
    for X in h_basis():
        assert X.trace() == 0
        assert X.T == X
    # gl(W) = so3 + h + z: 3 + 5 + 1 = 9
    S = Subspace(9)
    for M in so3_basis() + h_basis() + [Matrix.identity(3)]:
        assert S.add(flatten_matrix(M))
    assert S.dim == 9


def test_s4_on_w():
    act = s4_on_w()
    assert act.relation_failures() == []
    assert vec_eq(act["tau1"].apply(basis_vector(3, 0)), [-1, 0, 0])  # w1 -> -w1
    assert vec_eq(act["phi"].apply(basis_vector(3, 1)), basis_vector(3, 2))  # w2 -> w0
    for g in ("tau1", "tau2", "phi", "tau"):
        M = act[g]
        assert det3(M) == 1
        assert M.T @ M == Matrix.identity(3)  # preserves (w_i|w_j) = delta


def test_invariant_maps():
    assert check_invariant_maps() == []
    m = hgd_matrices()
    # trace map on (D0, D0) gives -2 I
    tr = (m["D0"] @ m["D0"]).trace()
    assert tr == -2
    # [G1, G2] = D0
    assert commutator(m["G1"], m["G2"]) == m["D0"]
    assert (m["G1"] @ m["G2"]).trace() == 0


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_invariant_maps_match_dense_oracle(F):
    """The nine tables read off gl_w, their verdict and ad(D_i) on so3 and h
    equal the dense closures and Matrix loops of the oracle."""
    tables, failures = invariant_maps_dense(F)
    maps = invariant_maps(F)
    assert list(maps) == list(tables)
    for name, table in tables.items():
        assert maps[name].shape == table.shape and maps[name].tolist() == table.tolist(), name
        assert not maps[name].flags.writeable
    assert check_invariant_maps(F) == failures == []
    R3, R5, _rho = decompose_module._so3_h(F)
    Ds = so3_basis(F)
    for part, R in ((Ds, R3), (h_basis(F), R5)):
        span = Subspace.from_vectors([flatten_matrix(X) for X in part], 9, F)
        assert list(R) == [Matrix.from_columns([span.coords(flatten_matrix(commutator(D, X)))
                                                for X in part], F) for D in Ds]


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_invariant_maps_negative_controls(F, monkeypatch):
    """AX + 2XA in place of AX + XA leaves so3 for both checkers; one
    corrupted constant of the gl(W) table on each kind of source pair
    breaks equivariance."""
    monkeypatch.setattr(decompose_module, "INVARIANT_MAPS", tuple(
        row[:4] + (1, 2, 0) if row[0] == "so3xh->so3" else row
        for row in decompose_module.INVARIANT_MAPS))
    closures = [m[:4] + (lambda A, X: A @ X + (X @ A).scale(2),) if m[0] == "so3xh->so3" else m
                for m in invariant_map_closures(F)]
    assert (check_invariant_maps(F) == sorted(set(invariant_maps_dense(F, closures)[1]))
            == [("so3xh->so3", "image outside target")])
    monkeypatch.undo()
    gl = decompose_module.gl_w(F)
    parts = decompose_module.PARTS
    for s1, s2 in (("so3", "so3"), ("so3", "h"), ("h", "so3"), ("h", "h")):
        (i, j), row = next(((i, j), row) for (i, j), row in gl.sc.items()
                           if i in parts[s1] and j in parts[s2])
        k = next(iter(row))
        sc = {key: dict(r) for key, r in gl.sc.items()}
        sc[i, j][k] += 1
        bad = SuperAlgebra(gl.basis, sc, field=F)
        monkeypatch.setattr(decompose_module, "gl_w", lambda _f, bad=bad: bad)
        failures = check_invariant_maps(F)
        assert any(reason.startswith("not ") for _name, reason in failures), (i, j, k)


def associativity_failures(A, unit):
    """The basis triples with (b_i b_j) b_k != b_i (b_j b_k) and the basis
    elements b_i with u b_i != b_i or b_i u != b_i, from
    SuperAlgebra.multiply alone."""
    e = [A.e(i) for i in range(A.n)]
    u, mul = A.e(unit), A.multiply
    bad = [(i, j, k) for i in range(A.n) for j in range(A.n) for k in range(A.n)
           if mul(mul(e[i], e[j]), e[k]) != mul(e[i], mul(e[j], e[k]))]
    return bad + [i for i in range(A.n) if mul(u, e[i]) != e[i] or mul(e[i], u) != e[i]]


@pytest.mark.parametrize("F", (QQ, GF(10007)), ids=str)
def test_gl_w_is_associative_with_unit_i(F, monkeypatch):
    """gl(W), which the invariant maps and their check read, is associative
    with unit I; with c^{G0}_{G0,I} = 2 it is not, and only this check sees
    it (check_invariant_maps reads no pair with an I factor)."""
    gl = decompose_module.gl_w(F)
    g0, unit = gl.index("G0"), gl.index("I")
    assert associativity_failures(gl, unit) == []
    sc = {key: dict(row) for key, row in gl.sc.items()}
    sc[g0, unit][g0] = F.of(2)
    bad = SuperAlgebra(gl.basis, sc, field=F)
    failures = associativity_failures(bad, unit)
    assert g0 in failures and (g0, unit, unit) in failures
    monkeypatch.setattr(decompose_module, "gl_w", lambda _f: bad)
    assert check_invariant_maps(F) == []


def test_decompose_glw():
    g, triple = glw()
    assert check_super_jacobi(g).ok
    rep = decompose(g, triple)
    assert rep.ok and rep.multiplicities() == (1, 1, 1)
    # z = k I3: the trivial part is the span of the identity
    assert len(rep.bases["trivial"]) == 1
    # Casimir eigenvalues are exactly {0, -2, -6}: kernel dims 3 + 5 + 1 = 9
    assert len(rep.bases["adjoint"]) == 3 and len(rep.bases["h"]) == 5
    # gl(W) centralizer of so3 is k I3 (1-dimensional)
    assert len(centralizer(g, triple)) == 1


def test_decompose_so3_itself():
    g, triple = classical_examples("orthogonal", 0)
    rep = decompose(g, triple)
    assert rep.multiplicities() == (1, 0, 0)


def test_decompose_orthogonal():
    g, triple = classical_examples("orthogonal", 2)
    assert g.n == 10
    rep = decompose(g, triple)
    assert rep.ok and rep.multiplicities() == (3, 0, 1)
    g, triple = classical_examples("orthogonal", 1)
    rep = decompose(g, triple)
    assert rep.multiplicities() == (2, 0, 0)


def test_decompose_special():
    g, triple = classical_examples("special", 1)
    assert g.n == 15
    rep = decompose(g, triple)
    assert rep.ok and rep.multiplicities() == (3, 1, 1)  # h appears just once


def test_decompose_symplectic():
    g, triple = classical_examples("symplectic", 0)
    assert g.n == 21
    assert check_super_jacobi(g).ok
    rep = decompose(g, triple)
    assert rep.ok and rep.multiplicities() == (1, 3, 3)
    g, triple = classical_examples("symplectic", 2)
    rep = decompose(g, triple)
    assert rep.ok
    # sp(W+W*) block contributes (1,3,3); W+W* x U adds 4 adjoints, sp(U) adds 3
    assert rep.multiplicities() == (5, 3, 6)


def test_symplectic_rejects_odd_dimU():
    with pytest.raises(ValueError):
        classical_examples("symplectic", 1)


def test_decompose_negative_control():
    g, triple = so_h_negative_control()
    assert check_super_jacobi(g).ok
    rep = decompose(g, triple)
    assert not rep.ok
    assert rep.residual_dim == 7  # the V(6) part is invisible to {0,-2,-6}


def test_decompose_rejects_bad_triple():
    g, triple = glw()
    with pytest.raises(ValueError):
        decompose(g, [triple[0], triple[1], triple[1]])


def test_b1_roundtrip_glw():
    g, triple = glw()
    rep = decompose(g, triple)
    ext = extract_b1(g, rep)
    assert ext.data.validate()
    assert round_trip_matches(g, ext)
    act = synthesize_s4(g, rep, ext)
    act.verify()


def test_round_trip_reuses_psi_inverse(monkeypatch):
    """round_trip_matches transports g with the extraction's Psi^{-1}, with
    no Matrix.inverse call."""
    g, triple = glw()
    ext = extract_b1(g, decompose(g, triple))

    def guard(_self):
        raise AssertionError("Psi inverted again")
    monkeypatch.setattr(Matrix, "inverse", guard)
    assert round_trip_matches(g, ext)


def _b1_roundtrip_tits(J, name, multiplicities):
    """Decompose T(cayley, J) under the so3 triple (1, phi 1, phi^2 1) of the
    left action's coordinate algebra, check the extracted data, the round
    trip and the synthesized generators against the left action's."""
    T = tits(split_cayley(), J)
    action = s4_on_tits_left(T)
    ca = coordinate_algebra(T.algebra, action, basis=theorem41_basis(T))
    one = ca.ambient_vector(ca.unit)
    phi = action["phi"]
    d0, d1 = one, phi.apply(one)
    d2 = phi.apply(d1)
    rep = decompose(T.algebra, [d0, d1, d2], name=name)
    assert rep.ok and rep.multiplicities() == multiplicities
    ext = extract_b1(T.algebra, rep)
    assert ext.data.validate()
    assert round_trip_matches(T.algebra, ext)
    act2 = synthesize_s4(T.algebra, rep, ext)
    # agreement with the hand-built action on all four generators
    for gname in ("tau1", "tau2", "phi", "tau"):
        assert act2[gname] == action[gname]
    return T, act2, d0


def test_b1_roundtrip_f4():
    T, act2, d0 = _b1_roundtrip_tits(h3(ground()), "f4", (13, 1, 8))
    act2.verify()
    # the coordinate algebra of the synthesized action is unital with the
    # same unit (the image of 1 in H is the so3 vector d0)
    kg = klein_grading(act2)
    ca2 = coordinate_algebra(T.algebra, act2, basis=kg.components[(1, 0)])
    assert ca2.is_unital
    assert vec_eq(ca2.ambient_vector(ca2.unit), d0)


def _reduced(sc, field):
    """A QQ table reduced into GF(p), without the entries that vanish there."""
    out = {key: {k: field.of(c) for k, c in row.items() if field.of(c)}
           for key, row in sc.items()}
    return {key: row for key, row in out.items() if row}


def _b1_from_jordan_over_fields(make_jordan, name="b1"):
    """assemble_b1(b1data_from_jordan(make_jordan(F))) over each field F of
    FIELDS, after checking the data with validate and its dense oracle;
    the QQ table reduced mod p must be the GF(p) one."""
    algebras = []
    for F in FIELDS:
        data = b1data_from_jordan(make_jordan(F))
        assert data.validate() and b1_validate(data)
        algebras.append(assemble_b1(data, name=name))
    for g in algebras[1:]:
        assert _reduced(algebras[0].sc, g.field) == g.sc
    return algebras


def test_b1_from_jordan_even():
    for g in _b1_from_jordan_over_fields(lambda F: h3(ground(F))):
        assert g.n == 21
        assert check_super_jacobi(g).ok
        # same dimensions as the quaternionic variant on the same Jordan algebra
        F = g.field
        assert tits62_variant(invariant_quaternion(F), h3(ground(F))).algebra.n == g.n
    for g in _b1_from_jordan_over_fields(lambda F: h3(binarion(F))):
        assert check_super_jacobi(g).ok


def test_b1_from_jordan_super():
    for t in (3, Fraction(-1, 2)):
        for g in _b1_from_jordan_over_fields(lambda F: jordan_super_dt(t, F), name="b1(dt)"):
            assert (g.dim_even, g.dim_odd) == (9, 8)   # D(2,1;t)
            assert check_super_jacobi(g).ok
    for g in _b1_from_jordan_over_fields(jordan_super_jvtheta, name="b1(jvtheta)"):
        assert check_super_jacobi(g).ok


def _corrupted(data, name, at=None, by=Fraction(1, 3)):
    """data with `by` added to one entry ((j, k), t) of a coefficient table,
    its first entry by default (an entry that becomes zero leaves the
    table)."""
    table = {key: dict(row) for key, row in getattr(data, name).items()}
    key, t = at or next((key, next(iter(row))) for key, row in table.items())
    row = table.setdefault(key, {})
    row[t] = row.get(t, data.field.zero) + data.field.of(by)
    if not row[t]:
        del row[t]
        if not row:
            del table[key]
    return dataclasses.replace(data, **{name: table})


def test_b1_validate_negative_controls():
    """Each nonempty checked table, corrupted, gets the dense oracle's
    verdict; the clean data passes both.  A corruption at the unit breaks
    a unit law; in brk_HH it is mirrored, so that only the unit law sees it."""
    inputs = [(label, extract_b1(g, decompose(g, triple)).data)
              for label, (g, triple) in (("glw", glw()),
                                         ("sp:2", classical_examples("symplectic", 2)),
                                         ("so:2", classical_examples("orthogonal", 2)))]
    inputs.append(("dt:3", b1data_from_jordan(jordan_super_dt(3))))
    missed = []
    for label, data in inputs:
        assert data.validate() and b1_validate(data)
        for name in CHECKED:
            if getattr(data, name):
                bad = _corrupted(data, name)
                assert bad.validate() == b1_validate(bad), (label, name)
                if bad.validate():
                    missed.append((label, name))
        # the unit laws: (second index, target) dimensions of each table
        j = next(i for i, c in enumerate(data.unit_h) if c)
        mh, ms = data.hdim, data.sdim
        for name, dims in (("circ_HH", (mh, mh)), ("brk_HH", (mh, ms)),
                           ("brk_HS", (ms, mh)), ("circ_HS", (ms, ms))):
            if all(dims):
                bad = _corrupted(data, name, ((j, 0), 0))
                assert not bad.validate() and not b1_validate(bad), (label, name)
        if mh > 1 and ms:
            a = 1 if j == 0 else 0
            bad = _corrupted(_corrupted(data, "brk_HH", ((j, a), 0)), "brk_HH", ((a, j), 0),
                             Fraction(-1, 3))
            assert not bad.validate() and not b1_validate(bad), label
    # neither the unit laws nor the symmetries see these entries
    assert missed == [("glw", "circ_SS"), ("sp:2", "brk_HS")]


def test_b1_roundtrip_e8():
    _b1_roundtrip_tits(h3(split_cayley()), "e8", (55, 1, 78))


def test_synthesized_action_unital_coordinate_algebra_so():
    # orthogonal example: so(W + U) with dim U = 1
    g, triple = classical_examples("orthogonal", 1)
    rep = decompose(g, triple)
    ext = extract_b1(g, rep)
    act = synthesize_s4(g, rep, ext)
    act.verify()
    kg = klein_grading(act)
    ca = coordinate_algebra(g, act, basis=kg.components[(1, 0)])
    assert ca.is_unital


def _f4_with_triple():
    """T(cayley, h3:ground) with the so3 triple (1, phi 1, phi^2 1) of the
    left action's coordinate algebra."""
    T = tits(split_cayley(), h3(ground()))
    action = s4_on_tits_left(T)
    ca = coordinate_algebra(T.algebra, action, basis=theorem41_basis(T))
    one = ca.ambient_vector(ca.unit)
    d1 = action["phi"].apply(one)
    return T.algebra, [one, d1, action["phi"].apply(d1)]


@pytest.mark.parametrize("name", ["glw", "sp:0", "sp:2", "sl:2", "so:2", "f4"])
def test_module_copies_match_per_vector_oracle(name, monkeypatch):
    """extract_b1 walks each width's module copies once and pushes all
    copies through one matvec per step: Psi, Psi^{-1} and the B1 data equal
    those of the per-vector walk, one copy and one vector at a time."""
    g, triple = _f4_with_triple() if name == "f4" else registry.lie_with_triple(name)
    rep = decompose(g, triple)
    ext = extract_b1(g, rep)
    monkeypatch.setattr(decompose_module, "_copy_columns", copy_columns_per_vector)
    ref = extract_b1(g, rep)
    for mine, theirs in ((ext.psi_coo, ref.psi_coo), (ext.psi_inv_coo, ref.psi_inv_coo)):
        (a, Va, Da), (b, Vb, Db) = mine, theirs
        assert Da == Db and all(np.array_equal(x, y) for x, y in zip((*a, Va), (*b, Vb)))
    assert ext.data == ref.data


@pytest.mark.parametrize("copy_columns", [decompose_module._copy_columns,
                                          copy_columns_per_vector], ids=["walk", "oracle"])
def test_module_copy_needs_a_generating_start(copy_columns):
    """A start vector that does not generate the abstract module raises:
    the zero vector, and a basis vector that the operators kill."""
    R3, _R5, _rho = decompose_module._so3_h(QQ)
    ops = [((np.zeros(0, dtype=np.int64),) * 2, np.zeros(0, dtype=np.int64))] * 3
    vecs = [[QQ.one, QQ.zero]]
    for R_mats, start in ((R3, [QQ.zero] * 3), ([Matrix.zeros(3, 3, QQ)] * 3,
                                                 basis_vector(3, 0, QQ))):
        with pytest.raises(ValueError, match="not generated by the starting vector"):
            copy_columns(R_mats, start, ops, 1, vecs, 3, 0, QQ)
