"""The S4 relations, Klein gradings and Casimir decomposition on the sparse
integer kernel against their dense Matrix oracles.

GroupAction evaluates words by int_fast.matvec on the lowered generators,
klein_grading and the Casimir kernels fold their rows from COO entries, and
synthesize_s4 conjugates by matvec; reference_construction.py computes the
same results with dense Matrix products.  Both must agree over QQ,
GF(10007) and GF(2^31 - 1), on corrupted inputs and past int64, and the
sparse path must not fall back to dense Matrix arithmetic.
"""

import importlib
import pkgutil
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

import magma_tits
from magma_tits import int_fast
from magma_tits.algebra import LinearMap, is_automorphism
from magma_tits.composition import (
    ground, invariant_quaternion, s4_on_cayley, s4_on_invariant_quaternion, split_cayley,
)
from magma_tits.exact import GF, QQ, Matrix, flatten_matrix
from magma_tits.isomorphisms import ak_to_ajv, theorem41, theorem41_basis, theorem61, tqj_maps
from magma_tits.jordan import h3
from magma_tits.s4 import (
    GEN_NAMES, KLEIN_RELATIONS, ORDER_RELATIONS, RELATIONS, GroupAction, conjugation_block,
    coordinate_algebra, iota_maps, klein_grading, s4_on_h3, s4_on_tits_left, s4_on_tits_right,
)
from magma_tits.tits import tits

from reference_construction import (
    casimir_kernels, kernel_within, klein_components, left_mult, relation_failures,
    synthesized_generators, word_matrix,
)

# the package re-exports the function decompose() under its module's name
decompose_module = importlib.import_module("magma_tits.decompose")

FIELDS = [QQ, GF(10007), GF(2 ** 31 - 1)]
ALGEBRAS = ("quaternion", "f4")


def _setup(kind, F):
    """(T, left action, right action, coordinate-algebra basis of the left one)."""
    J = h3(ground(F))
    if kind == "f4":
        T = tits(split_cayley(F), J)
        return T, s4_on_tits_left(T), s4_on_tits_right(T), theorem41_basis(T)
    Q = invariant_quaternion(F)
    T = tits(Q, J)
    qalg = Q.algebra
    basis = [T.der_vector(qalg.e("p1"), qalg.e("p2"))]
    basis += [T.tensor_vector(qalg.e("p0"), x) for x in T.j0_basis]
    return T, s4_on_tits_left(T, base_action=s4_on_invariant_quaternion(Q)), \
        s4_on_tits_right(T), basis


@pytest.fixture(scope="module", params=[(k, F) for k in ALGEBRAS for F in FIELDS],
                ids=lambda kf: "%s-%s" % kf)
def case(request):
    return _setup(*request.param)


def _triple(T, action, basis):
    ca = coordinate_algebra(T.algebra, action, basis=basis)
    one = ca.ambient_vector(ca.unit)
    d1 = action["phi"].apply(one)
    return [one, d1, action["phi"].apply(d1)]


def _with_entry(M, i, j, delta):
    B = M.copy()
    B[i, j] = B[i, j] + delta
    return B


def test_relations_and_words_match_oracle(case):
    _T, left, right, _basis = case
    for act in (left, right):
        assert act.relation_failures() == relation_failures(act) == []
        for lhs, rhs in RELATIONS:
            for word in (lhs, rhs):
                assert act.element(word) == word_matrix(act, word)


def test_klein_components_match_oracle(case):
    _T, left, right, _basis = case
    for act in (left, right):
        assert klein_grading(act).components == klein_components(act)


def test_casimir_kernels_match_oracle(case):
    T, left, _right, basis = case
    triple = _triple(T, left, basis)
    kernels = decompose_module._casimir_kernels(T.algebra, triple)
    assert kernels == casimir_kernels(T.algebra, triple)
    assert sum(len(k) for k in kernels) == T.dim
    if T.algebra.field.is_rational:
        rep = decompose_module.decompose(T.algebra, triple)
        assert [rep.bases[k] for k in ("adjoint", "h", "trivial")] == kernels


def test_corrupted_generator_fails_like_oracle(case):
    _T, left, _right, _basis = case
    # the first off-diagonal zero of phi gets + 1
    phi = left["phi"]
    i, j = next((i, j) for i in range(phi.nrows) for j in range(phi.ncols)
                if i != j and not phi[i, j])
    bad = GroupAction(left.target, left["tau1"], left["tau2"], _with_entry(phi, i, j, 1),
                      left["tau"])
    failures = bad.relation_failures()
    assert failures and failures == relation_failures(bad)
    with pytest.raises(ValueError):
        bad.verify()


def test_non_commuting_involutions_rejected(case):
    _T, left, _right, _basis = case
    # tau and tau2 are involutions, but tau2 tau = tau tau2 tau1 != tau tau2
    bad = GroupAction(left.target, left["tau"], left["tau2"], left["phi"], left["tau"])
    assert bad.word_failures(KLEIN_RELATIONS) == relation_failures(bad, KLEIN_RELATIONS) != []
    with pytest.raises(ValueError):
        klein_grading(bad)
    with pytest.raises(ValueError):
        klein_components(bad)


def _transported_action(act, U_diag):
    """act conjugated by U = diag(U_diag) on the transported target:
    U^{-1} M U has entries M_ij u_j / u_i."""
    f = act.field
    n = act.dim
    target = act.target.transported(
        Matrix([[U_diag[i] if i == j else 0 for j in range(n)] for i in range(n)], f))
    gens = [Matrix([[M[i, j] * U_diag[j] / U_diag[i] for j in range(n)] for i in range(n)], f)
            for M in (act[g] for g in ("tau1", "tau2", "phi", "tau"))]
    return GroupAction(target, *gens, name=act.name + " transported")


def test_past_int64_transported_action():
    T, left, right, _basis = _setup("quaternion", QQ)
    n = T.dim
    for act in (left, right):
        # U = diag(1/3, 2^40, 2^-40, 1, ...) up to the order of the basis:
        # 2^40 at j and 2^-40 at i for an entry phi_ij != 0, i != j, which
        # becomes 2^80 phi_ij
        phi = act["phi"]
        i, j = next((i, j) for i in range(n) for j in range(n) if i != j and phi[i, j])
        k = next(k for k in range(n) if k not in (i, j))
        u = [Fraction(1)] * n
        u[k], u[j], u[i] = Fraction(1, 3), Fraction(2 ** 40), Fraction(1, 2 ** 40)
        big = _transported_action(act, u)
        # the lowered entries pass int64, so every fold runs on Python ints
        assert any(big.lowered(g)[1].dtype == object for g in ("tau1", "tau2", "phi", "tau"))
        assert big.relation_failures() == relation_failures(big) == []
        assert big.verify()
        assert klein_grading(big).components == klein_components(big)
        for lhs, rhs in RELATIONS:
            assert big.element(lhs) == word_matrix(big, lhs)
        i, j = next((i, j) for i in range(n) for j in range(n)
                    if i != j and not big["tau"][i, j])
        bad = GroupAction(big.target, big["tau1"], big["tau2"], big["phi"],
                          _with_entry(big["tau"], i, j, Fraction(1, 3 * 2 ** 70)))
        assert bad.relation_failures() == relation_failures(bad) != []


@pytest.fixture(scope="module")
def f4_decomposition():
    T, left, _right, basis = _setup("f4", QQ)
    triple = _triple(T, left, basis)
    rep = decompose_module.decompose(T.algebra, triple)
    return T, left, triple, rep


def test_extraction_and_synthesis_match_oracle(f4_decomposition):
    T, left, triple, rep = f4_decomposition
    g = T.algebra
    ext = decompose_module.extract_b1(g, rep)
    ad0 = left_mult(g, triple[0])
    assert ext.hvecs == kernel_within(ad0, rep.bases["adjoint"], g.field)
    assert ext.svecs == kernel_within(ad0, rep.bases["h"], g.field)
    assert ext.psi_inv == ext.psi.inverse()
    act = decompose_module.synthesize_s4(g, rep, ext)
    want = synthesized_generators(ext)
    for name in ("tau1", "tau2", "phi", "tau"):
        assert act[name] == want[name] == left[name]


@pytest.mark.parametrize("kind,dimU", [("orthogonal", 1), ("special", 1), ("symplectic", 2)])
def test_classical_synthesis_matches_oracle(kind, dimU):
    g, triple = decompose_module.classical_examples(kind, dimU)
    rep = decompose_module.decompose(g, triple)
    assert [rep.bases[k] for k in ("adjoint", "h", "trivial")] == casimir_kernels(g, triple)
    ext = decompose_module.extract_b1(g, rep)
    act = decompose_module.synthesize_s4(g, rep, ext)
    want = synthesized_generators(ext)
    assert all(act[name] == want[name] for name in want)


def test_s4_and_so3_layers_use_no_dense_products(f4_decomposition, monkeypatch):
    T, left, triple, _rep = f4_decomposition

    def dense(*_args):
        raise AssertionError("dense Matrix arithmetic on the sparse S4/so3 path")

    for cached in ("_so3_h", "gl_w", "invariant_maps"):
        getattr(decompose_module, cached).cache_clear()
    for name in ("__matmul__", "__add__", "__sub__", "scale"):
        monkeypatch.setattr(Matrix, name, dense)
    with pytest.raises(AssertionError):
        Matrix.identity(2) @ Matrix.identity(2)
    assert left.verify()
    klein_grading(left)
    rep = decompose_module.decompose(T.algebra, triple)
    ext = decompose_module.extract_b1(T.algebra, rep)
    act = decompose_module.synthesize_s4(T.algebra, rep, ext)
    assert act.verify()
    # the gl(W) layer: assemble_b1, the invariant-map check and so(h)
    assert decompose_module.round_trip_matches(T.algebra, ext)
    assert decompose_module.check_invariant_maps() == []
    g, triple = decompose_module.so_h_negative_control()
    assert decompose_module.decompose(g, triple).residual_dim == 7
    # the theorem paths: InvolutionHomomorphism.verify, sigma^2 = id, iota_maps
    J = h3(ground())
    _T41, ca, _AJ, _hom = theorem41(J)
    theorem61(split_cayley(), ground())
    tqj_maps(J)
    ak_to_ajv()
    assert len(iota_maps(ca)) == 3


def _same_coo(a, b):
    """Equal lowered COO, array for array with equal dtypes, and equal D."""
    (*ca, Va, Da), (*cb, Vb, Db) = ((*a[0], a[1], a[2]), (*b[0], b[1], b[2]))
    return Da == Db and all(x.dtype == y.dtype and np.array_equal(x, y)
                            for x, y in zip((*ca, Va), (*cb, Vb)))


def _stacked_from_slices(act):
    """The block-diagonal map of the lowered generators over the lcm of
    their denominators, built from the slices one at a time."""
    n, mats = act.dim, [act.lowered(g) for g in GEN_NAMES]
    L = lcm(*(D for _rc, _V, D in mats))
    R, C = ([int(x) + k * n for k, (rc, _V, _D) in enumerate(mats) for x in rc[i]]
            for i in (0, 1))
    return R, C, [int(v) * (L // D) for _rc, V, D in mats for v in V], L


@pytest.mark.parametrize("F", FIELDS[:2] + [GF(2 ** 61 - 1)], ids=str)
def test_stored_integers_are_the_lowered_matrices(F):
    """Every builder stores each generator as the integers rows_coo gives
    for its Matrix, D included, and the stacked map as those slices over
    one denominator."""
    T, left, right, _basis = _setup("f4", F)
    Q = invariant_quaternion(F)
    TQ = tits(Q, h3(ground(F)))
    actions = [left, right, s4_on_cayley(split_cayley(F)), s4_on_h3(T.J),
               s4_on_invariant_quaternion(Q), decompose_module.s4_on_w(F),
               decompose_module._conjugations(F),
               s4_on_tits_left(TQ, base_action=s4_on_invariant_quaternion(Q)),
               s4_on_tits_right(TQ)]
    for act in actions:
        for g in GEN_NAMES:
            assert _same_coo(act.lowered(g), int_fast.rows_coo(act[g].rows, F)), (act.name, g)
        (R, C), V, D = act.stacked
        assert (R.tolist(), C.tolist(), V.tolist(), D) == _stacked_from_slices(act), act.name
    for space in (T.derC, T.djj):
        assert _same_coo(space.lowered, int_fast.matrices_coo(space.matrices, F))


def _per_generator_automorphisms(act):
    """The generators that fail is_automorphism, one map check per generator."""
    return [g for g in GEN_NAMES
            if not is_automorphism(act.target, LinearMap(act.target, act.target, act[g]))]


def test_batched_relations_and_automorphisms_match_oracles(case):
    """The batched word_failures and the stacked automorphism check give
    the dense oracle's list, in its order, on the valid actions and on two
    corrupted ones: a scaled generator, and phi replaced by tau1 (every
    generator an automorphism, relations failing)."""
    _T, left, right, _basis = case
    two = left.field.of(2)
    scaled = GroupAction(left.target, left["tau1"], left["tau2"], left["phi"],
                         Matrix([[two * x for x in row] for row in left["tau"].rows],
                                left.field))
    swapped = GroupAction(left.target, left["tau1"], left["tau2"], left["tau1"], left["tau"])
    for act in (left, right, scaled, swapped):
        for relations in (RELATIONS, KLEIN_RELATIONS, list(ORDER_RELATIONS.values())):
            assert act.word_failures(relations) == relation_failures(act, relations)
        assert act.automorphism_failures() == _per_generator_automorphisms(act)
    assert scaled.relation_failures() and scaled.automorphism_failures() == ["tau"]
    assert swapped.relation_failures() and swapped.automorphism_failures() == []


def _conjugation_oracle(span, mats, action):
    """The coordinates of P M_s P^{-1}, dense, per generator and matrix."""
    return [[span.coords(flatten_matrix(action[g] @ M @ action[g].inverse())) for M in mats]
            for g in GEN_NAMES]


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_conjugation_block_matches_dense_conjugation(F):
    """conjugation_block on gl(W) for the signed permutations of s4_on_w
    (inverted by their transpose) and for the same action conjugated by
    diag(1, 2, 3) (inverted by exact.inverse_coo) equals the dense products."""
    mats, span = decompose_module._gl_w_basis(F)
    w = decompose_module.s4_on_w(F)
    U = Matrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]], F)
    scaled = GroupAction(None, *(U @ w[g] @ U.inverse() for g in GEN_NAMES))
    for act in (w, scaled):
        (rows, cols), V, D = conjugation_block(span, int_fast.matrices_coo(mats, F), act, "gl(W)")
        got = Matrix.from_coo(4 * span.dim, 4 * span.dim, ((rows, cols), V, D), F)
        m = span.dim
        want = _conjugation_oracle(span, mats, act)
        for k in range(4):
            for s in range(m):
                assert [got[k * m + r, k * m + s] for r in range(m)] == want[k][s]
        assert not any(got[r, c] for r in range(4 * m) for c in range(4 * m)
                       if r // m != c // m)


def test_synthesized_integers_are_the_lowered_matrices(f4_decomposition):
    T, _left, _triple, rep = f4_decomposition
    act = decompose_module.synthesize_s4(T.algebra, rep)
    for g in GEN_NAMES:
        assert _same_coo(act.lowered(g), int_fast.rows_coo(act[g].rows, QQ))


def _patch_everywhere(monkeypatch, name, wrapper):
    """Replace int_fast.<name> at every magma_tits module that binds it."""
    real = getattr(int_fast, name)
    for info in pkgutil.iter_modules(magma_tits.__path__):
        module = importlib.import_module("magma_tits." + info.name)
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, wrapper)


def test_s4_pipeline_scans_no_dense_generator(monkeypatch):
    """The actions on T(C, J), their verification, the synthesized action
    and the round trip never lower a T.dim x T.dim Matrix, never lower a
    list of derivation matrices and never take the rank of a T.dim-size
    Matrix: their generators and the derivation spaces keep their
    integers, and the extraction keeps Psi and Psi^{-1} lowered."""
    T, left, _right, basis = _setup("f4", QQ)
    rep = decompose_module.decompose(T.algebra, _triple(T, left, basis))
    ext = decompose_module.extract_b1(T.algebra, rep)
    n = T.dim
    square, lists, ranks = [], [], []
    rows_coo, matrices_coo, rank = int_fast.rows_coo, int_fast.matrices_coo, Matrix.rank

    def counted_rows(rows, field):
        if len(rows) == n and all(len(r) == n for r in rows):
            square.append(rows)
        return rows_coo(rows, field)

    def counted_mats(mats, field):
        lists.append([M.nrows for M in mats])
        return matrices_coo(mats, field)

    def counted_rank(M):
        ranks.append(M.nrows)
        return rank(M)

    _patch_everywhere(monkeypatch, "rows_coo", counted_rows)
    _patch_everywhere(monkeypatch, "matrices_coo", counted_mats)
    monkeypatch.setattr(Matrix, "rank", counted_rank)
    actions = [s4_on_tits_left(T), s4_on_tits_right(T)]
    assert all(act.verify() for act in actions)
    assert square == [] and ranks == []
    actions.append(decompose_module.synthesize_s4(T.algebra, rep, ext))
    assert actions[-1].verify()
    assert decompose_module.round_trip_matches(T.algebra, ext)
    assert square == [] and n not in ranks
    # only the 3 x 3 basis of gl(W) is lowered as a list, never der C or d_{J,J}
    assert all(size == 3 for sizes in lists for size in sizes)
    assert all("gens" not in act.__dict__ for act in actions)


def test_s4_pipeline_leaves_the_table_rows_unbuilt():
    """decompose, extract_b1 and synthesize_s4 read the lowered table only."""
    T, left, _right, basis = _setup("f4", QQ)
    triple = _triple(T, left, basis)
    rep = decompose_module.decompose(T.algebra, triple)
    ext = decompose_module.extract_b1(T.algebra, rep)
    act = decompose_module.synthesize_s4(T.algebra, rep, ext)
    assert act.verify()
    assert "_rows" not in T.algebra.__dict__


def test_s4_layer_folds_once_per_action(monkeypatch):
    """On F4 over GF(10007) the two actions on T(C, J) and their
    verification make a fixed, small number of int_fast folds and joins,
    not some per generator or per word (68, 72 and 116 in all when each
    generator and each word had its own).  verify evaluates the order
    relations once, with the other relations: 5 folds and 5 joins (9 and
    9 when the automorphism check evaluated them again)."""
    T, _left, _right, _basis = _setup("f4", GF(10007))
    counts = {"fold": 0, "join": 0}
    for name in counts:
        def counted(*args, _real=getattr(int_fast, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        _patch_everywhere(monkeypatch, name, counted)

    def calls(run):
        counts.update(fold=0, join=0)
        out = run()
        return counts["fold"], counts["join"], out
    folds, joins, left = calls(lambda: s4_on_tits_left(T))
    assert folds <= 8 and joins <= 8, (folds, joins)
    folds, joins, right = calls(lambda: s4_on_tits_right(T))
    assert folds <= 8 and joins <= 8, (folds, joins)
    for act in (left, right):
        folds, joins, ok = calls(act.verify)
        assert ok and folds <= 5 and joins <= 5, (folds, joins)
    # an outer product's pairs are a repeat and a tile, not a join
    assert calls(lambda: int_fast.outer(3, 4))[:2] == (0, 0)
