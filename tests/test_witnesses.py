"""Verdicts and witnesses of the bulk checkers.

A verdict never depends on the witness cap, and the witnesses come from
the contraction that decided the verdict: with SuperAlgebra.multiply and
the jacobiator oracle made to raise, the checkers give the same reports on
the negative controls as before.  Folded in blocks of output index (a term
budget of one term), they give the same reports again, and the E7 Jacobi
check and the E8 Lie conditions stay within their measured memory."""

import tracemalloc
from dataclasses import replace
from functools import partial

import pytest

from magma_tits import algebra, int_fast, registry
from magma_tits.algebra import (SuperAlgebra, _jacobiator, check_super_jacobi,
                                check_super_jacobi_reference, lowered_map_failures)
from magma_tits.composition import binarion, ground, split_cayley, split_quaternion
from magma_tits.exact import Matrix
from magma_tits.jordan import h3, jordan_super_jvtheta
from magma_tits.structurable import AlgebraWithInvolution, a_of_j, check_structurable
from magma_tits.tits import tits, verify_lie_conditions, verify_lie_conditions_reference

from reference_construction import lowered
from test_tits import corrupted_h3k


def leibniz():
    # y y = x: the Leibniz form of Jacobi holds, anticommutativity does not
    return SuperAlgebra(["x", "y"], {(1, 1): {0: 1}}, name="leibniz")


def so3_corrupted():
    # so3 with [a,c] corrupted: the jacobiator of (a,b,c) is -c
    sc = {(0, 1): {2: 1}, (1, 0): {2: -1}, (1, 2): {0: 1}, (2, 1): {0: -1},
          (0, 2): {0: 1}, (2, 0): {0: -1}}
    return SuperAlgebra(["a", "b", "c"], sc, name="bad3")


def corrupt3():
    # unital, the exchange involution on {w, v}, a skewed product
    sc = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (0, 2): {2: 1}, (2, 0): {2: 1},
          (1, 1): {2: 1}, (2, 2): {0: 1}, (1, 2): {1: 1}, (2, 1): {1: -1}}
    A = SuperAlgebra(["one", "w", "v"], sc, name="corrupt3")
    return AlgebraWithInvolution(A, Matrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]]))


def corrupted_constant(A, i, j, k):
    """A with c^k_ij raised by one and c^k_ji moved to match: still
    super-anticommutative, no longer Lie."""
    sc = {key: dict(row) for key, row in A.sc.items()}
    row = sc.setdefault((i, j), {})
    row[k] = row.get(k, A.field.zero) + 1
    sc.setdefault((j, i), {})[k] = (1 if A.parity[i] and A.parity[j] else -1) * row[k]
    return SuperAlgebra(A.basis, sc, parity=A.parity, field=A.field, name=A.name + "/bad")


def found(rep):
    """Every witness of a report, in order."""
    return [*getattr(rep, "anticom_failures", []), *getattr(rep, "failures", []),
            *getattr(rep, "witnesses", [])]


def lie(check, J):
    Q = split_quaternion()
    return partial(check, Q, J, T=tits(Q, J))


# name: (the checker bound to its input, built on use; the verdict)
CASES = {
    "jacobi-leibniz": (lambda: partial(check_super_jacobi, leibniz()), False),
    "jacobi-reference-leibniz": (lambda: partial(check_super_jacobi_reference, leibniz()), False),
    "jacobi-bad3": (lambda: partial(check_super_jacobi, so3_corrupted()), False),
    "jacobi-reference-bad3": (lambda: partial(check_super_jacobi_reference, so3_corrupted()),
                              False),
    "structurable-corrupt3": (lambda: partial(check_structurable, corrupt3()), False),
    "structurable-A(H3(k))": (lambda: partial(check_structurable, a_of_j(h3(ground()))), True),
    "lie-H3bad": (lambda: lie(verify_lie_conditions, corrupted_h3k()), False),
    "lie-reference-H3bad": (lambda: lie(verify_lie_conditions_reference, corrupted_h3k()), False),
    "lie-H3(k)": (lambda: lie(verify_lie_conditions, h3(ground())), True),
}


@pytest.mark.parametrize("name", CASES)
def test_verdict_does_not_depend_on_max_witnesses(name):
    make, ok = CASES[name]
    check = make()
    full = check()
    assert full.ok is ok and bool(found(full)) is not ok
    for cap in (0, 1):
        rep = check(max_witnesses=cap)
        assert rep.ok is ok, cap
        assert found(rep) == found(full)[:cap], cap


def test_witnesses_come_from_the_contraction(monkeypatch):
    Q, Jbad = split_quaternion(), corrupted_h3k()
    T = tits(Q, Jbad)
    E6bad = corrupted_constant(tits(split_cayley(), h3(binarion())).algebra, 0, 20, 30)

    def reports():
        return [check_super_jacobi(E6bad), check_super_jacobi(T.algebra),
                verify_lie_conditions(Q, Jbad, T=T)]

    before = reports()
    assert all(not rep.ok and found(rep) for rep in before)
    for A, rep in zip((E6bad, T.algebra), before):
        sc = A.sc
        for i, j, k, shown in rep.failures:
            assert shown == A.format_vector(_jacobiator(A, sc, i, j, k))
    assert replace(before[2], path="") == verify_lie_conditions_reference(Q, Jbad, T=T)

    def guard(*_args):
        raise AssertionError("a checker recomputed a witness outside its contraction")

    for owner, name in ((SuperAlgebra, "multiply"), (SuperAlgebra, "bracket"),
                        (algebra, "_jacobiator")):
        monkeypatch.setattr(owner, name, guard)
    with pytest.raises(AssertionError):
        E6bad.multiply(E6bad.e(0), E6bad.e(1))
    assert reports() == before


def corrupted_g3():
    """G(3) = T(C, J(V, theta)) with c^k_ij raised for odd i, j and even k."""
    A = tits(split_cayley(), jordan_super_jvtheta()).algebra
    odd = [i for i in range(A.n) if A.parity[i]]
    even = [k for k in range(A.n) if not A.parity[k]]
    return corrupted_constant(A, odd[0], odd[3], even[5])


def corrupted_maps():
    """On E6: the identity with one entry changed, as a homomorphism, and
    ad(b_0) with one entry changed, as a derivation, both lowered."""
    A = tits(split_cayley(), h3(binarion())).algebra
    n = A.n
    one = Matrix.identity(n, A.field)
    one[7, 3] = 1
    sc = A.sc
    ad = Matrix([[sc.get((0, j), {}).get(k, 0) for j in range(n)] for k in range(n)], A.field)
    ad[2, 40] = ad[2, 40] + 1
    return A, lowered(one), lowered(ad)


def blocking(monkeypatch):
    """A term budget of one term, so that every contraction of more than
    one term folds one output index per block; the fold calls are counted."""
    calls = []

    def counted(terms, p=None, fold=int_fast.fold):
        calls.append(len(terms))
        return fold(terms, p)
    monkeypatch.setattr(int_fast, "_TERM_BUDGET", 1)
    monkeypatch.setattr(int_fast, "fold", counted)
    return calls


def test_blocked_checkers_give_the_same_reports(monkeypatch):
    E6bad = corrupted_constant(tits(split_cayley(), h3(binarion())).algebra, 0, 20, 30)
    G3bad = corrupted_g3()
    A, one, ad = corrupted_maps()
    caps = (0, 1, 3, 10, 1000)

    def reports():
        return ([check_super_jacobi(B, max_witnesses=cap) for B in (E6bad, G3bad) for cap in caps]
                + [check_structurable(corrupt3(), max_witnesses=cap) for cap in caps]
                + [lowered_map_failures(A, A, one, max_witnesses=cap) for cap in (None, 1, 5)]
                + [lowered_map_failures(A, A, ad, derivation=True, max_witnesses=cap)
                   for cap in (None, 1, 5)]
                + [check_super_jacobi(leibniz(), max_witnesses=0)])

    before = reports()
    assert not any(rep.ok for rep in before[:15] + before[-1:])
    assert all(before[15:-1]) and before[15][:1] == before[16]
    calls = blocking(monkeypatch)
    assert reports() == before
    # E6 alone folds its 78 output indices in 78 blocks
    assert len(calls) > 5 * 78


def test_e7_jacobi_peak_allocation():
    # Measured with tracemalloc: 4.8 MB in blocks of output index, 20 MB
    # when the 0.30 M terms of the sorted triples are folded at once.
    E7 = tits(split_cayley(), h3(split_quaternion())).algebra
    E7.coo
    tracemalloc.start()
    try:
        rep = check_super_jacobi(E7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and E7.n == 133
    assert peak < 16 * 2 ** 20, peak / 2 ** 20


def test_e8_lie_conditions_peak_allocation():
    # Measured with tracemalloc: 5.7 MB for the folds of the sparse tables,
    # 83 MB for the dense contractions they replaced.
    T = registry.tits_by_name("cayley", "h3:cayley")
    tracemalloc.start()
    try:
        rep = verify_lie_conditions(T.C, T.J, T=T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and T.dim == 248
    assert peak < 24 * 2 ** 20, peak / 2 ** 20
