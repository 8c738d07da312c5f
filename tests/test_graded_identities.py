"""The graded (anti)symmetry, Jordan-identity and involution checks against
their pointwise oracles, over QQ and GF(p), on clean inputs and on seeded
corruptions that change one structure constant (or one entry of sigma)
and keep its parity; a corruption either hits one side of a pair only or
is mirrored with the graded sign onto the other side."""

import dataclasses
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from magma_tits import registry
from magma_tits.algebra import SuperAlgebra, check_super_jacobi, transpose_failures
from magma_tits.decompose import decompose, extract_b1
from magma_tits.exact import GF, QQ, Matrix
from magma_tits.int_fast import table_coo
from magma_tits.isomorphisms import theorem41_basis
from magma_tits.jordan import (check_jordan_identity, check_supercommutative,
                               jordan_identity_failure, kaplansky)
from magma_tits.s4 import coordinate_algebra, s4_on_tits_left
from magma_tits.structurable import AlgebraWithInvolution

from reference_construction import (b1_validate, involution_failures,
                                    transpose_failures_reference)
from reference_construction import jordan_identity_failure as reference_jordan_failure

FIELDS = [QQ, GF(10007), GF(2 ** 31 - 1)]
JORDAN_NAMES = ("h3:ground", "h3:binarion", "jvtheta", "d2", "dt:1/2", "dt:3")
LIE_NAMES = ("glw", "sp:2")
SIGMA_NAMES = ("aj:h3:ground", "aj:h3:binarion", "aj:jvtheta", "aj:d2", "ak",
               "tensor:quaternion:binarion", "tensor:binarion:ground")


def _jordan_algebras(field):
    return [registry.jordan_by_name(nm, field).algebra for nm in JORDAN_NAMES] + [
        kaplansky(field).algebra]


def _corrupted(A, rng, sign):
    """A with one constant c^k_ij changed by a seeded nonzero amount, k of
    the parity of b_i b_j; on every other call also c^k_ji, so that
    c^k_ij = sign (-1)^{|i||j|} c^k_ji keeps holding there."""
    f, par = A.field, A.parity
    i, j = rng.randrange(A.n), rng.randrange(A.n)
    k = rng.choice([k for k in range(A.n) if par[k] == (par[i] + par[j]) % 2])
    by = f.of(rng.choice((1, -2, Fraction(1, 3), 5003)))
    sc = {key: dict(row) for key, row in A.sc.items()}
    changes = [((i, j), by)]
    if i != j and rng.random() < 0.5:
        flip = (sign < 0) != bool(par[i] and par[j])
        changes.append(((j, i), -by if flip else by))
    for (a, b), c in changes:
        row = sc.setdefault((a, b), {})
        row[k] = row.get(k, f.zero) + c
    return SuperAlgebra(A.basis, sc, parity=par, field=f, name=A.name + "/bad")


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_graded_symmetry_agrees_with_reference(field):
    rng = random.Random(1)
    cases = [(A, 1) for A in _jordan_algebras(field)] + [
        (registry.lie_with_triple(nm, field)[0], -1) for nm in LIE_NAMES]
    verdicts = set()
    for A, sign in cases:
        for B in [A] + [_corrupted(A, rng, sign) for _ in range(8)]:
            want = transpose_failures_reference(B.sc, B.parity, sign, field)
            got = transpose_failures(table_coo(B.sc, field)[:2], B.parity, sign, field)
            assert got == want, B.name
            if sign > 0:
                assert check_supercommutative(B) == (not want)
            else:
                for cap in (1, 3):
                    rep = check_super_jacobi(B, max_witnesses=cap)
                    assert rep.anticom_failures == want[:cap]
            verdicts.add(not want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_jordan_identity_agrees_with_reference(field):
    rng = random.Random(2)
    verdicts = set()
    for A in _jordan_algebras(field):
        for B in [A] + [_corrupted(A, rng, 1) for _ in range(6)]:
            J = SimpleNamespace(algebra=B)
            failure = jordan_identity_failure(J)
            assert failure == reference_jordan_failure(J), B.name
            assert check_jordan_identity(J) == (failure is None)
            verdicts.add(failure is None)
    assert verdicts == {True, False}


def _corrupted_sigma(AI, rng):
    """AI with one entry sigma[p, q], |p| = |q|, changed by a seeded amount."""
    par, f = AI.algebra.parity, AI.algebra.field
    q = rng.randrange(AI.dim)
    p = rng.choice([p for p in range(AI.dim) if par[p] == par[q]])
    sigma = Matrix([list(row) for row in AI.sigma.rows], f)
    sigma[p, q] = sigma[p, q] + f.of(rng.choice((1, -1, 2)))
    return AlgebraWithInvolution(AI.algebra, sigma)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_involution_failures_agree_with_reference(field):
    rng = random.Random(3)
    for name in SIGMA_NAMES:
        AI = registry.involution_algebra_by_name(name, field)
        assert AI.involution_failures() == involution_failures(AI) == []
        bad = [_corrupted_sigma(AI, rng) for _ in range(3)] + [
            AlgebraWithInvolution(_corrupted(AI.algebra, rng, 1), AI.sigma) for _ in range(3)]
        for B in bad:
            assert B.involution_failures() == involution_failures(B), name


@pytest.fixture(scope="module")
def b1_inputs():
    """B1 coefficient data of gl(W), sp(W + U) with dim U = 2 and F4."""
    out = []
    for name in LIE_NAMES:
        g, triple = registry.lie_with_triple(name)
        out.append((name, extract_b1(g, decompose(g, triple)).data))
    T = registry.tits_by_name("cayley", "h3:ground")
    act = s4_on_tits_left(T)
    ca = coordinate_algebra(T.algebra, act, basis=theorem41_basis(T))
    d0 = ca.ambient_vector(ca.unit)
    d1 = act["phi"].apply(d0)
    rep = decompose(T.algebra, [d0, d1, act["phi"].apply(d1)])
    out.append(("f4", extract_b1(T.algebra, rep).data))
    return out


# (table, parity of its inputs, sign, dimension of its outputs)
SYMMETRIES = (("circ_HH", "h_parity", 1, "hdim"), ("brk_HH", "h_parity", -1, "sdim"),
              ("d_HH", "h_parity", -1, "ddim"), ("circ_SS", "s_parity", 1, "hdim"),
              ("brk_SS", "s_parity", -1, "sdim"), ("d_SS", "s_parity", -1, "ddim"))


def _reduced(table, field):
    out = {key: {t: field.of(c) for t, c in row.items() if field.of(c)}
           for key, row in table.items()}
    return {key: row for key, row in out.items() if row}


def _corrupted_table(table, dim, outputs, rng, field):
    """table with a seeded amount added at one entry ((j, k), t), j and k
    in range(dim), t in range(outputs)."""
    table = {key: dict(row) for key, row in table.items()}
    j, k, t = rng.randrange(dim), rng.randrange(dim), rng.randrange(outputs)
    row = table.setdefault((j, k), {})
    row[t] = row.get(t, field.zero) + field.of(rng.choice((1, Fraction(-1, 3))))
    if not row[t]:
        del row[t]
    return {key: row for key, row in table.items() if row}


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_b1_symmetries_agree_with_reference(field, b1_inputs):
    rng = random.Random(4)
    for label, data in b1_inputs:
        for name, par_name, sign, out in SYMMETRIES:
            # outputs past the table's own dimension, as the fold packs them
            par, outputs = getattr(data, par_name), getattr(data, out) + 8
            clean = _reduced(getattr(data, name), field)
            for table in [clean] + [_corrupted_table(clean, len(par), outputs, rng, field)
                                    for _ in range(4)]:
                want = transpose_failures_reference(table, par, sign, field)
                got = transpose_failures(table_coo(table, field)[:2], par, sign, field)
                assert got == want, (label, name)


def test_b1_validate_f4_agrees_with_reference(b1_inputs):
    rng = random.Random(5)
    data = b1_inputs[-1][1]
    assert data.validate() and b1_validate(data)
    for name, par_name, _sign, out in SYMMETRIES:
        dim, outputs = len(getattr(data, par_name)), getattr(data, out)
        for _ in range(2):
            bad = dataclasses.replace(
                data, **{name: _corrupted_table(getattr(data, name), dim, outputs, rng, QQ)})
            assert bad.validate() == b1_validate(bad), name


def test_checks_use_no_matrix_arithmetic(monkeypatch, b1_inputs):
    """The sparse checks run no Matrix product, sum, difference or scaling."""
    J = registry.jordan_by_name("h3:cayley")
    lie = registry.tits_by_name("cayley", "h3:ground").algebra
    data = b1_inputs[0][1]

    def refuse(*args, **kwargs):
        raise AssertionError("dense Matrix arithmetic in a sparse check")

    for name in ("__matmul__", "__add__", "__sub__", "scale"):
        monkeypatch.setattr(Matrix, name, refuse)
    assert check_jordan_identity(J)
    assert check_supercommutative(J.algebra)
    assert check_super_jacobi(lie).ok
    assert data.validate()


def test_empty_algebra():
    A = SuperAlgebra([], {})
    assert check_jordan_identity(SimpleNamespace(algebra=A)) and check_supercommutative(A)
    assert AlgebraWithInvolution(A, Matrix([])).involution_failures() == []
