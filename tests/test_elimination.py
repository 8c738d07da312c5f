"""The one exact elimination against the dense Gauss-Jordan oracle.

Matrix.rref runs the sparse echelon insert that Subspace.add uses; rank,
kernel_basis, solve, inverse, algebra._invertible and the normalized-trace
solver all stand on it.  Each is compared with what the dense loop of
reference_construction.dense_rref gives, over QQ, GF(10007) and
GF(2^31 - 1), on seeded matrices of every shape the callers meet.
"""

import random
from fractions import Fraction

import pytest

from magma_tits.algebra import _invertible
from magma_tits.exact import GF, QQ, Matrix
from magma_tits.jordan import (
    _associator_rows, d2, find_normalized_traces, h3, jordan_super_dt, jordan_super_jvtheta,
)
from magma_tits.registry import composition_by_name

from reference_construction import associator_rows, dense_rref

FIELDS = [QQ, GF(10007), GF(2 ** 31 - 1)]
BIG = 2 ** 70


def _entry(rng, field, big):
    if rng.random() < 0.4:
        return 0
    if big:
        return Fraction(rng.randrange(-BIG, BIG), rng.randrange(1, BIG))
    return rng.randint(-3, 3) if field.is_rational else rng.randrange(field.p)


def _random(rng, field, n, m, big=False):
    return Matrix([[_entry(rng, field, big) for _ in range(m)] for _ in range(n)], field)


def _cases(field, seed=0):
    """(label, Matrix) of every kind the differential tests cover."""
    rng = random.Random(seed)
    low = _random(rng, field, 6, 3) @ _random(rng, field, 3, 7)
    dup = _random(rng, field, 4, 6)
    dup.rows[2] = list(dup.rows[0])
    dup.rows[3] = list(dup.rows[1])
    zero_rows = _random(rng, field, 5, 5)
    zero_rows.rows[0] = [field.zero] * 5
    zero_rows.rows[3] = [field.zero] * 5
    # the first row pivots last: the echelon rows must be sorted by pivot
    late = _random(rng, field, 4, 4)
    late.rows[0] = [field.zero] * 3 + [field.one]
    singular = _random(rng, field, 5, 5)
    singular.rows[4] = [a + b for a, b in zip(singular.rows[0], singular.rows[1])]
    cases = [("tall", _random(rng, field, 9, 4)), ("wide", _random(rng, field, 3, 8)),
             ("rank-deficient", low), ("duplicate rows", dup), ("zero rows", zero_rows),
             ("pivot order", late), ("0 x n", Matrix.zeros(0, 4, field)),
             ("singular square", singular), ("square", _random(rng, field, 6, 6))]
    if field.is_rational:
        cases += [("2^70 tall", _random(rng, field, 6, 4, big=True)),
                  ("2^70 square", _random(rng, field, 5, 5, big=True))]
    return cases


def _ref_kernel(M):
    R, pivots = dense_rref(M)
    zero, one = M.field.zero, M.field.one
    basis = []
    for free in (j for j in range(M.ncols) if j not in pivots):
        v = [zero] * M.ncols
        v[free] = one
        for prow, pcol in enumerate(pivots):
            v[pcol] = -R.rows[prow][free]
        basis.append(v)
    return basis


def _ref_solve(M, b):
    aug = Matrix([row + [x] for row, x in zip(M.rows, b)], M.field) if M.nrows \
        else Matrix.zeros(0, M.ncols + 1, M.field)
    R, pivots = dense_rref(aug)
    if M.ncols in pivots:
        return None
    x = [M.field.zero] * M.ncols
    for prow, pcol in enumerate(pivots):
        x[pcol] = R.rows[prow][M.ncols]
    return x


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_rref_rank_kernel_equal_dense_oracle(field):
    for label, M in _cases(field):
        R, pivots = M.rref()
        Rref, pref = dense_rref(M)
        assert pivots == pref, label
        assert R == Rref, label
        assert M.rank() == len(pref), label
        assert M.kernel_basis() == _ref_kernel(M), label


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_solve_and_inverse_equal_dense_oracle(field):
    rng = random.Random(1)
    for label, M in _cases(field):
        x0 = [field.of(_entry(rng, field, False)) for _ in range(M.ncols)]
        consistent = M.apply(x0) if M.nrows else []
        loose = [field.of(rng.randint(-2, 2)) for _ in range(M.nrows)]
        for b in (consistent, loose):
            assert M.solve(b) == _ref_solve(M, b), label
        if M.nrows != M.ncols:
            continue
        aug = Matrix([row + [field.one if i == j else field.zero for j in range(M.nrows)]
                      for i, row in enumerate(M.rows)], field)
        R, pivots = dense_rref(aug)
        if pivots[:M.nrows] != list(range(M.nrows)):
            with pytest.raises(ValueError):
                M.inverse()
        else:
            assert M.inverse() == Matrix([r[M.nrows:] for r in R.rows], field), label


def test_invertible_is_exact_rank():
    q = 2147483629 * 2147483587
    assert _invertible(Matrix([[q, 0], [0, 1]]))
    a, b = Fraction(BIG + 3, BIG - 1), Fraction(-BIG, 7)
    assert not _invertible(Matrix([[a, b], [2 * a, 2 * b]]))
    assert not _invertible(Matrix([[1, 0, 0], [0, 1, 0]]))
    F = GF(10007)
    assert not _invertible(Matrix([[1, 2], [3, 6]], F))
    assert _invertible(Matrix([[1, 2], [3, 5]], F))


def _jordans(field):
    out = [("h3:" + c, h3(composition_by_name(c, field)))
           for c in ("ground", "binarion", "quaternion", "cayley")]
    out += [("jvtheta", jordan_super_jvtheta(field)), ("d2", d2(field))]
    out += [("D_%s" % t, jordan_super_dt(t, field))
            for t in (2, Fraction(1, 2), 3)]
    return out


@pytest.mark.parametrize("field", [QQ, GF(10007)], ids=str)
def test_normalized_traces_equal_oracle_rows(field):
    for label, J in _jordans(field):
        alg = J.algebra
        rows = associator_rows(alg)
        assert Matrix(_associator_rows(alg), field) == Matrix(rows, field), label
        M = Matrix([J.unit] + rows, field)
        rhs = [field.one] + [field.zero] * len(rows)
        point = _ref_solve(M, rhs)
        got = find_normalized_traces(alg, J.unit, construction_filter=False)
        if point is None:
            assert got is None, label
        else:
            assert got == (point, _ref_kernel(M)), label
