"""The one exact elimination against the dense Gauss-Jordan oracle.

Matrix.rref, rank, kernel_basis, solve and inverse, algebra._invertible (of a lowered Matrix),
the normalized-trace solver and Subspace all run on the fraction-free
integer elimination of exact.py.  Each is compared with what the dense
Fraction loop of reference_construction.dense_rref gives, over QQ,
GF(10007), GF(2^31 - 1) and GF(2^61 - 1), on seeded matrices of every
shape the callers meet and on hypothesis-drawn ones (entries past int64,
denominators near 2^70, zero, duplicate and dependent rows, 0 x n and
n x 0).  A guard test shows that the elimination adds, subtracts,
multiplies and divides no Fraction.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from magma_tits.exact import GF, QQ, Matrix, Subspace
from magma_tits.int_fast import rows_coo
from magma_tits.jordan import (
    _associator_rows, d2, find_normalized_traces, h3, jordan_super_dt, jordan_super_jvtheta,
)
from magma_tits.registry import composition_by_name

from reference_construction import associator_rows, dense_rref, invertible

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
    assert invertible(Matrix([[q, 0], [0, 1]]))
    a, b = Fraction(BIG + 3, BIG - 1), Fraction(-BIG, 7)
    assert not invertible(Matrix([[a, b], [2 * a, 2 * b]]))
    assert not invertible(Matrix([[1, 0, 0], [0, 1, 0]]))
    F = GF(10007)
    assert not invertible(Matrix([[1, 2], [3, 6]], F))
    assert invertible(Matrix([[1, 2], [3, 5]], F))


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
        ints, D = _associator_rows(alg)
        got_rows = [[Fraction(w.get(l, 0), D) for l in range(alg.n)] for w in ints]
        assert Matrix(got_rows, field) == Matrix(rows, field), label
        M = Matrix([J.unit] + rows, field)
        rhs = [field.one] + [field.zero] * len(rows)
        point = _ref_solve(M, rhs)
        got = find_normalized_traces(alg, J.unit, construction_filter=False)
        if point is None:
            assert got is None, label
        else:
            assert got == (point, _ref_kernel(M)), label


def test_subspace_coerces_int_input():
    # Python ints are coerced into the field: the basis holds Fractions and
    # membership is exact past float precision
    S = Subspace(3)
    S.add([2, 1, 0])
    assert S.basis == [[2, 1, 0]] and all(isinstance(x, Fraction) for x in S.basis[0])
    assert not S.contains([2 * 10 ** 17, 10 ** 17 + 1, 0])
    assert S.contains([2 * 10 ** 17, 10 ** 17, 0])
    # over GF(7), [1, 4, 0] = 4 [2, 1, 0]
    F = GF(7)
    S = Subspace(3, F)
    S.add([2, 1, 0])
    assert S.contains([1, 4, 0]) and S.contains([8, 4, 7])
    assert not S.contains([1, 3, 0])
    # 7 and 14 are zero in GF(7): nothing is added
    assert not Subspace(3, F).add([7, 14, 0])
    assert S.coords([1, 4, 0]) == [F.of(4)]


# -- property tests ----------------------------------------------------------

PROPERTY_FIELDS = [QQ, GF(10007), GF(2 ** 61 - 1)]


def _scalars(field):
    if field.is_rational:
        return st.one_of(st.integers(-3, 3), st.integers(-2 ** 66, 2 ** 66),
                         st.builds(Fraction, st.integers(-2 ** 80, 2 ** 80),
                                   st.integers(2 ** 70 - 2 ** 10, 2 ** 70 + 2 ** 10)))
    return st.one_of(st.integers(-3, 3), st.integers(0, field.p - 1))


@st.composite
def _matrices(draw, field, square=False):
    """A Matrix whose rows are random, zero, copies of earlier rows or small
    combinations of them (rank-deficient), of any shape up to 6 x 6."""
    n = draw(st.integers(0, 6))
    m = n if square else draw(st.integers(0, 6))
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(("random", "random", "zero", "copy", "combination")))
        if kind == "zero" or (kind != "random" and not rows):
            row = [0] * m if kind == "zero" else [draw(_scalars(field)) for _ in range(m)]
        elif kind == "copy":
            row = list(draw(st.sampled_from(rows)))
        elif kind == "combination":
            c = [draw(st.integers(-2, 2)) for _ in rows]
            row = [sum((ci * field.of(r[j]) for ci, r in zip(c, rows)), field.zero)
                   for j in range(m)]
        else:
            row = [draw(_scalars(field)) for _ in range(m)]
        rows.append(row)
    return Matrix(rows, field) if n else Matrix.zeros(0, m, field)


def _ref_span(vectors, field):
    """The first independent vectors in feed order, by the dense rank."""
    kept = []
    for v in vectors:
        if len(dense_rref(Matrix(kept + [v], field))[1]) > len(kept):
            kept.append(v)
    return kept


@pytest.mark.parametrize("field", PROPERTY_FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rref_kernel_solve_equal_dense_oracle(field, data):
    M = data.draw(_matrices(field))
    R, pivots = dense_rref(M)
    assert M.rref() == (R, pivots)
    assert M.rank() == len(pivots)
    assert M.kernel_basis() == _ref_kernel(M)
    x0 = [field.of(data.draw(_scalars(field))) for _ in range(M.ncols)]
    loose = [field.of(data.draw(st.integers(-2, 2))) for _ in range(M.nrows)]
    for b in (M.apply(x0) if M.nrows else [], loose):
        assert M.solve(b) == _ref_solve(M, b)


@pytest.mark.parametrize("field", PROPERTY_FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_inverse_equal_dense_oracle(field, data):
    M = data.draw(_matrices(field, square=True))
    n = M.nrows
    R, pivots = dense_rref(Matrix([row + [field.one if i == j else field.zero for j in range(n)]
                                   for i, row in enumerate(M.rows)], field)
                           if n else Matrix.zeros(0, 0, field))
    if pivots[:n] != list(range(n)):
        with pytest.raises(ValueError, match="singular"):
            M.inverse()
        assert not invertible(M)
    else:
        want = Matrix([r[n:] for r in R.rows], field) if n else Matrix.zeros(0, 0, field)
        assert M.inverse() == want and invertible(M)


@pytest.mark.parametrize("field", PROPERTY_FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_subspace_equals_dense_oracle(field, data):
    """The preferred basis, contains and coords of a Subspace fed one vector
    at a time equal the oracle's; coords_many gives coords for a batch, and
    the same vectors fed as a batch through add_many keep the same ids."""
    M = data.draw(_matrices(field))
    if not M.ncols:
        return
    vectors = M.rows + [[field.of(data.draw(_scalars(field))) for _ in range(M.ncols)]]
    S = Subspace(M.ncols, field)
    kept_ids = [t for t, v in enumerate(M.rows) if S.add(v)]
    kept = _ref_span(M.rows, field)
    assert S.basis == kept and [M.rows[t] for t in kept_ids] == kept
    B = Matrix.from_columns(kept, field) if kept else None
    want = [(_ref_solve(B, v) if kept else ([] if not any(v) else None)) for v in vectors]
    assert [S.coords(v) for v in vectors] == want
    assert [S.contains(v) for v in vectors] == [w is not None for w in want]
    (ids, cols), vals, D = rows_coo(vectors, field)
    got_ids, ks, ints, den, outside = S.coords_many(ids, cols, vals, D)
    got = [[field.zero] * S.dim for _ in vectors]
    for t, k, c in zip(got_ids.tolist(), ks.tolist(), ints.tolist()):
        got[t][k] = field.of(Fraction(c, den)) if field.is_rational else field.of(c)
    assert [g if w is not None else None for g, w in zip(got, want)] == want
    assert outside.tolist() == [t for t, w in enumerate(want) if w is None]
    batch = Subspace(M.ncols, field)
    sel = ids < len(M.rows)
    assert batch.add_many(ids[sel], cols[sel], vals[sel], D) == kept_ids
    assert batch.basis == S.basis


def test_elimination_does_no_fraction_arithmetic(monkeypatch):
    """Subspace, rref, kernel_basis, solve and inverse on Fraction input
    lower it to integers and build their results with Fraction(n, d): with
    Fraction's arithmetic operators raising, they still give the oracle's
    results."""
    rng = random.Random(3)
    M = _random(rng, QQ, 5, 6, big=True)
    M.rows[3] = list(M.rows[1])
    sq = _random(rng, QQ, 5, 5, big=True)
    b = [Fraction(rng.randrange(-BIG, BIG), rng.randrange(1, BIG)) for _ in range(5)]
    want = (dense_rref(M), _ref_kernel(M), _ref_solve(M, b), _ref_solve(sq, b))
    S = Subspace.from_vectors(M.rows, 6)
    (ids, cols), vals, D = rows_coo(M.rows, QQ)
    want_coords = [S.coords(v) for v in M.rows]

    def forbidden(*_args):
        raise AssertionError("Fraction arithmetic in the elimination")
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(Fraction, name, forbidden)
    got = (M.rref(), M.kernel_basis(), M.solve(b), sq.solve(b))
    inverse, rank = sq.inverse(), M.rank()
    T = Subspace(6)
    kept = T.add_many(ids, cols, vals, D)
    batch = (T.basis, [T.coords(v) for v in M.rows], [T.contains(v) for v in M.rows],
             T.coords_many(ids, cols, vals, D)[4].tolist())
    S2 = Subspace.from_vectors(M.rows, 6)
    monkeypatch.undo()
    assert got == want and rank == len(want[0][1]) and kept == [0, 1, 2, 4]
    assert inverse == sq.inverse() and (inverse @ sq) == Matrix.identity(5)
    assert batch == (S.basis, want_coords, [True] * 5, []) and S2.basis == S.basis
