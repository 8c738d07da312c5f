import time
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from magma_tits.exact import (
    QQ, GF, Matrix, Subspace, solve, kernel_basis, rank,
    vec_eq, basis_vector,
)


def test_solve_identity():
    A = Matrix.identity(2)
    assert solve(A, [Fraction(1), Fraction(2)]) == [Fraction(1), Fraction(2)]


def test_solve_inconsistent():
    A = Matrix([[1, 1], [1, 1]])
    assert solve(A, [1, 0]) is None


def test_solve_diagonal():
    A = Matrix([[2, 0], [0, 3]])
    assert solve(A, [1, 1]) == [Fraction(1, 2), Fraction(1, 3)]


def test_solve_dimension_mismatch():
    A = Matrix([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        A.solve([1, 2, 3])


def test_kernel_zero_matrix():
    A = Matrix.zeros(3, 3)
    assert len(kernel_basis(A)) == 3


def test_kernel_identity():
    assert kernel_basis(Matrix.identity(3)) == []


def test_kernel_single_row():
    A = Matrix([[1, 1, 0]])
    ker = kernel_basis(A)
    assert len(ker) == 2
    for v in ker:
        assert sum(a * x for a, x in zip(A.rows[0], v)) == 0


def test_rank():
    assert rank(Matrix.identity(3)) == 3
    assert rank(Matrix.zeros(2, 5)) == 0
    assert rank(Matrix([[1, 2], [2, 4]])) == 1


def test_rank_nullity():
    A = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert rank(A) + len(kernel_basis(A)) == A.ncols


def test_solve_then_substitute():
    A = Matrix([[1, 2, 3], [0, 1, 4], [5, 6, 0]])
    b = [Fraction(1), Fraction(-2), Fraction(7, 3)]
    x = A.solve(b)
    assert x is not None
    assert vec_eq(A.apply(x), b)


def test_inverse():
    A = Matrix([[1, 2], [3, 5]])
    I = A @ A.inverse()
    assert I == Matrix.identity(2)
    with pytest.raises(ValueError):
        Matrix([[1, 2], [2, 4]]).inverse()


def test_gf_field_arithmetic():
    F = GF(7)
    a = F.of(3)
    b = F.of(5)
    assert a + b == F.of(1)
    assert a * b == F.of(1)
    assert a / b == a * F.of(3)  # 5^{-1} = 3 mod 7
    assert -a == F.of(4)
    assert F.of(Fraction(1, 2)) == F.of(4)


def test_gf_rejects_small_characteristic():
    with pytest.raises(ValueError):
        GF(2)
    with pytest.raises(ValueError):
        GF(3)
    with pytest.raises(ValueError):
        GF(9)


def test_gf_primality_large_p():
    t = time.perf_counter()
    F = GF(2 ** 61 - 1)
    assert time.perf_counter() - t < 1.0
    assert F.of(2 ** 61) == F.one
    with pytest.raises(ValueError):
        GF(2 ** 61 + 1)        # divisible by 3
    with pytest.raises(ValueError):
        GF(561)                # Carmichael number
    with pytest.raises(ValueError):
        GF(10 ** 25 + 13)      # past the deterministic primality bound


def test_gf_linear_algebra():
    F = GF(7)
    A = Matrix([[2, 0], [0, 3]], field=F)
    x = A.solve([F.one, F.one])
    assert vec_eq(A.apply(x), [F.one, F.one])
    assert rank(A) == 2


def test_subspace_greedy_basis():
    # the kept basis is the first independent subset, in feed order
    v1 = [Fraction(1), Fraction(0), Fraction(0)]
    v2 = [Fraction(2), Fraction(0), Fraction(0)]
    v3 = [Fraction(1), Fraction(1), Fraction(0)]
    S = Subspace.from_vectors([v1, v2, v3])
    assert S.dim == 2
    assert S.basis == [v1, v3]
    assert S.contains([Fraction(5), Fraction(-3), Fraction(0)])
    assert not S.contains([0, 0, 1])
    assert S.coords([Fraction(3), Fraction(2), Fraction(0)]) == [1, 2]
    assert S.coords(basis_vector(3, 2)) is None


def test_subspace_rejects_wrong_length():
    # a 2-dimensional span in k^3: contains and coords name the length, as add does
    S = Subspace.from_vectors([[1, 0, 0], [0, 1, 0]])
    for v in ([1, 0], [1, 0, 0, 0]):
        for method in (S.contains, S.coords, S.add):
            with pytest.raises(ValueError, match="length %d.*dimension 3" % len(v)):
                method(v)
    with pytest.raises(ValueError, match="length 2"):
        Subspace(3).coords([0, 0])


def test_coords_many_takes_sequences():
    # ids, indices and integers as plain lists: vector 0 is 5 b_0, vector 1
    # has 7 at index 2, outside span{b_0, b_1}; past int64 the integers stay exact
    S = Subspace.from_vectors([[1, 0, 0], [0, 1, 0]], 3, QQ)
    ids, ks, ints, D, outside = S.coords_many([0, 1], [0, 2], [5, 7])
    assert (ids.tolist(), ks.tolist(), ints.tolist(), D) == ([0], [0], [5], 1)
    assert outside.tolist() == [1]
    big = 3 * 2 ** 70
    ids, ks, ints, D, outside = S.coords_many([0, 0], [0, 1], [big, -big], D=4)
    assert (ids.tolist(), ks.tolist(), ints.tolist(), D) == ([0, 0], [0, 1], [big, -big], 4)
    assert not len(outside)


@pytest.mark.parametrize("F", [QQ, GF(10007), GF(2 ** 61 - 1)], ids=str)
def test_coords_many_matches_coords(F):
    """One join and one fold give, vector by vector, the coordinates of
    Subspace.coords (projected through the pivot rows when check is off)
    and flag exactly the vectors it finds outside the span; repeated
    entries add up."""
    import random
    rng = random.Random(7)
    n = 9
    gens = [[F.of(Fraction(rng.randint(-3, 3), rng.randint(1, 4))) if rng.random() < 0.5
             else F.zero for _ in range(n)] for _ in range(5)]
    gens.append([a + 2 * b for a, b in zip(gens[0], gens[1])])
    S = Subspace.from_vectors(gens, n, F)
    vectors = [[sum((F.of(c) * x for c, x in zip(coef, col)), F.zero)
                for col in zip(*S.basis)] for coef in
               ([rng.randint(-2, 2) for _ in S.basis] for _ in range(6))]
    vectors += [[F.of(rng.randint(-5, 5)) for _ in range(n)] for _ in range(4)]
    vectors.append([F.zero] * n)
    # the integers D x over D (residues over GF(p)), each split in two entries
    D = lcm(*(x.denominator for v in vectors for x in v)) if F.is_rational else 1
    ids, cols, vals = [], [], []
    for t, v in enumerate(vectors):
        for j, x in enumerate(v):
            if x:
                ints = int(x * D) if F.is_rational else x.v
                ids += [t, t]
                cols += [j, j]
                vals += [ints - 1, 1]
    outer = [t for t, v in enumerate(vectors) if S.coords(v) is None]
    assert outer and len(outer) < len(vectors)
    for check in (True, False):
        got_ids, ks, ints, den, outside = S.coords_many(ids, cols, vals, D, check=check)
        got = [[F.zero] * S.dim for _ in vectors]
        for t, k, c in zip(got_ids.tolist(), ks.tolist(), ints.tolist()):
            got[t][k] = F.of(Fraction(c, den)) if F.is_rational else F.of(c)
        assert got == [S.coords(v, check=False) for v in vectors]
        assert outside.tolist() == (outer if check else [])


def test_from_coo_sums_repeated_entries_and_divides_by_d():
    # a repeated (row, column) adds up, and over GF(p) the integers are
    # divided by D: 1 / 2 = 4 mod 7
    assert Matrix.from_coo(1, 1, (([0, 0], [0, 0]), [1, 1], 1), QQ).rows == [[Fraction(2)]]
    F = GF(7)
    assert Matrix.from_coo(1, 1, (([0], [0]), [1], 2), F).rows == [[F.of(4)]]
    # a negative D is a denominator like any other; D = 7 is 0 in GF(7)
    assert Matrix.from_coo(1, 1, (([0], [0]), [1], -2), F).rows == [[F.of(3)]]
    with pytest.raises(ValueError, match=r"denominator D = 7 is 0 mod p = 7"):
        Matrix.from_coo(1, 1, (([0], [0]), [1], 7), F)
    # a uint64 past int64 is kept whole, not wrapped to a negative int64
    big = np.array([2 ** 63], dtype=np.uint64)
    assert Matrix.from_coo(1, 1, (([0], [0]), big, 1), QQ).rows == [[Fraction(2 ** 63)]]
