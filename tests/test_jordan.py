import random
from fractions import Fraction

import pytest

from magma_tits import exact
from magma_tits.exact import (GF, QQ, Matrix, Subspace, basis_vector, vec_eq, vec_is_zero,
                              flatten_matrix)
from magma_tits.algebra import LinearMap, centralizer, is_derivation
from magma_tits.composition import split_cayley, split_quaternion, binarion, ground
from magma_tits.jordan import (
    JordanAlgebra, h3, find_normalized_traces, jordan_super_jvtheta, jordan_super_dt, d2,
    kaplansky, check_supercommutative, check_jordan_identity, h3_derivation_grading,
)

from reference_construction import diag_transported, jordan_inner_derivation


@pytest.fixture(scope="module")
def JC():
    return h3(split_cayley())


@pytest.fixture(scope="module")
def Jk():
    return h3(ground())


def test_h3_dimensions():
    assert h3(ground()).dim == 6
    assert h3(binarion()).dim == 9
    assert h3(split_quaternion()).dim == 15
    assert h3(split_cayley()).dim == 27


def test_h3_product_rules(JC):
    Chat = JC.source
    alg = JC.algebra
    d = Chat.dim
    half = Fraction(1, 2)
    # e_i o e_j = delta e_i ; e_i o iota_i = 0 ; e_{i+1} o iota_i = iota_i/2
    for i in range(3):
        for j in range(3):
            prod = alg.multiply(alg.e(JC.e_index(i)), alg.e(JC.e_index(j)))
            assert vec_eq(prod, alg.e(JC.e_index(i)) if i == j else [Fraction(0)] * alg.n)
    x = Chat.algebra.e("u0")
    for i in range(3):
        ix = JC.iota(i, x)
        assert vec_is_zero(alg.multiply(alg.e(JC.e_index(i)), ix))
        for off in (1, 2):
            assert vec_eq(alg.multiply(alg.e(JC.e_index((i + off) % 3)), ix),
                          [half * c for c in ix])
    # iota_i(x) o iota_{i+1}(y) = iota_{i+2}(conj(xy))/2
    y = Chat.algebra.e("v1")
    for i in range(3):
        lhs = alg.multiply(JC.iota(i, x), JC.iota((i + 1) % 3, y))
        rhs = [half * c for c in JC.iota((i + 2) % 3, Chat.conj(Chat.product(x, y)))]
        assert vec_eq(lhs, rhs)
    # iota_0(x) o iota_0(y) = t(x ybar)(e1+e2)/2
    lhs = alg.multiply(JC.iota(0, x), JC.iota(0, y))
    t = Chat.trace(Chat.product(x, Chat.conj(y)))
    rhs = [half * t * (a + b) for a, b in zip(alg.e(JC.e_index(1)), alg.e(JC.e_index(2)))]
    assert vec_eq(lhs, rhs)


def test_h3_unit_and_trace(JC):
    rng = random.Random(0)
    alg = JC.algebra
    x = [Fraction(rng.randint(-3, 3)) for _ in range(alg.n)]
    assert vec_eq(JC.multiply(JC.unit, x), x)
    assert JC.trace_of(JC.unit) == 1
    assert JC.trace_of(alg.e(JC.e_index(0))) == Fraction(1, 3)


def test_h3_axioms(JC, Jk):
    for J in (Jk, h3(binarion()), JC):
        assert check_supercommutative(J.algebra)
        assert check_jordan_identity(J)


def test_h3_trace_is_normalized(Jk):
    # associativity of the trace on all basis triples via the solver
    sol = find_normalized_traces(Jk.algebra, Jk.unit)
    assert sol is not None
    point, kernel = sol
    assert vec_eq(point, Jk.trace_row)
    assert kernel == []


def test_h3_cayley_trace_membership(JC):
    sol = find_normalized_traces(JC.algebra, JC.unit)
    assert sol is not None
    point, kernel = sol
    # the canonical t_J (1/3 on the diagonal idempotents) is in the set
    S = Subspace(JC.dim)
    diff = [a - b for a, b in zip(point, JC.trace_row)]
    for v in kernel:
        S.add(v)
    assert vec_is_zero(diff) or S.contains(diff)


def test_ground_trace_unique():
    G = ground()
    sol = find_normalized_traces(G.algebra, G.unit)
    point, kernel = sol
    assert point == [1] and kernel == []


def test_star(Jk):
    alg = Jk.algebra
    z = [a - b for a, b in zip(alg.e("E1"), alg.e("E2"))]
    st = Jk.star(z, z)
    expect = [a + b for a, b in zip(alg.e("E1"), alg.e("E2"))]
    expect = [a - Fraction(2, 3) * u for a, u in zip(expect, Jk.unit)]
    assert vec_eq(st, expect)
    assert Jk.trace_of(st) == 0
    with pytest.raises(ValueError):
        Jk.star(Jk.unit, z)
    # x^2 = 0 implies x*x = 0
    x = Jk.j0_basis()[2]
    if vec_is_zero(Jk.multiply(x, x)):
        assert vec_is_zero(Jk.star(x, x))


def test_inner_jordan_derivation(JC, Jk):
    alg = Jk.algebra
    # d_{1,x} = 0
    for i in range(Jk.dim):
        assert Jk.inner_derivation(Jk.unit, alg.e(i)).matrix.is_zero()
    # derivations indeed
    j0 = Jk.j0_basis()
    for a in range(len(j0)):
        for b in range(len(j0)):
            d = Jk.inner_derivation(j0[a], j0[b])
            assert is_derivation(alg, d)
    # reference evaluations: d_i(z)(e_{i+1}) = -iota_i(z)/2, d_i(z)(e_i) = 0
    Chat = JC.source
    z = Chat.algebra.e("u1")
    for i in range(3):
        ei1 = [a - b for a, b in zip(JC.algebra.e(JC.e_index((i + 1) % 3)),
                                     JC.algebra.e(JC.e_index((i + 2) % 3)))]
        di = JC.inner_derivation(ei1, JC.iota(i, z))
        half = Fraction(1, 2)
        assert vec_eq(di.apply(JC.algebra.e(JC.e_index((i + 1) % 3))),
                      [-half * c for c in JC.iota(i, z)])
        assert vec_eq(di.apply(JC.algebra.e(JC.e_index((i + 2) % 3))),
                      [half * c for c in JC.iota(i, z)])
        assert vec_is_zero(di.apply(JC.algebra.e(JC.e_index(i))))
        # d_i(z)(iota_{i+1}(t)) = iota_{i+2}(conj(z t))/2
        t = Chat.algebra.e("v2")
        got = di.apply(JC.iota((i + 1) % 3, t))
        want = [half * c for c in JC.iota((i + 2) % 3, Chat.conj(Chat.product(z, t)))]
        assert vec_eq(got, want)
        # d_i(z)(iota_{i+2}(t)) = -iota_{i+1}(conj(t z))/2
        got = di.apply(JC.iota((i + 2) % 3, t))
        want = [-half * c for c in JC.iota((i + 1) % 3, Chat.conj(Chat.product(t, z)))]
        assert vec_eq(got, want)
        # d_i(z)(iota_i(t)) = t(z conj(t)) (e_{i+1} - e_{i+2})/2
        got = di.apply(JC.iota(i, t))
        tc = Chat.trace(Chat.product(z, Chat.conj(t)))
        want = [half * tc * c for c in ei1]
        assert vec_eq(got, want)


@pytest.mark.parametrize("field", (QQ, GF(10007), GF(2 ** 31 - 1)), ids=str)
def test_inner_derivation_matches_pointwise_oracle(field):
    # every basis pair (odd x odd included) and seeded homogeneous
    # combinations against dense products of pointwise L_x; over QQ also a
    # rescaled H3(k) whose cleared constants pass int64
    rng = random.Random(5)
    Js = [h3(ground(field)), jordan_super_jvtheta(field), d2(field)]
    if field is QQ:
        Js.append(diag_transported(h3(ground()), (Fraction(1, 3), 2 ** 40, Fraction(1, 2 ** 40))))
        assert Js[-1].algebra.coo[1].dtype == object
    for J in Js:
        alg = J.algebra
        vecs = [alg.e(i) for i in range(J.dim)]
        for par in set(alg.parity):
            vecs.append([field.of(rng.randint(-4, 4)) if q == par else field.zero
                         for q in alg.parity])
        for x in vecs:
            for y in vecs:
                got, want = J.inner_derivation(x, y), jordan_inner_derivation(J, x, y)
                assert got.matrix == want.matrix and got.parity == want.parity
        if alg.dim_odd:
            mixed = [field.one] * J.dim
            with pytest.raises(ValueError, match="parity-homogeneous"):
                J.inner_derivation(mixed, alg.e(0))
            with pytest.raises(ValueError, match="parity-homogeneous"):
                J.inner_derivation(alg.e(0), mixed)


def test_inner_derivation_rejects_wrong_length():
    J = h3(ground())                    # dimension 6
    for x in ([1] * 7, [1] * 5):
        with pytest.raises(ValueError, match="dimension 6"):
            J.inner_derivation(x, [1] * 6)
        with pytest.raises(ValueError, match="dimension 6"):
            J.inner_derivation([1] * 6, x)
        with pytest.raises(ValueError, match="dimension 6"):
            centralizer(J.algebra, [x])
    Jv = jordan_super_jvtheta()
    with pytest.raises(ValueError, match="parity-homogeneous"):
        Jv.inner_derivation([1, 1, 0], [1, 0, 0])


def test_bracket_d1_d2(JC):
    # [d_1(x), d_2(y)] = -d_0(conj(xy))/2
    Chat = JC.source
    x = Chat.algebra.e("u0")
    y = Chat.algebra.e("v2")

    def d(i, z):
        ei1 = [a - b for a, b in zip(JC.algebra.e(JC.e_index((i + 1) % 3)),
                                     JC.algebra.e(JC.e_index((i + 2) % 3)))]
        return JC.inner_derivation(ei1, JC.iota(i, z)).matrix

    lhs = d(1, x) @ d(2, y) - d(2, y) @ d(1, x)
    rhs = d(0, Chat.conj(Chat.product(x, y))).scale(Fraction(-1, 2))
    assert lhs == rhs


def test_cross(Jk):
    alg = Jk.algebra
    assert vec_eq(Jk.cross(Jk.unit, Jk.unit), [2 * u for u in Jk.unit])
    for x in Jk.j0_basis():
        assert vec_eq(Jk.cross(Jk.unit, x), [-c for c in x])
    rng = random.Random(4)
    for _ in range(20):
        x = [Fraction(rng.randint(-3, 3)) for _ in range(Jk.dim)]
        y = [Fraction(rng.randint(-3, 3)) for _ in range(Jk.dim)]
        x = [a - Jk.trace_of(x) * u for a, u in zip(x, Jk.unit)]
        y = [a - Jk.trace_of(y) * u for a, u in zip(y, Jk.unit)]
        want = [2 * a - Jk.trace_of(Jk.multiply(x, y)) * u
                for a, u in zip(Jk.star(x, y), Jk.unit)]
        assert vec_eq(Jk.cross(x, y), want)


def test_unit_and_trace_row_lengths_are_checked(Jk):
    alg = Jk.algebra
    for unit, trace_row, wrong in ((Jk.unit[:-1], Jk.trace_row, "unit has length 5"),
                                   (Jk.unit, Jk.trace_row[:-1], "trace row has length 5"),
                                   (Jk.unit, Jk.trace_row + [Fraction(0)],
                                    "trace row has length 7")):
        with pytest.raises(ValueError, match=wrong + ", the algebra has dimension 6"):
            JordanAlgebra(alg, unit, trace_row)


def test_jvtheta():
    J = jordan_super_jvtheta()
    alg = J.algebra
    assert (alg.dim_even, alg.dim_odd) == (1, 2)
    assert vec_eq(J.multiply(alg.e("u"), alg.e("v")), alg.e("1"))
    assert vec_eq(J.multiply(alg.e("v"), alg.e("u")), [-c for c in alg.e("1")])
    assert vec_is_zero(J.multiply(alg.e("u"), alg.e("u")))
    assert check_supercommutative(alg)
    assert check_jordan_identity(J)
    sol = find_normalized_traces(alg, J.unit)
    assert sol is not None and sol[0] == J.trace_row and sol[1] == []


def test_dt_table():
    J = d2()
    alg = J.algebra
    assert vec_eq(J.multiply(alg.e("x"), alg.e("y")),
                  [a + 2 * b for a, b in zip(alg.e("e1"), alg.e("e2"))])
    assert check_supercommutative(alg)
    assert check_jordan_identity(J)
    assert J.trace_row == [Fraction(2, 3), Fraction(1, 3), 0, 0]
    with pytest.raises(ValueError):
        jordan_super_dt(0)


def test_dt_trace_sweep():
    # construction-compatible normalized traces exist exactly for t in {2, 1/2};
    # the bare associativity system alone is solvable for every t outside {0,-1}
    grid = [Fraction(n, d) for n, d in [
        (-3, 1), (-5, 2), (-2, 1), (-3, 2), (-1, 1), (-3, 4), (-1, 2), (-1, 4),
        (-1, 3), (1, 4), (1, 3), (1, 2), (2, 3), (3, 4), (1, 1), (3, 2),
        (2, 1), (5, 2), (8, 3), (3, 1)]]
    assert len(grid) == 20 and len(set(grid)) == 20
    hits = []
    for t in grid:
        J = jordan_super_dt(t)
        if find_normalized_traces(J.algebra, J.unit) is not None:
            hits.append(t)
        raw = find_normalized_traces(J.algebra, J.unit, construction_filter=False)
        assert (raw is not None) == (t != -1)
    assert hits == [Fraction(1, 2), Fraction(2, 1)]


# find_normalized_traces as it read when it solved a dense Fraction Matrix
# and took its kernel in a second elimination: (point, kernel) over QQ, the
# same with and without the construction filter except where noted, None
# where no trace exists; over GF(10007) the residues of the same values
_TRACES = {
    "D_2": ([Fraction(2, 3), Fraction(1, 3), 0, 0], []),
    "D_1/2": ([Fraction(1, 3), Fraction(2, 3), 0, 0], []),
    "D_3": ([Fraction(3, 4), Fraction(1, 4), 0, 0], []),     # None under the filter
    "D_-1": None,
    "h3k": ([Fraction(1, 3)] * 3 + [0] * 3, []),
    "binarion": ([1, 0], [[-1, 1]]),
    "split_quaternion": ([1, 0, 0, 0], [[-1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
}


@pytest.mark.parametrize("field", [QQ, GF(10007)], ids=str)
def test_normalized_traces_equal_dense_solver(field, monkeypatch):
    cases = {"D_%s" % t: jordan_super_dt(t, field) for t in (2, Fraction(1, 2), 3, -1)}
    cases.update(h3k=h3(ground(field)), binarion=binarion(field),
                 split_quaternion=split_quaternion(field))
    echelons = []
    real = exact.echelon
    monkeypatch.setattr(exact, "echelon", lambda *a, **k: echelons.append(1) or real(*a, **k))
    for name, J in cases.items():
        want = _TRACES[name]
        if want is not None:
            want = ([field.of(x) for x in want[0]], [[field.of(x) for x in v] for v in want[1]])
        echelons.clear()
        assert find_normalized_traces(J.algebra, J.unit, construction_filter=False) == want, name
        assert len(echelons) == 1, name         # the point and the kernel off one echelon
        filtered = None if name == "D_3" else want
        assert find_normalized_traces(J.algebra, J.unit) == filtered, name


def test_kaplansky():
    K = kaplansky()
    alg = K.algebra
    assert vec_eq(alg.multiply(alg.e("x"), alg.e("y")), alg.e("e"))
    assert vec_eq(alg.multiply(alg.e("y"), alg.e("x")), [-c for c in alg.e("e")])
    assert vec_eq(alg.multiply(alg.e("e"), alg.e("x")), [Fraction(1, 2) * c for c in alg.e("x")])
    assert K.trace_form(alg.e("e"), alg.e("e")) == 1
    assert K.trace_form(alg.e("x"), alg.e("y")) == 2
    assert K.trace_form(alg.e("y"), alg.e("x")) == -2
    assert check_supercommutative(alg)
    # trace form associativity <xy|z> = <x|yz> on basis triples
    for i in range(3):
        for j in range(3):
            for k in range(3):
                lhs = K.trace_form(alg.multiply(alg.e(i), alg.e(j)), alg.e(k))
                rhs = K.trace_form(alg.e(i), alg.multiply(alg.e(j), alg.e(k)))
                assert lhs == rhs
    # (z^2)^2 = N(z) z on the spot-check z = e + x and on 100 seeded vectors
    z = [Fraction(1), Fraction(1), Fraction(0)]
    z2 = alg.multiply(z, z)
    z4 = alg.multiply(z2, z2)
    assert vec_eq(z4, [K.norm(z) * c for c in z])
    rng = random.Random(5)
    for _ in range(100):
        z = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
        z2 = alg.multiply(z, z)
        z4 = alg.multiply(z2, z2)
        assert vec_eq(z4, [K.norm(z) * c for c in z])


def test_h3_der_grading(Jk):
    span, zero_part, blocks = h3_derivation_grading(Jk)
    # der H3(k) = so3: dim 3; zero part {d : d(e_i)=0} is trivial here
    assert span.dim == 3
    assert len(zero_part) + sum(b.dim for b in blocks) == span.dim
    for b in blocks:
        for v in b.basis:
            assert span.contains(v)


def test_h3_quaternion_der_grading():
    J = h3(split_quaternion())
    span, zero_part, blocks = h3_derivation_grading(J)
    assert span.dim == 21  # sp6
    assert len(zero_part) == 9
    assert [b.dim for b in blocks] == [4, 4, 4]
    assert len(zero_part) + 12 == span.dim


def test_h3_cayley_der_dimension(JC):
    span, zero_part, blocks = h3_derivation_grading(JC)
    assert span.dim == 52  # f4
    assert len(zero_part) == 28
    assert [b.dim for b in blocks] == [8, 8, 8]
