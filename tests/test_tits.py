import copy
import gc
import hashlib
import importlib
import json
import weakref
from fractions import Fraction

import numpy as np
import pytest

from magma_tits.exact import GF, QQ, Matrix, Subspace, flatten_matrix, vec_eq, vec_is_zero
from magma_tits.algebra import SuperAlgebra, check_super_jacobi, centralizer
from magma_tits import registry
from magma_tits.registry import composition_by_name, jordan_by_name
from magma_tits.composition import (
    split_cayley, split_quaternion, binarion, ground, inner_derivation, invariant_quaternion,
)
from magma_tits.jordan import (
    JordanAlgebra, h3, jordan_super_jvtheta, jordan_super_dt, d2,
)
from magma_tits.tits import (
    composition_side, jordan_side, tits, verify_lie_conditions, verify_lie_conditions_reference,
    tits62_variant,
)
from magma_tits.s4 import s4_on_tits_left, s4_on_tits_right

from reference_construction import diag_transported


@pytest.fixture(scope="module")
def C():
    return split_cayley()


def jordan_ground():
    alg = SuperAlgebra(["1"], {(0, 0): {0: 1}}, name="k")
    return JordanAlgebra(alg, [Fraction(1)], [Fraction(1)], provenance="custom")


def corrupted_h3k(field=QQ):
    """H3(k) with one product corrupted (still supercommutative)."""
    J = h3(ground(field))
    alg = J.algebra
    sc = {k: dict(v) for k, v in alg.sc.items()}
    i0 = J.iota_index(0, 0)
    i1 = J.iota_index(1, 0)
    i2 = J.iota_index(2, 0)
    c = field.of(Fraction(5, 2))          # should be 1/2
    sc[(i0, i1)] = {i2: c}
    sc[(i1, i0)] = {i2: c}
    bad = SuperAlgebra(alg.basis, sc, parity=alg.parity, field=alg.field, name="H3bad")
    return JordanAlgebra(bad, J.unit, J.trace_row, provenance="custom")


def test_dimensions_f4(C):
    T = tits(C, h3(ground()))
    assert T.dim == 52
    assert T.der_dim == 14 and len(T.c0_basis) == 7 and len(T.j0_basis) == 5
    assert T.djj_dim == 3


def test_dimension_check_invariant(C):
    for Chat, expect_djj in ((ground(), 3), (binarion(), 8)):
        J = h3(Chat)
        T = tits(C, J)
        assert T.dim == T.der_dim + len(T.c0_basis) * len(T.j0_basis) + T.djj_dim
        assert T.djj_dim == expect_djj


def test_magic_square_dimensions(C):
    expect = {1: 52, 2: 78, 4: 133, 8: 248}
    for Chat in (ground(), binarion(), split_quaternion(), split_cayley()):
        T = tits(C, h3(Chat))
        assert T.dim == expect[Chat.dim]


def test_bracket_examples(C):
    J = h3(ground())
    T = tits(C, J)
    alg = C.algebra
    g = T.algebra
    x, y = T.j0_basis[0], T.j0_basis[2]
    # [u0 x x, v0 x y] = t(xy) D_{u0,v0} + [u0,v0] x (x*y) + 2 t(u0 v0) d_{x,y}
    lhs = g.multiply(T.tensor_vector(alg.e("u0"), x), T.tensor_vector(alg.e("v0"), y))
    txy = J.trace_of(J.multiply(x, y))
    rhs = [txy * c for c in T.der_vector(alg.e("u0"), alg.e("v0"))]
    br = [a - b for a, b in zip(C.product(alg.e("u0"), alg.e("v0")),
                                C.product(alg.e("v0"), alg.e("u0")))]
    rhs = [a + b for a, b in zip(rhs, T.tensor_vector(br, J.star(x, y)))]
    tr = C.trace(C.product(alg.e("u0"), alg.e("v0")))
    assert tr == -1
    rhs = [a + 2 * tr * b for a, b in zip(rhs, T.djj_vector(x, y))]
    assert vec_eq(lhs, rhs)
    # [D, a x x] = D(a) x x
    D = T.der_vector(alg.e("u1"), alg.e("v2"))
    Dmat = T.derC.matrices
    from magma_tits.composition import inner_derivation
    Duv = inner_derivation(C, alg.e("u1"), alg.e("v2"))
    av = alg.e("u0")
    lhs = g.multiply(D, T.tensor_vector(av, x))
    assert vec_eq(lhs, T.tensor_vector(Duv.apply(av), x))
    # [der C, d_{J,J}] = 0
    for s in range(T.djj_dim):
        dv = g.e(T.djj_offset + s)
        assert vec_is_zero(g.multiply(D, dv))


def test_jacobi_small_cases(C):
    assert check_super_jacobi(tits(C, h3(ground())).algebra).ok
    assert check_super_jacobi(tits(C, h3(binarion())).algebra).ok


def test_lie_conditions_positive(C):
    for J in (h3(ground()), h3(binarion()), h3(split_quaternion()),
              jordan_super_jvtheta(), d2()):
        T = tits(C, J)
        rep = verify_lie_conditions(C, J, T=T)
        assert rep.ok, str(rep)


def test_lie_conditions_vacuous_for_ground_left():
    G = ground()
    J = h3(binarion())
    T = tits(G, J)
    assert T.dim == T.djj_dim  # only d_{J,J} survives
    rep = verify_lie_conditions(G, J, T=T)
    assert rep.ok
    assert check_super_jacobi(T.algebra).ok


def test_lie_conditions_negative_control(C):
    Jbad = corrupted_h3k()
    T = tits(C, Jbad)
    rep = verify_lie_conditions(C, Jbad, T=T)
    assert not rep.ok
    assert rep.witnesses  # printed witness
    jac = T.jacobi_report()
    assert not jac.ok     # conditions fail exactly when Jacobi fails
    ref = verify_lie_conditions_reference(C, Jbad, T=T, max_witnesses=2)
    assert not ref.ok


def test_lie_conditions_match_jacobi_on_dt(C):
    for t, expect in ((2, True), (Fraction(1, 2), True), (3, False), (1, False)):
        J = jordan_super_dt(t)
        T = tits(C, J)
        assert verify_lie_conditions(C, J, T=T, witnesses=False).ok is expect
        assert T.jacobi_report().ok is expect


def _lie_verdict(rep):
    return rep.ok, rep.cond1_ok, rep.cond2_ok, rep.cond3_ok, rep.witnesses


@pytest.mark.parametrize("F", [QQ, GF(10007), GF(2 ** 31 - 1)], ids=str)
def test_lie_conditions_agree_with_reference(F):
    B = binarion(F)
    cases = [(B, J) for J in (h3(ground(F)), jordan_super_jvtheta(F), d2(F),
                              corrupted_h3k(F))]
    cases.append((split_quaternion(F), corrupted_h3k(F)))
    if not F.is_rational:
        # split Cayley: D_t fails the conditions at t = 3 (as in the dt test)
        cases += [(split_cayley(F), jordan_super_dt(t, F)) for t in (2, 3)]
    verdicts = []
    for C, J in cases:
        T = tits(C, J)
        rep = verify_lie_conditions(C, J, T=T)
        assert _lie_verdict(rep) == _lie_verdict(verify_lie_conditions_reference(C, J, T=T))
        verdicts.append(rep.ok)
    assert verdicts.count(False) == (1 if F.is_rational else 2)


def test_lie_conditions_past_int64():
    # split quaternion x H3(k) in the basis diag(1/3, 2^40, 2^-40, 1, ...):
    # the cleared tables pass int64, so the contractions run on Python
    # ints; the 1/3 gives the tables different denominators, so the
    # per-kind scales of (iii) differ.  Over GF(2^61 - 1), p^2 alone is
    # past int64.
    diag = (Fraction(1, 3), 2 ** 40, Fraction(1, 2 ** 40))
    F = GF(2 ** 61 - 1)
    cases = [(split_quaternion(), diag_transported(J, diag))
             for J in (h3(ground()), corrupted_h3k())]
    cases += [(split_quaternion(F), J) for J in (h3(ground(F)), corrupted_h3k(F))]
    for (C, J), ok in zip(cases, (True, False, True, False)):
        T = tits(C, J)
        rep = verify_lie_conditions(C, J, T=T)
        assert rep.ok is ok and rep.path == "python-int"
        assert _lie_verdict(rep) == _lie_verdict(verify_lie_conditions_reference(C, J, T=T))


def test_lie_witnesses_name_the_first_failing_condition():
    # H3(k) with c^0_13 = c^0_31 raised by one: 288 of its 954 failing
    # triple pairs fail (ii) and (iii) together, and each witness names the
    # first failing condition of its pair, as the reference does
    J = h3(ground())
    sc = {k: dict(v) for k, v in J.algebra.sc.items()}
    for key in ((1, 3), (3, 1)):
        sc.setdefault(key, {})[0] = sc[key].get(0, 0) + 1
    bad = JordanAlgebra(SuperAlgebra(J.algebra.basis, sc, name="H3bad2"), J.unit, J.trace_row,
                        provenance="custom")
    Q = split_quaternion()
    T = tits(Q, bad)
    rep = verify_lie_conditions(Q, bad, T=T, max_witnesses=1000)
    assert len(rep.witnesses) == 954
    assert _lie_verdict(rep) == _lie_verdict(
        verify_lie_conditions_reference(Q, bad, T=T, max_witnesses=1000))


def test_lie_conditions_word_prime_path():
    # over GF(2^31 - 1), (p - 1)^2 fits in int64: fold reduces each product
    # mod p and sums in int64 (delayed reduction), for a passing and a
    # failing input
    F = GF(2 ** 31 - 1)
    for C, J, ok in ((binarion(F), h3(ground(F)), True),
                     (split_cayley(F), jordan_super_dt(3, F), False)):
        T = tits(C, J)
        rep = verify_lie_conditions(C, J, T=T)
        assert rep.ok is ok and rep.path == "int64"
        assert _lie_verdict(rep) == _lie_verdict(verify_lie_conditions_reference(C, J, T=T))


def test_super_dimensions(C):
    Tg3 = tits(C, jordan_super_jvtheta())
    assert (Tg3.algebra.dim_even, Tg3.algebra.dim_odd) == (17, 14)
    Tf4 = tits(C, d2())
    assert (Tf4.algebra.dim_even, Tf4.algebra.dim_odd) == (24, 16)


def test_super_jacobi_g3_f4(C):
    assert check_super_jacobi(tits(C, jordan_super_jvtheta()).algebra).ok
    assert check_super_jacobi(tits(C, d2()).algebra).ok


def test_djj_is_built_once_per_jordan_algebra(C):
    """Every T(C, J) over one J shares J's d_{J,J}, and nothing on J keeps
    a T: a T is freed by reference counting alone, with no J <-> T cycle."""
    J = h3(binarion())
    T1, T2 = tits(C, J), tits(ground(), J)
    assert T1.djj is T2.djj is J.djj()
    assert T1.derC is not T2.derC
    gc.disable()
    try:
        ref = weakref.ref(tits(C, J))
        assert ref() is None
    finally:
        gc.enable()


COMPOSITIONS = ("ground", "binarion", "quaternion", "cayley")
# the package re-exports the function tits() under its module's name
# (magma_tits.tits), so the modules are imported by name
tits_module, s4_module = (importlib.import_module("magma_tits." + m) for m in ("tits", "s4"))


def test_each_factor_side_is_built_once(monkeypatch):
    """The 16 magic-square T(C, h3:C') from the registry compute 4 C-sides
    and 4 J-sides, kept on C and J and shared by every T over them, and
    each factor's S4 blocks once: the left blocks of cayley, the right
    blocks of the four H3(C'), however often the actions are built."""
    sides, blocks = [], []
    factor_side, conjugation_block = tits_module.factor_side, s4_module.conjugation_block

    def counting_side(alg, *args):
        sides.append(alg)
        return factor_side(alg, *args)

    def counting_blocks(span, mats, action, what):
        blocks.append(what)
        return conjugation_block(span, mats, action, what)
    monkeypatch.setattr(registry, "_CACHE", {})
    monkeypatch.setattr(tits_module, "factor_side", counting_side)
    monkeypatch.setattr(s4_module, "conjugation_block", counting_blocks)
    Ts = {(c, j): registry.tits_by_name(c, "h3:" + j) for c in COMPOSITIONS for j in COMPOSITIONS}
    for _round in range(2):
        for (c, _j), T in Ts.items():
            s4_on_tits_right(T)
            if c == "cayley":
                s4_on_tits_left(T)
    assert len(sides) == 8 and len({id(alg) for alg in sides}) == 8
    assert sorted(blocks) == ["d_{J,J}"] * 4 + ["der C"]
    for (c, j), T in Ts.items():
        left, right = Ts[(c, "ground")], Ts[("ground", j)]
        assert T.sides[0] is composition_side(T.C) is left.sides[0]
        assert T.sides[1] is jordan_side(T.J) is right.sides[1]
        assert T.c0_span is left.c0_span and T.j0_span is right.j0_span


def _same(a, b):
    """Equal nested tuples of arrays and integers."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@pytest.mark.parametrize("F", [QQ, GF(10007)], ids=str)
def test_tits62_builds_from_integers_only(monkeypatch, F):
    """tits62_variant reads Q0, [a, b] and t(ab) off Q's FactorSide: with
    pointwise products and single-vector coordinates refused it still
    builds, and T62 over one Q compute Q's side once."""
    Js = [jordan_by_name(name, F) for name in ("h3:ground", "jvtheta", "d2")]
    Q = invariant_quaternion(F)
    sides = []
    factor_side = tits_module.factor_side

    def counting_side(alg, *args):
        sides.append(alg)
        return factor_side(alg, *args)

    def refuse(*args, **kwargs):
        raise AssertionError("pointwise product or coordinates in T62")
    monkeypatch.setattr(tits_module, "factor_side", counting_side)
    monkeypatch.setattr(SuperAlgebra, "multiply", refuse)
    monkeypatch.setattr(Subspace, "coords", refuse)
    for J in Js:
        T = tits62_variant(Q, J)
        assert T.d_offset == 3 * J.dim and T.algebra.n == T.d_offset + T.D_space.dim
    assert sides == [Q.algebra]


@pytest.mark.parametrize("F", [QQ, GF(10007)], ids=str)
def test_shared_sides_give_the_fresh_construction(monkeypatch, F):
    """A T built once its factors' sides and S4 blocks were shared equals a
    T built from fresh C and J: the table, the sides' tables and the
    stacked generators of both actions."""
    monkeypatch.setattr(registry, "_CACHE", {})
    for c, j in (("cayley", "h3:ground"), ("ground", "h3:binarion")):
        T0 = registry.tits_by_name(c, j, F)
        s4_on_tits_right(T0)
        if c == "cayley":
            s4_on_tits_left(T0)
    T = registry.tits_by_name("cayley", "h3:binarion", F)
    assert T.sides[0] is registry.tits_by_name("cayley", "h3:ground", F).sides[0]
    assert T.sides[1] is registry.tits_by_name("ground", "h3:binarion", F).sides[1]
    fresh = tits(split_cayley(F), h3(binarion(F)))
    assert _same(T.algebra.coo, fresh.algebra.coo)
    for mine, theirs in zip(T.sides, fresh.sides):
        assert all(_same(getattr(mine, t), getattr(theirs, t))
                   for t in ("product", "trace", "pairs", "act"))
    for action in (s4_on_tits_left, s4_on_tits_right):
        assert _same(action(T).stacked, action(fresh).stacked)


def test_tits_requires_trace(C):
    J = jordan_super_dt(-1)  # no normalized trace at t = -1
    with pytest.raises(ValueError):
        tits(C, J)


def test_tits62_ground_is_so3():
    Q = invariant_quaternion()
    T = tits62_variant(Q, jordan_ground())
    assert T.algebra.dim == 3
    assert check_super_jacobi(T.algebra).ok
    # simple: trivial centre
    assert centralizer(T.algebra, [T.algebra.e(i) for i in range(3)]) == []


def test_tits62_jordan_unital(C):
    # J unital: (Q0 x J) + d_{J,J} carries the Remark 4.3 bracket; Lie for H3(k)
    Q = invariant_quaternion()
    J = h3(ground())
    T = tits62_variant(Q, J)
    assert T.algebra.dim == 3 * 6 + 3
    assert check_super_jacobi(T.algebra).ok


def test_tits62_dt_family():
    Q = invariant_quaternion()
    for t in (2, 3, Fraction(-1, 2), Fraction(1, 3)):
        J = jordan_super_dt(t)
        T = tits62_variant(Q, J)
        assert (T.algebra.dim_even, T.algebra.dim_odd) == (9, 8)  # D(2,1;t)
        assert check_super_jacobi(T.algebra).ok


# md5 of json.dumps(A.to_json_dict(), separators=(",", ":")) of each export;
# D_{-1} has no normalized trace, so only the trace-free variant takes it
T62_EXPORT_MD5 = {
    "t62:h3:ground": "f0da53bfdda333207a2c31a0878e2598",
    "t62:jvtheta": "ed5e6cc9989dc51cc65107697b61bda4",
    "t62:d2": "8d1f9c3dc276b6bcdd7e33de7d058a50",
    "t62:h3:binarion": "76e88b104dfe9e0aa94222fba5a3f096",
    "t62:dt:-1": "3d48aced0ab447812496f44b90118b93",
}


@pytest.mark.parametrize("name", sorted(T62_EXPORT_MD5))
def test_t62_exports_are_pinned(name):
    text = json.dumps(registry.superalgebra_by_name(name).to_json_dict(), separators=(",", ":"))
    assert hashlib.md5(text.encode()).hexdigest() == T62_EXPORT_MD5[name]


def test_json_round_trip_f4(C):
    T = tits(C, h3(ground()))
    d = T.algebra.to_json_dict()
    back = SuperAlgebra.from_json_dict(d)
    assert back.sc == T.algebra.sc
    assert back.basis == T.algebra.basis


def test_checks_read_the_integer_table_only():
    """tits() hands its blocks to SuperAlgebra.from_blocks, and the Jacobi and
    Lie-condition checks read coo: the field-valued table is never built."""
    T = tits(composition_by_name("cayley"), jordan_by_name("h3:quaternion"))
    assert check_super_jacobi(T.algebra).ok
    assert verify_lie_conditions(T.C, T.J, T).ok
    assert "sc" not in T.algebra.__dict__ and "_rows" not in T.algebra.__dict__


@pytest.mark.parametrize("F", [QQ, GF(10007), GF(2 ** 61 - 1)], ids=str)
@pytest.mark.parametrize("make", [split_cayley, split_quaternion, binarion, ground],
                         ids=lambda make: make.__name__)
def test_batched_vectors_match_pointwise(make, F):
    """der_vectors, tensor_vectors and djj_vectors, read off the integer
    pair batches, equal the pointwise inner_derivation (of C, and of J on
    every basis pair, the unit included) with its Subspace.coords, and the
    products of the C0 and J0 coordinates, on all basis pairs."""
    C, J = make(F), h3(ground(F))
    T = tits(C, J)
    f, n, zero = F, C.dim, F.zero
    pairs = [(C.algebra.e(a), C.algebra.e(b)) for a in range(n) for b in range(n)]
    want = [T.derC.span.coords(flatten_matrix(inner_derivation(C, a, b).matrix))
            + [zero] * (T.dim - T.der_dim) for a, b in pairs]
    assert T.der_vectors(pairs) == want
    assert [T.der_vector(a, b) for a, b in pairs] == want
    tensors = [(a, x) for a in T.c0_basis for x in T.j0_basis]
    want = []
    for a, x in tensors:
        v = [zero] * T.dim
        for i, ci in enumerate(T.c0_span.coords(a)):
            for j, cj in enumerate(T.j0_span.coords(x)):
                v[T.tensor_index(i, j)] += ci * cj
        want.append(v)
    assert T.tensor_vectors(tensors) == want
    jpairs = [(J.algebra.e(a), J.algebra.e(b)) for a in range(J.dim) for b in range(J.dim)]
    want = [[zero] * T.djj_offset
            + T.djj.span.coords(flatten_matrix(J.inner_derivation(x, y).matrix), check=False)
            for x, y in jpairs]
    assert T.djj_vectors(jpairs) == want
    with pytest.raises(ValueError, match="vector is not in C0"):
        T.tensor_vectors([(C.unit, T.j0_basis[0])])
