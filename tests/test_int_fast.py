"""Property tests of the exact fold kernel against plain Python-int sums.

fold must give the exact sums of products at the int64 boundary, and the
path it reports must follow its rule: int64 when every key group's size
times its largest product fits, or, over GF(p) with (p-1)^2 in int64,
when the widest group times p - 1 fits (delayed reduction).  fold_blocks
under a tiny term budget must give the keys, sums and path of the
one-block fold, and, when the output leads the key, stop after the
block that holds the first prefixes with the same keys and sums.  The
bulk checks on E7 and on A(H3(quaternion)) must stay under a traced
peak that only the 2^15-term budget keeps.  join
must give the pairs of a Python double loop, outer the join of two zero
columns, and to_field the field values entry by entry."""

import tracemalloc
from collections import defaultdict
from fractions import Fraction
from math import prod

import numpy as np
from hypothesis import given, settings, strategies as st

from magma_tits import int_fast, registry
from magma_tits.algebra import check_super_jacobi, check_super_jacobi_reference
from magma_tits.composition import ground, split_cayley
from magma_tits.exact import GF, QQ, FieldQ, Matrix
from magma_tits.int_fast import (INT64_MAX, distinct, fold, fold_blocks, join, joined, outer,
                                 to_field)
from magma_tits.jordan import h3
from magma_tits.structurable import a_of_j, check_structurable
from magma_tits.tits import tits

from test_witnesses import corrupted_constant

P31 = 2 ** 31 - 1
PRIMES = (None, 10007, P31, 2 ** 61 - 1)

# magnitudes on both sides of the int64 bounds of sums and products
BOUNDARY = st.one_of(st.integers(-3, 3), st.integers(-2 ** 31, 2 ** 31),
                     st.sampled_from([2 ** 31 - 1, 3037000499, 3037000500, 2 ** 62, INT64_MAX // 2,
                                      INT64_MAX // 3, INT64_MAX, 2 ** 63, 2 ** 70]),
                     st.integers(-2 ** 64, 2 ** 64))


def column(values):
    """An integer array as `lower` makes one: int64 when every value fits."""
    fits = all(-INT64_MAX <= v <= INT64_MAX for v in values)
    return np.array(values, dtype=np.int64 if fits else object)


@st.composite
def term_groups(draw, values=BOUNDARY, max_factors=3):
    groups = []
    for _g in range(draw(st.integers(1, 3))):
        size = draw(st.integers(0, 12))
        keys = np.array(draw(st.lists(st.integers(0, 6), min_size=size, max_size=size)),
                        dtype=np.int64)
        factors = []
        for _f in range(draw(st.integers(1, max_factors))):
            if factors and draw(st.booleans()):
                factors.append(draw(values))        # a scalar factor, such as D or a sign
            else:
                factors.append(column(draw(st.lists(values, min_size=size, max_size=size))))
        groups.append((keys, factors))
    return groups


def reference(terms, p):
    """Per-key Python-int sums of products, reduced mod p when p is given."""
    sums = defaultdict(int)
    for keys, factors in terms:
        for t, key in enumerate(keys.tolist()):
            sums[key] += prod(int(f[t]) if isinstance(f, np.ndarray) else f for f in factors)
    if p is not None:
        sums = {k: v % p for k, v in sums.items()}
    return sorted((k, v) for k, v in sums.items() if v)


def expected_path(terms, p):
    """fold's rule, evaluated term by term in Python ints."""
    groups = defaultdict(list)
    for keys, factors in terms:
        for t, key in enumerate(keys.tolist()):
            groups[key].append(abs(prod(int(f[t]) if isinstance(f, np.ndarray) else f
                                        for f in factors)))
    if not groups:
        return "int64"
    widest = max(len(g) for g in groups.values())
    if all(len(g) * max(g) <= INT64_MAX for g in groups.values()):
        return "int64"
    if p is not None and (p - 1) ** 2 <= INT64_MAX and widest * (p - 1) <= INT64_MAX:
        return "int64"
    return "python-int"


@settings(max_examples=300, deadline=None)
@given(term_groups(), st.sampled_from(PRIMES))
def test_fold_equals_python_sums(terms, p):
    keys, sums, path = fold(terms, p)
    assert list(zip(keys.tolist(), [int(s) for s in sums])) == reference(terms, p)
    assert path == expected_path(terms, p)
    assert sums.dtype == (np.int64 if path == "int64" else object)


@settings(max_examples=200, deadline=None)
@given(term_groups(values=st.integers(0, P31 - 1)))
def test_delayed_reduction_equals_python_int_path(terms):
    # residues mod 2^31 - 1 and signs: (p-1)^2 fits in int64 but two such
    # products do not, so the plain bound fails wherever a key repeats
    terms = [(k, f + [np.where(k % 2, 1, -1)]) for k, f in terms]
    keys, sums, path = fold(terms, P31)
    assert path == "int64" and sums.dtype == np.int64
    obj = [(k, [f.astype(object) if isinstance(f, np.ndarray) else f for f in fs])
           for k, fs in terms]
    ref_keys, ref_sums, _ = fold(obj)         # unreduced, then reduced: the Python-int path
    ref = [(k, int(s) % P31) for k, s in zip(ref_keys.tolist(), ref_sums.tolist())]
    assert list(zip(keys.tolist(), sums.tolist())) == [kv for kv in ref if kv[1]]
    assert list(zip(keys.tolist(), sums.tolist())) == reference(terms, P31)


def test_gf_word_prime_contraction_is_int64():
    # three residues near 2^31 per term: past the plain bound, inside the
    # delayed-reduction one
    k = np.array([0, 0, 1, 1, 1], dtype=np.int64)
    a = np.array([P31 - 1, P31 - 2, 5, P31 - 7, 3], dtype=np.int64)
    keys, sums, path = fold([(k, [a, a[::-1].copy(), a])], P31)
    assert path == "int64"
    assert list(zip(keys.tolist(), sums.tolist())) == reference([(k, [a, a[::-1], a])], P31)


def test_path_is_read_per_key_group():
    # key 0 sums two small products, key 1 holds one product of INT64_MAX:
    # the widest group times the largest product passes int64, no group does
    k = np.array([0, 0, 1], dtype=np.int64)
    terms = [(k, [np.array([1, 2, INT64_MAX], dtype=np.int64)])]
    keys, sums, path = fold(terms)
    assert path == "int64" and sums.tolist() == [3, INT64_MAX]
    terms = [(k, [np.array([1, INT64_MAX, 2], dtype=np.int64)])]
    assert fold(terms)[2] == "python-int"


def test_term_without_keys_is_dropped():
    # a term with no keys adds nothing, whatever its scalar factor: 2^63
    # does not fit in int64 and must not be multiplied into an int64 array
    empty = np.array([], dtype=np.int64)
    terms = [(empty, [empty, 2 ** 63]), (np.array([0]), [np.array([5])])]
    for p in (None, P31):
        keys, sums, path = fold(terms, p)
        assert path == "int64" and keys.tolist() == [0] and sums.tolist() == [5]
    assert [len(a) for a in fold([(empty, [empty, 2 ** 63])])[:2]] == [0, 0]


def test_word_prime_checkers_run_in_int64():
    # over GF(2^31 - 1) every product of two residues nears 2^62, so the
    # checkers' folds passed int64 and ran on Python ints before delayed
    # reduction
    F = GF(P31)
    F4 = tits(split_cayley(F), h3(ground(F))).algebra
    bad = corrupted_constant(F4, 0, 20, 30)
    rep, bad_rep = check_super_jacobi(F4), check_super_jacobi(bad, max_witnesses=3)
    assert rep.ok and rep.path == bad_rep.path == "int64"
    assert bad_rep.failures == check_super_jacobi_reference(bad, max_witnesses=3).failures
    rep = check_structurable(a_of_j(h3(ground(F))))
    assert rep.ok and rep.path == "int64"


@st.composite
def contractions(draw, leading=False):
    """Join groups of fold_blocks: left rows (prefix, value), right rows
    (output, value), joined on a shared index; keys prefix * 5 + output,
    or output * 5 + prefix with `leading`, so that the output leads."""
    groups = []
    for _g in range(draw(st.integers(1, 3))):
        nl, nr = draw(st.integers(0, 10)), draw(st.integers(0, 10))
        ints = st.lists(st.integers(0, 3), min_size=nl, max_size=nl)
        left, pre = np.array(draw(ints), dtype=np.int64), np.array(draw(ints), dtype=np.int64)
        ints = st.lists(st.integers(0, 3), min_size=nr, max_size=nr)
        right, out = np.array(draw(ints), dtype=np.int64), np.array(draw(ints), dtype=np.int64)
        vl = column(draw(st.lists(BOUNDARY, min_size=nl, max_size=nl)))
        vr = column(draw(st.lists(BOUNDARY, min_size=nr, max_size=nr)))
        scale = draw(st.sampled_from([1, -1, 3]))

        def make(a, b, pre=pre, out=out, vl=vl, vr=vr, scale=scale):
            key = out[b] * 5 + pre[a] if leading else pre[a] * 5 + out[b]
            return [(key, [vl[a], vr[b], scale])]
        groups.append(joined(left, right, out, make))
    return groups


def blocked(budget, groups, **kw):
    """fold_blocks under a term budget of `budget`."""
    saved = int_fast._TERM_BUDGET
    int_fast._TERM_BUDGET = budget
    try:
        return fold_blocks(groups, **kw)
    finally:
        int_fast._TERM_BUDGET = saved


@settings(max_examples=300, deadline=None)
@given(contractions(), st.sampled_from(PRIMES), st.sampled_from([None, 0, 1, 2]),
       st.integers(1, 4))
def test_blocked_fold_equals_one_block(groups, p, first, budget):
    one = blocked(10 ** 9, groups, step=5, first=first, p=p)
    split = blocked(budget, groups, step=5, first=first, p=p)
    assert one[0].tolist() == split[0].tolist()
    assert [int(s) for s in one[1]] == [int(s) for s in split[1]]
    assert one[2] == split[2]
    # one block is fold itself, cut to the first prefixes
    keys, sums, path = fold([t for _o, _s, build in groups for t in build(None)], p)
    firsts = sorted(set((keys // 5).tolist()))[:first]
    upto = len(keys) if first is None else int(np.isin(keys // 5, firsts).sum())
    assert one[0].tolist() == keys[:upto].tolist() and one[2] == path


@settings(max_examples=300, deadline=None)
@given(contractions(leading=True), st.sampled_from(PRIMES), st.sampled_from([None, 0, 1, 2]),
       st.integers(1, 4), st.sampled_from([1, 5]))
def test_early_stop_equals_one_block(groups, p, first, budget, step):
    # output-led blocks come in key order and stop at `first` prefixes:
    # the one-block fold cut to its first prefixes, on the path of the
    # blocks folded, which is the one-block path when every block is
    keys, sums, path = fold([t for _o, _s, build in groups for t in build(None)], p)
    firsts = distinct(keys // step)[:first]
    upto = int(np.isin(keys // step, firsts).sum())
    split = blocked(budget, groups, step=step, first=first, p=p, leading=True)
    assert split[0].tolist() == keys[:upto].tolist()
    assert [int(s) for s in split[1]] == [int(s) for s in sums[:upto]]
    if first is None:
        assert split[2] == path
    assert split[2] == "int64" or path == "python-int"


def test_early_stop_builds_one_block(monkeypatch):
    # 40 output indices of 10 terms, each its own prefix, 10 per block
    out = np.arange(40, dtype=np.int64)
    calls = []

    def build(rows):
        calls.append(len(rows))
        keys = np.repeat(out[rows], 10)
        return [(keys, [np.ones(len(keys), dtype=np.int64)])]
    monkeypatch.setattr(int_fast, "_TERM_BUDGET", 100)
    group = (out, np.full(40, 10, dtype=np.int64), build)
    for first, built in ((0, [10]), (1, [10]), (10, [10]), (11, [10, 10]), (None, [10] * 4)):
        calls.clear()
        keys, sums, _path = fold_blocks([group], first=first, leading=True)
        assert calls == built and keys.tolist() == out[:first].tolist(), first
        assert sums.tolist() == [10] * len(keys)
    # a caller whose output trails folds every block
    calls.clear()
    fold_blocks([group], first=1)
    assert calls == [10] * 4


def test_blocks_follow_the_budget(monkeypatch):
    # 40 output indices of 10 terms each: one block under the budget, one
    # per 100 terms past it
    out = np.arange(40, dtype=np.int64)
    calls = []

    def build(rows):
        calls.append(len(out) if rows is None else len(rows))
        rows = np.arange(len(out)) if rows is None else rows
        keys = np.repeat(out[rows], 10)
        return [(keys, [np.ones(len(keys), dtype=np.int64)])]
    group = (out, np.full(40, 10, dtype=np.int64), build)
    keys, sums, path = fold_blocks([group], first=None)
    assert calls == [40] and sums.tolist() == [10] * 40 and path == "int64"
    monkeypatch.setattr(int_fast, "_TERM_BUDGET", 100)
    calls.clear()
    blocked = fold_blocks([group], first=None)
    assert calls == [10, 10, 10, 10]
    assert blocked[0].tolist() == keys.tolist() and blocked[1].tolist() == sums.tolist()


def test_bulk_check_peaks_follow_the_budget():
    # tracemalloc peaks: 2.58 (E7 Jacobi) and 2.69 MB (structurable) at a
    # budget of 2^15 terms, 4.65 and 4.59 MB at 2^16
    cases = [(check_super_jacobi, registry.tits_by_name("cayley", "h3:quaternion").algebra),
             (check_structurable, registry.involution_algebra_by_name("aj:h3:quaternion"))]
    for check, A in cases:
        tracemalloc.start()
        try:
            assert check(A).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 2 ** 20, (check.__name__, peak)


# values that repeat, and values packed past 2^32 as keys are
PACKED = st.one_of(st.integers(0, 4), st.integers(0, 4).map(lambda v: v * 2 ** 33 + 7))


@settings(max_examples=300, deadline=None)
@given(st.lists(PACKED, max_size=12), st.lists(PACKED, max_size=12))
def test_join_equals_double_loop(left, right):
    a, b = join(np.array(left, dtype=np.int64), np.array(right, dtype=np.int64))
    assert list(zip(a.tolist(), b.tolist())) == [
        (x, y) for x in range(len(left)) for y in range(len(right)) if left[x] == right[y]]


def test_outer_equals_join_of_zero_columns():
    for m in range(4):
        for n in range(4):
            got = outer(m, n)
            want = join(np.zeros(m, dtype=np.int64), np.zeros(n, dtype=np.int64))
            assert [g.tolist() for g in got] == [w.tolist() for w in want]
            assert all(g.dtype == np.int64 for g in got)


def test_kernel_takes_read_only_inputs():
    # the coo of SuperAlgebra is read-only: fold and join must not write to
    # their inputs
    k = np.array([3, 1, 3, 0], dtype=np.int64)
    v = np.array([2, -5, 7, INT64_MAX], dtype=np.int64)
    big = np.array([2 ** 70, 1, -1, 3], dtype=object)
    for a in (k, v, big):
        a.setflags(write=False)
    terms = [(k, [v, 3]), (k, [big])]
    for p in PRIMES:
        keys, sums, _path = fold(terms, p)
        assert list(zip(keys.tolist(), [int(s) for s in sums])) == reference(terms, p)
    a, b = join(k, k)
    assert list(zip(a.tolist(), b.tolist())) == [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2), (3, 3)]


def test_single_term_fold_shares_no_memory():
    # a single term skips the concatenation; its results must still be new
    # arrays, not views of the caller's keys or factors
    k = np.array([0, 1, 2], dtype=np.int64)
    v = np.array([4, 5, 6], dtype=np.int64)
    for p in PRIMES:
        keys, sums, _path = fold([(k, [v])], p)
        assert keys.tolist() == [0, 1, 2] and sums.tolist() == [4, 5, 6]
        assert not any(np.shares_memory(out, a) for out in (keys, sums) for a in (k, v))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70)), max_size=12),
       st.integers(1, 2 ** 66))
def test_to_field_equals_entrywise(ints, D):
    for values in (ints, column(ints)):
        got = to_field(values, D, QQ)
        assert got == [Fraction(v, D) for v in ints]
        assert all(isinstance(x, Fraction) for x in got)
        for F in (GF(10007), GF(2 ** 61 - 1)):
            assert to_field(values, 1, F) == [F.of(v) for v in ints]


def test_field_constants_are_shared():
    assert QQ.zero is QQ.zero and QQ.one is QQ.one and FieldQ().zero is QQ.zero
    F = GF(10007)
    assert F.zero is F.zero and F.one is F.one
    assert F.zero == 0 and F.one == 1 and F.zero.p == F.p
    # equal zero matrices hold one object, so they compare by identity
    for field in (QQ, F):
        A, B = Matrix.zeros(3, 4, field), Matrix.zeros(3, 4, field)
        assert all(x is field.zero for r in A.rows + B.rows for x in r) and A == B
