"""The four workloads: inputs made from a seed, the timed library calls, and
the verdict each call must give.

Every library function is looked up through its module at call time, so the
tracer's wrappers see the call.  Constructions that are part of the work go
through the registry, as the CLI does; inputs that are the workload's own
data (the corrupted tables) are built while setting up, with the plain
constructors, so that the registry is still empty when timing starts.

Why these workloads:
  bulk_checks          genuine Q tables through the exhaustive checkers; the
                       sparse-checker and d_{J,J} work of the roadmap shows here.
  coordinate_algebras  Fraction Matrix, Subspace, S4 actions, isomorphisms and
                       the so3 decomposition; no Jacobi or structurable check
                       runs, so a checker-only change must not move it.
  negative_controls    corrupted inputs that must fail with a witness; witness
                       search and reference rescans dominate.
  gfp                  the same kinds of calls over GF(p): GF arithmetic, the
                       modular Jacobi branch and the GF fallbacks.
"""

import importlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import magma_tits.algebra as algebra
import magma_tits.composition as composition
import magma_tits.isomorphisms as isomorphisms
import magma_tits.jordan as jordan
import magma_tits.registry as registry
import magma_tits.s4 as s4
import magma_tits.structurable as structurable
from magma_tits.algebra import SuperAlgebra
from magma_tits.exact import GF, Matrix
from magma_tits.isomorphisms import IsomorphismError
from magma_tits.jordan import JordanAlgebra

# The package re-exports the functions tits() and decompose() under the
# names of their modules, so "import magma_tits.tits as m" yields the function.
mt_tits = importlib.import_module("magma_tits.tits")
decompose = importlib.import_module("magma_tits.decompose")

import oracle
from oracle import expect


@dataclass
class Item:
    """One verdict attempt: run() calls the library, check(outcome) judges it."""
    name: str
    run: Callable
    check: Callable
    expect: str = "pass"            # the verdict the input must get
    known_errors: tuple = ()        # exception types of a recorded library defect


@dataclass
class Workload:
    items: list
    fingerprint: list               # what the seed generated, hashed after the pass


def _passes(fn):
    """True if fn() returns; the exception if it rejects its input."""
    try:
        fn()
    except IsomorphismError as exc:
        return exc
    return True


def _expect_true(name):
    def check(outcome):
        expect(outcome is True, "%s: expected to pass, got %r" % (name, outcome))
    return check


# ---------------------------------------------------------------------------
# seed-made transformations of generated tables


def signed_permutation(A, rng):
    """A in the basis b'_a = s_a b_{perm[a]}: magnitudes and denominators kept."""
    n = A.n
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    new = {old: a for a, old in enumerate(perm)}
    sc = {}
    for (i, j), row in A.sc.items():
        a, b = new[i], new[j]
        s = signs[a] * signs[b]
        sc[(a, b)] = {new[k]: c * (s * signs[new[k]]) for k, c in row.items()}
    B = SuperAlgebra([A.basis[p] for p in perm], sc, parity=[A.parity[p] for p in perm],
                     field=A.field, name=A.name)
    return B, perm, signs


def signed_permutation_awi(AI, rng):
    B, perm, signs = signed_permutation(AI.algebra, rng)
    S = AI.sigma.rows
    n = B.n
    rows = [[S[perm[k]][perm[b]] * (signs[k] * signs[b]) for b in range(n)] for k in range(n)]
    return structurable.AlgebraWithInvolution(B, Matrix(rows, B.field))


def _with_constant(A, i, j, k, delta):
    sc = {key: dict(row) for key, row in A.sc.items()}
    row = sc.setdefault((i, j), {})
    row[k] = row.get(k, A.field.zero) + delta
    return sc


def corrupt_constant(A, rng):
    """c_ij^k + 1 for a seed-chosen i < j and k of matching parity, with the
    super-antisymmetric partner c_ji^k changed to match."""
    i, j = sorted(rng.sample(range(A.n), 2))
    want = (A.parity[i] + A.parity[j]) % 2
    k = rng.choice([m for m in range(A.n) if A.parity[m] == want])
    sign = -1 if (A.parity[i] and A.parity[j]) else 1
    sc = _with_constant(A, i, j, k, A.field.one)
    sc.setdefault((j, i), {})[k] = -sign * sc[(i, j)][k]
    bad = SuperAlgebra(A.basis, sc, parity=A.parity, field=A.field, name=A.name + "/bad")
    return bad, (i, j, k)


def corrupted_h3k():
    """H3(k) with the product iota_0 iota_1 set to 5/2 iota_2 instead of 1/2
    (still commutative): the negative control of the Lie-conditions tests."""
    J = jordan.h3(composition.ground())
    alg = J.algebra
    sc = {k: dict(v) for k, v in alg.sc.items()}
    i0, i1, i2 = J.iota_index(0, 0), J.iota_index(1, 0), J.iota_index(2, 0)
    sc[(i0, i1)] = {i2: Fraction(5, 2)}
    sc[(i1, i0)] = {i2: Fraction(5, 2)}
    bad = SuperAlgebra(alg.basis, sc, parity=alg.parity, field=alg.field, name="H3bad")
    return JordanAlgebra(bad, J.unit, J.trace_row, provenance="custom")


def corrupt_structurable(AI, rng):
    """One product b_i b_j with i, j outside the unit's support gets + b_k,
    so the corrupted table keeps its unit."""
    A = AI.algebra
    unit = s4._find_unit(A)
    outside = [m for m in range(A.n) if not unit[m]]
    i, j = rng.choice(outside), rng.choice(outside)
    k = rng.choice([m for m in range(A.n) if A.parity[m] == (A.parity[i] + A.parity[j]) % 2])
    sc = _with_constant(A, i, j, k, A.field.one)
    bad = SuperAlgebra(A.basis, sc, parity=A.parity, field=A.field, name=A.name + "/bad")
    return structurable.AlgebraWithInvolution(bad, AI.sigma), unit, (i, j, k)


def primes_between(lo, hi):
    sieve = bytearray([1]) * hi
    sieve[0:2] = b"\x00\x00"
    for q in range(2, int(hi ** 0.5) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytearray(len(sieve[q * q::q]))
    return [q for q in range(lo, hi) if sieve[q]]


# ---------------------------------------------------------------------------
# workloads


TITS_Q = ("h3:ground", "h3:binarion", "h3:quaternion", "jvtheta", "d2")
STRUCTURABLE_Q = ("aj:h3:ground", "aj:h3:binarion", "aj:h3:quaternion", "aj:jvtheta",
                  "aj:d2", "ak", "tensor:binarion:binarion", "tensor:quaternion:binarion",
                  "tensor:cayley:binarion", "tensor:quaternion:quaternion")


def bulk_checks(rng, f4=False):
    tits_names = ("h3:ground",) if f4 else TITS_Q
    awi_names = ("aj:h3:ground",) if f4 else STRUCTURABLE_Q
    items, fingerprint = [], []

    def jacobi(name, sub):
        def run():
            A, _perm, _signs = signed_permutation(
                registry.tits_by_name("cayley", name).algebra, sub)
            fingerprint.append(A)
            return A, algebra.check_super_jacobi(A)
        return Item("jacobi:" + name, run,
                    lambda out: oracle.check_jacobi_report(out[0], out[1], True))

    def lie(name):
        def run():
            T = registry.tits_by_name("cayley", name)
            return T, mt_tits.verify_lie_conditions(T.C, T.J, T=T)
        return Item("lie:" + name, run,
                    lambda out: oracle.check_lie_conditions_report(out[0], out[1], True))

    def struct(name, sub):
        def run():
            AI = signed_permutation_awi(registry.involution_algebra_by_name(name), sub)
            fingerprint.append(AI.algebra)
            return AI, structurable.check_structurable(AI)
        return Item("structurable:" + name, run,
                    lambda out: oracle.check_structurable_report(out[0], None, out[1], True))

    for name in tits_names:
        items.append(jacobi(name, random.Random(rng.getrandbits(64))))
        items.append(lie(name))
    for name in awi_names:
        items.append(struct(name, random.Random(rng.getrandbits(64))))
    return Workload(items, fingerprint)


def _s4_pipeline(name):
    def run():
        T = registry.tits_by_name("cayley", name)
        act = s4.s4_on_tits_left(T)
        act.verify()
        ca = s4.coordinate_algebra(T.algebra, act, basis=isomorphisms.theorem41_basis(T))
        one = ca.ambient_vector(ca.unit)
        d1 = act["phi"].apply(one)
        triple = [one, d1, act["phi"].apply(d1)]
        rep = decompose.decompose(T.algebra, triple)
        ext = decompose.extract_b1(T.algebra, rep)
        round_trip = decompose.round_trip_matches(T.algebra, ext)
        act2 = decompose.synthesize_s4(T.algebra, rep, ext)
        act2.verify()
        kg = s4.klein_grading(act2)
        ca2 = s4.coordinate_algebra(T.algebra, act2, basis=kg.components[(1, 0)])
        return {"decomposes": rep.ok, "data valid": ext.data.validate(),
                "round trip": round_trip,
                "same action": all(act2[g] == act[g] for g in s4.GEN_NAMES),
                "unital": ca2.is_unital}

    def check(out):
        bad = [k for k, ok in out.items() if not ok]
        expect(not bad, "s4 pipeline on %s: %s failed" % (name, bad))

    return Item("s4-pipeline:" + name, run, check)


def _decompose_round_trip(name):
    def run():
        g, triple = registry.lie_with_triple(name)
        rep = decompose.decompose(g, triple)
        ext = decompose.extract_b1(g, rep)
        return (rep.ok and 3 * rep.m_adjoint + 5 * rep.m_h + rep.m_trivial == g.n
                and ext.data.validate() and decompose.round_trip_matches(g, ext))
    return Item("decompose:" + name, run, _expect_true("decompose " + name))


def coordinate_algebras(rng, f4=False):
    thm41 = ("h3:ground",) if f4 else ("h3:ground", "h3:binarion", "jvtheta", "d2")
    thm61 = ([("cayley", "ground")] if f4 else
             [(c, ch) for c in ("ground", "binarion", "quaternion", "cayley")
              for ch in ("ground", "binarion")])
    tqj = ("h3:ground",) if f4 else ("h3:ground", "jvtheta", "d2")
    lies = ("glw",) if f4 else ("glw", "sp:0", "sp:2", "sl:2", "so:2")
    items = []
    for j in thm41:
        items.append(Item("thm41:" + j, lambda j=j: _passes(
            lambda: isomorphisms.theorem41(registry.jordan_by_name(j))),
            _expect_true("thm41 " + j)))
    for c, ch in thm61:
        items.append(Item("thm61:%s:%s" % (c, ch), lambda c=c, ch=ch: _passes(
            lambda: isomorphisms.theorem61(registry.composition_by_name(c),
                                           registry.composition_by_name(ch))),
            _expect_true("thm61 %s %s" % (c, ch))))
    for j in tqj:
        items.append(Item("tqj:" + j, lambda j=j: _passes(
            lambda: isomorphisms.tqj_maps(registry.jordan_by_name(j))),
            _expect_true("tqj " + j)))
    if not f4:
        items.append(Item("ak-to-ajv", lambda: _passes(isomorphisms.ak_to_ajv),
                          _expect_true("ak_to_ajv")))
    items.append(_s4_pipeline("h3:ground"))
    for name in lies:
        items.append(_decompose_round_trip(name))
    rng.shuffle(items)
    return Workload(items, [item.name for item in items])


def negative_controls(rng, f4=False):
    items, fingerprint = [], []
    C = composition.split_cayley()
    jacobi_tables = ((("h3:ground", jordan.h3(composition.ground())),) if f4 else
                     (("h3:binarion", jordan.h3(composition.binarion())),
                      ("jvtheta", jordan.jordan_super_jvtheta())))
    for name, J in jacobi_tables:
        A, site = corrupt_constant(mt_tits.tits(C, J).algebra, rng)
        fingerprint += [A, site]
        items.append(Item("jacobi-corrupt:" + name,
                          lambda A=A: algebra.check_super_jacobi(A),
                          lambda rep, A=A: oracle.check_jacobi_report(A, rep, False),
                          expect="fail"))

    Q = composition.split_quaternion()
    Jbad = corrupted_h3k()
    T = mt_tits.tits(Q, Jbad)
    fingerprint.append(T.algebra)
    items.append(Item("lie-corrupt:h3k",
                      lambda: mt_tits.verify_lie_conditions(Q, Jbad, T=T, witnesses=True),
                      lambda rep: oracle.check_lie_conditions_report(T, rep, False),
                      expect="fail"))

    AI, unit, site = corrupt_structurable(
        structurable.a_of_j(jordan.h3(composition.ground() if f4 else Q)), rng)
    fingerprint += [AI.algebra, site]
    items.append(Item("structurable-corrupt:" + AI.algebra.name,
                      lambda: structurable.check_structurable(AI),
                      lambda rep: oracle.check_structurable_report(AI, unit, rep, False),
                      expect="fail"))

    J = jordan.h3(composition.ground())
    T41 = mt_tits.tits(C, J)
    act = s4.s4_on_tits_left(T41)
    ca = s4.coordinate_algebra(T41.algebra, act, basis=isomorphisms.theorem41_basis(T41))
    AJ = structurable.a_of_j(J)
    M = isomorphisms.phi_theorem41(ca, AJ, J).matrix.copy()
    r, c = rng.randrange(M.nrows), rng.randrange(M.ncols)
    M[r, c] = M[r, c] + 1
    fingerprint.append((r, c))
    bad = isomorphisms.InvolutionHomomorphism(ca.awi, AJ, M, name="Phi41/bad")

    def check_phi(outcome):
        expect(isinstance(outcome, IsomorphismError), "Phi41/bad: verified, expected failure")
        oracle.check_homomorphism_failure(bad, outcome)

    items.append(Item("phi41-corrupt", lambda: _passes(bad.verify), check_phi, expect="fail"))

    g, triple = decompose.so_h_negative_control()
    items.append(Item("decompose-corrupt:so(h)", lambda: decompose.decompose(g, triple),
                      lambda rep: oracle.check_decomposition_failure(g, triple, rep),
                      expect="fail"))
    return Workload(items, fingerprint)


PRIMES = primes_between(10 ** 4, 10 ** 5)


def gfp(rng, f4=False):
    p = rng.choice(PRIMES)
    F = GF(p)
    jac = ("h3:ground",) if f4 else ("h3:ground", "h3:binarion", "jvtheta", "d2")
    thm41 = ("h3:ground",) if f4 else ("h3:ground", "jvtheta", "d2")
    thm61 = (("cayley", "ground"),) if f4 else (
        ("binarion", "binarion"), ("quaternion", "ground"), ("cayley", "ground"))
    awi = ("aj:h3:ground",) if f4 else (
        "aj:jvtheta", "aj:d2", "aj:h3:ground", "tensor:quaternion:binarion")
    items = []

    def jacobi(name):
        def run():
            A = registry.tits_by_name("cayley", name, F).algebra
            return A, algebra.check_super_jacobi(A)
        return Item("jacobi-gf:" + name, run,
                    lambda out: oracle.check_jacobi_report(out[0], out[1], True))

    def lie():
        T = registry.tits_by_name("quaternion", "h3:ground", F)
        return T, mt_tits.verify_lie_conditions(T.C, T.J, T=T)

    # ROADMAP 2(c): check_structurable over GF(p) raises AttributeError today.
    def struct(name):
        def run():
            AI = registry.involution_algebra_by_name(name, F)
            return AI, structurable.check_structurable(AI)
        return Item("structurable-gf:" + name, run,
                    lambda out: oracle.check_structurable_report(out[0], None, out[1], True),
                    known_errors=(AttributeError,))

    items += [jacobi(name) for name in jac]
    items.append(Item("lie-gf:quaternion:h3:ground", lie,
                      lambda out: oracle.check_lie_conditions_report(out[0], out[1], True)))
    for j in thm41:
        items.append(Item("thm41-gf:" + j, lambda j=j: _passes(
            lambda: isomorphisms.theorem41(registry.jordan_by_name(j, F))),
            _expect_true("thm41 GF " + j)))
    for c, ch in thm61:
        items.append(Item("thm61-gf:%s:%s" % (c, ch), lambda c=c, ch=ch: _passes(
            lambda: isomorphisms.theorem61(registry.composition_by_name(c, F),
                                           registry.composition_by_name(ch, F))),
            _expect_true("thm61 GF %s %s" % (c, ch))))
    items += [struct(name) for name in awi]
    return Workload(items, [p])


WORKLOADS = {
    "bulk_checks": bulk_checks,
    "coordinate_algebras": coordinate_algebras,
    "negative_controls": negative_controls,
    "gfp": gfp,
}
