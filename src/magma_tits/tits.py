"""The Tits construction T(C, J) = der C + (C0 x J0) + d_{J,J}.

Bracket rules, for D in der C, d in d_{J,J}, a, b in C0, x, y in J0:

    [der C, der C], [d_{J,J}, d_{J,J}]: matrix (graded) commutators,
    [der C, d_{J,J}] = 0,
    [D, a x x] = D(a) x x,      [d, a x x] = a x d(x),
    [a x x, b x y] = t_J(xy) D_{a,b} + [a,b] x (x*y) + 2 t(ab) d_{x,y}.

Basis order: der C basis, then a_i x x_j in lexicographic (i, j), then the
d_{J,J} basis.  der C (composition.derivation_algebra, over C basis pairs)
and d_{J,J} (JordanAlgebra.djj: inner_derivation_space over J0 basis
pairs) are both an algebra.DerivationSpace: the span of the inner
derivations on the pairs, fed in lexicographic order (first independent
subset kept), with its bracket computed once.  The d_{x,y} of all pairs
are one contraction (inner_derivation_pairs: the graded commutators of the
L_x).

Every piece of the bracket comes from one factor, so each factor's share
is a FactorSide, built once per factor by factor_side and kept on it
(composition_side on C, jordan_side on J): the C0 or J0 basis and its
frozen span, der C or d_{J,J}, and four tables, the C-side [a,b], t(ab),
D_{a,b} and D(a), the J-side x*y, t_J(xy), d_{x,y} and d(x).  The tables
are exact sparse contractions (int_fast) of the tables of C and J with
the C0 and J0 bases, their coordinates from Subspace.coords_many, kept as
integers (lowered COO).  tits() only assembles: the blocks of the bracket,
broadcasts and outer products of the two sides' tables, are handed to
SuperAlgebra.from_blocks, which folds them once.  Field values are formed
only to split a vector outside C0 or J0 (_split_coords, corrupted inputs).
A side also keeps the S4 blocks of its factor, per base action
(s4._side_blocks).

The Lie conditions of the construction are the three components of the
graded Jacobiator of tensor-element triples; verify_lie_conditions checks
them exhaustively over (C0 basis)^3 x (J0 basis)^3, each side of a
condition one exact fold of the tables of T's two sides (T.sides), and
reads its witnesses off the same folds.  Its test oracle,
verify_lie_conditions_reference, shares none of that code: it
scans the cyclic jacobiator of the tensor basis triples, read off the table
of T.algebra, and classifies each nonzero one by block.
"""

from dataclasses import dataclass, field as dataclass_field
from itertools import islice, product
from math import lcm
from weakref import WeakKeyDictionary

import numpy as np

from .exact import Subspace, echelon, int_row, vec_zero
from .algebra import (SuperAlgebra, EVEN, DerivationSpace, _jacobiator, check_super_jacobi,
                      left_mults, once_per_factor, outer_block, tensor_action, trace_products)
from .composition import derivation_algebra
from .int_fast import (as_ints, bilinear, commutators, coo, distinct, fold, join,
                       reduced, rotations, rows_coo, to_field)


def inner_derivation_pairs(J, vectors):
    """The d_{x_j,x_l} = [L_{x_j}, L_{x_l}] (graded) of all pairs of a list
    of parity-homogeneous vectors of J, as a Subspace.coords_many batch
    (ids j * m + l in increasing order, flat index r * n + c, integers, D):
    the L_x of algebra.left_mults and one int_fast.commutators fold.
    ValueError for a vector of the wrong length or of mixed parity."""
    alg, n = J.algebra, J.dim
    (tk, j), V, D = left_mults(alg, vectors)
    odd = [alg.parity_of_vector(x) for x in vectors]
    if None in odd:
        raise ValueError("inner_derivation needs parity-homogeneous arguments")
    keys, sums, _path = commutators(tk // n, tk % n, j, V, np.array(odd, dtype=bool), n, J.field.p)
    return keys // (n * n), keys % (n * n), sums, D * D


def inner_derivation_space(J, vectors):
    """The algebra.DerivationSpace of the d_{x,y} over a list of
    parity-homogeneous vectors of J (a basis of J0 gives d_{J,J})."""
    return DerivationSpace(inner_derivation_pairs(J, vectors), len(vectors), J.dim, J.field,
                           [J.algebra.parity_of_vector(x) for x in vectors])


class TitsAlgebra:
    """T(C, J) with its component bookkeeping, read off the two FactorSides."""

    def __init__(self, algebra, C, J, c_side, j_side):
        self.algebra = algebra
        self.C = C
        self.J = J
        self.sides = (c_side, j_side)
        self.derC, self.c0_basis, self.c0_span = c_side.space, c_side.basis, c_side.span
        self.djj, self.j0_basis, self.j0_span = j_side.space, j_side.basis, j_side.span
        self._jacobi_report = None

    @property
    def der_dim(self):
        return self.derC.dim

    @property
    def djj_dim(self):
        return self.djj.dim

    @property
    def djj_offset(self):
        return self.der_dim + len(self.c0_basis) * len(self.j0_basis)

    @property
    def dim(self):
        return self.algebra.n

    def tensor_index(self, ci, xj):
        return self.der_dim + ci * len(self.j0_basis) + xj

    def _vectors(self, count, ids, index, V, D):
        """count T-coordinate vectors, vector ids[e] holding V[e] / D at
        index[e]."""
        f = self.algebra.field
        vecs = [vec_zero(self.dim, f) for _ in range(count)]
        for t, k, c in zip(ids.tolist(), index.tolist(), to_field(V, D, f)):
            vecs[t][k] = c
        return vecs

    def der_vectors(self, pairs):
        """The elements D_{a,b} of der C for a list of pairs (a, b) of
        vectors of C, as T-coordinate vectors: the pair_sums of der C, then one
        coords_many in der C.  ValueError when one of them leaves der C."""
        f = self.algebra.field
        batch = self.derC.pair_sums(rows_coo([a for a, _b in pairs], f),
                                    rows_coo([b for _a, b in pairs], f))
        ids, ks, V, D, outside = self.derC.span.coords_many(*batch)
        if len(outside):
            raise ValueError("matrix is not in the span of the inner derivations")
        return self._vectors(len(pairs), ids, ks, V, D)

    def der_vector(self, a, b):
        """The element D_{a,b} of der C as a T-coordinate vector."""
        return self.der_vectors([(a, b)])[0]

    def tensor_vectors(self, pairs):
        """The elements a x x for a list of pairs (a, x), a in C0 and x in
        J0: one coords_many in C0 and one in J0, their products joined on
        the pair and folded.  ValueError for an a outside C0 or an x
        outside J0."""
        f = self.algebra.field
        coords = []
        for span, vs, what in ((self.c0_span, [a for a, _x in pairs], "C0"),
                               (self.j0_span, [x for _a, x in pairs], "J0")):
            (ids, cols), V, D = rows_coo(vs, f)
            *c, outside = span.coords_many(ids, cols, V, D)
            if len(outside):
                raise ValueError("vector is not in %s" % what)
            coords.append(c)
        (ta, ka, Va, Da), (tx, kx, Vx, Dx) = coords
        a, x = join(ta, tx)
        keys, sums, _path = fold([(ta[a] * self.dim + self.tensor_index(ka[a], kx[x]),
                                   [Va[a], Vx[x]])], f.p)
        return self._vectors(len(pairs), keys // self.dim, keys % self.dim, sums, Da * Dx)

    def tensor_vector(self, a, x):
        """The element a x x for a in C0, x in J0."""
        return self.tensor_vectors([(a, x)])[0]

    def djj_vectors(self, pairs):
        """The elements d_{x,y} of d_{J,J} for a list of pairs (x, y) of
        vectors of J: their J0 coordinates (_split_coords; d_{1,y} = 0),
        the pair_sums of d_{J,J}, then one coords_many in d_{J,J}, projected
        through its pivot rows."""
        f, J = self.algebra.field, self.J

        def j0(vectors):
            (ids, cols), V, D = rows_coo(vectors, f)
            ids, ks, V, D = _split_coords(self.j0_span, (ids, cols, V, D), J.unit, J.trace_of)
            return (ids, ks), V, D
        batch = self.djj.pair_sums(j0([x for x, _y in pairs]), j0([y for _x, y in pairs]))
        ids, ks, V, D, _outside = self.djj.span.coords_many(*batch, check=False)
        return self._vectors(len(pairs), ids, self.djj_offset + ks, V, D)

    def djj_vector(self, x, y):
        """The element d_{x,y} of d_{J,J}."""
        return self.djj_vectors([(x, y)])[0]

    def jacobi_report(self):
        if self._jacobi_report is None:
            self._jacobi_report = check_super_jacobi(self.algebra)
        return self._jacobi_report

    def __repr__(self):
        return "TitsAlgebra(%s)" % self.algebra


def _lowered(ids, ks, ints, D, count):
    """A coords_many result over the pairs (or operator-vector pairs) of
    `count` vectors, ids x * count + y, as the table ((x, y, ks), integers,
    D) in lowest terms."""
    return (ids // count, ids % count, ks), *reduced(ints, D)


def _split_coords(span, batch, unit, trace):
    """Coordinates in span, a complement of k1 (C0 or J0), of a batch of
    vectors (ids, ambient index, integers, D), as coords_many gives them:
    (ids, basis indices, integers, D).

    For well-formed inputs every vector already lies in the span.  A vector
    outside it (corrupted negative controls) is first split along
    v -> v - trace(v) 1, which keeps the assembly defined so the checkers
    can exhibit the failure; ValueError if that does not land in span."""
    f, m = span.field, max(span.dim, 1)
    ids, cols, vals, D = batch
    cid, ck, V, Dv, outside = span.coords_many(ids, cols, vals, D)
    if not len(outside):
        return cid, ck, V, Dv
    entries = []
    for o in outside.tolist():
        v = [f.zero] * span.ambient_dim
        sel = np.flatnonzero(ids == o)
        for e, c in zip(cols[sel].tolist(), to_field(vals[sel], D, f)):
            v[e] = v[e] + c
        t = trace(v)
        c = span.coords([x - t * u for x, u in zip(v, unit)])
        if c is None:
            raise ValueError("vector cannot be split into k1 + the trace-zero part")
        entries += [((o, k), x) for k, x in enumerate(c) if x]
    (oid, ok), Vo, Do = coo(entries, f, 2)
    inside = np.isin(cid, outside, invert=True)
    keys, sums, _path = fold([(cid[inside] * m + ck[inside], [V[inside], Do]),
                              (oid * m + ok, [Vo, Dv])], f.p)
    return keys // m, keys % m, sums, Dv * Do


def _pair_coords(span, batch, count, check=False):
    """Coordinates in span of a batch over the count x count pairs of some
    vectors, as the table ((x, y, basis index), integers, D): projected
    through the pivot rows, or ValueError when check finds a pair outside
    span."""
    ids, ks, V, D, outside = span.coords_many(*batch, check=check)
    if len(outside):
        raise ValueError("the pair (%d, %d) is not in the span" % divmod(int(outside[0]), count))
    return _lowered(ids, ks, V, D, count)


@dataclass(eq=False)
class FactorSide:
    """One factor's share of T(C, J): built once per composition algebra
    (composition_side) or Jordan algebra (jordan_side) and kept on it.
    Each table is lowered COO ((index columns), integers, D) in lowest
    terms; a table of scalars has a zero third column."""
    basis: list             # the C0 or J0 basis
    span: Subspace          # its span, frozen: every T over the factor shares it
    space: DerivationSpace  # der C or d_{J,J}
    odd: np.ndarray         # the parities of the basis
    product: tuple          # (i, k, m): [a_i, a_k] or x_i * x_k in basis coords
    trace: tuple            # (i, k, 0): t(a_i a_k) or t_J(x_i x_k)
    pairs: tuple            # (i, k, r): D_{a_i,a_k} or d_{x_i,x_k} in space coords
    act: tuple              # (r, i, m): D_r(a_i) or d_r(x_i) in basis coords
    s4: WeakKeyDictionary = dataclass_field(default_factory=WeakKeyDictionary)


def factor_side(alg, unit, trace, basis, space, product, traces, over_basis):
    """The FactorSide of a factor with table alg, unit, normalized trace
    function (to split along k1), trace-zero basis and DerivationSpace, and
    the product and trace_products tables ((I, J, K) and (I, J), integers,
    D) on the basis of alg: contractions with the basis by
    int_fast.bilinear, coordinates by Subspace.coords_many, split along k1
    by _split_coords.  The space's pairs are over the basis itself when
    over_basis, else over the basis of alg (then D_{a_i,a_k} is checked to
    lie in the space)."""
    p = alg.field.p
    count = len(basis)
    span = Subspace.from_vectors(basis, alg.n, alg.field) if basis else Subspace(alg.n, alg.field)
    cols, vals, Dx = rows_coo(basis, alg.field)
    X = (cols, vals)

    def pairs(tab):
        """The table's sums over all pairs of the basis, as a batch."""
        cols, vals, Dt = tab
        (x, y, k), sums, _path = bilinear((cols, vals), X, X, p)
        return x * count + y, k, sums, Dt * Dx * Dx

    def coords(batch):
        return _lowered(*_split_coords(span, batch, unit, trace), count)

    # M_s(x) for every matrix s of the space and basis vector x
    (S, R, C), V, D = space.lowered
    s = np.arange(space.dim, dtype=np.int64)
    (s, x, r), sums, _path = bilinear(((S, C, R), V), ((s, s), np.ones_like(s)), X, p)
    act = coords((s * count + x, r, sums, D * Dx))
    (a, b), V, D = traces
    scalars = _lowered(*pairs(((a, b, np.zeros_like(a)), V, D)), count)
    ids, rc, d, den = space.pairs
    batch = space.pairs if over_basis else pairs(((ids // alg.n, ids % alg.n, rc), d, den))
    odd = np.array([alg.parity_of_vector(v) for v in basis], dtype=bool)
    return FactorSide(basis, span.freeze(), space, odd, coords(pairs(product)), scalars,
                      _pair_coords(space.span, batch, count, check=not over_basis), act)


@once_per_factor
def composition_side(C):
    """C's share of every T(C, J): C0 (composition.traceless_basis) with
    der C, the bracket [b_a, b_b] = c^k_ab - c^k_ba and t(ab) = n(ab, 1)."""
    (I, J, K), V, D = C.algebra.coo
    bracket = ((np.concatenate((I, J)), np.concatenate((J, I)), np.concatenate((K, K))),
               np.concatenate((V, -V)), D)
    half = C.field.one / C.field.of(2)
    return factor_side(C.algebra, C.unit, lambda v: C.trace(v) * half, C.traceless_basis(),
                       derivation_algebra(C), bracket, trace_products(C.algebra, C.trace_row),
                       False)


@once_per_factor
def jordan_side(J):
    """J's share of every T(C, J): J0 (JordanAlgebra.j0_basis) with d_{J,J},
    the star product b_a * b_b = c^k_ab - t_J(b_a b_b) u_k and t_J."""
    f, n = J.field, J.dim
    (I, Jj, K), V, Dc = J.algebra.coo
    traces = (Pa, Pb), P, Dp = trace_products(J.algebra, J.trace_row)
    (Ui,), U, Du = coo([((k,), f.of(u)) for k, u in enumerate(J.unit) if u], f, 1)
    q, u = np.indices((len(P), len(U))).reshape(2, -1)
    keys, st, _path = fold([((I * n + Jj) * n + K, [V, Dp // Dc * Du]),
                            ((Pa[q] * n + Pb[q]) * n + Ui[u], [P[q], U[u], -1])], f.p)
    star = (keys // (n * n), keys // n % n, keys % n), st, Dp * Du
    return factor_side(J.algebra, J.unit, J.trace_of, J.j0_basis(), J.djj(), star, traces, True)


def tits(C, J):
    """Assemble T(C, J); Lie-ness is checked separately, never assumed.

    The bracket is the integer blocks handed to SuperAlgebra.from_blocks,
    all read off the FactorSides of C and J: the
    brackets of the algebra.DerivationSpaces of der C and d_{J,J} (d_{J,J}
    projected through the pivot rows), the actions on C0 x J0 broadcast
    from the tables (algebra.tensor_action), and the tensor x tensor block
    as outer products of the tables of C and of J (algebra.outer_block)."""
    f = C.field
    if J.trace_row is None:
        raise ValueError("the Tits construction needs a normalized trace on J")
    c, j = composition_side(C), jordan_side(J)
    m, nc, nj, nd = c.space.dim, len(c.basis), len(j.basis), j.space.dim
    off = m + nc * nj

    labels = list(c.space.lie.basis)
    labels += ["a%d(x)x%d" % (i, jj) for i in range(nc) for jj in range(nj)]
    labels += ["d%d" % s for s in range(nd)]
    parity = [EVEN] * m + [int(odd) for _i in range(nc) for odd in j.odd]
    parity += list(j.space.parities)

    def tidx(i, jj):
        return m + i * nj + jj

    # der C x der C and d_{J,J} x d_{J,J}, the brackets of the two spaces
    (s, t, k), V, D, _out = c.space.bracket
    blocks = [(s, t, k, [V], D)]
    (s, t, k), V, D, _out = j.space.bracket
    blocks.append((off + s, off + t, off + k, [V], D))
    # der C and d_{J,J} acting: [D_r, a_i x x_j] = D_r(a_i) x x_j,
    # [d_s, a_i x x_j] = a_i x d_s(x_j)
    blocks += tensor_action(c.act, c.space.parities, c.odd, nj, lambda r: r,
                            lambda jj, i: tidx(i, jj))
    blocks += tensor_action(j.act, j.space.parities, j.odd, nc, lambda s: off + s, tidx)
    # tensor x tensor: [a_i x x_j, a_k x x_l] = t_J(x_j x_l) D_{a_i,a_k}
    # + [a_i,a_k] x (x_j * x_l) + 2 t(a_i a_k) d_{x_j,x_l}
    blocks += [
        outer_block(c.pairs, j.trace, lambda i, k, r, jj, l, _z: (tidx(i, jj), tidx(k, l), r)),
        outer_block(c.product, j.product,
                    lambda i, k, i2, jj, l, j2: (tidx(i, jj), tidx(k, l), tidx(i2, j2))),
        outer_block(c.trace, j.pairs,
                    lambda i, k, _z, jj, l, d: (tidx(i, jj), tidx(k, l), off + d), 2)]

    alg = SuperAlgebra.from_blocks(labels, blocks, parity=parity, field=f,
                                   name="T(%s,%s)" % (C.name, J.name))
    return TitsAlgebra(alg, C, J, c, j)


@dataclass
class LieConditionsReport:
    ok: bool
    name: str
    cond1_ok: bool
    cond2_ok: bool
    cond3_ok: bool
    witnesses: list = dataclass_field(default_factory=list)
    path: str = ""      # "int64" or "python-int"; empty when no contraction ran

    def __str__(self):
        if self.ok:
            return "Lie conditions (i)-(iii) OK for %s" % self.name
        lines = ["Lie conditions FAIL for %s: (i) %s (ii) %s (iii) %s"
                 % (self.name, self.cond1_ok, self.cond2_ok, self.cond3_ok)]
        for w in self.witnesses[:6]:
            lines.append("  witness %s" % (w,))
        return "\n".join(lines)


LIE_CONDITIONS = ("(i)", "(ii)", "(iii)")


def verify_lie_conditions_reference(C, J, T=None, max_witnesses=6):
    """Test oracle of verify_lie_conditions: the cyclic graded jacobiator
    (algebra._jacobiator, read off the table of T.algebra) of the tensor
    basis elements a_p x x_a, a_q x x_b, a_w x x_c over all (C0 basis)^3 x
    (J0 basis)^3, a-triples outer, each nonzero one classified by block:
    d_{J,J} for (i), der C for (ii), C0 x J0 for (iii).  A witness names
    the first failing condition of its triple pair."""
    if T is None:
        T = tits(C, J)
    nc, nj = len(T.c0_basis), len(T.j0_basis)
    blocks = (slice(T.djj_offset, T.dim), slice(0, T.der_dim), slice(T.der_dim, T.djj_offset))
    ok, witnesses, sc = [True] * 3, [], T.algebra.sc
    for at in product(range(nc), repeat=3):
        for xt in product(range(nj), repeat=3):
            jac = _jacobiator(T.algebra, sc, *(T.tensor_index(a, x) for a, x in zip(at, xt)))
            bad = [any(jac[b]) for b in blocks]
            if any(bad):
                ok = [o and not b for o, b in zip(ok, bad)]
                if len(witnesses) < max_witnesses:
                    witnesses.append((LIE_CONDITIONS[bad.index(True)], at, xt))
    return LieConditionsReport(all(ok), T.algebra.name, *ok, witnesses)


def _row_basis(rows, k, f):
    """Integer rows (denominator-cleared over QQ, residues over GF(p))
    spanning the row space over f of a nonempty set of integer k-tuples:
    their echelon rows."""
    ech, _pivots = echelon((int_row(row, f)[0] for row in rows), f.p, k)
    return np.stack([as_ints([w.get(j, 0) for j in range(k)]) for w in ech])


def verify_lie_conditions(C, J, T=None, max_witnesses=6, witnesses=True):
    """Exhaustive exact check of the Lie conditions of the construction.

    The three conditions are the d_{J,J}, der C and C0 x J0 components of
    the graded Jacobiator of tensor-element triples (a1 x x1, ...) over all
    (C0 basis)^3 x (J0 basis)^3, with the Koszul signs of the graded cyclic
    Jacobi form.  Each is a sum, over the cyclic orders of the triples, of
    bracket terms: an a-side (a C0 triple and a C-object) times an x-side
    (a J0 triple and a J-object).  (i): t([a1,a2]a3) times d_{x1*x2,x3};
    (ii): D_{[a1,a2],a3} times t_J((x1*x2)x3); (iii): D_{a1,a2}(a3),
    [[a1,a2],a3] and 2t(a1a2)a3 times t_J(x1x2)x3, (x1*x2)*x3 and
    d_{x1,x2}(x3), on one common denominator.

    Each side is one int_fast.fold of the sparse tables of T (cleared
    integers over QQ, residues over GF(p)): each term joins two tables,
    and every entry counts at the three triples whose cyclic order it is,
    on the kind index k = 3 term + order, negated on the x-side where its
    first and third x are odd.  A condition holds when every k-row of one
    side is orthogonal to every k-row of the other: the _row_basis of the
    side with fewer distinct rows is folded against the other's.  The
    path is "python-int" when any fold passed int64.

    Witnesses come from the same folds: for each a-triple in lexicographic
    order, one fold of its a-rows against the x-sides.  A witness is
    (condition, a-triple, x-triple) for the first failing condition of a
    triple pair; the search stops at max_witnesses, and witnesses=False
    skips it (the verdict never depends on either).
    """
    if T is None:
        T = tits(C, J)
    name = T.algebra.name
    nc, nj = len(T.c0_basis), len(T.j0_basis)
    if nc == 0 or nj == 0:
        return LieConditionsReport(True, name, True, True, True)
    f = C.field
    p = f.p
    cs, js = T.sides
    odd = js.odd
    paths = set()

    def folded(terms):
        keys, sums, path = fold(terms, p)
        paths.add(path)
        return keys, sums

    def identity(count, value):
        """value times the identity after a zero column: an outer product is a join on it."""
        w = np.arange(count)
        return (np.zeros_like(w), w, w), np.full(count, value), 1

    def contract(A, B, *scale):
        """Entries (a, b, m) of A joined with (m, c, out) of B: a, b, c, out, factors."""
        (ca, va, _Da), (cb, vb, _Db) = A, B
        x, y = join(ca[2], cb[0])
        return ca[0][x], ca[1][x], cb[1][y], cb[2][y], [va[x], vb[y], *scale]

    def side(conditions, n, R, sign=False):
        """One fold of one side of the conditions, a list of term lists
        (a, b, c, out, factors): term t of condition q counts at key
        ((q * n^3 + triple) * R + out) * 9 + 3t + r of each triple whose
        cyclic order r reads (a, b, c); with sign, negated where a and c
        are odd.  Returns the keys and sums of each condition."""
        placed = []
        for q, terms in enumerate(conditions):
            for t, (a, b, c, out, factors) in enumerate(terms):
                if sign:
                    factors = factors + [np.where(odd[a] & odd[c], -1, 1)]
                keys = [((q * n ** 3 + tri) * R + out) * 9 + 3 * t + r
                        for r, tri in enumerate(rotations(a, b, c, n))]
                placed.append((np.concatenate(keys), [np.tile(x, 3) if isinstance(x, np.ndarray)
                                                      else x for x in factors]))
        keys, sums = folded(placed)
        cuts = np.searchsorted(keys, np.arange(4) * n ** 3 * R * 9).tolist()
        return [(keys[lo:hi] - q * n ** 3 * R * 9, sums[lo:hi])
                for q, (lo, hi) in enumerate(zip(cuts, cuts[1:]))]

    def distinct_rows(keys, sums, K):
        """The distinct rows of the first K kinds of the entries row * 9 + k,
        as a set of tuples."""
        rows = keys // 9
        dense = np.zeros((len(distinct(rows)), 9), dtype=sums.dtype)
        dense[np.cumsum(np.concatenate(([0], rows[1:] != rows[:-1]))), keys % 9] = sums
        return set(map(tuple, dense[:, :K].tolist()))

    def orthogonal(A, X, K):
        """Whether every row of side A is orthogonal to every row of side X:
        the _row_basis of the side with fewer distinct rows folded against
        the distinct rows of the other."""
        if not (len(A[0]) and len(X[0])):
            return True
        few, many = sorted((distinct_rows(*A, K), distinct_rows(*X, K)), key=len)
        W = _row_basis(few, K, f)
        r, k = np.nonzero(W)
        other = np.array(list(many))
        x, y = np.nonzero(other)
        a, b = join(y, k)
        return not len(folded([(x[a] * len(W) + r[b], [other[x, y][a], W[r, k][b]])])[0])

    brC, trC, DC, deract = cs.product, cs.trace, cs.pairs, cs.act
    star, tJ, dxy, djjact = js.product, js.trace, js.pairs, js.act
    scales = (DC[2] * deract[2] * tJ[2], brC[2] ** 2 * star[2] ** 2, trC[2] * dxy[2] * djjact[2])
    L = lcm(*scales)
    Ra, Rx = max(nc, T.der_dim), max(nj, T.djj_dim)
    A = side([[contract(brC, trC)], [contract(brC, DC)],
              [contract(DC, deract, L // scales[0]), contract(brC, brC, L // scales[1]),
               contract(trC, identity(nc, 2), L // scales[2])]], nc, Ra)
    X = side([[contract(star, dxy)], [contract(star, tJ)],
              [contract(tJ, identity(nj, 1)), contract(star, star), contract(dxy, djjact)]],
             nj, Rx, sign=True)
    # t([a1,a2]a3) is cyclic-invariant: the a-rows of (i) are multiples of (1, 1, 1)
    ones = (np.arange(3), np.ones(3, dtype=np.int64)) if len(A[0][0]) else A[0]
    conds = [orthogonal(a, x, K) for a, x, K in zip([ones, *A[1:]], X, (3, 3, 9))]

    def failing():
        """(condition, a-triple, x-triple) of every failing triple pair."""
        bounds = [np.searchsorted(a[0], np.arange(nc ** 3 + 1) * Ra * 9) for a in A]
        for at in range(nc ** 3):
            terms = []
            for q, ((ka, sa), (kx, sx), bd) in enumerate(zip(A, X, bounds)):
                if conds[q]:
                    continue
                ka, sa = ka[bd[at]:bd[at + 1]], sa[bd[at]:bd[at + 1]]
                x, y = join(kx % 9, ka % 9)
                xt, xout = np.divmod(kx[x] // 9, Rx)
                terms.append((((xt * 3 + q) * Ra + ka[y] // 9 % Ra) * Rx + xout, [sx[x], sa[y]]))
            keys = distinct(folded(terms)[0] // (Ra * Rx))
            first = keys[np.diff(keys // 3, prepend=-1) != 0]     # the first q of each xt
            for xt, q in zip(*(c.tolist() for c in np.divmod(first, 3))):
                yield (LIE_CONDITIONS[q], (at // nc ** 2, at // nc % nc, at % nc),
                       (xt // nj ** 2, xt // nj % nj, xt % nj))

    ok = all(conds)
    found = list(islice(failing(), max_witnesses)) if not ok and witnesses else []
    path = "python-int" if "python-int" in paths else "int64"
    return LieConditionsReport(ok, name, *conds, found, path)


@dataclass
class Tits62Algebra:
    """(Q0 x J) + d_{J,J} with [a x x, b x y] = [a,b] x xy + 2 t(ab) d_{x,y}:
    the algebra, the span of d_{J,J} (flattened J x J matrices) and the
    index of its first basis element in the algebra."""
    algebra: SuperAlgebra
    D_space: Subspace
    d_offset: int


def tits62_variant(Q, J):
    """The quaternion-and-Jordan construction (Q0 x J) + d_{J,J}, for J any
    Jordan (super)algebra (no trace needed) and d_{J,J} the
    inner_derivation_space of the full J basis, with that space's bracket.
    Q0, [a_i, a_k] in Q0 coordinates and t(a_i a_k) are Q's FactorSide
    (composition_side), shared with every T(Q, J); the tensor x tensor
    block is outer products of its tables with J's table and with the
    pairs of d_{J,J}, as in tits()."""
    f = Q.field
    if Q.dim != 4:
        raise ValueError("the left factor must be a quaternion algebra")
    q = composition_side(Q)
    alg, nJ = J.algebra, J.dim
    djj = inner_derivation_space(J, [alg.e(i) for i in range(nJ)])
    (s, t, k), d_V, d_D, outside = djj.bracket
    if outside:
        raise ValueError("d_{J,J} is not closed under the bracket")
    nq, nd = len(q.basis), djj.dim
    off = nq * nJ
    labels = ["q%d(x)%s" % (i, alg.basis[j]) for i in range(nq) for j in range(nJ)]
    labels += ["d%d" % s for s in range(nd)]
    parity = list(alg.parity) * nq + list(djj.parities)

    def tidx(i, j):
        return i * nJ + j

    # d_s(x_j) has the x_k coefficient M_s[k, j]
    (S, R, C), V, D = djj.lowered
    blocks = [
        (off + s, off + t, off + k, [d_V], d_D),          # d_{J,J} x d_{J,J}
        # the tensor x tensor block: [a,b] x xy + 2 t(ab) d_{x,y}
        outer_block(q.product, alg.coo,
                    lambda i, k, i2, j, l, j2: (tidx(i, j), tidx(k, l), tidx(i2, j2))),
        outer_block(q.trace, _pair_coords(djj.span, djj.pairs, nJ),
                    lambda i, k, _z, j, l, d: (tidx(i, j), tidx(k, l), off + d), 2),
        # [d_s, q x x_j] = q x d_s(x_j)
        *tensor_action(((S, C, R), V, D), djj.parities, alg.parity, nq, lambda s: off + s, tidx)]

    out = SuperAlgebra.from_blocks(labels, blocks, parity=parity, field=f,
                                   name="T62(%s,%s)" % (Q.name, J.name))
    return Tits62Algebra(out, djj.span, off)
