"""Unital Jordan (super)algebras with normalized trace.

Provided constructions: the hermitian 3x3 algebras H3(C^) over a unital
composition algebra, the superalgebras J(V, theta) (one even unit, two odd
generators with uv = 1) and D_t (two even idempotents halving a two
dimensional odd part, xy = e1 + t e2), and the tiny Kaplansky superalgebra
as an admissible cubic algebra.

A normalized trace is linear with t(1) = 1 and t((xy)z) = t(x(yz)); it
splits J = k1 + J0 and powers the star product x*y = xy - t(xy)1 and the
cross product

    x X y = 2xy - 3t(x)y - 3t(y)x + (9t(x)t(y) - 3t(xy)) 1.

The inner derivations d_{x,y} = [L_x, L_y] (graded commutator) of a list
of vectors are one batch, tits.inner_derivation_pairs; d_{J,J} is the
algebra.DerivationSpace they span over the J0 basis (JordanAlgebra.djj,
built once per J, as der C is once per C), and
JordanAlgebra.inner_derivation is one pair of such a batch.

Supercommutativity (algebra.transpose_failures), the linearized Jordan
identity and the associator rows of the trace system are sparse exact
contractions of the table with itself on int_fast.join and fold.
"""

from functools import cached_property

import numpy as np

from .exact import (QQ, Matrix, Subspace, basis_vector, check_vector_field, int_row, kernel_of,
                    solution_space, vec_zero)
from .algebra import SuperAlgebra, LinearMap, EVEN, ODD, once_per_factor, transpose_failures
from .composition import split_cayley
from .int_fast import INT64_MAX, fold, fold_blocks, join, joined, vector_coo
from .tits import inner_derivation_pairs, inner_derivation_space, tits, verify_lie_conditions


class JordanAlgebra:
    """Supercommutative unital algebra with a normalized trace functional."""

    def __init__(self, algebra, unit, trace_row, provenance="custom", source=None,
                 index_maps=None):
        for what, v in (("unit", unit), ("trace row", trace_row)):
            if v is not None and len(v) != algebra.n:
                raise ValueError("%s has length %d, the algebra has dimension %d"
                                 % (what, len(v), algebra.n))
            check_vector_field([] if v is None else v, algebra.field, what)
        self.algebra = algebra
        self.field = algebra.field
        self.unit = unit
        self.trace_row = trace_row          # row vector of t_J on the basis
        self.provenance = provenance
        self.source = source                # the coordinate composition algebra for h3
        self._index_maps = index_maps or {}

    @property
    def name(self):
        return self.algebra.name

    @property
    def dim(self):
        return self.algebra.n

    @cached_property
    def unit_coo(self):
        """The unit, lowered once: ((indices,), integers, D) (int_fast.vector_coo)."""
        return vector_coo(self.unit, self.field)

    @cached_property
    def trace_coo(self):
        """t_J, lowered as unit_coo is; None without a normalized trace."""
        return None if self.trace_row is None else vector_coo(self.trace_row, self.field)

    def trace_of(self, x):
        return sum((c * xc for c, xc in zip(self.trace_row, x)),
                   start=self.field.zero)

    def multiply(self, x, y):
        return self.algebra.multiply(x, y)

    @once_per_factor
    def j0_basis(self):
        """Deterministic basis of J0 = ker t_J (RREF order), built once per J."""
        return Matrix([self.trace_row], self.field).kernel_basis()

    @cached_property
    def jordan_failure(self):
        """jordan_identity_failure of J, computed once per J."""
        return jordan_identity_failure(self)

    @once_per_factor
    def djj(self):
        """d_{J,J}: the tits.inner_derivation_space of the J0 basis, built
        once per J and shared by every T(C, J)."""
        return inner_derivation_space(self, self.j0_basis())

    def star(self, x, y):
        """x*y = xy - t(xy) 1 on trace-zero arguments."""
        if self.trace_of(x) or self.trace_of(y):
            raise ValueError("star is defined on J0 only")
        xy = self.multiply(x, y)
        t = self.trace_of(xy)
        return [a - t * u for a, u in zip(xy, self.unit)]

    def cross(self, x, y):
        """2xy - 3t(x)y - 3t(y)x + (9 t(x)t(y) - 3t(xy)) 1 on all of J."""
        f = self.field
        two, three, nine = f.of(2), f.of(3), f.of(9)
        xy = self.multiply(x, y)
        tx, ty, txy = self.trace_of(x), self.trace_of(y), self.trace_of(xy)
        out = [two * a for a in xy]
        out = [a - three * tx * b for a, b in zip(out, y)]
        out = [a - three * ty * b for a, b in zip(out, x)]
        c = nine * tx * ty - three * txy
        return [a + c * u for a, u in zip(out, self.unit)]

    def inner_derivation(self, x, y):
        """d_{x,y} = L_x L_y - (-1)^{|x||y|} L_y L_x (graded commutator): the
        pair (0, 1) of tits.inner_derivation_pairs(self, [x, y])."""
        alg, n = self.algebra, self.dim
        ids, rc, d, D = inner_derivation_pairs(self, [x, y])
        sel = np.flatnonzero(ids == 1)
        parity = (alg.parity_of_vector(x) + alg.parity_of_vector(y)) % 2
        return LinearMap.from_coo(alg, alg, ((rc[sel] // n, rc[sel] % n), d[sel], D), parity=parity)

    # -- H3 index helpers -------------------------------------------------

    def e_index(self, i):
        return self._index_maps["e"][i]

    def iota_index(self, i, j):
        return self._index_maps["iota"][i][j]

    def iota(self, i, x):
        """The element iota_i(x) for x a coordinate vector of the source algebra."""
        v = vec_zero(self.dim, self.field)
        for j, c in enumerate(x):
            if c:
                v[self.iota_index(i, j)] = c
        return v

    def __repr__(self):
        return "JordanAlgebra(%s, dim (%d|%d))" % (
            self.name, self.algebra.dim_even, self.algebra.dim_odd)


def h3(Chat):
    """Hermitian 3x3 matrices over a unital composition algebra.

    Basis: e0, e1, e2 then iota_0, iota_1, iota_2 blocks (one per basis
    element of C^).  Products:

        e_i o e_j = delta_ij e_i,
        e_i o iota_i(x) = 0,
        e_{i+1} o iota_i(x) = e_{i+2} o iota_i(x) = 1/2 iota_i(x),
        iota_i(x) o iota_{i+1}(y) = 1/2 iota_{i+2}(conj(xy)),
        iota_i(x) o iota_i(y) = 1/2 t(x conj(y)) (e_{i+1} + e_{i+2}),

    normalized trace t(e_i) = 1/3, t(iota) = 0.  The table is integer
    blocks handed to SuperAlgebra.from_blocks, read off the table of C^ and
    its held trace_coo and conj_coo: t(b_a conj(b_b)) = c^k_am conj_mb t_k
    is two joins, conj(b_a b_b) = c^k_ab conj_tk one, and from_blocks folds.
    """
    f, d = Chat.field, Chat.dim
    labels = ["E0", "E1", "E2"] + ["i%d(%s)" % (i, b) for i in range(3)
                                   for b in Chat.algebra.basis]
    iota_idx = [[3 + i * d + j for j in range(d)] for i in range(3)]
    (I, J, K), V, Dc = Chat.algebra.coo
    ((Ti,), T, Dt), ((R, S), W, Dw) = Chat.trace_coo, Chat.conj_coo
    a, b = join(J, R)       # b_a conj(b_b) = c^k_am conj_mb b_k, then t(b_k)
    c, t = join(K[a], Ti)
    a, b = a[c], b[c]
    x, y = join(K, S)       # conj(b_a b_b) = c^k_ab conj_tk b_t

    def iota(i, j):
        return 3 + (i % 3) * d + j
    e, j, ones = np.arange(3), np.arange(d), np.ones(d, dtype=np.int64)
    blocks = [(e, e, e, [np.ones(3, dtype=np.int64)], 1)]
    for i in range(3):
        for k in ((i + 1) % 3, (i + 2) % 3):
            blocks += [(np.full(d, k), iota(i, j), iota(i, j), [ones], 2),
                       (iota(i, j), np.full(d, k), iota(i, j), [ones], 2),
                       (iota(i, I[a]), iota(i, S[b]), np.full(len(a), k), [V[a], W[b], T[t]],
                        2 * Dc * Dw * Dt)]
        blocks += [(iota(i, I[x]), iota(i + 1, J[x]), iota(i + 2, R[y]), [V[x], W[y]], 2 * Dc * Dw),
                   (iota(i + 1, J[x]), iota(i, I[x]), iota(i + 2, R[y]), [V[x], W[y]], 2 * Dc * Dw)]
    alg = SuperAlgebra.from_blocks(labels, blocks, field=f, name="H3(%s)" % Chat.name)
    third = f.one / f.of(3)
    return JordanAlgebra(alg, [f.one] * 3 + [f.zero] * 3 * d, [third] * 3 + [f.zero] * 3 * d,
                         provenance="h3", source=Chat,
                         index_maps={"e": [0, 1, 2], "iota": iota_idx})


def find_normalized_traces(algebra, unit, construction_filter=True):
    """All normalized traces of a unital (super)algebra.

    Solves {t(1) = 1, t((b_i b_j) b_k) = t(b_i (b_j b_k))} exactly and
    returns (particular, homogeneous_basis), or None if no solution exists.

    For superalgebras with a unique solution, the candidate is additionally
    required to be compatible with the Tits construction over the split
    Cayley algebra (the graded cyclic conditions must hold); a bare
    associative trace that breaks the construction does not count.  This is
    what singles out t in {2, 1/2} for the D_t family, whose associativity
    system alone is solvable for every t outside {0, -1}.
    """
    f = algebra.field
    found = solution_space([int_row(list(unit) + [f.one], f)[0], *_associator_rows(algebra)[0]],
                           algebra.n, f)
    if found is None:
        return None
    point, kernel = found
    if construction_filter and algebra.dim_odd and not kernel:
        if not _trace_tits_compatible(algebra, unit, point):
            return None
    return point, kernel


def _associator_rows(algebra):
    """The distinct nonzero rows (b_i b_j) b_k - b_i (b_j b_k), in (i, j, k)
    order, as sparse integer rows {l: int} over the denominator D^2, and
    D^2: one contraction of the table with itself, like the super-Jacobi
    check.  (b_i b_j) b_k sums c^m_ij c^l_mk (the output index of one entry
    joined with the first input of another), b_i (b_j b_k) sums
    c^m_jk c^l_im (joined with the second input); both fold on the keys
    (i, j, k, l) over the common denominator D^2."""
    f, n = algebra.field, algebra.n
    (I, J, K), V, D = algebra.coo
    a, b = join(K, I)
    c, d = join(K, J)
    keys, sums, _path = fold(
        [(((I[a] * n + J[a]) * n + J[b]) * n + K[b], [V[a], V[b]]),
         (((I[d] * n + I[c]) * n + J[c]) * n + K[d], [V[c], V[d], -1])], f.p)
    rows = {}
    for ijk, l, x in zip((keys // n).tolist(), (keys % n).tolist(), sums.tolist()):
        rows.setdefault(ijk, []).append((l, x))
    return [dict(entries) for entries in dict.fromkeys(map(tuple, rows.values()))], D * D


def _trace_tits_compatible(algebra, unit, trace_row):
    """Do the graded cyclic conditions of the Tits construction hold for
    this normalized trace, with the split Cayley algebra on the left?"""
    J = JordanAlgebra(algebra, unit, trace_row, provenance="custom")
    C = split_cayley(algebra.field)
    return verify_lie_conditions(C, J, T=tits(C, J), witnesses=False).ok


def jordan_super_jvtheta(field=QQ):
    """J(V, theta) for V purely odd of dimension 2: J0 = k1, J1 = ku + kv,
    uv = 1 = -vu, u^2 = v^2 = 0; t(1) = 1."""
    sc = {
        (0, 0): {0: 1},
        (0, 1): {1: field.of(1)}, (1, 0): {1: 1},
        (0, 2): {2: 1}, (2, 0): {2: 1},
        (1, 2): {0: 1}, (2, 1): {0: -1},
    }
    alg = SuperAlgebra(["1", "u", "v"], sc, parity=[EVEN, ODD, ODD], field=field,
                       name="J(V,theta)")
    unit = basis_vector(3, 0, field)
    trace = [field.one, field.zero, field.zero]
    return JordanAlgebra(alg, unit, trace, provenance="jvtheta")


def jordan_super_dt(t, field=QQ):
    """The Jordan superalgebra D_t: even part k e1 + k e2 (orthogonal
    idempotents), odd part k x + k y with e_i z = z/2 for odd z and
    x y = e1 + t e2.

    The normalized trace, when it exists, is found by the solver rather
    than hard-coded; existence holds exactly for t in {2, 1/2}.
    """
    t = field.of(t)
    if not t:
        raise ValueError("D_t requires t != 0")
    half = field.of(1) / field.of(2)
    sc = {
        (0, 0): {0: 1}, (1, 1): {1: 1},
        (0, 2): {2: half}, (2, 0): {2: half},
        (0, 3): {3: half}, (3, 0): {3: half},
        (1, 2): {2: half}, (2, 1): {2: half},
        (1, 3): {3: half}, (3, 1): {3: half},
        (2, 3): {0: 1, 1: t}, (3, 2): {0: -1, 1: -t},
    }
    alg = SuperAlgebra(["e1", "e2", "x", "y"], sc, parity=[EVEN, EVEN, ODD, ODD],
                       field=field, name="D_%s" % t)
    unit = [field.one, field.one, field.zero, field.zero]
    # carry the bare associative trace when one exists (t != -1), so that
    # T(C, D_t) can be assembled and shown non-Lie for t outside {2, 1/2};
    # the construction-compatible solver is find_normalized_traces itself
    found = find_normalized_traces(alg, unit, construction_filter=False)
    trace = found[0] if found else None
    J = JordanAlgebra(alg, unit, trace, provenance="dt")
    J.t_parameter = t
    return J


def d2(field=QQ):
    return jordan_super_dt(2, field)


class CubicAdmissible:
    """Commutative (super)algebra with trace form <.|.> and N(x) = <x|x^2>."""

    def __init__(self, algebra, trace_form_matrix):
        self.algebra = algebra
        self.field = algebra.field
        self.trace_form_matrix = trace_form_matrix

    def trace_form(self, x, y):
        return sum((xi * c for xi, c in zip(x, self.trace_form_matrix.apply(y))),
                   start=self.field.zero)

    def norm(self, x):
        return self.trace_form(x, self.algebra.multiply(x, x))

    def __repr__(self):
        return "CubicAdmissible(%s)" % self.algebra.name


def kaplansky(field=QQ):
    """The tiny Kaplansky superalgebra K = ke + (kx + ky):
    e^2 = e, ez = z/2 for odd z, xy = e = -yx; trace form <e|e> = 1,
    <x|y> = 2 = -<y|x> (supersymmetric)."""
    half = field.of(1) / field.of(2)
    sc = {
        (0, 0): {0: 1},
        (0, 1): {1: half}, (1, 0): {1: half},
        (0, 2): {2: half}, (2, 0): {2: half},
        (1, 2): {0: 1}, (2, 1): {0: -1},
    }
    alg = SuperAlgebra(["e", "x", "y"], sc, parity=[EVEN, ODD, ODD], field=field,
                       name="kaplansky")
    F = Matrix.zeros(3, 3, field)
    F[0, 0] = field.one
    F[1, 2] = field.of(2)
    F[2, 1] = field.of(-2)
    return CubicAdmissible(alg, F)


def check_supercommutative(algebra):
    """xy = (-1)^{|x||y|} yx on all basis pairs (algebra.transpose_failures)."""
    return not transpose_failures(algebra.coo[:2], algebra.parity, 1, algebra.field)


def check_jordan_identity(J):
    """Whether J satisfies the Jordan identity (jordan_identity_failure)."""
    return jordan_identity_failure(J) is None


def jordan_identity_failure(J):
    """The first basis triple a <= b <= c on which the linearized (super)
    Jordan identity fails, None if it holds on all of them:

        sum_cyc (-1)^{|a||c|} [L_a, L_{b o c}] = 0

    with graded operator commutators; equivalent to (x^2 y) x = x^2 (y x)
    in characteristic not 2, 3.

    One sparse exact contraction over the common denominator D^3: the
    products (b_y b_z) b_w (the table's output index joined with its
    first input) are joined with the table into x((yz)d) and
    -(-1)^{|x|(|y|+|z|)} (yz)(xd); each term counts, times (-1)^{|x||z|},
    at the keys (a, b, c, d, l) of the cyclic rotations (a, b, c) of
    (x, y, z) with a <= b <= c.  Both joins take l from their right-hand
    row, so int_fast.fold_blocks folds one block of l at a time past its
    term budget, keeping the first triple whose keys survive; ValueError
    when n^5 passes int64.
    """
    alg = J.algebra
    f, n = alg.field, alg.n
    if n ** 5 > INT64_MAX:
        raise ValueError("dimension %d too large for int64 keys (a,b,c,d,l)" % n)
    p = f.p
    odd = np.array(alg.parity, dtype=bool)
    (I, J, K), V, _D = alg.coo
    # (b_y b_z) b_w = sum_k c^k_yz c^m_kw, keys (y, z, w, m)
    a, b = join(K, I)
    keys, P, _path = fold([(((I[a] * n + J[a]) * n + J[b]) * n + K[b], [V[a], V[b]])], p)
    Py, Pz, Pw, Pm = (keys // n ** e % n for e in (3, 2, 1, 0))

    # x((yz)d) = sum_m P(y, z, d, m) c^l_xm and (yz)(xd) = sum_m c^m_xd P(y, z, m, l),
    # each taking l from the right-hand row of its join
    def rotations(x, y, z, d, l, factors):
        factors.append(np.where(odd[x] & odd[z], -1, 1))
        terms = []
        for r, q, u in ((x, y, z), (z, x, y), (y, z, x)):
            keep = np.flatnonzero((r <= q) & (q <= u))
            terms.append((((((r * n + q) * n + u) * n + d) * n + l)[keep],
                          [c[keep] for c in factors]))
        return terms

    groups = [joined(Pm, J, K, lambda t, e: rotations(I[e], Py[t], Pz[t], Pw[t], K[e],
                                                      [P[t], V[e]])),
              joined(K, Pw, Pm, lambda g, h: rotations(
                  I[g], Py[h], Pz[h], J[g], Pm[h],
                  [V[g], P[h], np.where(odd[I[g]] & (odd[Py[h]] ^ odd[Pz[h]]), 1, -1)]))]
    keys, _sums, _path = fold_blocks(groups, step=n * n, first=1, p=p)
    abc = int(keys[0]) // (n * n) if len(keys) else None
    return None if abc is None else (abc // (n * n), abc // n % n, abc % n)


def h3_derivation_grading(J):
    """The Klein grading of der J = d_{J,J} for J = H3(C^):

        {d : d(e_i) = 0, i = 0,1,2}  +  sum_i d_{e_{i+1}-e_{i+2}, iota_i(C^)}.

    Returns (span of d_{J,J}, zero-part basis, [block subspaces]); the caller
    checks dim(der) = dim(zero part) + 3 dim(C^) and the containments.
    """
    alg = J.algebra
    f = J.field
    n = alg.n
    djj = J.djj()
    span = djj.span
    # {d : d(e_i) = 0}: the combinations of the lowered d_s killing the e_i,
    # the kernel of the rows (i, k) of the entries d_s[k, e_i]
    (S, R, C), V, D = djj.lowered
    e = np.full(n, -1, dtype=np.int64)
    e[[J.e_index(i) for i in range(3)]] = np.arange(3)
    sel = np.flatnonzero(e[C] >= 0)
    zero_part = kernel_of(((e[C[sel]] * n + R[sel], S[sel]), V[sel], D), 3 * n, span.dim, f)
    blocks, d = [], J.source.dim
    for i in range(3):
        ei = [x - y for x, y in zip(alg.e(J.e_index((i + 1) % 3)), alg.e(J.e_index((i + 2) % 3)))]
        ids, rc, dv, Dd = inner_derivation_pairs(J, [ei] + [J.iota(i, basis_vector(d, jj, f))
                                                           for jj in range(d)])
        blocks.append(Subspace(n * n, f))
        blocks[-1].add_many(ids[ids <= d], rc[ids <= d], dv[ids <= d], Dd)    # d_{e_i, iota_i}
    return span, zero_part, blocks
