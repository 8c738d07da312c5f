"""Split unital composition algebras over k, char k != 2, 3.

The split Cayley algebra carries the distinguished basis
e1, e2, u0, u1, u2, v0, v1, v2 with

    e_l^2 = e_l,  e1 e2 = 0 = e2 e1,
    e1 u_i = u_i = u_i e2,   e2 v_i = v_i = v_i e1,
    e2 u_i = 0 = u_i e1,     e1 v_i = 0 = v_i e2,
    u_i u_{i+1} = v_{i+2} = -u_{i+1} u_i,
    v_i v_{i+1} = u_{i+2} = -v_{i+1} v_i      (indices mod 3),
    u_i^2 = 0 = v_i^2,
    u_i v_j = -delta_ij e1,  v_i u_j = -delta_ij e2,

unit 1 = e1 + e2, and polar norm n(e1,e2) = 1, n(u_i,v_j) = delta_ij.
The split quaternion/binarion/ground algebras are its subalgebras; the
S4-invariant (Hamilton-type) quaternion subalgebra span{1, u_i+v_i} is
provided separately for the T(Q,J) variant.

identity_failures proves both composition identities on all basis tuples.
The inner derivations D_{b_i,b_j} on all basis pairs are one exact integer
contraction of the table (inner_derivation_tensor); der C is the
algebra.DerivationSpace they span (the class of d_{J,J} too), bracketed
by that space; inner_derivation(C, a, b) is the space's pair_sums on
the coefficients of a and b.
"""

from functools import cached_property

import numpy as np

from .exact import QQ, Matrix, vec_zero, basis_vector
from .algebra import EVEN, DerivationSpace, SuperAlgebra, LinearMap, once_per_factor
from .int_fast import distinct, fold, join, outer, rows_coo
from .s4 import GroupAction


class CompositionAlgebra:
    """A unital composition algebra: product table, polar norm, trace, conjugation."""

    def __init__(self, algebra, norm_polar, unit, name, cayley_labels=False):
        self.algebra = algebra
        self.field = algebra.field
        self.norm_polar = norm_polar        # matrix of n(b_i, b_j)
        self.unit = unit                    # coordinates of 1
        self.name = name
        self.has_cayley_labels = cayley_labels

    @cached_property
    def trace_row(self):
        return self.norm_polar.apply(self.unit)     # t(a) = n(a, 1)

    @property
    def dim(self):
        return self.algebra.n

    def product(self, x, y):
        return self.algebra.multiply(x, y)

    def trace(self, x):
        return sum((c * xc for c, xc in zip(self.trace_row, x)),
                   start=self.field.zero)

    def norm_bilinear(self, x, y):
        return sum((xi * c for xi, c in zip(x, self.norm_polar.apply(y))),
                   start=self.field.zero)

    def norm(self, x):
        """Quadratic form n(x) = n(x,x)/2."""
        return self.norm_bilinear(x, x) / self.field.of(2)

    def conj(self, x):
        """Canonical involution a -> t(a) 1 - a."""
        t = self.trace(x)
        return [t * u - xi for u, xi in zip(self.unit, x)]

    def conj_matrix(self):
        cols = [self.conj(self.algebra.e(i)) for i in range(self.dim)]
        return Matrix.from_columns(cols, self.field)

    def traceless_basis(self):
        """Deterministic basis of C^0 = {a : t(a) = 0}.

        With the distinguished Cayley-type labels this is
        [e1 - e2, u0, u1, u2, v0, v1, v2] (resp. the evident subsets);
        otherwise the kernel of the trace functional in RREF order.
        """
        if self.has_cayley_labels:
            alg = self.algebra
            first = [a - b for a, b in zip(alg.e("e1"), alg.e("e2"))]
            rest = [alg.e(i) for i, lbl in enumerate(alg.basis) if lbl not in ("e1", "e2")]
            return [first] + rest
        return Matrix([self.trace_row], self.field).kernel_basis()

    def __repr__(self):
        return "CompositionAlgebra(%s, dim %d)" % (self.name, self.dim)


def identity_failures(C):
    """The sorted basis quadruples (x, y, z, w) with n(xy, zw) + n(xw, zy) !=
    n(x, z) n(y, w) and pairs (x, y) with xy + yx - t(x) y - t(y) x + n(x, y) 1
    != 0: the polarizations of n(xy) = n(x) n(y) and x^2 - t(x) x + n(x) 1 = 0,
    which in characteristic != 2 hold on C iff they hold on all basis tuples
    (Springer-Veldkamp, Octonions, Jordan Algebras and Exceptional Groups,
    ch. 1).  Each is one int_fast.fold of the table, the polar norm and the
    unit (t(x) = n(x, 1)) over a common denominator."""
    n, p = C.dim, C.field.p
    (I, J, K), V, Dt = C.algebra.coo
    (R, S), N, Dn = rows_coo(C.norm_polar.rows, C.field)
    (_r, U), W, Du = rows_coo([C.unit], C.field)

    def key(*idx):
        return np.ravel_multi_index(idx, (n,) * len(idx))
    # n(b_x b_y, b_z b_w) = (b_x b_y)_k n(b_k, b_l) (b_z b_w)_l at (x, y, z, w)
    a, b = join(K, R)
    c, d = join(S[b], K)
    x, y, z, w, f = I[a[c]], J[a[c]], I[d], J[d], [V[a[c]], N[b[c]], V[d], Dn]
    a, b = outer(len(N), len(N))
    quads, _s, _path = fold([(key(x, y, z, w), f), (key(x, w, z, y), f),
                             (key(R[a], R[b], S[a], S[b]), [N[a], N[b], -Dt * Dt])], p)
    # xy + yx, -t(x) y, -t(y) x and n(x, y) 1 at (x, y, k); t(b_x) = n(b_x, b_l) 1_l
    a, b = join(S, U)
    c, y = outer(len(a), n)
    x, f = R[a[c]], [N[a[c]], W[b[c]], -Dt]
    a, b = outer(len(N), len(U))
    pairs, _s, _path = fold([(key(I, J, K), [V, Dn * Du]), (key(J, I, K), [V, Dn * Du]),
                             (key(x, y, y), f), (key(y, x, y), f),
                             (key(R[a], S[a], U[b]), [N[a], W[b], Dt])], p)
    return tuple(list(zip(*(c.tolist() for c in np.unravel_index(keys, (n,) * width))))
                 for keys, width in ((quads, 4), (distinct(pairs // n), 2)))


def _cayley_table(labels):
    """Structure constants of the split Cayley algebra restricted to labels."""
    idx = {lbl: i for i, lbl in enumerate(labels)}
    sc = {}

    def put(a, b, c, coef=1):
        if a in idx and b in idx and c in idx:
            sc.setdefault((idx[a], idx[b]), {})[idx[c]] = coef

    for l in (1, 2):
        put("e%d" % l, "e%d" % l, "e%d" % l)
    for i in range(3):
        u, v = "u%d" % i, "v%d" % i
        put("e1", u, u)
        put(u, "e2", u)
        put("e2", v, v)
        put(v, "e1", v)
        j = (i + 1) % 3
        k = (i + 2) % 3
        put("u%d" % i, "u%d" % j, "v%d" % k, 1)
        put("u%d" % j, "u%d" % i, "v%d" % k, -1)
        put("v%d" % i, "v%d" % j, "u%d" % k, 1)
        put("v%d" % j, "v%d" % i, "u%d" % k, -1)
        put(u, v, "e1", -1)
        put(v, u, "e2", -1)
    return sc


def _cayley_like(labels, name, field):
    sc = _cayley_table(labels)
    alg = SuperAlgebra(labels, sc, field=field, name=name)
    idx = {lbl: i for i, lbl in enumerate(labels)}
    n = len(labels)
    N = Matrix.zeros(n, n, field)
    one = field.one
    if "e1" in idx and "e2" in idx:
        N[idx["e1"], idx["e2"]] = one
        N[idx["e2"], idx["e1"]] = one
    for i in range(3):
        u, v = "u%d" % i, "v%d" % i
        if u in idx and v in idx:
            N[idx[u], idx[v]] = one
            N[idx[v], idx[u]] = one
    unit = vec_zero(n, field)
    unit[idx["e1"]] = one
    unit[idx["e2"]] = one
    return CompositionAlgebra(alg, N, unit, name, cayley_labels=True)


def split_cayley(field=QQ):
    labels = ["e1", "e2", "u0", "u1", "u2", "v0", "v1", "v2"]
    return _cayley_like(labels, "cayley", field)


def split_quaternion(field=QQ):
    return _cayley_like(["e1", "e2", "u1", "v1"], "quaternion", field)


def binarion(field=QQ):
    return _cayley_like(["e1", "e2"], "binarion", field)


def ground(field=QQ):
    alg = SuperAlgebra(["1"], {(0, 0): {0: 1}}, field=field, name="ground")
    N = Matrix([[2]], field)      # polar form: n(1,1) = 2, so n(1) = 1
    return CompositionAlgebra(alg, N, [field.one], "ground")


def invariant_quaternion(field=QQ):
    """The S4-invariant quaternion subalgebra span{1, u_i + v_i} of split Cayley.

    With p_i = u_i + v_i: p_i p_{i+1} = p_{i+2} = -p_{i+1} p_i and p_i^2 = -1.
    Over Q this is a division algebra (it is not the split quaternion algebra).
    """
    labels = ["1", "p0", "p1", "p2"]
    sc = {(0, 0): {0: 1}}
    for i in range(3):
        pi, pj, pk = 1 + i, 1 + (i + 1) % 3, 1 + (i + 2) % 3
        sc[(0, pi)] = {pi: 1}
        sc[(pi, 0)] = {pi: 1}
        sc[(pi, pi)] = {0: -1}
        sc[(pi, pj)] = {pk: 1}
        sc[(pj, pi)] = {pk: -1}
    alg = SuperAlgebra(labels, sc, field=field, name="quatQ")
    N = Matrix.zeros(4, 4, field)
    N[0, 0] = field.of(2)
    for i in range(1, 4):
        N[i, i] = field.of(2)
    unit = basis_vector(4, 0, field)
    return CompositionAlgebra(alg, N, unit, "quatQ")


def _signed_permutations(alg, images, name):
    """The GroupAction whose generator GEN_NAMES[k] sends each basis element
    b to coef times the basis element tgt, for images[k] = {b: (tgt,
    coef)} by label: one block of the integers for all four."""
    idx = alg.index
    entries = [(k, idx(tgt), idx(b), coef)
               for k, gen in enumerate(images) for b, (tgt, coef) in gen.items()]
    G, R, C, V = (np.array(a, dtype=np.int64) for a in zip(*entries))
    return GroupAction.from_blocks(alg, [(G, R, C, [V], 1)], alg.n, alg.field, name=name)


@once_per_factor
def s4_on_invariant_quaternion(Q):
    """The S4 action on span{1, p0, p1, p2}: the restriction of the Cayley
    action (p_i = u_i + v_i transforms exactly like the 3-dimensional
    standard-times-alternating representation).  Built once per Q."""
    if Q.name != "quatQ":
        raise ValueError("expected the invariant quaternion algebra")

    def act(images):
        return {"1": ("1", 1), **{"p%d" % i: ("p%d" % tgt, coef)
                                  for i, (tgt, coef) in images.items()}}
    return _signed_permutations(Q.algebra, [
        act({0: (0, 1), 1: (1, -1), 2: (2, -1)}),       # tau1
        act({0: (0, -1), 1: (1, 1), 2: (2, -1)}),       # tau2
        act({0: (1, 1), 1: (2, 1), 2: (0, 1)}),         # phi
        act({0: (0, -1), 1: (2, -1), 2: (1, -1)})],     # tau
        "S4 on Q")


def inner_derivation(C, a, b):
    """D_{a,b} : c -> [[a,b],c] + 3 (a,c,b), a LinearMap held lowered: the
    pair_sums of der C on the coefficients of a and b."""
    alg, f, n = C.algebra, C.field, C.dim
    _t, rc, V, D = derivation_algebra(C).pair_sums(rows_coo([a], f), rows_coo([b], f))
    return LinearMap.from_coo(alg, alg, ((rc // n, rc % n), V, D))


def inner_derivation_tensor(C):
    """D_{b_i,b_j}(b_c) on all basis triples as COO (keys, sums, den): the
    b_l coefficient is the sum at key ((i * n + j) * n + l) * n + c over
    den, zero at a key without an entry.

    D_{a,b}(c) = [[a,b],c] + 3((ac)b - a(cb)) is one int_fast.fold of three
    joins of the table of C: its skew part with itself, and its output index
    with its first and with its second input index.  Each term is a product
    of two constants, so den is the square of the table's denominator."""
    n = C.dim
    (I, J, K), V, D = C.algebra.coo
    bI, bJ, bK, bV = (np.concatenate(c) for c in ((I, J), (J, I), (K, K), (V, -V)))

    def key(i, j, l, c):
        return ((i * n + j) * n + l) * n + c
    x, y = join(bK, bI)     # [b_i, b_j] = sum_m b_m, then [b_m, b_c]
    terms = [(key(bI[x], bJ[x], bK[y], bJ[y]), [bV[x], bV[y]])]
    x, y = join(K, I)       # b_i b_c = sum_m b_m, then b_m b_j
    terms.append((key(I[x], J[y], K[y], J[x]), [V[x], V[y], 3]))
    x, y = join(K, J)       # b_c b_j = sum_m b_m, then b_i b_m
    terms.append((key(I[y], J[x], K[y], I[x]), [V[x], V[y], -3]))
    keys, sums, _path = fold(terms, C.field.p)
    return keys, sums, D * D


@once_per_factor
def derivation_algebra(C):
    """der C: the DerivationSpace of the D_{b_i,b_j}, fed from the entries
    of inner_derivation_tensor, with its Lie algebra `lie` (basis
    D[b_i,b_j]) read off the space's bracket; ValueError when a bracket
    leaves the span.  Built once per (immutable) C and kept on it."""
    n, basis = C.dim, C.algebra.basis
    keys, sums, den = inner_derivation_tensor(C)
    der = DerivationSpace((keys // (n * n), keys % (n * n), sums, den), n, n, C.field,
                          [EVEN] * n)
    cols, V, D, outside = der.bracket
    if outside:
        raise ValueError("matrix is not in der C: [D%d, D%d]" % outside[0])
    der.lie = SuperAlgebra.from_coo(
        ["D[%s,%s]" % (basis[a], basis[b]) for a, b in der.generators], cols, V, D,
        field=C.field, name="der(%s)" % C.name)
    return der


@once_per_factor
def s4_on_cayley(C):
    """The S4 embedding into Aut(split Cayley) on the distinguished basis,
    built once per C."""
    if not C.has_cayley_labels or C.dim != 8:
        raise ValueError("s4_on_cayley needs the split Cayley algebra")
    fixed = {"e1": ("e1", 1), "e2": ("e2", 1)}
    return _signed_permutations(C.algebra, [
        {**fixed,                                               # tau1
         "u0": ("u0", 1), "v0": ("v0", 1),
         "u1": ("u1", -1), "v1": ("v1", -1),
         "u2": ("u2", -1), "v2": ("v2", -1)},
        {**fixed,                                               # tau2
         "u0": ("u0", -1), "v0": ("v0", -1),
         "u1": ("u1", 1), "v1": ("v1", 1),
         "u2": ("u2", -1), "v2": ("v2", -1)},
        {**fixed,                                               # phi
         "u0": ("u1", 1), "u1": ("u2", 1), "u2": ("u0", 1),
         "v0": ("v1", 1), "v1": ("v2", 1), "v2": ("v0", 1)},
        {**fixed,                                               # tau
         "u0": ("u0", -1), "u1": ("u2", -1), "u2": ("u1", -1),
         "v0": ("v0", -1), "v1": ("v2", -1), "v2": ("v1", -1)}],
        "S4 on C")
