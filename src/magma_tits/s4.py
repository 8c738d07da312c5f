"""S4 actions by automorphisms, Klein-four gradings, coordinate algebras.

An action is given by its four generators

    tau1 = (12)(34),  tau2 = (23)(14),  phi = (123),  tau = (12),

subject to tau1 tau2 = tau2 tau1, phi tau1 = tau2 phi,
phi tau2 = tau1 tau2 phi, tau1 tau = tau tau1, tau2 tau = tau tau2 tau1,
tau phi = phi^2 tau, tau1^2 = tau2^2 = tau^2 = 1, phi^3 = 1.

The commuting involutions tau1, tau2 grade the target over Z2 x Z2; the
(1,0) component {X : tau1 X = X, tau2 X = -X} carries the coordinate
algebra with X.Y = -tau([phi(X), phi^2(Y)]) and involution -tau.

An action is one lowered block-diagonal map on four copies of its target,
generator k of GEN_NAMES in the block at k dim (GroupAction), so each
stage runs once per action, not per generator or word: the builders hand
over all four generators' blocks to one fold; word_failures evaluates
every word of every relation in rounds, one int_fast.matvec per letter
position, and one fold of lhs D_rhs - rhs D_lhs keyed by the relation;
the automorphism check is one algebra.lowered_map_failures contraction on
four copies of the target.  On T(C, J) the der C and d_{J,J} blocks are
one contraction of their lowered matrices with the stacked generators
(conjugation_block), the C0 and J0 blocks one matvec with batched, exactly
checked coordinates (_images_in): each acts through one factor, so both
are kept on that factor's side (tits.FactorSide), once per base action
(_side_blocks), and _on_tits only places them by index offsets.
The Klein components are kernels of rows folded from the generators'
entries; the coordinate algebra is one bilinear and matvec contraction.
"""

from functools import cached_property

import numpy as np

from .exact import Matrix, Subspace, inverse_coo, kernel_of
from .algebra import (SuperAlgebra, LinearMap, _find_unit, _invertible, lowered_map_failures,
                      once_per_factor)
from .int_fast import (OutOfRange, bilinear, canonical, compose, distinct, fold, identity_coo,
                       join, matvec, read_only, reduced, rows_coo, same_map, tile)
from .structurable import AlgebraWithInvolution

GEN_NAMES = ("tau1", "tau2", "phi", "tau")

# defining relations as word identities (left side, right side)
RELATIONS = [
    (("tau1", "tau2"), ("tau2", "tau1")),
    (("phi", "tau1"), ("tau2", "phi")),
    (("phi", "tau2"), ("tau1", "tau2", "phi")),
    (("tau1", "tau"), ("tau", "tau1")),
    (("tau2", "tau"), ("tau", "tau2", "tau1")),
    (("tau", "phi"), ("phi", "phi", "tau")),
    (("tau1", "tau1"), ()),
    (("tau2", "tau2"), ()),
    (("tau", "tau"), ()),
    (("phi", "phi", "phi"), ()),
]

# how each generator permutes the Klein components (a, b)
COMPONENT_PERMUTATION = {
    "tau1": lambda a, b: (a, b),
    "tau2": lambda a, b: (a, b),
    "phi": lambda a, b: (b, (a + b) % 2),
    "tau": lambda a, b: ((a + b) % 2, b),
}


# the relations a Klein grading needs: tau1 tau2 = tau2 tau1, tau1^2 = tau2^2 = 1
KLEIN_RELATIONS = [RELATIONS[0], RELATIONS[6], RELATIONS[7]]


# the order relation of each generator: tau1^2 = tau2^2 = tau^2 = 1, phi^3 = 1
ORDER_RELATIONS = dict(zip(("tau1", "tau2", "tau", "phi"), RELATIONS[6:10]))


class GroupAction:
    """The four S4 generators acting on a target space of dimension dim,
    stored as one lowered block-diagonal map on four copies of it: the
    generator GEN_NAMES[k] is the diagonal block at rows and columns k dim,
    and the entries are sorted by (generator, row, column).  Each
    generator's slice keeps its own integers in lowest terms, so
    lowered(name) is ((R, C), V, D), what int_fast.rows_coo gives for its
    Matrix, and `stacked` is the whole map over the lcm of the four D's.
    Builders hand their blocks to from_blocks; from_coo takes one COO per
    generator and the constructor lowers hand-written Matrices once.
    `gens` (and act[name]) are the Matrices, built on first read."""

    def __init__(self, target, tau1, tau2, phi, tau, name="S4 action"):
        mats = (tau1, tau2, phi, tau)
        n, f = tau1.nrows, tau1.field
        for M in mats:
            if M.nrows != n or M.ncols != n:
                raise ValueError("generator matrices must be square of equal size")
            if M.field != f:
                raise ValueError("generator matrices over %s and %s" % (f, M.field))
        self._setup(target, [(np.full(len(R), k), R, C, [V], D) for k, ((R, C), V, D)
                             in enumerate(rows_coo(M.rows, f) for M in mats)], n, f, name)

    @classmethod
    def from_coo(cls, target, gens, dim, field, name="S4 action"):
        """The action whose generator g is the dim x dim matrix with V[e] / D
        at (R[e], C[e]), summed over e, for gens = {g: ((R, C), V, D)} over
        the names GEN_NAMES (integers denominator-cleared over QQ, any
        integers over GF(p)): from_blocks of one block per generator.
        ValueError unless the names are GEN_NAMES."""
        if sorted(gens) != sorted(GEN_NAMES):
            raise ValueError("generators %s, an S4 action needs %s"
                             % (", ".join(sorted(gens)), ", ".join(GEN_NAMES)))
        return cls.from_blocks(target, [(np.full(len(R), k), R, C, [V], D) for k, ((R, C), V, D)
                                        in enumerate(map(gens.get, GEN_NAMES))], dim, field, name)

    @classmethod
    def from_blocks(cls, target, blocks, dim, field, name="S4 action"):
        """The action whose generator GEN_NAMES[k] sums the entries at k of
        the blocks (generators, rows, columns, factors, D) of
        int_fast.canonical.  ValueError unless the target has dimension dim
        over field, for an entry outside range(dim) or a rejected input."""
        act = cls.__new__(cls)
        act._setup(target, blocks, dim, field, name)
        return act

    def _setup(self, target, blocks, dim, field, name):
        """Validate and store the generators: int_fast.canonical of all the
        blocks, then each generator's slice put in its own lowest terms."""
        if target is not None and (target.n, target.field) != (dim, field):
            raise ValueError("generators of dimension %d over %s, the target has dimension "
                             "%d over %s" % (dim, field, target.n, target.field))
        try:
            (G, R, C), V, D = canonical(blocks, (4, dim, dim), field.p)
        except OutOfRange as err:
            raise ValueError("generator %s has an entry outside range(%d)"
                             % (GEN_NAMES[err.entry[0]], dim)) from None
        self.stacked = (G * dim + R, G * dim + C), V, D
        bounds = np.searchsorted(G, np.arange(5)).tolist()
        self._lowered = {g: ((R[lo:hi], C[lo:hi]), *reduced(V[lo:hi], D))
                         for g, lo, hi in zip(GEN_NAMES, bounds, bounds[1:])}
        read_only(*self.stacked[0], *(self._lowered[g][1] for g in GEN_NAMES))
        self.target, self.dim, self.field, self.name = target, dim, field, name

    @cached_property
    def gens(self):
        """{name: Matrix} of the generators, built from `lowered` on first read."""
        return {g: Matrix.from_coo(self.dim, self.dim, self._lowered[g], self.field)
                for g in GEN_NAMES}

    def __getitem__(self, name):
        return self.gens[name]

    def lowered(self, name):
        """Generator `name` as its stored integers ((R, C), V, D)."""
        return self._lowered[name]

    def _words(self, words):
        """The matrices of a list of words, lowered.  All are evaluated at
        once, word k in the block at rows and columns k dim: round r is one
        int_fast.matvec of the block-diagonal matrix of every word's r-th
        letter from the right (the identity past its length) with the
        columns so far, the identity's at the start.  ValueError for a
        letter outside GEN_NAMES."""
        bad = [w for word in words for w in word if w not in GEN_NAMES]
        if bad:
            raise ValueError("unknown generator %r: the generators are %s"
                             % (bad[0], ", ".join(GEN_NAMES)))
        n, one = self.dim, identity_coo(self.dim)
        X = (np.arange(len(words) * n),) * 2, np.ones(len(words) * n, dtype=np.int64)
        dens = [1] * len(words)
        for r in range(max(map(len, words), default=0)):
            mats = [self._lowered[w[-1 - r]] if r < len(w) else one for w in words]
            R, C = (np.concatenate([M[0][i] + k * n for k, M in enumerate(mats)]) for i in (0, 1))
            X = matvec(((R, C), np.concatenate([M[1] for M in mats])), X, self.field.p)
            dens = [d * M[2] for d, M in zip(dens, mats)]
        (cols, rows), V = X
        b = np.searchsorted(cols, np.arange(len(words) + 1) * n).tolist()
        return [((rows[lo:hi] - k * n, cols[lo:hi] - k * n), V[lo:hi], D)
                for k, (lo, hi, D) in enumerate(zip(b, b[1:], dens))]

    def element(self, word):
        """Matrix of a word in the generators, e.g. ("phi", "tau1")."""
        if isinstance(word, str):
            word = tuple(w for w in word.replace("*", " ").split() if w)
        return Matrix.from_coo(self.dim, self.dim, self._words([tuple(word)])[0], self.field)

    def word_failures(self, relations):
        """The (lhs, rhs) word pairs whose matrices differ, in their order:
        every word of every pair from one _words, then one fold of
        lhs D_rhs - rhs D_lhs keyed by the pair, which fails iff one of its
        keys survives."""
        relations = [(tuple(lhs), tuple(rhs)) for lhs, rhs in relations]
        words = list(dict.fromkeys(w for pair in relations for w in pair))
        mats, n = dict(zip(words, self._words(words))), self.dim
        terms = []
        for i, (lhs, rhs) in enumerate(relations):
            for word, other, sign in ((lhs, rhs, 1), (rhs, lhs, -1)):
                (R, C), V, _D = mats[word]
                terms.append((i * n * n + R * n + C, [V, sign * mats[other][2]]))
        keys, _sums, _path = fold(terms, self.field.p)
        return [relations[i] for i in distinct(keys // (n * n)).tolist()]

    def relation_failures(self):
        return self.word_failures(RELATIONS)

    def automorphism_failures(self, orders_hold=False):
        """The generators that are not automorphisms of the target: one
        lowered_map_failures contraction of the stacked map on four copies
        of the target, and invertibility from the order relations
        (ORDER_RELATIONS), evaluated unless orders_hold says they hold, an
        integer rank of the lowered generator only where one fails."""
        if self.target is None:
            return []
        bad = {GEN_NAMES[i // self.dim] for i, _j in
               lowered_map_failures(self.target, self.target, self.stacked, copies=4)}
        rest = [g for g in GEN_NAMES if g not in bad]
        orders = [] if orders_hold else self.word_failures([ORDER_RELATIONS[g] for g in rest])
        bad.update(g for g in rest if ORDER_RELATIONS[g] in orders
                   and not _invertible(self._lowered[g], self.dim, self.field.p))
        return [g for g in GEN_NAMES if g in bad]

    def verify(self):
        """Raise unless all defining relations and automorphism checks hold;
        the order relations, among them, are evaluated once."""
        rel = self.relation_failures()
        if rel:
            raise ValueError("%s: defining relations fail: %r" % (self.name, rel))
        aut = self.automorphism_failures(orders_hold=True)
        if aut:
            raise ValueError("%s: generators are not automorphisms: %r" % (self.name, aut))
        return True

    def __repr__(self):
        return "GroupAction(%s, dim %d)" % (self.name, self.dim)


class KleinGrading:
    """Simultaneous tau1/tau2 eigenspace decomposition over Z2 x Z2.

    Component (a, b) is the subspace with tau2-eigenvalue (-1)^a and
    tau1-eigenvalue (-1)^b, matching C_(0,0) = ke1 + ke2,
    C_(1,0) = ku0 + kv0, C_(0,1) = ku1 + kv1, C_(1,1) = ku2 + kv2 on the
    split Cayley algebra.
    """

    KEYS = ((0, 0), (1, 0), (0, 1), (1, 1))

    def __init__(self, action, components):
        self.action = action
        self.components = components

    def dims(self):
        return {k: len(v) for k, v in self.components.items()}

    def component_subspace(self, key):
        return Subspace.from_vectors(self.components[key], self.action.dim, self.action.field)

    def generator_permutes_components(self):
        """Check every generator maps each component into the predicted one."""
        subs = {k: self.component_subspace(k) for k in self.KEYS}
        return all(subs[COMPONENT_PERMUTATION[name](*key)].contains(M.apply(v))
                   for name, M in self.action.gens.items() for key in self.KEYS
                   for v in self.components[key])


def klein_grading(action):
    """Decompose the target into the four simultaneous tau1/tau2 eigenspaces.

    Component (a, b) is the kernel of the stacked rows of D1 (tau1 - s1 I)
    and D2 (tau2 - s2 I), s1 = (-1)^b, s2 = (-1)^a, Di the denominators of
    the lowered generators (scaling a row keeps the kernel and the reduced
    echelon form): one fold of the generators' entries and the shifted
    diagonals, component c in rows 2nc to 2n(c + 1)."""
    if action.word_failures(KLEIN_RELATIONS):
        raise ValueError("tau1, tau2 are not commuting involutions (not an action)")
    n, f = action.dim, action.field
    (R1, C1), V1, D1 = action.lowered("tau1")
    (R2, C2), V2, D2 = action.lowered("tau2")
    diag, nn = np.arange(n) * (n + 1), n * n
    terms = []
    for c, (a, b) in enumerate(KleinGrading.KEYS):
        top, low = 2 * c * nn, (2 * c + 1) * nn
        terms += [(top + R1 * n + C1, [V1]), (top + diag, [np.full(n, -(-1) ** b * D1)]),
                  (low + R2 * n + C2, [V2]), (low + diag, [np.full(n, -(-1) ** a * D2)])]
    keys, sums, _path = fold(terms, f.p)
    components = {}
    for c, key in enumerate(KleinGrading.KEYS):
        e = np.flatnonzero(keys // (2 * nn) == c)
        components[key] = kernel_of(((keys[e] // n % (2 * n), keys[e] % n), sums[e], 1),
                                    2 * n, n, f)
    if sum(map(len, components.values())) != n:
        raise ValueError("tau1, tau2 are not simultaneously diagonalizable over {+1,-1}")
    return KleinGrading(action, components)


class CoordinateAlgebra:
    """The (1,0) component of g with X.Y = -tau([phi X, phi^2 Y]), Xbar = -tau X.

    Its inclusion into g is held as the LinearMap `inclusion`, built from
    the lowered basis vectors (its columns); the Matrix `embedding` is
    built on first read."""

    def __init__(self, ambient, action, awi, inclusion, span, unit):
        self.ambient = ambient
        self.action = action
        self.awi = awi                    # AlgebraWithInvolution on the component
        self.inclusion = inclusion        # LinearMap of awi.algebra into ambient
        self.span = span                  # Subspace with the chosen basis
        self.unit = unit                  # coordinates in the component basis, or None

    @property
    def embedding(self):
        return self.inclusion.matrix

    @property
    def dim(self):
        return self.span.dim

    @property
    def is_unital(self):
        return self.unit is not None

    def product_ambient(self, X, Y):
        """-tau([phi(X), phi^2(Y)]) for ambient coordinate vectors."""
        g, act = self.ambient, self.action
        phi, tau = act["phi"], act["tau"]
        br = g.multiply(phi.apply(X), phi.apply(phi.apply(Y)))
        return [-x for x in tau.apply(br)]

    def ambient_vector(self, coords):
        return self.embedding.apply(coords)


def coordinate_algebra(g, action, basis):
    """Coordinate algebra of g under an S4 action, in a basis of the (1,0)
    component given as ambient vectors (a klein_grading component, or a
    distinguished basis such as theorem41_basis); each is verified to lie
    there.

    The products X.Y = -tau([phi X, phi^2 Y]) of all basis pairs are one
    sparse exact contraction: phi E and phi^2 E by int_fast.matvec, the
    table of g against both by int_fast.bilinear, then -tau by matvec.
    Their coordinates, and sigma = -tau on the basis, come from
    Subspace.coords_many with the exact reconstruction check.
    """
    f = g.field
    p = f.p
    n = g.n
    (xi, xa), xv, DE = rows_coo(basis, f)
    E = ((xi, xa), xv)
    # tau1 X = X and tau2 X = -X, exactly, on the basis as matrix columns: the
    # columns copied into the tau1 and tau2 blocks of the stacked action
    cols, V = tile((xa, xi), (n, len(basis)), xv, 2)
    signed = V * np.repeat([1, -1], len(xv))
    if not same_map(compose(action.stacked, (cols, V, DE), p), (cols, signed, DE), p):
        raise ValueError("proposed basis vector is not in the (1,0) component")
    span = Subspace(n, f)
    m = len(basis)
    if len(span.add_many(xi, xa, xv, DE)) != m:
        raise ValueError("proposed basis is linearly dependent")
    parity = [g.parity_of_vector(v) for v in basis]
    if any(par is None for par in parity):
        raise ValueError("component basis vectors must be parity homogeneous")

    phi_cols, phi_vals, Dphi = action.lowered("phi")
    phi = (phi_cols, phi_vals)
    tau_cols, tau_vals, Dtau = action.lowered("tau")
    neg_tau = (tau_cols, -tau_vals)
    A = matvec(phi, E, p)
    B = matvec(phi, A, p)
    cols, vals, Dg = g.coo
    (x, y, k), sums, _path = bilinear((cols, vals), A, B, p)
    (xy, l), sums = matvec(neg_tau, ((x * m + y, k), sums), p)
    ids, ks, V, D, outside = span.coords_many(xy, l, sums, Dtau * Dg * Dphi ** 3 * DE * DE)
    (x, l), sums = matvec(neg_tau, E, p)
    sids, sks, sV, sD, soutside = span.coords_many(x, l, sums, Dtau * DE)
    if len(outside) or len(soutside):
        raise ValueError("vector is not in the (1,0) component")
    alg = SuperAlgebra.from_coo(["c%d" % i for i in range(m)], (ids // m, ids % m, ks), V, D,
                                parity=parity, field=f, name="coord(%s)" % g.name)
    awi = AlgebraWithInvolution.from_blocks(alg, [(sks, sids, [sV], sD)])
    inclusion = LinearMap.from_coo(alg, g, ((xa, xi), xv, DE))
    return CoordinateAlgebra(g, action, awi, inclusion, span, _find_unit(alg))


def iota_maps(ca):
    """iota_0 = inclusion of the coordinate algebra, iota_1 = phi iota_0,
    iota_2 = phi^2 iota_0, as LinearMaps into the ambient Lie algebra: the
    held inclusion pushed through the lowered phi by int_fast.compose."""
    g, p, phi = ca.ambient, ca.ambient.field.p, ca.action.lowered("phi")
    i1 = compose(phi, ca.inclusion.coo, p)
    return (ca.inclusion, *(LinearMap.from_coo(ca.awi.algebra, g, M)
                            for M in (i1, compose(phi, i1, p))))


@once_per_factor
def s4_on_h3(J):
    """The S4 action on the Jordan algebra H3(C^) of hermitian 3x3 matrices:
    tau1, tau2 flip signs of two iota-blocks, phi cycles e_i and iota_i,
    tau swaps e1/e2 and conjugates the coordinates.  Built once per J."""
    if getattr(J, "provenance", None) != "h3":
        raise ValueError("s4_on_h3 needs an H3-type Jordan algebra")
    alg, Chat = J.algebra, J.source
    f, d, n = alg.field, Chat.dim, alg.n
    conj = rows_coo(Chat.conj_matrix().rows, f)
    e = np.array([J.e_index(i) for i in range(3)])
    iota = np.array([[J.iota_index(i, j) for j in range(d)] for i in range(3)])

    def build(k, e_images, iota_sign, iota_perm, conjugate):
        """Generator k: e_i -> e_{e_images[i]}, iota_i(x) -> iota_sign[i]
        iota_{iota_perm[i]}(x or its conjugate), as its blocks."""
        (r, c), v, D = conj if conjugate else identity_coo(d)
        return [(np.full(3, k), e[e_images], e, [np.ones(3, dtype=np.int64)], 1)] + [
            (np.full(len(r), k), iota[iota_perm[i]][r], iota[i][c], [v, iota_sign[i]], D)
            for i in range(3)]

    blocks = (build(0, [0, 1, 2], [1, -1, -1], [0, 1, 2], False)        # tau1
              + build(1, [0, 1, 2], [-1, 1, -1], [0, 1, 2], False)      # tau2
              + build(2, [1, 2, 0], [1, 1, 1], [1, 2, 0], False)        # phi
              + build(3, [0, 2, 1], [1, 1, 1], [0, 2, 1], True))        # tau
    return GroupAction.from_blocks(alg, blocks, n, f, name="S4 on H3(%s)" % Chat.name)


def _signed_permutation(M, size, p):
    """Whether the lowered size x size matrix M has one entry +-1 in each
    row and each column."""
    (R, C), V, D = M
    return (len(V) == size and bool(np.isin(V, (D, -D) if p is None else (1, p - 1)).all())
            and all(np.all(np.bincount(X, minlength=size) == 1) for X in (R, C)))


def conjugation_block(span, mats, action, what):
    """The coordinates in span of P M_s P^{-1}, for the four generators P of
    action and the lowered list mats ((S, R, C), integers, D) of the
    matrices M_s, a basis of span, as the lowered COO ((basis index, s),
    integers, D) of the block-diagonal matrix whose column s in block k
    they are for P = GEN_NAMES[k]: one int_fast.bilinear contraction of the
    list, copied at each offset, with the rows of the stacked P and the
    columns of the stacked P^{-1} (its transpose for a signed permutation,
    else the inverse_coo of each small generator), then one
    Subspace.coords_many.  ValueError naming `what` when one of them
    leaves span."""
    (S, R, C), V, D = mats
    f, n, m = action.field, action.dim, span.dim
    P = (pr, pc), pv, DP = action.stacked
    if _signed_permutation(P, 4 * n, f.p):        # P^{-1} is the transpose
        (qc, qr), qv, DQ = P
    else:
        inverses = GroupAction.from_coo(
            None, {g: inverse_coo(action.lowered(g), n, f.p) for g in GEN_NAMES}, n, f)
        (qr, qc), qv, DQ = inverses.stacked
    (R, C, S), V = tile((R, C, S), (n, n, m), V, 4)
    (i, l, s), sums, _path = bilinear(((R, C, S), V), ((pr, pc), pv), ((qc, qr), qv), f.p)
    ids, ks, V, D, outside = span.coords_many(s, i % n * n + l % n, sums, D * DP * DQ)
    if len(outside):
        raise ValueError("matrix is not in %s" % what)
    return (ids // m * m + ks, ids), V, D


def _images_in(span, action, X, what):
    """The coordinates in span of the images of the lowered vectors
    X = ((ids, index), integers, D), a basis of span, under the four
    generators of action, as the lowered COO ((basis index, id), integers,
    D) of the block-diagonal matrix whose column id in block k they are for
    the generator GEN_NAMES[k]: one int_fast.matvec of the stacked action
    with X copied at each offset and one Subspace.coords_many.  ValueError
    naming `what` when an image leaves span."""
    n, m = action.dim, span.dim
    M, Vm, Dm = action.stacked
    (xi, xa), Vx, Dx = X
    (ids, rows), sums = matvec((M, Vm), tile((xi, xa), (m, n), Vx, 4), action.field.p)
    cid, ck, V, D, outside = span.coords_many(ids, rows % n, sums, Dm * Dx)
    if len(outside):
        raise ValueError("vector is not in %s" % what)
    return (cid // m * m + ck, cid), V, D


def _side_blocks(side, action, what):
    """The blocks of the four generators of action, an S4 action on one
    factor of T(C, J), on that factor's share (a tits.FactorSide): the
    conjugation_block of its derivation space and the _images_in of its
    basis, computed once per side and action and kept on the side.  what
    names the space and the span in a ValueError."""
    if action not in side.s4:
        side.s4[action] = (
            conjugation_block(side.space.span, side.space.lowered, action, what[0]),
            _images_in(side.span, action, rows_coo(side.basis, action.field), what[1]))
    return side.s4[action]


def _on_tits(T, der, c0, j0, djj, name):
    """The S4 action on T = der C + (C0 x J0) + d_{J,J} from the stacked
    block-diagonal maps of its four generators on each part: der on der C,
    the outer product of c0 and j0, joined on the generator, on C0 x J0
    and djj on d_{J,J}, placed by index offsets as the blocks of one
    GroupAction.from_blocks."""
    m, nc, nj, nd, off, n = (T.der_dim, len(T.c0_basis), len(T.j0_basis), T.djj_dim,
                             T.djj_offset, T.dim)
    (dr, dc), dv, dd = der
    (sr, sc), sv, sd = djj
    (ar, ac), av, Da = c0
    (br, bc), bv, Db = j0
    x, y = join(ar // nc, br // nj)

    def tensor(a, b):
        return m + a % nc * nj + b % nj
    blocks = [(dr // m, dr % m, dc % m, [dv], dd),
              (sr // nd, off + sr % nd, off + sc % nd, [sv], sd),
              (ar[x] // nc, tensor(ar[x], br[y]), tensor(ac[x], bc[y]), [av[x], bv[y]], Da * Db)]
    return GroupAction.from_blocks(T.algebra, blocks, n, T.algebra.field,
                                   name="S4 on T(%s,%s) %s" % (T.C.name, T.J.name, name))


def s4_on_tits_left(T, base_action=None):
    """S4 on T(C,J) through the left composition factor:
    psi(D + a x x + d) = psi D psi^{-1} + psi(a) x x + d.

    base_action defaults to the Cayley embedding (s4_on_cayley, built once
    per C); pass another action (for instance on the invariant quaternion
    subalgebra) to restrict.  All four generators are assembled at once
    from integers (_on_tits): their der C and C0 blocks from C's side, kept
    there per base action (_side_blocks), identities on J0 and d_{J,J}."""
    from .composition import s4_on_cayley
    C = T.C
    act = base_action if base_action is not None else s4_on_cayley(C)
    if (act.dim, act.field) != (C.dim, C.field):
        raise ValueError("the base action has dimension %d over %s but C has dimension %d "
                         "over %s" % (act.dim, act.field, C.dim, C.field))
    der, c0 = _side_blocks(T.sides[0], act, ("der C", "C0"))
    return _on_tits(T, der, c0, identity_coo(4 * len(T.j0_basis)), identity_coo(4 * T.djj_dim),
                    "left")


def s4_on_tits_right(T):
    """S4 on T(C,J) through the Jordan factor H3(C^):
    psi(D + a x x + d) = D + a x psi(x) + psi d psi^{-1}, assembled as in
    s4_on_tits_left, its d_{J,J} and J0 blocks from J's side under
    s4_on_h3 (built once per J)."""
    djj, j0 = _side_blocks(T.sides[1], s4_on_h3(T.J), ("d_{J,J}", "J0"))
    return _on_tits(T, identity_coo(4 * T.der_dim), identity_coo(4 * len(T.c0_basis)), j0, djj,
                    "right")
