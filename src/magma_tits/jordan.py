"""Unital Jordan (super)algebras with normalized trace.

Provided constructions: the hermitian 3x3 algebras H3(C^) over a unital
composition algebra, the superalgebras J(V, theta) (one even unit, two odd
generators with uv = 1) and D_t (two even idempotents halving a two
dimensional odd part, xy = e1 + t e2), and the tiny Kaplansky superalgebra
as an admissible cubic algebra.

A normalized trace is linear with t(1) = 1 and t((xy)z) = t(x(yz)); it
splits J = k1 + J0 and powers the star product x*y = xy - t(xy)1, the inner
derivations d_{x,y} = [L_x, L_y] (graded commutator) and the cross product

    x X y = 2xy - 3t(x)y - 3t(y)x + (9t(x)t(y) - 3t(xy)) 1.
"""

from fractions import Fraction

from .exact import QQ, Matrix, Subspace, vec_zero, basis_vector, flatten_matrix
from .algebra import SuperAlgebra, LinearMap, EVEN, ODD, accumulate
from .int_fast import fold, join, table_coo


class JordanAlgebra:
    """Supercommutative unital algebra with a normalized trace functional."""

    def __init__(self, algebra, unit, trace_row, provenance="custom", source=None,
                 index_maps=None):
        self.algebra = algebra
        self.field = algebra.field
        self.unit = unit
        self.trace_row = trace_row          # row vector of t_J on the basis
        self.provenance = provenance
        self.source = source                # the coordinate composition algebra for h3
        self._index_maps = index_maps or {}
        self._j0 = None

    @property
    def name(self):
        return self.algebra.name

    @property
    def dim(self):
        return self.algebra.n

    def trace_of(self, x):
        return sum((c * xc for c, xc in zip(self.trace_row, x)),
                   start=self.field.zero)

    def multiply(self, x, y):
        return self.algebra.multiply(x, y)

    def j0_basis(self):
        """Deterministic basis of J0 = ker t_J (RREF order)."""
        if self._j0 is None:
            self._j0 = Matrix([self.trace_row], self.field).kernel_basis()
        return self._j0

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
        """d_{x,y} = L_x L_y - (-1)^{|x||y|} L_y L_x (graded commutator)."""
        Lx = self.algebra.left_mult_matrix(x)
        Ly = self.algebra.left_mult_matrix(y)
        px = self.algebra.parity_of_vector(x)
        py = self.algebra.parity_of_vector(y)
        if px is None or py is None:
            raise ValueError("inner_derivation needs parity-homogeneous arguments")
        M = Lx @ Ly
        N = Ly @ Lx
        if px and py:
            M = M + N
        else:
            M = M - N
        par = (px + py) % 2
        return LinearMap(self.algebra, self.algebra, M, parity=par)

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


def h3(Chat, name=None):
    """Hermitian 3x3 matrices over a unital composition algebra.

    Basis: e0, e1, e2 then iota_0, iota_1, iota_2 blocks (one per basis
    element of C^).  Products:

        e_i o e_j = delta_ij e_i,
        e_i o iota_i(x) = 0,
        e_{i+1} o iota_i(x) = e_{i+2} o iota_i(x) = 1/2 iota_i(x),
        iota_i(x) o iota_{i+1}(y) = 1/2 iota_{i+2}(conj(xy)),
        iota_i(x) o iota_i(y) = 1/2 t(x conj(y)) (e_{i+1} + e_{i+2}),

    normalized trace t(e_i) = 1/3, t(iota) = 0.
    """
    f = Chat.field
    d = Chat.dim
    n = 3 + 3 * d
    labels = ["E0", "E1", "E2"]
    for i in range(3):
        labels += ["i%d(%s)" % (i, b) for b in Chat.algebra.basis]
    e_idx = [0, 1, 2]
    iota_idx = [[3 + i * d + j for j in range(d)] for i in range(3)]
    half = f.of(1) / f.of(2)
    sc = {}

    for i in range(3):
        accumulate(sc, e_idx[i], e_idx[i], e_idx[i], f.one)
    # e_j o iota_i(x)
    for i in range(3):
        for j in range(d):
            col = iota_idx[i][j]
            for off in (1, 2):
                accumulate(sc, e_idx[(i + off) % 3], col, col, half)
                accumulate(sc, col, e_idx[(i + off) % 3], col, half)
    # iota_i o iota_i
    tbar = [[Chat.trace(Chat.product(basis_vector(d, a, f), Chat.conj(basis_vector(d, b, f))))
             for b in range(d)] for a in range(d)]
    for i in range(3):
        for a in range(d):
            for b in range(d):
                c = half * tbar[a][b]
                if c:
                    accumulate(sc, iota_idx[i][a], iota_idx[i][b], e_idx[(i + 1) % 3], c)
                    accumulate(sc, iota_idx[i][a], iota_idx[i][b], e_idx[(i + 2) % 3], c)
    # iota_i(x) o iota_{i+1}(y) = 1/2 iota_{i+2}(conj(x y)); commutative mirror
    for i in range(3):
        ip1, ip2 = (i + 1) % 3, (i + 2) % 3
        for a in range(d):
            for b in range(d):
                prod = Chat.conj(Chat.product(basis_vector(d, a, f), basis_vector(d, b, f)))
                for t, c in enumerate(prod):
                    if c:
                        k = iota_idx[ip2][t]
                        accumulate(sc, iota_idx[i][a], iota_idx[ip1][b], k, half * c)
                        accumulate(sc, iota_idx[ip1][b], iota_idx[i][a], k, half * c)
    alg = SuperAlgebra(labels, sc, field=f, name=name or ("H3(%s)" % Chat.name),
                       is_jordan_claimed=True)
    unit = vec_zero(n, f)
    for i in range(3):
        unit[e_idx[i]] = f.one
    third = f.of(1) / f.of(3)
    trace_row = [third if i < 3 else f.zero for i in range(n)]
    return JordanAlgebra(alg, unit, trace_row, provenance="h3", source=Chat,
                         index_maps={"e": e_idx, "iota": iota_idx})


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
    M = Matrix([unit] + _associator_rows(algebra), f)
    point = M.solve([f.one] + [f.zero] * (M.nrows - 1))
    if point is None:
        return None
    kernel = M.kernel_basis()
    if construction_filter and algebra.dim_odd and not kernel:
        if not _trace_tits_compatible(algebra, unit, point):
            return None
    return point, kernel


def _associator_rows(algebra):
    """The distinct nonzero rows (b_i b_j) b_k - b_i (b_j b_k), in (i, j, k)
    order: one contraction of the table with itself, like the super-Jacobi
    check.  (b_i b_j) b_k sums c^m_ij c^l_mk (the output index of one entry
    joined with the first input of another), b_i (b_j b_k) sums
    c^m_jk c^l_im (joined with the second input); both fold on the keys
    (i, j, k, l) over the common denominator D^2."""
    f, n = algebra.field, algebra.n
    (I, J, K), V, D = table_coo(algebra.sc, f)
    a, b = join(K, I)
    c, d = join(K, J)
    keys, sums, _path = fold(
        [(((I[a] * n + J[a]) * n + J[b]) * n + K[b], [V[a], V[b]]),
         (((I[d] * n + I[c]) * n + J[c]) * n + K[d], [V[c], V[d], -1])],
        None if f.is_rational else f.p)
    rows = {}
    for ijk, l, x in zip((keys // n).tolist(), (keys % n).tolist(), sums.tolist()):
        rows.setdefault(ijk, []).append((l, x))
    out = []
    for entries in dict.fromkeys(map(tuple, rows.values())):
        row = [0] * n
        for l, x in entries:
            row[l] = Fraction(x, D * D)
        out.append(row)
    return out


def _trace_tits_compatible(algebra, unit, trace_row):
    """Do the graded cyclic conditions of the Tits construction hold for
    this normalized trace, with the split Cayley algebra on the left?"""
    from .composition import split_cayley
    from .tits import tits, verify_lie_conditions
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
                       name="J(V,theta)", is_jordan_claimed=True)
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
                       field=field, name="D_%s" % t, is_jordan_claimed=True)
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
                       name="kaplansky", is_jordan_claimed=True)
    F = Matrix.zeros(3, 3, field)
    F[0, 0] = field.one
    F[1, 2] = field.of(2)
    F[2, 1] = field.of(-2)
    return CubicAdmissible(alg, F)


def check_supercommutative(algebra):
    """xy = (-1)^{|x||y|} yx on all basis pairs."""
    for i in range(algebra.n):
        for j in range(i, algebra.n):
            row = algebra.product_basis(i, j)
            rev = algebra.product_basis(j, i)
            sign = -1 if (algebra.parity[i] and algebra.parity[j]) else 1
            keys = set(row) | set(rev)
            for k in keys:
                a = row.get(k, algebra.field.zero)
                b = rev.get(k, algebra.field.zero)
                if (sign > 0 and a != b) or (sign < 0 and a != -b):
                    return False
    return True


def check_jordan_identity(J):
    """Linearized (super) Jordan identity on basis triples:

        sum_cyc (-1)^{|a||c|} [L_a, L_{b o c}] = 0

    with graded operator commutators; equivalent to (x^2 y) x = x^2 (y x)
    in characteristic not 2, 3.
    """
    alg = J.algebra
    n = alg.n
    L = [alg.left_mult_matrix(alg.e(i)) for i in range(n)]
    par = alg.parity

    def graded_comm(A, B, pa, pb):
        M = A @ B
        N = B @ A
        return (M + N) if (pa and pb) else (M - N)

    for a in range(n):
        for b in range(a, n):
            for c in range(b, n):
                total = Matrix.zeros(n, n, alg.field)
                for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
                    sign = -1 if (par[x] and par[z]) else 1
                    yz = alg.multiply(alg.e(y), alg.e(z))
                    Lyz = alg.left_mult_matrix(yz)
                    pyz = (par[y] + par[z]) % 2
                    term = graded_comm(L[x], Lyz, par[x], pyz)
                    total = (total + term) if sign > 0 else (total - term)
                if not total.is_zero():
                    return False
    return True


def h3_derivation_grading(J):
    """The Klein grading of der J = d_{J,J} for J = H3(C^):

        {d : d(e_i) = 0, i = 0,1,2}  +  sum_i d_{e_{i+1}-e_{i+2}, iota_i(C^)}.

    Returns (span of d_{J,J}, zero-part basis, [block subspaces]); the caller
    checks dim(der) = dim(zero part) + 3 dim(C^) and the containments.
    """
    alg = J.algebra
    f = J.field
    n = alg.n
    j0 = J.j0_basis()
    span = Subspace(n * n, f)
    for a in range(len(j0)):
        for b in range(a + 1, len(j0)):
            span.add(flatten_matrix(J.inner_derivation(j0[a], j0[b]).matrix))
    # {d : d(e_i) = 0}: inside the span, solve for combinations killing the e_i
    rows = []
    for vec in span.basis:
        M = Matrix([vec[i * n:(i + 1) * n] for i in range(n)], f)
        cols = []
        for i in range(3):
            cols.extend(M.apply(alg.e(J.e_index(i))))
        rows.append(cols)
    zero_part = Matrix(rows, f).T.kernel_basis() if span.dim else []
    blocks = []
    d = J.source.dim
    for i in range(3):
        Si = Subspace(n * n, f)
        ei = [x - y for x, y in zip(alg.e(J.e_index((i + 1) % 3)),
                                    alg.e(J.e_index((i + 2) % 3)))]
        for jj in range(d):
            x = J.iota(i, basis_vector(d, jj, f))
            Si.add(flatten_matrix(J.inner_derivation(ei, x).matrix))
        blocks.append(Si)
    return span, zero_part, blocks
