"""The Tits construction T(C, J) = der C + (C0 x J0) + d_{J,J}.

Bracket rules, for D in der C, d in d_{J,J}, a, b in C0, x, y in J0:

    [der C, der C], [d_{J,J}, d_{J,J}]: matrix (graded) commutators,
    [der C, d_{J,J}] = 0,
    [D, a x x] = D(a) x x,      [d, a x x] = a x d(x),
    [a x x, b x y] = t_J(xy) D_{a,b} + [a,b] x (x*y) + 2 t(ab) d_{x,y}.

Basis order: der C basis, then a_i x x_j in lexicographic (i, j), then the
d_{J,J} basis; d_{J,J} is spanned by d_{x_i, x_j} over J0 basis pairs fed in
lexicographic order (first independent subset kept).

The Lie conditions of the construction are the three components of the
graded Jacobiator of tensor-element triples; verify_lie_conditions checks
them exhaustively over (C0 basis)^3 x (J0 basis)^3.
"""

from dataclasses import dataclass, field as dataclass_field
from functools import cache
from itertools import chain, islice, product
from math import lcm

import numpy as np

from .exact import Subspace, vec_zero, flatten_matrix
from .algebra import SuperAlgebra, EVEN, accumulate
from .composition import derivation_algebra, inner_derivation
from .int_fast import einsum, lower


class DerivationSpace:
    """Span of the inner derivations d_{x_i, x_j} of J over a basis of J0."""

    def __init__(self, J, j0_basis):
        n = J.dim
        self.J = J
        self.span = Subspace(n * n, J.field)
        self.matrices = []
        self.generators = []
        self.parities = []
        m = len(j0_basis)
        for i in range(m):
            # the diagonal d_{x,x} = 2 L_x^2 survives for odd x
            for j in range(i, m):
                d = J.inner_derivation(j0_basis[i], j0_basis[j])
                if self.span.add(flatten_matrix(d.matrix)):
                    self.matrices.append(d.matrix)
                    self.generators.append((i, j))
                    self.parities.append(d.parity)

    @property
    def dim(self):
        return self.span.dim

    def coords_matrix(self, M, check=True):
        c = self.span.coords(flatten_matrix(M), check=check)
        if c is None:
            raise ValueError("matrix is not in d_{J,J}")
        return c


class TitsAlgebra:
    """T(C, J) with its component bookkeeping."""

    def __init__(self, algebra, C, J, derC, c0_basis, c0_span, j0_basis, j0_span, djj):
        self.algebra = algebra
        self.C = C
        self.J = J
        self.derC = derC
        self.c0_basis = c0_basis
        self.c0_span = c0_span
        self.j0_basis = j0_basis
        self.j0_span = j0_span
        self.djj = djj
        self._jacobi_report = None

    @property
    def der_dim(self):
        return self.derC.dim if self.derC is not None else 0

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

    def c0_coords(self, a):
        c = self.c0_span.coords(a)
        if c is None:
            raise ValueError("vector is not in C0")
        return c

    def j0_coords(self, x):
        c = self.j0_span.coords(x)
        if c is None:
            raise ValueError("vector is not in J0")
        return c

    def der_vector(self, a, b):
        """The element D_{a,b} of der C as a T-coordinate vector."""
        coords = self.derC.coords_pair(a, b)
        v = vec_zero(self.dim, self.algebra.field)
        for i, c in enumerate(coords):
            v[i] = c
        return v

    def tensor_vector(self, a, x):
        """The element a x x for a in C0, x in J0."""
        ca = self.c0_coords(a)
        cx = self.j0_coords(x)
        v = vec_zero(self.dim, self.algebra.field)
        for i, ci in enumerate(ca):
            if not ci:
                continue
            for j, cj in enumerate(cx):
                if cj:
                    v[self.tensor_index(i, j)] = ci * cj
        return v

    def djj_vector(self, x, y):
        """The element d_{x,y} of d_{J,J}."""
        d = self.J.inner_derivation(x, y)
        coords = self.djj.coords_matrix(d.matrix, check=False)
        v = vec_zero(self.dim, self.algebra.field)
        off = self.djj_offset
        for i, c in enumerate(coords):
            v[off + i] = c
        return v

    def jacobi_report(self):
        from .algebra import check_super_jacobi
        if self._jacobi_report is None:
            self._jacobi_report = check_super_jacobi(self.algebra)
        return self._jacobi_report

    def __repr__(self):
        return "TitsAlgebra(%s)" % self.algebra


@dataclass
class _Tables:
    """Precomputed coordinate tables for the tensor-part bracket."""
    DC: list          # DC[i][k] = coords of D_{a_i, a_k} in der C
    brC: list         # [a_i, a_k] in C0 coords
    trC: list         # t(a_i a_k)
    tJ: list          # t_J(x_j x_l)
    star: list        # x_j * x_l in J0 coords
    dxy: list         # d_{x_j, x_l} in d_{J,J} coords
    der_act: list     # der_act[r][i] = D_r(a_i) in C0 coords
    djj_act: list     # djj_act[s][j] = d_s(x_j) in J0 coords


def _build_tables(C, J, derC, c0_basis, c0_span, j0_basis, j0_span, djj):
    f = C.field
    nc, nj = len(c0_basis), len(j0_basis)

    def j0c(v):
        """Coordinates in J0 through the splitting J = k1 + J0.

        For well-formed inputs every image is already trace-free and the
        projection is the identity; for corrupted negative controls it keeps
        the assembly defined so the checkers can exhibit the failure.
        """
        c = j0_span.coords(v)
        if c is not None:
            return c
        t = J.trace_of(v)
        c = j0_span.coords([p - t * u for p, u in zip(v, J.unit)])
        if c is None:
            raise ValueError("vector cannot be split into k1 + J0")
        return c

    def c0c(v):
        c = c0_span.coords(v)
        if c is not None:
            return c
        t = C.trace(v) / f.of(2)
        c = c0_span.coords([p - t * u for p, u in zip(v, C.unit)])
        if c is None:
            raise ValueError("vector cannot be split into k1 + C0")
        return c

    DC = [[None] * nc for _ in range(nc)]
    brC = [[None] * nc for _ in range(nc)]
    trC = [[None] * nc for _ in range(nc)]
    for i in range(nc):
        for k in range(nc):
            a, b = c0_basis[i], c0_basis[k]
            DC[i][k] = derC.coords_pair(a, b) if derC is not None else []
            ab = C.product(a, b)
            ba = C.product(b, a)
            brC[i][k] = c0c([p - q for p, q in zip(ab, ba)])
            trC[i][k] = C.trace(ab)
    tJ = [[None] * nj for _ in range(nj)]
    star = [[None] * nj for _ in range(nj)]
    dxy = [[None] * nj for _ in range(nj)]
    for j in range(nj):
        for l in range(nj):
            x, y = j0_basis[j], j0_basis[l]
            xy = J.multiply(x, y)
            t = J.trace_of(xy)
            tJ[j][l] = t
            star[j][l] = j0c([p - t * u for p, u in zip(xy, J.unit)])
            dxy[j][l] = djj.coords_matrix(J.inner_derivation(x, y).matrix, check=False)
    der_act = []
    if derC is not None:
        for D in derC.matrices:
            der_act.append([c0c(D.apply(a)) for a in c0_basis])
    djj_act = [[j0c(M.apply(x)) for x in j0_basis] for M in djj.matrices]
    return _Tables(DC, brC, trC, tJ, star, dxy, der_act, djj_act)


def tits(C, J, name=None):
    """Assemble T(C, J); Lie-ness is checked separately, never assumed."""
    f = C.field
    if J.trace_row is None:
        raise ValueError("the Tits construction needs a normalized trace on J")
    derC = derivation_algebra(C) if C.dim > 1 else None
    c0_basis = C.traceless_basis()
    c0_span = Subspace.from_vectors(c0_basis, C.dim, f) if c0_basis else Subspace(C.dim, f)
    j0_basis = J.j0_basis()
    j0_span = Subspace.from_vectors(j0_basis, J.dim, f) if j0_basis else Subspace(J.dim, f)
    djj = DerivationSpace(J, j0_basis)
    tables = _build_tables(C, J, derC, c0_basis, c0_span, j0_basis, j0_span, djj)

    m = derC.dim if derC is not None else 0
    nc, nj = len(c0_basis), len(j0_basis)
    nd = djj.dim
    n = m + nc * nj + nd
    off = m + nc * nj

    labels = []
    parity = []
    if derC is not None:
        labels += list(derC.lie.basis)
        parity += [EVEN] * m
    j0_par = []
    for x in j0_basis:
        p = J.algebra.parity_of_vector(x)
        if p is None:
            raise ValueError("J0 basis vector of mixed parity")
        j0_par.append(p)
    c0_names = ["a%d" % i for i in range(nc)]
    for i in range(nc):
        for j in range(nj):
            labels.append("%s(x)x%d" % (c0_names[i], j))
            parity.append(j0_par[j])
    labels += ["d%d" % s for s in range(nd)]
    parity += list(djj.parities)

    def tidx(i, j):
        return m + i * nj + j

    sc = {}

    # der C x der C
    if derC is not None:
        for (r, s), row in derC.lie.sc.items():
            for k, c in row.items():
                accumulate(sc, r, s, k, c)
    # d_{J,J} x d_{J,J}: graded matrix commutators
    for s in range(nd):
        Ms, ps = djj.matrices[s], djj.parities[s]
        for t in range(nd):
            Mt, pt = djj.matrices[t], djj.parities[t]
            comm = Ms @ Mt
            if ps and pt:
                comm = comm + (Mt @ Ms)
            else:
                comm = comm - (Mt @ Ms)
            for k, c in enumerate(djj.coords_matrix(comm, check=False)):
                accumulate(sc, off + s, off + t, off + k, c)
    # der C acting on the tensor part
    for r in range(m):
        for i in range(nc):
            img = tables.der_act[r][i]
            for j in range(nj):
                for i2, c in enumerate(img):
                    if c:
                        accumulate(sc, r, tidx(i, j), tidx(i2, j), c)
                        accumulate(sc, tidx(i, j), r, tidx(i2, j), -c)
    # d_{J,J} acting on the tensor part
    for s in range(nd):
        ps = djj.parities[s]
        for j in range(nj):
            img = tables.djj_act[s][j]
            sgn = -1 if (ps and j0_par[j]) else 1
            for i in range(nc):
                for j2, c in enumerate(img):
                    if c:
                        accumulate(sc, off + s, tidx(i, j), tidx(i, j2), c)
                        accumulate(sc, tidx(i, j), off + s, tidx(i, j2), -c if sgn > 0 else c)
    # tensor x tensor
    two = f.of(2)
    for i in range(nc):
        for k in range(nc):
            DCik = tables.DC[i][k]
            brik = tables.brC[i][k]
            trik = tables.trC[i][k]
            for j in range(nj):
                for l in range(nj):
                    src, dst = tidx(i, j), tidx(k, l)
                    t = tables.tJ[j][l]
                    if t:
                        for r, c in enumerate(DCik):
                            accumulate(sc, src, dst, r, t * c)
                    stjl = tables.star[j][l]
                    for i2, cb in enumerate(brik):
                        if cb:
                            for j2, cs in enumerate(stjl):
                                if cs:
                                    accumulate(sc, src, dst, tidx(i2, j2), cb * cs)
                    if trik:
                        for s, cd in enumerate(tables.dxy[j][l]):
                            if cd:
                                accumulate(sc, src, dst, off + s, two * trik * cd)

    alg = SuperAlgebra(labels, sc, parity=parity, field=f,
                       name=name or ("T(%s,%s)" % (C.name, J.name)),
                       is_lie_claimed=True)
    T = TitsAlgebra(alg, C, J, derC, c0_basis, c0_span, j0_basis, j0_span, djj)
    T.tables = tables
    return T


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


_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _sigma(par, perm, j):
    """Koszul sign of the r-th cyclic Jacobi term for the x-triple j."""
    p = [par[j[perm[0]]], par[j[perm[1]]], par[j[perm[2]]]]
    return -1 if (p[0] and p[2]) else 1


def _side_sums(T):
    """The sums of _conditions_direct that depend on the a-triple alone or
    on the x-triple alone, each computed once per scan: lambda, mu,
    D_{a_p,a_q}(a_w), [[a_p,a_q],a_w], (x_a * x_b) * x_c, d_{x_a,x_b}(x_c)."""
    tb = T.tables
    f = T.algebra.field
    nc, nj = len(T.c0_basis), len(T.j0_basis)
    nd, m = T.djj_dim, T.der_dim

    def dot(terms):
        return sum(terms, start=f.zero)

    @cache
    def lam(p, q, w):
        return dot(tb.brC[p][q][mm] * tb.trC[mm][w] for mm in range(nc))

    @cache
    def mu(a, b, c):
        return dot(tb.star[a][b][mm] * tb.tJ[mm][c] for mm in range(nj))

    @cache
    def der_act(p, q, w):
        return [dot(tb.DC[p][q][r] * tb.der_act[r][w][mc] for r in range(m))
                for mc in range(nc)]

    @cache
    def brbr(p, q, w):
        return [dot(tb.brC[p][q][mm] * tb.brC[mm][w][mc] for mm in range(nc))
                for mc in range(nc)]

    @cache
    def starstar(a, b, c):
        return [dot(tb.star[a][b][mm] * tb.star[mm][c][mj] for mm in range(nj))
                for mj in range(nj)]

    @cache
    def djj_act(a, b, c):
        return [dot(tb.dxy[a][b][s] * tb.djj_act[s][c][mj] for s in range(nd))
                for mj in range(nj)]

    return lam, mu, der_act, brbr, starstar, djj_act


def _conditions_direct(T, a_triple, x_triple, par, sums):
    """Exact Jacobiator components (d_{J,J}, der C, tensor) of one triple
    pair; par is the J0 parity vector and sums is _side_sums(T)."""
    tb = T.tables
    f = T.algebra.field
    nc, nj = len(T.c0_basis), len(T.j0_basis)
    nd, m = T.djj_dim, T.der_dim
    lam_of, mu_of, der_act, brbr, starstar, djj_act = sums
    acc_d = [f.zero] * nd
    acc_D = [f.zero] * m
    acc_t = [[f.zero] * nj for _ in range(nc)]
    two = f.of(2)
    for perm in _CYCLIC:
        p, q, w = (a_triple[perm[0]], a_triple[perm[1]], a_triple[perm[2]])
        a, b, c = (x_triple[perm[0]], x_triple[perm[1]], x_triple[perm[2]])
        sg = f.of(_sigma(par, perm, x_triple))
        lam = lam_of(p, q, w)
        mu = mu_of(a, b, c)
        # d_{J,J} component: sigma * 2 lam * d_{x_a * x_b, x_c}
        if lam:
            for mm in range(nj):
                s = tb.star[a][b][mm]
                if s:
                    for t, cd in enumerate(tb.dxy[mm][c]):
                        acc_d[t] = acc_d[t] + sg * two * lam * s * cd
        # der C component: sigma * mu * D_{[a_p,a_q], a_w}
        if mu:
            for mm in range(nc):
                br = tb.brC[p][q][mm]
                if br:
                    for t, cD in enumerate(tb.DC[mm][w]):
                        acc_D[t] = acc_D[t] + sg * mu * br * cD
        # tensor component
        tjab = tb.tJ[a][b]
        if tjab and m:
            for mc, dv in enumerate(der_act(p, q, w)):
                if dv:
                    acc_t[mc][c] = acc_t[mc][c] + sg * tjab * dv
        for mc, brv in enumerate(brbr(p, q, w)):
            if brv:
                for mj, ssv in enumerate(starstar(a, b, c)):
                    if ssv:
                        acc_t[mc][mj] = acc_t[mc][mj] + sg * brv * ssv
        tr = tb.trC[p][q]
        if tr:
            for mj, dav in enumerate(djj_act(a, b, c)):
                if dav:
                    acc_t[w][mj] = acc_t[w][mj] + sg * two * tr * dav
    return acc_d, acc_D, acc_t


def _failing_triple_pairs(T):
    """(bad, a_triple, x_triple) for each triple pair, in scan order, whose
    Jacobiator breaks a condition; bad flags (i), (ii), (iii)."""
    nc, nj = len(T.c0_basis), len(T.j0_basis)
    par = [T.J.algebra.parity_of_vector(x) for x in T.j0_basis]
    sums = _side_sums(T)
    for at in product(range(nc), repeat=3):
        for xt in product(range(nj), repeat=3):
            d, D, t = _conditions_direct(T, at, xt, par, sums)
            bad = (any(d), any(D), any(any(row) for row in t))
            if any(bad):
                yield bad, at, xt


def _witness(bad, at, xt):
    return (("(i)", "(ii)", "(iii)")[bad.index(True)], at, xt)


def verify_lie_conditions_reference(C, J, T=None, max_witnesses=6):
    """Pure-field triple-pair scan of the three Lie conditions; the test
    oracle of verify_lie_conditions."""
    if T is None:
        T = tits(C, J)
    name = T.algebra.name
    if len(T.c0_basis) == 0 or len(T.j0_basis) == 0:
        return LieConditionsReport(True, name, True, True, True)
    ok = [True, True, True]
    witnesses = []
    for bad, at, xt in _failing_triple_pairs(T):
        ok = [o and not b for o, b in zip(ok, bad)]
        if len(witnesses) < max_witnesses:
            witnesses.append(_witness(bad, at, xt))
    return LieConditionsReport(all(ok), name, *ok, witnesses)


# OUT[j1,j2,j3] = A[j_{perm[0]}, j_{perm[1]}, j_{perm[2]}] needs the
# inverse permutation as the numpy transpose axes
_INV = ((0, 1, 2), (2, 0, 1), (1, 2, 0))


def _cycs(A):
    """A with its first three axes read in the three cyclic orders of
    _CYCLIC, stacked on a new first axis."""
    return np.stack([np.transpose(A, inv + tuple(range(3, A.ndim))) for inv in _INV])


def _row_basis(rows, f):
    """Integer rows (denominator-cleared over QQ, residues over GF(p))
    spanning the row space over f of the integer array `rows`."""
    k = rows.shape[1]
    S = Subspace(k, f)
    for row in set(map(tuple, rows.tolist())):
        S.add([f.of(v) for v in row])
        if S.dim == k:
            break
    if not S.basis:
        return np.zeros((0, k), dtype=np.int64)
    return np.stack([lower(v, f)[1] for v in S.basis])


def verify_lie_conditions(C, J, T=None, max_witnesses=6, witnesses=True):
    """Exhaustive exact check of the Lie conditions of the construction.

    The three conditions are the d_{J,J}, der C and C0 x J0 components of
    the graded Jacobiator of tensor-element triples (a1 x x1, ...), checked
    over all (C0 basis)^3 x (J0 basis)^3 with the Koszul signs of the
    graded cyclic Jacobi form.  Each component is a contraction of the
    tables of T (denominator-cleared integers over QQ, one scale per table;
    residues over GF(p)) by int_fast.einsum, which bounds every product and
    sum and takes Python ints past int64.  (ii) and (iii) factor into
    a-triple coefficients times x-triple objects and are tested on a basis
    of the coefficient row space over the field.  Witnesses are the first
    max_witnesses failing triple pairs of the exact scan; the report's path
    is "python-int" when any contraction passed int64.
    """
    if T is None:
        T = tits(C, J)
    name = T.algebra.name
    nc, nj = len(T.c0_basis), len(T.j0_basis)
    if nc == 0 or nj == 0:
        return LieConditionsReport(True, name, True, True, True)
    f = C.field
    p = None if f.is_rational else f.p
    tb = T.tables
    m, nd = T.der_dim, T.djj_dim
    paths = set()

    def ein(spec, *ops):
        out, path = einsum(spec, *ops, p=p)
        paths.add(path)
        return out

    def table(t, *shape):
        for _level in shape[1:]:
            t = list(chain.from_iterable(t))
        D, ints = lower(t, f)
        return ints.reshape(shape), D

    DC, dDC = table(tb.DC, nc, nc, m)
    brC, dbr = table(tb.brC, nc, nc, nc)
    trC, dtr = table(tb.trC, nc, nc)
    tJ, dtJ = table(tb.tJ, nj, nj)
    star, dst = table(tb.star, nj, nj, nj)
    dxy, ddxy = table(tb.dxy, nj, nj, nd)
    deract, dda = table(tb.der_act, m, nc, nc)
    djjact, ddj = table(tb.djj_act, nd, nj, nj)

    # sig[r][x-triple]: Koszul sign of the r-th cyclic term, -1 when its
    # first and last x are odd
    par = np.array([T.J.algebra.parity_of_vector(x) for x in T.j0_basis], dtype=bool)
    odd = np.broadcast_to(par[:, None, None] & par[None, None, :], (nj, nj, nj))
    sig = np.where(_cycs(odd), -1, 1)

    # (i): t([a1,a2]a3) is cyclic-invariant, so it factors out of the sum
    lam = ein("abm,mc->abc", brC, trC)
    cond1_ok = True
    if nd and np.any(lam != 0):
        d_of_star = ein("abm,mcD->abcD", star, dxy)
        cond1_ok = not np.any(ein("rabc,rabcD->abcD", sig, _cycs(d_of_star)) != 0)

    # (ii): pair the span of the sigma*mu scalars against the D objects
    cond2_ok = True
    if m:
        mu = ein("abm,mc->abc", star, tJ)
        smu = ein("rabc,rabc->abcr", sig, _cycs(mu))
        DD = ein("abm,mcD->abcD", brC, DC)
        W = _row_basis(smu.reshape(-1, 3), f)
        cond2_ok = not np.any(ein("br,rpqwD->bpqwD", W, _cycs(DD)) != 0)

    # (iii): nine (a-coefficient, x-object) columns, kind-major (D_{a,b}
    # acting, [[a,b],c], 2 t(ab) c) and cyclic order minor; bal rescales
    # each kind to the common denominator of all three
    scales = (dDC * dda * dtJ, dbr * dbr * dst * dst, dtr * ddxy * ddj)
    L = lcm(*scales)
    bal = np.array([L // s for s in scales for _r in range(3)], dtype=object)
    Dact = ein("pqr,rwm->pqwm", DC, deract)
    brbr = ein("pqm,mwr->pqwr", brC, brC)
    trI = ein("pq,wm->pqwm", trC, 2 * np.eye(nc, dtype=np.int64))
    coeffs = ein("kpqwm,k->pqwmk",
                 np.concatenate([_cycs(Dact), _cycs(brbr), _cycs(trI)]), bal)
    tJI = ein("ab,cm->abcm", tJ, np.eye(nj, dtype=np.int64))
    ss = ein("abm,mcr->abcr", star, star)
    dact = ein("abs,scr->abcr", dxy, djjact)
    G = ein("rabc,krabcm->krabcm", sig, np.stack([_cycs(tJI), _cycs(ss), _cycs(dact)]))
    W = _row_basis(coeffs.reshape(-1, 9), f)
    cond3_ok = not np.any(ein("bk,kx->bx", W, G.reshape(9, -1)) != 0)

    ok = cond1_ok and cond2_ok and cond3_ok
    found = []
    if not ok and witnesses:
        # the first witnesses of the exact triple-pair scan
        found = [_witness(*w) for w in islice(_failing_triple_pairs(T), max_witnesses)]
    return LieConditionsReport(ok, name, cond1_ok, cond2_ok, cond3_ok, found,
                               "python-int" if "python-int" in paths else "int64")


class Tits62Algebra:
    """(Q0 x J) + D with [a x x, b x y] = [a,b] x xy + 2 t(ab) d_{x,y}."""

    def __init__(self, algebra, Q, J, q0_basis, q0_span, D_space):
        self.algebra = algebra
        self.Q = Q
        self.J = J
        self.q0_basis = q0_basis
        self.q0_span = q0_span
        self.D_space = D_space

    def tensor_index(self, qi, ji):
        return qi * self.J.dim + ji

    @property
    def d_offset(self):
        return len(self.q0_basis) * self.J.dim


def tits62_variant(Q, J, D_matrices=None, D_parities=None, name=None):
    """The bracket of the quaternion-and-Jordan construction: on
    (Q0 x J) + D, with J any Jordan (super)algebra (no trace needed) and D a
    Lie algebra of derivations of J containing all inner derivations.

    With D omitted, D = d_{J,J} spanned by d_{x,y} over full J basis pairs.
    """
    f = Q.field
    if Q.dim != 4:
        raise ValueError("the left factor must be a quaternion algebra")
    q0_basis = Q.traceless_basis()
    q0_span = Subspace.from_vectors(q0_basis, Q.dim, f)
    nJ = J.dim
    alg = J.algebra
    # derivation space
    n2 = nJ * nJ
    span = Subspace(n2, f)
    mats, pars = [], []

    def feed(M, p):
        if span.add(flatten_matrix(M)):
            mats.append(M)
            pars.append(p)

    if D_matrices is None:
        for i in range(nJ):
            for j in range(i, nJ):
                d = J.inner_derivation(alg.e(i), alg.e(j))
                feed(d.matrix, d.parity)
    else:
        for M, p in zip(D_matrices, D_parities or [EVEN] * len(D_matrices)):
            feed(M, p)
        # D must contain the inner derivations
        for i in range(nJ):
            for j in range(i, nJ):
                d = J.inner_derivation(alg.e(i), alg.e(j))
                if span.coords(flatten_matrix(d.matrix)) is None:
                    raise ValueError("D does not contain the inner derivation d_{%d,%d}" % (i, j))
    nd = span.dim

    def dcoords(M):
        c = span.coords(flatten_matrix(M))
        if c is None:
            raise ValueError("D is not closed under the bracket")
        return c

    nq = len(q0_basis)
    n = nq * nJ + nd
    off = nq * nJ
    labels = ["q%d(x)%s" % (i, alg.basis[j]) for i in range(nq) for j in range(nJ)]
    labels += ["d%d" % s for s in range(nd)]
    parity = [alg.parity[j] for i in range(nq) for j in range(nJ)] + list(pars)

    def tidx(i, j):
        return i * nJ + j

    sc = {}

    two = f.of(2)
    # tensor x tensor
    br = [[q0_span.coords([x - y for x, y in zip(Q.product(a, b), Q.product(b, a))])
           for b in q0_basis] for a in q0_basis]
    tr = [[Q.trace(Q.product(a, b)) for b in q0_basis] for a in q0_basis]
    for i in range(nq):
        for k in range(nq):
            for j in range(nJ):
                for l in range(nJ):
                    src, dst = tidx(i, j), tidx(k, l)
                    prod = alg.product_basis(j, l)
                    for i2, cb in enumerate(br[i][k]):
                        if cb:
                            for j2, cp in prod.items():
                                accumulate(sc, src, dst, tidx(i2, j2), cb * cp)
                    if tr[i][k]:
                        d = J.inner_derivation(alg.e(j), alg.e(l))
                        for s, cd in enumerate(span.coords(flatten_matrix(d.matrix), check=False)):
                            if cd:
                                accumulate(sc, src, dst, off + s, two * tr[i][k] * cd)
    # D acting
    for s in range(nd):
        Ms, ps = mats[s], pars[s]
        act = [Ms.column(j) for j in range(nJ)]
        for i in range(nq):
            for j in range(nJ):
                sgn = -1 if (ps and alg.parity[j]) else 1
                for j2, c in enumerate(act[j]):
                    if c:
                        accumulate(sc, off + s, tidx(i, j), tidx(i, j2), c)
                        accumulate(sc, tidx(i, j), off + s, tidx(i, j2), -c if sgn > 0 else c)
        for t in range(nd):
            Mt, pt = mats[t], pars[t]
            comm = Ms @ Mt
            comm = comm + (Mt @ Ms) if (ps and pt) else comm - (Mt @ Ms)
            for k, c in enumerate(dcoords(comm)):
                accumulate(sc, off + s, off + t, off + k, c)

    out = SuperAlgebra(labels, sc, parity=parity, field=f,
                       name=name or ("T62(%s,%s)" % (Q.name, J.name)),
                       is_lie_claimed=True)
    T = Tits62Algebra(out, Q, J, q0_basis, q0_span, span)
    T.matrices = mats
    return T
