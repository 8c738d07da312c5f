"""Independent re-checks of the verdicts and witnesses the library reports.

Every witness is recomputed from the structure constants through
SuperAlgebra.multiply, never through the checker that reported it.  A
mismatch raises WrongVerdict and the benchmark exits nonzero.
"""


class WrongVerdict(Exception):
    """A verdict or witness disagrees with the expected outcome."""


def expect(cond, message):
    if not cond:
        raise WrongVerdict(message)


def _basis(n, i, field):
    v = [field.zero] * n
    v[i] = field.one
    return v


def _combine(terms):
    out = None
    for sign, vec in terms:
        out = [sign * c for c in vec] if out is None else [a + sign * c for a, c in zip(out, vec)]
    return out


def jacobiator(A, x, y, z, px, py, pz):
    """Graded jacobiator of homogeneous vectors of parities px, py, pz."""
    m = A.multiply
    return _combine([(-1 if px and pz else 1, m(m(x, y), z)),
                     (-1 if py and px else 1, m(m(y, z), x)),
                     (-1 if pz and py else 1, m(m(z, x), y))])


def basis_jacobiator(A, i, j, k):
    n, f, p = A.n, A.field, A.parity
    return jacobiator(A, _basis(n, i, f), _basis(n, j, f), _basis(n, k, f), p[i], p[j], p[k])


def check_jacobi_report(A, report, expect_ok):
    """A JacobiReport on A: its verdict and every witness it names."""
    expect(report.ok is expect_ok, "%s: super-Jacobi verdict %s, expected %s"
           % (A.name, report.ok, expect_ok))
    if expect_ok:
        return
    expect(report.failures or report.anticom_failures, "%s: failure without witness" % A.name)
    for i, j in report.anticom_failures:
        sign = -1 if (A.parity[i] and A.parity[j]) else 1
        x, y = _basis(A.n, i, A.field), _basis(A.n, j, A.field)
        both = _combine([(1, A.multiply(x, y)), (sign, A.multiply(y, x))])
        expect(any(both), "%s: pair (%d,%d) is super-anticommutative" % (A.name, i, j))
    for i, j, k, shown in report.failures:
        jac = basis_jacobiator(A, i, j, k)
        expect(any(jac), "%s: triple (%d,%d,%d) satisfies Jacobi" % (A.name, i, j, k))
        expect(A.format_vector(jac) == shown,
               "%s: triple (%d,%d,%d) jacobiator %s, reported %s"
               % (A.name, i, j, k, A.format_vector(jac), shown))


def check_lie_conditions_report(T, report, expect_ok):
    """Each witness (condition, a-triple, x-triple) must give a jacobiator of
    the three tensor basis elements that is nonzero in the condition's block:
    (i) d_{J,J}, (ii) der C, (iii) C0 x J0."""
    expect(report.ok is expect_ok, "%s: Lie-conditions verdict %s, expected %s"
           % (T.algebra.name, report.ok, expect_ok))
    if expect_ok:
        return
    expect(report.witnesses, "%s: failure without witness" % T.algebra.name)
    blocks = {"(ii)": range(0, T.der_dim),
              "(iii)": range(T.der_dim, T.djj_offset),
              "(i)": range(T.djj_offset, T.dim)}
    for which, at, xt in report.witnesses:
        idx = [T.tensor_index(a, x) for a, x in zip(at, xt)]
        jac = basis_jacobiator(T.algebra, *idx)
        expect(any(jac[k] for k in blocks[which]),
               "%s: witness %s %s %s has no %s component"
               % (T.algebra.name, which, at, xt, which))


def check_unit(A, unit):
    for i in range(A.n):
        e = _basis(A.n, i, A.field)
        expect(A.multiply(unit, e) == e and A.multiply(e, unit) == e,
               "%s: the unit fails on b_%d" % (A.name, i))


def structurable_defect(AI, unit, u, x, y):
    """First z-index where [T_u, V_{x,y}] z differs from
    V_{T_u x, y} z - V_{x, T_{sigma u} y} z, or None; even algebras only."""
    A, S = AI.algebra, AI.sigma
    n, f = A.n, A.field
    m = A.multiply

    def sig(v):
        return S.apply(v)

    def V(a, b, c):
        return _combine([(1, m(m(a, sig(b)), c)), (1, m(m(c, sig(b)), a)),
                         (-1, m(m(c, sig(a)), b))])

    def Tu(v, w):
        return V(w, unit, v)

    bu, bx, by = (_basis(n, i, f) for i in (u, x, y))
    Tux = Tu(bx, bu)
    Tsuy = Tu(by, sig(bu))
    for z in range(n):
        bz = _basis(n, z, f)
        lhs = _combine([(1, Tu(V(bx, by, bz), bu)), (-1, V(bx, by, Tu(bz, bu)))])
        rhs = _combine([(1, V(Tux, by, bz)), (-1, V(bx, Tsuy, bz))])
        if lhs != rhs:
            return z
    return None


def check_structurable_report(AI, unit, report, expect_ok):
    A = AI.algebra
    expect(report.ok is expect_ok, "%s: structurable verdict %s, expected %s"
           % (A.name, report.ok, expect_ok))
    if expect_ok:
        return
    expect(report.failures, "%s: failure without witness" % A.name)
    expect(not any(A.parity), "%s: witness oracle covers even algebras only" % A.name)
    check_unit(A, unit)
    for u, x, y in report.failures:
        expect(structurable_defect(AI, unit, u, x, y) is not None,
               "%s: witness (%d,%d,%d) satisfies the identity" % (A.name, u, x, y))


def check_homomorphism_failure(hom, error):
    """IsomorphismError naming a first failing pair (a, b): recompute
    M(b_a b_b) and M(b_a) M(b_b) by hand."""
    src, tgt, M = hom.source.algebra, hom.target.algebra, hom.matrix
    msg = str(error)
    marker = "not multiplicative, first failing pair ("
    expect(marker in msg, "%s: unexpected failure %r" % (hom.name, msg))
    a, b = msg.split(marker, 1)[1].rstrip(")").split(", ")
    i, j = src.index(a), src.index(b)

    def image(v):
        return [sum((row[c] * v[c] for c in range(len(v)) if v[c]), start=tgt.field.zero)
                for row in M.rows]

    ei, ej = _basis(src.n, i, src.field), _basis(src.n, j, src.field)
    lhs = image(src.multiply(ei, ej))
    rhs = tgt.multiply(image(ei), image(ej))
    expect(lhs != rhs, "%s: pair (%s, %s) is multiplicative" % (hom.name, a, b))


def check_decomposition_failure(g, triple, report):
    """The reported kernels of Omega + 2, Omega + 6 and Omega are recomputed
    through the bracket; together they must miss report.residual_dim > 0
    dimensions."""
    expect(not report.ok, "%s: decomposition verdict ok, expected failure" % g.name)
    m = g.multiply
    total = 0
    for shift, key in ((2, "adjoint"), (6, "h"), (0, "trivial")):
        for v in report.bases[key]:
            omega = _combine([(1, m(d, m(d, v))) for d in triple])
            expect(all(a + shift * b == 0 for a, b in zip(omega, v)),
                   "%s: vector outside the %s kernel" % (g.name, key))
        total += len(report.bases[key])
    expect(report.residual_dim > 0 and report.residual_dim == g.n - total,
           "%s: residual dimension %d, kernels leave %d"
           % (g.name, report.residual_dim, g.n - total))
