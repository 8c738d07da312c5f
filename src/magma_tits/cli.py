"""Command line front end.

Subcommands: magic-square, verify, export, coordinate-algebra, decompose,
tits.  Text output is aligned tables; --format json emits the machine
contract.  Exit code 0 iff there are no failing witnesses.  Sampled property
checks use a seeded generator (--seed, default 0).
"""

import argparse
import json
import os
import random
import sys
from fractions import Fraction

import numpy as np

from .exact import vec_eq
from .algebra import SuperAlgebra
from .int_fast import einsum, table_coo
from . import composition, structurable
from .tits import tits, verify_lie_conditions
from .s4 import coordinate_algebra, s4_on_tits_left, s4_on_tits_right, klein_grading
from .isomorphisms import IsomorphismError, theorem41, theorem61, ak_to_ajv
from .registry import (
    composition_by_name, jordan_by_name, tits_by_name, superalgebra_by_name,
    involution_algebra_by_name, lie_with_triple,
)
from .decompose import (
    decompose as run_decompose, extract_b1, round_trip_matches,
    synthesize_s4, check_invariant_maps, glw,
)

COMP_ORDER = ["ground", "binarion", "quaternion", "cayley"]


def _print_rows(rows, header=None):
    if header:
        rows = [header] + rows
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    for ri, r in enumerate(rows):
        print("  ".join(str(c).rjust(w) for c, w in zip(r, widths)))
        if header and ri == 0:
            print("  ".join("-" * w for w in widths))


def cmd_magic_square(args):
    results = []
    ok = True
    for left in COMP_ORDER:
        row = {"left": left, "entries": []}
        for right in COMP_ORDER:
            T = tits_by_name(left, "h3:" + right)
            entry = {"right": right, "dim": T.dim}
            if args.jacobi:
                rep = T.jacobi_report()
                entry["jacobi"] = rep.ok
                ok = ok and rep.ok
            row["entries"].append(entry)
        results.append(row)
    if args.format == "json":
        print(json.dumps({"ok": ok, "rows": results}, indent=2))
    else:
        header = ["T(C, H3(C^))"] + COMP_ORDER
        body = []
        for row in results:
            cells = [row["left"]]
            for e in row["entries"]:
                cell = str(e["dim"])
                if args.jacobi:
                    cell += "" if e["jacobi"] else "!"
                cells.append(cell)
            body.append(cells)
        _print_rows(body, header)
        if args.jacobi:
            print("jacobi: %s" % ("all pass" if ok else "FAILURES (marked !)"))
    return 0 if ok else 1


def _check(results, name, passed, witness=None, path=None):
    results.append({"check": name, "ok": bool(passed),
                    **({"witness": witness} if (witness and not passed) else {}),
                    **({"path": path} if path else {})})
    return bool(passed)


def suite_csplit(args):
    """Split Cayley fidelity: table, norm multiplicativity, degree-2
    identity, derivation identities, derivation-algebra dimensions."""
    results = []
    C = composition.split_cayley()
    alg = C.algebra
    sc = {k: dict(v) for k, v in alg.sc.items()}
    if args.corrupt:
        i, j = alg.index("u0"), alg.index("u1")
        sc[(i, j)] = {alg.index("v0"): Fraction(1)}   # should be v2
    cand = SuperAlgebra(alg.basis, sc, field=alg.field, name="csplit-candidate")
    bad_products = []
    for i in range(8):
        for j in range(8):
            want = alg.product_basis(i, j)
            got = cand.product_basis(i, j)
            if want != got:
                bad_products.append({"pair": [alg.basis[i], alg.basis[j]],
                                     "expected": {str(k): str(c) for k, c in want.items()},
                                     "got": {str(k): str(c) for k, c in got.items()}})
    _check(results, "table: 64 products match", not bad_products, bad_products[:3])
    rng = random.Random(args.seed)

    def rand_vec():
        return [Fraction(rng.randint(-4, 4)) for _ in range(8)]

    norm_ok = all(
        C.norm(cand.multiply(a, b)) == C.norm(a) * C.norm(b)
        for a, b in ((rand_vec(), rand_vec()) for _ in range(100)))
    _check(results, "norm multiplicativity on 100 seeded pairs", norm_ok)
    deg2_ok = True
    for _ in range(100):
        a = rand_vec()
        lhs = cand.multiply(a, a)
        rhs = [C.trace(a) * x - C.norm(a) * u for x, u in zip(a, C.unit)]
        deg2_ok = deg2_ok and vec_eq(lhs, rhs)
    _check(results, "degree-2 identity on the same sample", deg2_ok)

    # D[i, j, l, c] / den is the b_l coefficient of D_{b_i,b_j}(b_c), and
    # X[a, b, c] = D_{b_a b_b, b_c} over the common scale den * Dt
    D, den = composition.inner_derivation_tensor(C)
    skew_ok = not (D + D.transpose(1, 0, 2, 3)).any()
    (I, J, K), V, Dt = table_coo(alg.sc, alg.field)
    T = np.zeros((8, 8, 8), dtype=object)
    T[I, J, K] = V
    X, _path = einsum("abm,mclx->abclx", T, D)
    cyc_ok = not (X + X.transpose(1, 2, 0, 3, 4) + X.transpose(2, 0, 1, 3, 4)).any()
    _check(results, "D skew in its arguments", skew_ok)
    _check(results, "cyclic derivation identity on all triples", cyc_ok)
    derC = composition.derivation_algebra(C)
    _check(results, "dim der C = 14", derC.dim == 14)
    act = composition.s4_on_cayley(C)
    kg = klein_grading(act)
    # (1,0) component of der C under conjugation
    from .exact import Subspace, flatten_matrix
    e1me2 = [a - b for a, b in zip(alg.e("e1"), alg.e("e2"))]
    e2me1 = [-x for x in e1me2]
    four = [composition.inner_derivation(C, e1me2, alg.e("u0")).matrix,
            composition.inner_derivation(C, e2me1, alg.e("v0")).matrix,
            composition.inner_derivation(C, alg.e("u1"), alg.e("v2")).matrix,
            composition.inner_derivation(C, alg.e("v1"), alg.e("u2")).matrix]
    S = Subspace(64)
    for M in four:
        S.add(flatten_matrix(M))
    _check(results, "dim (der C)_(1,0) = 4", S.dim == 4)
    return results


def suite_tits(args):
    results = []
    C = composition_by_name("cayley")
    expected = {"ground": 52, "binarion": 78, "quaternion": 133, "cayley": 248}
    for right in COMP_ORDER:
        T = tits_by_name("cayley", "h3:" + right)
        _check(results, "dim T(cayley, h3:%s) = %d" % (right, expected[right]),
               T.dim == expected[right])
        rep = T.jacobi_report()
        _check(results, "super-Jacobi on %d-dim case" % expected[right], rep.ok,
               str(rep) if not rep.ok else None, path=rep.path)
    for jname in ("h3:ground", "h3:binarion", "h3:quaternion", "h3:cayley",
                  "jvtheta", "d2"):
        J = jordan_by_name(jname)
        T = tits_by_name("cayley", jname)
        rep = verify_lie_conditions(C, J, T=T, witnesses=False)
        _check(results, "Lie conditions for %s" % jname, rep.ok, path=rep.path)
    return results


def suite_thm41(args):
    results = []
    names = [args.jordan] if args.jordan else [
        "h3:ground", "h3:binarion", "h3:quaternion", "h3:cayley"]
    for jname in names:
        J = jordan_by_name(jname)
        try:
            theorem41(J, T=tits_by_name("cayley", jname))
            _check(results, "coordinate algebra of T(cayley,%s) = A(J)" % jname, True)
        except IsomorphismError as exc:
            _check(results, "coordinate algebra of T(cayley,%s) = A(J)" % jname,
                   False, str(exc))
    return results


def suite_thm61(args):
    results = []
    pairs = ([(args.left, args.right)] if args.left and args.right
             else [(a, b) for a in COMP_ORDER for b in COMP_ORDER])
    for a, b in pairs:
        try:
            theorem61(composition_by_name(a), composition_by_name(b),
                      T=tits_by_name(a, "h3:" + b))
            _check(results, "T(%s, h3:%s)_(1,0) = %s x %s" % (a, b, a, b), True)
        except IsomorphismError as exc:
            _check(results, "T(%s, h3:%s)_(1,0) = %s x %s" % (a, b, a, b), False, str(exc))
    return results


def suite_super(args):
    results = []
    Tg3 = tits_by_name("cayley", "jvtheta")
    _check(results, "dim T(cayley, jvtheta) = (17|14)",
           (Tg3.algebra.dim_even, Tg3.algebra.dim_odd) == (17, 14))
    rep = Tg3.jacobi_report()
    _check(results, "super-Jacobi G(3) case", rep.ok, path=rep.path)
    Tf4 = tits_by_name("cayley", "d2")
    _check(results, "dim T(cayley, d2) = (24|16)",
           (Tf4.algebra.dim_even, Tf4.algebra.dim_odd) == (24, 16))
    rep = Tf4.jacobi_report()
    _check(results, "super-Jacobi F(4) case", rep.ok, path=rep.path)
    for jname in ("jvtheta", "d2"):
        try:
            theorem41(jordan_by_name(jname), T=tits_by_name("cayley", jname))
            _check(results, "super coordinate algebra = A(%s)" % jname, True)
        except IsomorphismError as exc:
            _check(results, "super coordinate algebra = A(%s)" % jname, False, str(exc))
    try:
        ak_to_ajv()
        _check(results, "A(K) = A(J(V,theta))", True)
    except IsomorphismError as exc:
        _check(results, "A(K) = A(J(V,theta))", False, str(exc))
    for nm in ("aj:jvtheta", "aj:d2"):
        rep = structurable.check_structurable(involution_algebra_by_name(nm))
        _check(results, "structurable identity on %s" % nm, rep.ok,
               str(rep) if not rep.ok else None, path=rep.path)
    return results


def suite_thm71(args):
    results = []
    g, triple = lie_with_triple("glw")
    rep = run_decompose(g, triple)
    _check(results, "gl(W) multiplicities (1,1,1)",
           rep.ok and rep.multiplicities() == (1, 1, 1))
    g, triple = lie_with_triple("sp:0")
    rep = run_decompose(g, triple)
    _check(results, "sp6 multiplicities (1,3,3)",
           rep.ok and rep.multiplicities() == (1, 3, 3))
    _check(results, "invariant maps equivariant", check_invariant_maps() == [])
    T = tits_by_name("cayley", "h3:ground")
    act = s4_on_tits_left(T)
    from .isomorphisms import theorem41_basis
    ca = coordinate_algebra(T.algebra, act, basis=theorem41_basis(T))
    one = ca.ambient_vector(ca.unit)
    d0, d1 = one, act["phi"].apply(one)
    d2 = act["phi"].apply(d1)
    rep = run_decompose(T.algebra, [d0, d1, d2], name="f4")
    _check(results, "T(cayley,h3:ground) decomposes", rep.ok)
    ext = extract_b1(T.algebra, rep)
    _check(results, "extracted data valid", ext.data.validate())
    _check(results, "round trip reproduces the bracket",
           round_trip_matches(T.algebra, ext))
    act2 = synthesize_s4(T.algebra, rep, ext)
    try:
        act2.verify()
        _check(results, "synthesized action is by automorphisms", True)
    except ValueError as exc:
        _check(results, "synthesized action is by automorphisms", False, str(exc))
    kg = klein_grading(act2)
    ca2 = coordinate_algebra(T.algebra, act2, basis=kg.components[(1, 0)])
    _check(results, "synthesized coordinate algebra unital", ca2.is_unital)
    return results


SUITES = {
    "csplit": suite_csplit,
    "tits": suite_tits,
    "thm41": suite_thm41,
    "thm61": suite_thm61,
    "super": suite_super,
    "thm71": suite_thm71,
}


def cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    all_results = []
    for name in names:
        all_results.extend(SUITES[name](args))
    ok = all(r["ok"] for r in all_results)
    if args.format == "json":
        print(json.dumps({"ok": ok, "results": all_results}, indent=2))
    else:
        for r in all_results:
            print("%s  %s" % ("PASS" if r["ok"] else "FAIL", r["check"]))
            if not r["ok"] and "witness" in r:
                print("      witness: %s" % (r["witness"],))
        print("verify %s: %s" % (args.suite, "OK" if ok else "FAILED"))
        if not ok:
            print(json.dumps({"ok": False,
                              "failures": [r for r in all_results if not r["ok"]]},
                             indent=2))
    return 0 if ok else 1


def cmd_export(args):
    alg = superalgebra_by_name(args.name)
    payload = json.dumps(alg.to_json_dict(), indent=None, separators=(",", ":"))
    if args.path == "-":
        print(payload)
    else:
        with open(args.path, "w") as fh:
            fh.write(payload)
        print("wrote %s (%d basis elements)" % (args.path, alg.n))
    return 0


def cmd_coordinate_algebra(args):
    name = args.lie
    if not name.startswith("tits:"):
        raise SystemExit("coordinate-algebra expects a tits:<comp>:<jordan> name")
    _, comp_name, jname = name.split(":", 2)
    T = tits_by_name(comp_name, jname)
    if args.action == "left":
        act = s4_on_tits_left(T)
    else:
        act = s4_on_tits_right(T)
    kg = klein_grading(act)
    ca = coordinate_algebra(T.algebra, act, basis=kg.components[(1, 0)])
    out = {
        "lie": name,
        "action": args.action,
        "dim": ca.dim,
        "unital": ca.is_unital,
        "algebra": ca.awi.algebra.to_json_dict(),
        "embedding": [[_scaler(x) for x in ca.embedding.column(j)]
                      for j in range(ca.dim)],
    }
    print(json.dumps(out) if args.format == "json" else
          "coordinate algebra of %s (%s action): dim %d, unital %s"
          % (name, args.action, ca.dim, ca.is_unital))
    if args.format != "json":
        return 0
    return 0


def _scaler(x):
    return str(x)


def cmd_decompose(args):
    if args.lie.endswith(".json") or os.path.exists(args.lie):
        with open(args.lie) as fh:
            g = SuperAlgebra.from_json_dict(json.load(fh), name=args.lie)
        triple = None
    else:
        g, triple = lie_with_triple(args.lie)
    if args.triple:
        idx = [int(t) for t in args.triple.split(",")]
        triple = [g.e(i) for i in idx]
    if triple is None:
        raise SystemExit("a --triple i,j,k of basis indices is required for JSON input")
    rep = run_decompose(g, triple, name=args.lie)
    out = {
        "ok": rep.ok,
        "m_adjoint": rep.m_adjoint,
        "m_h": rep.m_h,
        "m_trivial": rep.m_trivial,
        "bases": {k: [[_scaler(x) for x in v] for v in vs]
                  for k, vs in rep.bases.items()},
    }
    if not rep.ok:
        out["residual_dim"] = rep.residual_dim
    print(json.dumps(out) if args.format == "json" else str(rep))
    return 0 if rep.ok else 1


def cmd_tits(args):
    T = tits_by_name(args.left, args.jordan)
    payload = json.dumps(T.algebra.to_json_dict(), separators=(",", ":"))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
        print("wrote %s: dim (%d|%d)" % (args.out, T.algebra.dim_even, T.algebra.dim_odd))
    else:
        print(payload)
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="magma-tits", description=__doc__)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for sampled property checks (default 0)")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("magic-square", help="dimensions (and Jacobi) of the 16 constructions")
    sp.add_argument("--no-jacobi", dest="jacobi", action="store_false")
    sp.set_defaults(func=cmd_magic_square)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", choices=tuple(SUITES) + ("all",))
    sp.add_argument("--jordan", help="restrict thm41 to one Jordan algebra")
    sp.add_argument("--left", help="left composition algebra for thm61")
    sp.add_argument("--right", help="right composition algebra for thm61")
    sp.add_argument("--corrupt", action="store_true",
                    help="negative-control fixture: corrupt the table first")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("export", help="canonical JSON of a named algebra")
    sp.add_argument("name")
    sp.add_argument("path", nargs="?", default="-")
    sp.set_defaults(func=cmd_export)

    sp = sub.add_parser("coordinate-algebra", help="the (1,0) coordinate algebra")
    sp.add_argument("--lie", required=True)
    sp.add_argument("--action", choices=("left", "right"), default="left")
    sp.set_defaults(func=cmd_coordinate_algebra)

    sp = sub.add_parser("decompose", help="isotypic decomposition under an so3 triple")
    sp.add_argument("--lie", required=True, help="registry name or JSON file")
    sp.add_argument("--triple", help="comma separated basis indices of d0,d1,d2")
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("tits", help="assemble and export T(C, J)")
    sp.add_argument("--left", required=True)
    sp.add_argument("--jordan", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_tits)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
