"""Import and lowering hygiene of the magma_tits modules, checked on their AST.

Every top-level import of a module is used in that module (__init__.py is
skipped: its imports are the package's re-exports).  No function imports a
sibling module except to break a real cycle.  No module outside algebra.py
lowers an algebra's table itself: SuperAlgebra.coo does that once.  Only
the two test oracles call the jacobiator: the checkers take their
witnesses from their own contractions.  No module outside algebra.py
brackets the matrices of a span of inner derivations itself: the bracket
of a DerivationSpace comes from the space.  No module calls einsum: every
exact contraction is an int_fast fold, under its one bound rule.  No loop
reads an algebra's .sc, which builds the table's view on each read.  No
module names fold_table, and only int_fast.py marks arrays read-only:
every table and map is canonicalized by int_fast.canonical alone.  No
module imports random: no verdict rests on a sample.  Only composition.py
and jordan.py lower a factor's unit, trace or polar form (coo, rows_coo or
vector_coo of a .unit, .trace_row or .norm_polar): every other module reads
the held unit_coo, trace_coo and conj_coo, and no module names
conj_matrix."""

import ast
from pathlib import Path

import pytest

import magma_tits

MODULES = sorted(p for p in Path(magma_tits.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the module-level imports of `source` that no
    expression of the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_detects_unused_import():
    src = "import os\nfrom math import gcd, lcm as l\nprint(gcd)\n"
    assert unused_imports(src) == [(1, "os"), (2, "l")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


# composition -> s4 is a cycle: this import breaks it
CYCLE_IMPORTS = {("s4.py", "composition")}


def local_package_imports(source):
    """(line, module) of every `from .module import ...` inside a function."""
    return sorted({(node.lineno, node.module)
                   for fn in ast.walk(ast.parse(source)) if isinstance(fn, ast.FunctionDef)
                   for node in ast.walk(fn) if isinstance(node, ast.ImportFrom) and node.level})


def sc_lowerings(source):
    """Lines that call table_coo (by name or as an attribute) on the .sc of
    some expression."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and node.args:
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            arg = node.args[0]
            if name == "table_coo" and isinstance(arg, ast.Attribute) and arg.attr == "sc":
                lines.append(node.lineno)
    return sorted(lines)


def matrices_brackets(source):
    """Lines that call commutator_table (by name or as an attribute) on the
    .matrices of some expression."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and node.args
                  and getattr(node.func, "id", getattr(node.func, "attr", None))
                  == "commutator_table"
                  and isinstance(node.args[0], ast.Attribute) and node.args[0].attr == "matrices")


def test_detects_local_imports_and_sc_lowerings():
    src = ("from .a import b\n"
           "def f(A):\n    from .exact import QQ\n    import os\n"
           "    return int_fast.table_coo(A.algebra.sc, QQ), table_coo(t, QQ)\n")
    assert local_package_imports(src) == [(3, "exact")]
    assert sc_lowerings(src) == [5]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_function_local_imports_only_break_cycles(path):
    assert [(line, mod) for line, mod in local_package_imports(path.read_text())
            if (path.name, mod) not in CYCLE_IMPORTS] == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "algebra.py"],
                         ids=lambda p: p.name)
def test_tables_are_lowered_only_by_superalgebra_coo(path):
    assert sc_lowerings(path.read_text()) == []


def test_detects_matrices_brackets():
    src = ("sc = commutator_table(djj.matrices, djj.span, check=False)\n"
           "sc2 = algebra.commutator_table(T.derC.matrices, span)\n"
           "sc3 = commutator_table(mats, span)\n")
    assert matrices_brackets(src) == [1, 2]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "algebra.py"],
                         ids=lambda p: p.name)
def test_spaces_bracket_their_own_matrices(path):
    assert matrices_brackets(path.read_text()) == []


# the oracles that may call algebra._jacobiator
JACOBIATOR_CALLERS = {"check_super_jacobi_reference", "verify_lie_conditions_reference"}


def jacobiator_calls(source):
    """(line, enclosing function) of every call to _jacobiator (by name or as
    an attribute) outside the functions of JACOBIATOR_CALLERS; the
    enclosing function is the outermost, None at module level."""
    tree = ast.parse(source)
    owner = {}
    for fn in tree.body:
        if isinstance(fn, (ast.FunctionDef, ast.ClassDef)):
            for node in ast.walk(fn):
                owner[node] = fn.name
    return sorted((node.lineno, owner.get(node)) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_jacobiator"
                  and owner.get(node) not in JACOBIATOR_CALLERS)


def test_detects_jacobiator_calls():
    src = ("x = _jacobiator(A, 0, 1, 2)\n"
           "def check_super_jacobi(A):\n    return algebra._jacobiator(A, 0, 0, 0)\n"
           "def check_super_jacobi_reference(A):\n    return _jacobiator(A, 0, 0, 0)\n")
    assert jacobiator_calls(src) == [(1, None), (3, "check_super_jacobi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_oracles_call_the_jacobiator(path):
    assert jacobiator_calls(path.read_text()) == []


def loop_sc_reads(source):
    """Lines that read a .sc attribute once per pass of a loop: in the body
    or condition of a for or while loop, or in the element, a condition or
    a later iterable of a comprehension.  The iterable of a for loop and the
    first iterable of a comprehension are read once and allowed."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            repeated = node.body
        elif isinstance(node, ast.While):
            repeated = [node.test, *node.body]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            gens = node.generators
            repeated = ([node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt])
            repeated += [g.iter for g in gens[1:]] + [c for g in gens for c in g.ifs]
        else:
            continue
        lines.update(n.lineno for part in repeated for n in ast.walk(part)
                     if isinstance(n, ast.Attribute) and n.attr == "sc")
    return sorted(lines)


def test_detects_loop_sc_reads():
    src = ("sc = A.sc\n"
           "for key, row in A.sc.items():\n    x = B.sc[key]\n"
           "while A.sc:\n    pass\n"
           "rows = [r for r in A.sc.values()]\n"
           "ks = [k for r in A.sc.values() for k in B.sc[r]]\n"
           "d = {i: A.sc.get(i) for i in range(3)}\n"
           "e = [i for i in range(3) if A.sc]\n"
           "f = [A.coo for i in range(3)]\n")
    assert loop_sc_reads(src) == [3, 4, 7, 8, 9]


@pytest.mark.parametrize("path", sorted(Path(magma_tits.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_loop_reads_sc(path):
    assert loop_sc_reads(path.read_text()) == []


def einsum_calls(source):
    """Lines that call einsum, by name or as an attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None)) == "einsum")


def test_detects_einsum_calls():
    src = ("X = np.einsum('abm,mc->abc', T, D)\n"
           "Y, path = einsum('ab,bc->ac', A, B)\n"
           "Z = int_fast.fold(terms)\n"
           "f = np.einsum\n")
    assert einsum_calls(src) == [1, 2]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_calls_einsum(path):
    assert einsum_calls(path.read_text()) == []


def names(source, name):
    """Lines that name `name`: as a variable, an attribute, an imported
    name or a definition."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if name in (getattr(node, "id", None), getattr(node, "attr", None),
                              getattr(node, "name", None))
                  and hasattr(node, "lineno"))


def read_only_marks(source):
    """Lines that call setflags or set the writeable flag of an array."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in ("setflags", "writeable"))


def test_detects_fold_table_and_read_only_marks():
    src = ("from .int_fast import fold_table\n"
           "cols, V, D = int_fast.fold_table(blocks, n)\n"
           "def fold_table(blocks):\n    V.setflags(write=False)\n"
           "T.flags.writeable = False\n"
           "x = canonical(blocks, (n, n), p)\n")
    assert names(src, "fold_table") == [1, 2, 3]
    assert read_only_marks(src) == [4, 5]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_names_fold_table(path):
    assert names(path.read_text(), "fold_table") == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "int_fast.py"],
                         ids=lambda p: p.name)
def test_only_int_fast_marks_arrays_read_only(path):
    assert read_only_marks(path.read_text()) == []


FACTOR_FORMS = {"unit", "trace_row", "norm_polar"}


def factor_form_lowerings(source):
    """Lines that call coo, rows_coo or vector_coo (by name or as an
    attribute) with an argument that reads a .unit, .trace_row or
    .norm_polar attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None))
                  in ("coo", "rows_coo", "vector_coo")
                  and any(isinstance(n, ast.Attribute) and n.attr in FACTOR_FORMS
                          for arg in node.args for n in ast.walk(arg)))


def test_detects_factor_form_lowerings_and_conj_matrix():
    src = ("u = rows_coo([J.unit], f)\n"
           "t = int_fast.coo([((i,), f.of(c)) for i, c in enumerate(J.trace_row) if c], f, 1)\n"
           "n = rows_coo(C.norm_polar.rows, f)\n"
           "v = vector_coo(C.unit, C.field)\n"
           "w = rows_coo(T.c0_basis, f)\n"
           "x = J.unit_coo\n"
           "y = coo([((i,), c) for i, c in enumerate(unit) if c], f, 1)\n"
           "cm = C.conj_matrix()\n")
    assert factor_form_lowerings(src) == [1, 2, 3, 4]
    assert names(src, "conj_matrix") == [8]


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name not in ("composition.py", "jordan.py")],
                         ids=lambda p: p.name)
def test_factors_lower_their_forms_once(path):
    assert factor_form_lowerings(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_names_conj_matrix(path):
    assert names(path.read_text(), "conj_matrix") == []


def imports_of(source, module):
    """Lines that import `module`, a submodule of it or a name from it."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Import)
                  and any(a.name.split(".")[0] == module for a in node.names)
                  or isinstance(node, ast.ImportFrom) and not node.level
                  and node.module.split(".")[0] == module)


def test_detects_imports_of_random():
    src = ("import random\nfrom random import Random\nimport os, random as r\n"
           "import randomness\nfrom numpy import random_sample\n")
    assert imports_of(src, "random") == [1, 2, 3]


@pytest.mark.parametrize("path", sorted(Path(magma_tits.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_random(path):
    assert imports_of(path.read_text(), "random") == []
