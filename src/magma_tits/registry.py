"""Named constructors for the CLI and tests, with process-wide caching.

Composition algebras: cayley, quaternion, binarion, ground, quatq.
Jordan: h3:<comp>, jvtheta, d2, dt:<num>/<den>, kaplansky.
With involution: aj:<jordan>, tensor:<comp>:<comp>, ak.
Lie algebras: tits:<comp>:<jordan>, t62:<jordan>, glw, so:<dimU>, sl:<dimU>,
sp:<dimU>.

`_CACHE` is the only process-wide cache of the package, keyed by name and
field.  What is shared below it lives on the objects themselves, built
once per object (algebra.once_per_factor): on C, der C, its S4 action and
its share of every T(C, J) (tits.composition_side: C0, the C-side tables
and S4 blocks); on J, J0, d_{J,J}, the S4 action on H3(C^) and its share
(tits.jordan_side).  So every T(C, J) over the same C or J shares them.
A T(C, J) is never kept on C or J: only `_CACHE` holds one.

The theorems' default inputs come from here too (composition_for, h3_of,
tits_of, aj_of): when their arguments are objects this registry holds,
matched by identity against `_CACHE`, never by name, they get the
registry's C, Q, H3(C^), T(C, J) and A(J); otherwise these are built fresh
and `_CACHE` is left as it is.  So a fresh or corrupted algebra that
carries a registry algebra's name never gets that algebra's T, d_{J,J} or
A(J).
"""

from fractions import Fraction

from .exact import QQ
from . import composition, jordan, structurable
from .tits import tits as build_tits, tits62_variant
from .decompose import glw as build_glw, classical_examples


_CACHE = {}


def _field_key(field):
    return "QQ" if field.is_rational else "GF%d" % field.p


def _cached(name, field, builder):
    key = (name, _field_key(field))
    if key not in _CACHE:
        _CACHE[key] = builder()
    return _CACHE[key]


def _held(obj, prefix):
    """(name, field key) under which `_CACHE` holds obj itself, the prefix
    stripped, or None: an identity match, never a name match."""
    for (name, key), value in _CACHE.items():
        if value is obj and name.startswith(prefix):
            return name[len(prefix):], key
    return None


_COMPOSITIONS = {
    "cayley": composition.split_cayley,
    "quaternion": composition.split_quaternion,
    "binarion": composition.binarion,
    "ground": composition.ground,
    "quatq": composition.invariant_quaternion,
}
COMPOSITION_NAMES = tuple(_COMPOSITIONS)


def composition_by_name(name, field=QQ):
    if name not in _COMPOSITIONS:
        raise KeyError("unknown composition algebra %r" % name)
    return _cached("comp:" + name, field, lambda: _COMPOSITIONS[name](field))


def jordan_by_name(name, field=QQ):
    def build():
        if name.startswith("h3:"):
            return jordan.h3(composition_by_name(name[3:], field))
        if name == "jvtheta":
            return jordan.jordan_super_jvtheta(field)
        if name == "d2":
            return jordan.d2(field)
        if name.startswith("dt:"):
            return jordan.jordan_super_dt(Fraction(name[3:]), field)
        raise KeyError("unknown Jordan algebra %r" % name)

    return _cached("jordan:" + name, field, build)


def tits_by_name(comp_name, jordan_name, field=QQ):
    def build():
        C = composition_by_name(comp_name, field)
        J = jordan_by_name(jordan_name, field)
        return build_tits(C, J)

    return _cached("tits:%s:%s" % (comp_name, jordan_name), field, build)


def composition_for(name, J):
    """The composition algebra `name` over the field of the Jordan algebra
    J: the registry's when `_CACHE` holds J, else built fresh."""
    if _held(J, "jordan:") is None:
        return _COMPOSITIONS[name](J.field)
    return composition_by_name(name, J.field)


def h3_of(Chat):
    """H3(C^): the registry's when `_CACHE` holds the composition algebra
    C^, else built fresh."""
    held = _held(Chat, "comp:")
    if held is None:
        return jordan.h3(Chat)
    return jordan_by_name("h3:" + held[0], Chat.field)


def tits_of(C, J):
    """T(C, J): the registry's when `_CACHE` holds both C and J over one
    field, else built fresh (and not cached)."""
    c, j = _held(C, "comp:"), _held(J, "jordan:")
    if c is None or j is None or c[1] != j[1]:
        return build_tits(C, J)
    return tits_by_name(c[0], j[0], C.field)


def aj_of(J):
    """A(J): the registry's aj:<name> when `_CACHE` holds the Jordan
    algebra J, else built fresh (and not cached)."""
    held = _held(J, "jordan:")
    if held is None:
        return structurable.a_of_j(J)
    return involution_algebra_by_name("aj:" + held[0], J.field)


def involution_algebra_by_name(name, field=QQ):
    def build():
        if name.startswith("aj:"):
            return structurable.a_of_j(jordan_by_name(name[3:], field))
        if name == "ak":
            return structurable.a_of_cubic(jordan.kaplansky(field))
        if name.startswith("tensor:"):
            _, a, b = name.split(":")
            return structurable.tensor_product(composition_by_name(a, field),
                                               composition_by_name(b, field))
        raise KeyError("unknown algebra with involution %r" % name)

    return _cached("awi:" + name, field, build)


def lie_with_triple(name, field=QQ):
    """(SuperAlgebra, so3 triple or None) for the decomposer CLI."""
    def build():
        if name == "glw":
            return build_glw(field)
        if name.startswith("so:"):
            return classical_examples("orthogonal", int(name[3:]), field)
        if name.startswith("sl:"):
            return classical_examples("special", int(name[3:]), field)
        if name.startswith("sp:"):
            return classical_examples("symplectic", int(name[3:]), field)
        raise KeyError("unknown Lie algebra %r" % name)

    return _cached("lie:" + name, field, build)


def superalgebra_by_name(name, field=QQ):
    """The underlying SuperAlgebra of any registry name (for export)."""
    if name in COMPOSITION_NAMES:
        return composition_by_name(name, field).algebra
    if name.startswith(("h3:",)) or name in ("jvtheta", "d2") or name.startswith("dt:"):
        return jordan_by_name(name, field).algebra
    if name == "kaplansky":
        return _cached("kaplansky", field, lambda: jordan.kaplansky(field)).algebra
    if name.startswith(("aj:", "tensor:")) or name == "ak":
        return involution_algebra_by_name(name, field).algebra
    if name.startswith("tits:"):
        _, comp_name, rest = name.split(":", 2)
        return tits_by_name(comp_name, rest, field).algebra
    if name.startswith("t62:"):
        J = jordan_by_name(name[4:], field)
        Q = composition_by_name("quatq", field)
        return _cached(name, field, lambda: tits62_variant(Q, J)).algebra
    if name in ("glw",) or name.startswith(("so:", "sl:", "sp:")):
        return lie_with_triple(name, field)[0]
    raise KeyError("unknown algebra name %r" % name)
