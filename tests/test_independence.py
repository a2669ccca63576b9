"""Independence of the routes that check the coinvariant engine.

The tuple ``Element`` path, the genus-zero Arnold oracle, the series and the
kernel E2 reference reach the same numbers as the engine without its code,
so their agreement with it checks something.  Each row of ``ROUTES`` names
a route, the code objects it is made of (``module`` or
``module:qualified.name``) and the package names those objects may not
reference.  An AST walk collects every ``Name`` and ``Attribute`` in each
object, and a failure names the route, the object, the line and the name.
"""

import ast
from functools import cache
from pathlib import Path

import pytest

import conftorus

PACKAGE = Path(conftorus.__file__).resolve().parent
SIBLINGS = ("cli", "gcalg", "linalg", "oracle", "specseq")  # the modules beside series


@cache
def module_tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def public_defs(module):
    """The public classes and functions defined at the top of a module."""
    return tuple(
        node.name
        for node in module_tree(module).body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and not node.name.startswith("_")
    )


ROUTES = [
    (
        "tuple Element path",
        ("gcalg:differential", "gcalg:sn_act", "gcalg:symmetrize", "gcalg:multiply",
         "gcalg:normalize"),
        ("Layout", "BidegreeSpace", "Relabelling", "reduce_mask", "forest_form"),
    ),
    (
        "genus-zero Arnold oracle",
        ("oracle:ArnoldAlgebra", "oracle:arnold_conf_betti", "oracle:_Degree", "oracle:_bits"),
        ("gcalg", *public_defs("gcalg")),
    ),
    (
        "series",
        ("series",),
        ("conftorus", *SIBLINGS, *(name for m in SIBLINGS for name in public_defs(m))),
    ),
    (
        "kernel reference",
        ("specseq:SpectralEngine.invariants", "specseq:SpectralEngine.invariant_d_rank"),
        ("_eliminate", "_basis", "_bases", "_relations", "_block_relations",
         "coinvariants", "SignedUnionFind"),
    ),
]


def find(tree, qualname):
    """The class or function ``qualname`` (dotted through classes) in a
    parsed module; a ``KeyError`` when it is missing, so a stale row fails."""
    node = tree
    for part in qualname.split("."):
        defs = {
            child.name: child
            for child in node.body
            if isinstance(child, (ast.ClassDef, ast.FunctionDef))
        }
        if part not in defs:
            raise KeyError(f"no {qualname}")
        node = defs[part]
    return node


def violations(route, obj, node, forbidden):
    """One message per ``Name`` or ``Attribute`` under ``node`` that is
    in ``forbidden``, in line order."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        else:
            continue
        if name in forbidden:
            found.append((sub.lineno, name))
    return [f"{route}: {obj} line {line} names {name}" for line, name in sorted(found)]


def resolve(obj):
    module, _, qualname = obj.partition(":")
    tree = module_tree(module)
    return find(tree, qualname) if qualname else tree


@pytest.mark.parametrize("route, objects, forbidden", ROUTES, ids=[r[0] for r in ROUTES])
def test_route_names_nothing_it_must_not_lean_on(route, objects, forbidden):
    found = [
        msg for obj in objects for msg in violations(route, obj, resolve(obj), set(forbidden))
    ]
    assert found == []


def test_a_kernel_reference_that_reads_the_coinvariant_basis_is_named():
    """The negative control: a kernel reference that reads ``self._basis``
    fails with the route, the object, the line and the name."""
    source = (
        "class SpectralEngine:\n"
        "    def invariants(self, p, q):\n"
        "        space = self.space(p, q)\n"
        "        return {ab: self._basis(p, q, ab) for ab in space.block_keys}\n"
    )
    route, objects, forbidden = ROUTES[-1]
    obj = objects[0]
    node = find(ast.parse(source), obj.partition(":")[2])
    assert violations(route, obj, node, set(forbidden)) == [
        "kernel reference: specseq:SpectralEngine.invariants line 4 names _basis"
    ]

