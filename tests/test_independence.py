"""Independence of the routes that check one another.

The tuple ``Element`` path, the genus-zero Arnold oracle, the series and the
kernel E2 reference reach the same numbers as the coinvariant engine without
its code, and the matching engine, which serves ``e3_dims``, reaches them
without the coinvariant engine's elimination, its bit-by-bit relabelling or
the series, while the coinvariant engine, its oracle, uses none of the
matching engine's relabel, words or representatives, so their agreement
checks something.  The d∘d sweep asks d only of ``Layout``'s public
``differential_list``, one list per key, and builds the other side of each
comparison with ``merge``, so it shares no table with the d it checks.
Each row of ``ROUTES`` names a route, the code objects it is
made of (``module`` or ``module:qualified.name``) and
the package names those objects may not reference.  An AST walk collects
every ``Name`` and ``Attribute`` in each object and in every module-level
class or function of its module that it names, transitively, and a failure
names the route, the object, the line and the name.
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


def imported_from(module, source):
    """The names a module binds with ``from .source import ...``."""
    return tuple(
        alias.asname or alias.name
        for node in module_tree(module).body
        if isinstance(node, ast.ImportFrom) and node.module == source
        for alias in node.names
    )


ROUTES = [
    (
        "tuple Element path",
        ("gcalg:differential", "gcalg:sn_act", "gcalg:symmetrize", "gcalg:multiply",
         "gcalg:normalize"),
        ("Layout", "BidegreeSpace", "reduce_mask", "forest_form"),
    ),
    (
        "genus-zero Arnold oracle",
        ("oracle:ArnoldAlgebra", "oracle:arnold_conf_betti"),
        ("gcalg", *public_defs("gcalg"), *imported_from("oracle", "gcalg")),
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
    (
        "matching engine",
        ("specseq:MatchingEngine", "specseq:matching_words"),
        ("_eliminate", "_basis", "_relations", "coinvariants", "SignedUnionFind",
         "apply_perm", "perm_table", "increasing_forests", "conf_series_betti",
         "conf_series_hodge", "decode_betti", "decode_hodge", "vakil_wood_conf"),
    ),
    (
        "coinvariant oracle",
        ("specseq:SpectralEngine._eliminate", "specseq:SpectralEngine.d_rank"),
        ("relabel", "MatchingEngine", "matching_words", "onto_rep"),
    ),
    (
        "dd sweep",
        ("oracle:_dd_counterexample",),
        ("_d_terms", "_gy", "_x_rows", "_d_lists", "_d_last", "differential_mask"),
    ),
    (
        "engine argument check",
        ("linalg:check_int",),
        ("conftorus", "series", *SIBLINGS,
         *(name for m in ("series", *SIBLINGS) for name in public_defs(m))),
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


def reach(module, tree, qualname):
    """``(module:name, node)`` for the object ``qualname`` of the parsed
    ``module`` and for every module-level class or function it names,
    transitively, each once, in the order reached."""
    top = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    }
    todo, seen, out = [qualname], set(), []
    while todo:
        name = todo.pop(0)
        if name in seen:
            continue
        seen.add(name)
        node = find(tree, name)
        out.append((f"{module}:{name}", node))
        todo += [sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name) and sub.id in top]
    return out


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


def route_violations(route, objects, forbidden, tree=None):
    """The messages of every object a row reaches: a whole module is
    walked as it is, named objects with the helpers they reach.  ``tree``
    stands in for the parsed module of the row's objects."""
    found = []
    for obj in objects:
        module, _, qualname = obj.partition(":")
        parsed = tree or module_tree(module)
        reached = reach(module, parsed, qualname) if qualname else [(obj, parsed)]
        for name, node in reached:
            found += violations(route, name, node, set(forbidden))
    return found


@pytest.mark.parametrize("route, objects, forbidden", ROUTES, ids=[r[0] for r in ROUTES])
def test_route_names_nothing_it_must_not_lean_on(route, objects, forbidden):
    assert route_violations(route, objects, forbidden) == []


def test_the_arnold_row_reaches_its_helpers():
    """The genus-zero row lists two objects and reaches the helpers they
    name, and oracle imports the engine's classes from gcalg, so the
    row's forbidden names are not vacuous."""
    objects = ROUTES[1][1]
    reached = {
        name
        for obj in objects
        for name, _ in reach("oracle", module_tree("oracle"), obj.partition(":")[2])
    }
    assert {"oracle:_Degree", "oracle:_bits"} <= reached
    assert {"Layout", "BidegreeSpace", "normalize"} <= set(imported_from("oracle", "gcalg"))


def test_a_kernel_reference_that_reads_the_coinvariant_basis_is_named():
    """The negative control: a kernel reference that reads ``self._basis``
    fails with the route, the object, the line and the name."""
    source = (
        "class SpectralEngine:\n"
        "    def invariants(self, p, q):\n"
        "        space = self.space(p, q)\n"
        "        return {ab: self._basis(p, q, ab) for ab in space.block_keys}\n"
    )
    route, objects, forbidden = ROUTES[3]
    assert route_violations(route, objects[:1], forbidden, ast.parse(source)) == [
        "kernel reference: specseq:SpectralEngine.invariants line 4 names _basis"
    ]


def test_a_helper_of_the_arnold_oracle_that_names_layout_is_named():
    """The negative control for the transitive walk: a helper that the
    row does not list, named by ``ArnoldAlgebra``, names ``Layout``, and the
    failure names the helper and its line."""
    source = (
        "def _bits(mask):\n"
        "    return Layout(mask)\n"
        "\n"
        "class ArnoldAlgebra:\n"
        "    def __init__(self, n):\n"
        "        self.bits = _bits(n)\n"
    )
    route, objects, forbidden = ROUTES[1]
    assert route_violations(route, objects[:1], forbidden, ast.parse(source)) == [
        "genus-zero Arnold oracle: oracle:_bits line 2 names Layout"
    ]


def test_a_matching_engine_that_decodes_the_series_is_named():
    """The negative control for the matching row: a report that reads its
    Betti numbers off the series fails, through the helper it calls."""
    source = (
        "def _betti(n):\n"
        "    return series_mod.decode_betti(series_mod.conf_series_betti(n)[n], n)\n"
        "\n"
        "class MatchingEngine:\n"
        "    def report(self):\n"
        "        return _betti(self.n)\n"
    )
    route, objects, forbidden = ROUTES[4]
    assert route_violations(route, objects[:1], forbidden, ast.parse(source)) == [
        "matching engine: specseq:_betti line 2 names conf_series_betti",
        "matching engine: specseq:_betti line 2 names decode_betti",
    ]


def test_a_coinvariant_oracle_that_relabels_like_the_matching_engine_is_named():
    """The negative control for the oracle row: an ``_eliminate`` that
    takes sigma . m from the matching engine's sparse ``Layout.relabel``
    would share its sign faults, and fails with its line."""
    source = (
        "class SpectralEngine:\n"
        "    def _eliminate(self, p, q, ab):\n"
        "        for sigma in self.generators:\n"
        "            for mask in self.space(p, q).block(ab):\n"
        "                s, img = self.layout.relabel(sigma, mask)\n"
    )
    route, objects, forbidden = ROUTES[5]
    assert route_violations(route, objects[:1], forbidden, ast.parse(source)) == [
        "coinvariant oracle: specseq:SpectralEngine._eliminate line 5 names relabel"
    ]


def test_a_dd_sweep_block_that_reads_the_layout_tables_is_named():
    """The negative control for the sweep row: a block builder that takes
    its terms from ``Layout``'s private d-table fails, through the sweep
    that calls it, with its line."""
    source = (
        "def _d_block(lay, key, cols):\n"
        "    return [lay._d_terms[key & -key]]\n"
        "\n"
        "def _dd_counterexample(lay):\n"
        "    return _d_block(lay, 1, {})\n"
    )
    route, objects, forbidden = ROUTES[6]
    assert route_violations(route, objects[:1], forbidden, ast.parse(source)) == [
        "dd sweep: oracle:_d_block line 2 names _d_terms"
    ]
