"""Every public construction in src/ has a caller in the package.

A top-level def, class or constant (NAME = ...) of a module stays in the
package only if package code outside its own definition refers to it: as module.name from another
module, by `from .module import name`, or by its bare name elsewhere in its
own module. Code reached only from tests belongs in tests/ (the paper's proof
constructions are in tests/constructions.py).
"""

import ast
import re
from pathlib import Path

import xorq

PACKAGE = Path(xorq.__file__).parent

# Reserved for the constructive rounding of the unentangled side and of the
# entangled side: kept in tests/rounding.py until the package has a caller.
RESERVED = ("round_complex_to_real", "proportionality_isometries", "gsvd", "GsvdResult",
            "_complete_orthonormal_rows", "RANK_RTOL")


def _trees() -> dict:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def _references(trees: dict) -> set:
    """(module, name) for every reference that package code makes."""
    refs = set()
    for module, tree in trees.items():
        imported = {}  # local name -> package module, from `from . import m`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        imported[alias.asname or alias.name] = alias.name
                    else:
                        refs.add((node.module, alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in imported):
                refs.add((imported[node.value.id], node.attr))
        # A bare load in its own module counts outside the definition itself.
        for top in tree.body:
            defined = getattr(top, "name", None)
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                        and node.id != defined):
                    refs.add((module, node.id))
    return refs


def _public_definitions(trees: dict) -> set:
    return {
        (module, top.name)
        for module, tree in trees.items()
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_")
    }


def _public_constants(trees: dict) -> set:
    """(module, NAME) for every top-level assignment to an upper-case name."""
    return {
        (module, target.id)
        for module, tree in trees.items()
        for top in tree.body
        if isinstance(top, (ast.Assign, ast.AnnAssign))
        for target in (top.targets if isinstance(top, ast.Assign) else [top.target])
        if isinstance(target, ast.Name) and target.id.isupper() and not target.id.startswith("_")
    }


def test_every_public_definition_has_a_caller_in_the_package():
    trees = _trees()
    orphans = _public_definitions(trees) - _references(trees)
    assert not orphans, f"referenced from no package code: {sorted(orphans)}"


def test_every_public_constant_has_a_reader_in_the_package():
    trees = _trees()
    constants = _public_constants(trees)
    assert ("sdp", "DEFAULT_TOL") in constants and ("errors", "DENSE_AMPLITUDE_CAP") in constants
    orphans = constants - _references(trees)
    assert not orphans, f"read by no package code: {sorted(orphans)}"


def test_the_reserved_names_still_exist():
    import rounding

    source = "\n".join(p.read_text() for p in PACKAGE.glob("*.py"))
    for name in RESERVED:
        assert not re.search(rf"\b{name}\b", source), f"{name} is back in src/"
        assert hasattr(rounding, name), name
