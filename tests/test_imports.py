"""Every name a vermatools module imports is used in that module, and no
module leans on the private API of ``fractions.Fraction``."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "vermatools"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [(1, "os"), (2, "b")]


def test_render_imports_only_liealg():
    """scalar, pbw and verma print through render, so render reads them
    through their attributes and imports none of them."""
    tree = ast.parse((SRC / "render.py").read_text())
    package = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert package == {"liealg"}


# Private names of Fraction differ between Python versions (the CI matrix
# runs several), so the names of this interpreter are joined by the ones
# other versions are known to have.
FRACTION_PRIVATE = ({n for n in dir(Fraction) if n.startswith("_") and not n.startswith("__")}
                    | {"_numerator", "_denominator", "_normalize", "_from_coprime_ints",
                       "_mul", "_add", "_sub", "_div", "_operator_fallbacks"})


def fraction_private_uses(source: str) -> list:
    """(line, name) of each attribute read, keyword or import from
    ``fractions`` that names a private part of Fraction."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in FRACTION_PRIVATE:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.keyword) and node.arg in FRACTION_PRIVATE:
            found.append((node.value.lineno, node.arg))
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            found += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_fraction_api(path):
    assert fraction_private_uses(path.read_text()) == []


def test_private_fraction_use_is_found():
    source = ("from fractions import Fraction, _gcd\n"
              "x = Fraction(1, 2, _normalize=False)\n"
              "y = x._numerator * Fraction._from_coprime_ints(1, 3)._denominator\n")
    assert fraction_private_uses(source) == [
        (1, "_gcd"), (2, "_normalize"), (3, "_denominator"),
        (3, "_from_coprime_ints"), (3, "_numerator")]
