"""Every name a vermatools module imports is used in that module, every
private definition has a reader, every public one is named somewhere
outside its own definition, no module leans on the private API
of ``fractions.Fraction``, and the command line loads nothing from
outside the standard library."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
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


def read_names(tree) -> set:
    """Identifiers a syntax tree reads: names, attributes, imported names,
    and string constants that are one identifier (a lookup by name, as
    ``bench/tracing.py`` makes when it wraps a function)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names.add(node.value)
    return names


def _is_private_definition(node) -> bool:
    return (isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__"))


def unread_private_definitions(modules: dict, readers: list) -> list:
    """(module, name) of each module-level private def or class in modules
    (name -> source), and of each private method ("Class._method") of a
    module-level class, that neither a source in readers nor another
    top-level statement of modules reads; for a method, the other
    statements of its class body count as readers too."""
    read = set().union(*(read_names(ast.parse(source)) for source in readers))
    statements = [(module, stmt, read_names(stmt))
                  for module, source in modules.items() for stmt in ast.parse(source).body]

    def unread(node, scope) -> bool:
        return (_is_private_definition(node) and node.name not in read
                and not any(node.name in names for _, other, names in scope if other is not node))

    found = []
    for module, stmt, _ in statements:
        if unread(stmt, statements):
            found.append((module, stmt.name))
        if isinstance(stmt, ast.ClassDef):
            members = [(module, member, read_names(member)) for member in stmt.body]
            scope = [s for s in statements if s[1] is not stmt] + members
            found += [(module, f"{stmt.name}.{member.name}")
                      for _, member, _ in members if unread(member, scope)]
    return found


def test_every_private_definition_has_a_reader():
    """bench/ counts as a reader: its tracer wraps private solver names."""
    root = SRC.parents[1]
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    readers = [p.read_text() for d in ("tests", "bench") for p in sorted((root / d).rglob("*.py"))]
    assert unread_private_definitions(modules, readers) == []


def test_unread_private_definition_is_found():
    modules = {"a.py": "def _used():\n    pass\n\n"
                       "def _recursive(n):\n    return _recursive(n - 1)\n\n"
                       "class _Orphan:\n    pass\n\n"
                       "def public():\n    return _used()\n\n"
                       "def _by_name():\n    pass\n",
               "b.py": "def _elsewhere():\n    pass\n"}
    readers = ["import a\ngetattr(a, '_by_name')\n# _elsewhere\n"]
    assert unread_private_definitions(modules, readers) == [
        ("a.py", "_recursive"), ("a.py", "_Orphan"), ("b.py", "_elsewhere")]


def test_unread_private_method_is_found():
    modules = {"a.py": "class Public:\n"
                       "    def run(self):\n        return self._by_sibling()\n\n"
                       "    def _by_sibling(self):\n        pass\n\n"
                       "    def _orphan(self):\n        pass\n\n"
                       "    def _recursive(self):\n        return self._recursive()\n\n"
                       "    def _by_module(self):\n        pass\n\n"
                       "    def _by_reader(self):\n        pass\n\n"
                       "    def __len__(self):\n        return 0\n\n"
                       "def public(x):\n    return x._by_module()\n",
               "b.py": "class _Hidden:\n    def _orphan(self):\n        pass\n"}
    readers = ["a.Public()._by_reader()\n"]
    assert unread_private_definitions(modules, readers) == [
        ("a.py", "Public._orphan"), ("a.py", "Public._recursive"),
        ("b.py", "_Hidden"), ("b.py", "_Hidden._orphan")]


def _public_definitions(tree) -> list:
    """(line, name) of each public module-level def or class, and of each
    public method ("Class.method") of a module-level class."""
    found = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
            found.append((stmt.lineno, stmt.name))
        if isinstance(stmt, ast.ClassDef):
            found += [(m.lineno, f"{stmt.name}.{m.name}") for m in stmt.body
                      if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return found


def unread_public_definitions(modules: dict, texts: list) -> list:
    """(module, name) of each public definition in modules (name -> source)
    whose name appears, as a whole word, nowhere in modules or texts
    except on its own def or class line."""
    words = Counter(re.findall(r"\w+", "\n".join([*modules.values(), *texts])))
    found = []
    for module, source in modules.items():
        lines = source.splitlines()
        for line, name in _public_definitions(ast.parse(source)):
            word = name.rpartition(".")[2]
            if words[word] == len(re.findall(rf"\b{word}\b", lines[line - 1])):
                found.append((module, name))
    return found


def test_every_public_definition_has_a_reader():
    root = SRC.parents[1]
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    texts = [p.read_text() for d in ("tests", "bench") for p in sorted((root / d).rglob("*.py"))]
    texts.append((root / "README.md").read_text())
    assert unread_public_definitions(modules, texts) == []


def test_unread_public_definition_is_found():
    modules = {"a.py": "class Public:\n"
                       "    def run(self):\n        return self.helper()\n\n"
                       "    def helper(self):\n        pass\n\n"
                       "    def orphan(self):\n        pass\n\n"
                       "    def recursive(self):\n        return self.recursive()\n\n"
                       "    def __len__(self):\n        return 0\n\n"
                       "def lonely(x):\n    return x\n\n"
                       "def documented():\n    pass\n",
               "b.py": "class Orphaned:\n    def _private(self):\n        pass\n"}
    texts = ["a.Public().run()\n", "Call `documented()`; lonelyhearts is another word.\n"]
    assert unread_public_definitions(modules, texts) == [
        ("a.py", "Public.orphan"), ("a.py", "lonely"), ("b.py", "Orphaned")]


def unread_parameters(source: str) -> list:
    """(line, function, parameter) of each parameter that its function
    never reads; self, cls, names starting with an underscore, and
    *args / **kwargs are exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            read = {n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [(node.lineno, getattr(node, "name", "<lambda>"), a.arg)
                      for a in args.posonlyargs + args.args + args.kwonlyargs
                      if a.arg not in read and a.arg not in ("self", "cls")
                      and not a.arg.startswith("_")]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def test_unread_parameter_is_found():
    source = ("def f(a, b, *args, c, _d, **kwargs):\n    return a\n\n"
              "class K:\n    def m(self, x, /, y):\n        y = x\n\n"
              "    @classmethod\n    def k(cls, z):\n        def inner():\n"
              "            return z\n        return inner\n\n"
              "g = lambda u, v: u\n")
    assert unread_parameters(source) == [
        (1, "f", "b"), (1, "f", "c"), (5, "m", "y"), (14, "<lambda>", "v")]


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


# The set-up that bench/setup_probe.py times: import the command line and
# build the parser of every command; prints each module this loads.
_SETUP = """
import sys
before = set(sys.modules)
from vermatools import cli
cli._build_parser()
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def outside_stdlib(modules) -> list:
    """The modules that are neither vermatools nor part of the standard library."""
    return [m for m in modules
            if m.split(".")[0] != "vermatools" and m.split(".")[0] not in sys.stdlib_module_names]


def test_command_line_setup_loads_only_the_standard_library():
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    loaded = subprocess.run([sys.executable, "-c", _SETUP], env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, check=True).stdout.split()
    assert "vermatools.cli" in loaded
    assert outside_stdlib(loaded) == []


def test_module_outside_stdlib_is_found():
    assert outside_stdlib(["json.decoder", "vermatools.cli", "sympy.core", "vermatoolsx"]) == [
        "sympy.core", "vermatoolsx"]
