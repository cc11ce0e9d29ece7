"""Every `$ vermatools ...` example of README.md prints exactly what the
README shows under it: its non-blank stdout and stderr lines, in order."""

import ast
import builtins
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import vermatools
from vermatools.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> list:
    """(argv, shown lines) for each command line in a README code block."""
    examples, in_block = [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_block, current = not in_block, None
        elif in_block and line.startswith("$ "):
            current = None
            if line.startswith("$ vermatools "):
                current = (shlex.split(line)[2:], [])
                examples.append(current)
        elif in_block and current is not None and line.strip():
            current[1].append(line)
    return examples


EXAMPLES = _examples()


def test_readme_has_its_examples():
    assert len(EXAMPLES) == 12


@pytest.mark.parametrize("argv,shown", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_example_output(capsys, argv, shown):
    main(list(argv))
    captured = capsys.readouterr()
    printed = [line for line in (captured.out + captured.err).splitlines() if line.strip()]
    assert printed == shown


def _library_block() -> list:
    """Lines of the one python block under the README's "Library" heading."""
    text = README.read_text().split("\n## Library\n", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0].splitlines()


def test_readme_library_example_prints_its_comments(capsys):
    """Each print(...) line prints its trailing comment, or, without one,
    the comment line that follows it."""
    lines = _library_block()
    shown = []
    for i, line in enumerate(lines):
        if line.startswith("print("):
            _, hash_, comment = line.partition("#")
            shown.append((comment if hash_ else lines[i + 1].lstrip("#")).strip())
    exec("\n".join(lines), {})
    assert len(shown) == 3
    assert capsys.readouterr().out.splitlines() == shown


def _module_references() -> list:
    """The backticked `module.name` and `vermatools.module.name` of README.md
    whose module is one of the package's, as (module, attribute chain)."""
    modules = {info.name for info in pkgutil.iter_modules(vermatools.__path__)}
    refs = set()
    for ref in re.findall(r"`([A-Za-z_][\w.]*)`", README.read_text()):
        module, *chain = ref.removeprefix("vermatools.").split(".")
        if module in modules and chain:
            refs.add((module, tuple(chain)))
    return sorted(refs)


def _resolves(module: str, chain: tuple) -> bool:
    obj = importlib.import_module(f"vermatools.{module}")
    for name in chain:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_readme_module_references_resolve():
    refs = _module_references()
    assert [".".join((m,) + c) for m, c in refs if not _resolves(m, c)] == []
    assert refs


# Backticked names in README.md that are not Python names of the package.
_NOT_PACKAGE_NAMES = {"I_n", "L_n", "W_n", "wall_s"}


def _package_definitions() -> set:
    """Every name src/vermatools defines: functions, classes, and the
    names and attributes it assigns."""
    names = set()
    for path in Path(vermatools.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
    return names


def test_readme_names_are_defined_in_the_package():
    """Every backticked bare name with an underscore, and the last name of
    every backticked call, is defined somewhere in the package."""
    text = README.read_text()
    bare = {n for n in re.findall(r"`([A-Za-z_]\w*)`", text) if "_" in n}
    called = {n.rsplit(".", 1)[-1] for n in re.findall(r"`([A-Za-z_][\w.]*)\(", text)}
    assert bare and called
    known = _package_definitions() | set(dir(builtins)) | _NOT_PACKAGE_NAMES
    assert sorted((bare | called) - known) == []
