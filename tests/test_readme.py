"""Every `$ vermatools ...` example of README.md prints exactly what the
README shows under it: its non-blank stdout and stderr lines, in order."""

import shlex
from pathlib import Path

import pytest

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
