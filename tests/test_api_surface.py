"""Every public name in zappatic has a caller, and every import is used.

A public top-level function or class, or a public method, of a module in
``src/zappatic`` counts as called if its name appears as a word in
``src/zappatic`` outside its own definition and outside ``__init__.py``
(which only re-exports), or in ``perfbench/*.py``.  Tests do not count:
what only tests reach belongs in ``tests/oracles.py`` or nowhere.  Names
are matched as words, so a method with no caller passes when another
definition shares its name and that one is called.

Every name that a module of ``src/zappatic`` (except ``__init__.py``) or of
``tests`` imports, at top level or inside a function, must appear in that
module as an ``ast.Name``, which is also the root of every attribute chain.

No test module imports ``unittest.mock``: a test watches calls with
``tests/spy.py`` alone.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "zappatic"

# Paper formulas kept for `zappatic certify` (ROADMAP open item 4); item 6
# plans to give them a caller in `zappatic hilbert` instead.
WAITING_FOR_CALLER = {"ciro_bound", "brill_noether"}


def _public_definitions(tree):
    """(name, first line, last line) of each public def/class and method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item.lineno, item.end_lineno


def _uncalled_names(package=PACKAGE, perfbench=ROOT / "perfbench"):
    sources = {
        path: path.read_text().splitlines()
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    }
    perfbench = [p.read_text() for p in sorted(perfbench.glob("*.py"))]
    uncalled = []
    for path, lines in sources.items():
        others = ["\n".join(text) for other, text in sources.items() if other != path]
        for name, first, last in _public_definitions(ast.parse("\n".join(lines))):
            own = "\n".join(lines[: first - 1] + lines[last:])
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text) for text in [own, *others, *perfbench]):
                uncalled.append(f"{path.stem}.{name}")
    return uncalled


def test_every_public_name_has_a_caller():
    uncalled = [n for n in _uncalled_names() if n.rsplit(".", 1)[1] not in WAITING_FOR_CALLER]
    assert uncalled == []


def test_allowlisted_names_still_wait_for_a_caller():
    # Once certify calls them, they leave the allowlist.
    waiting = {n.rsplit(".", 1)[1] for n in _uncalled_names()}
    assert WAITING_FOR_CALLER <= waiting


def _unused_imports(paths):
    """'file:line name' for each imported name its module never reads."""
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in read]
    return unused


def test_every_import_is_used():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    assert _unused_imports(modules + sorted((ROOT / "tests").glob("*.py"))) == []


def test_unused_import_rule_on_a_sample_module(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from re import compile, escape as esc\n"
        "\n"
        "def f():\n"
        "    from math import gcd, lcm\n"
        "    return os.path.join(esc('x'), str(gcd(2, 4)))\n"
    )
    assert _unused_imports([path]) == ["m.py:3 js", "m.py:4 compile", "m.py:7 lcm"]


def _mock_imports(paths):
    """'file:line' of each import of unittest.mock or of a name in it."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name.split(".")[:2] == ["unittest", "mock"] for name in names):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_test_imports_unittest_mock():
    assert _mock_imports(sorted((ROOT / "tests").glob("*.py"))) == []


def test_mock_import_rule_on_a_sample_module(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import unittest\nimport unittest.mock\nfrom unittest import TestCase, mock\n"
                    "from unittest.mock import patch\nimport unittest.mockery\nfrom . import mock\n")
    assert _mock_imports([path]) == ["m.py:2", "m.py:3", "m.py:4"]


def _sample_tree(root, modules, perfbench):
    for directory, files in (("pkg", modules), ("bench", perfbench)):
        (root / directory).mkdir()
        for name, text in files.items():
            (root / directory / name).write_text(text)
    return _uncalled_names(root / "pkg", root / "bench")


def test_own_definition_and_reexport_do_not_count(tmp_path):
    modules = {
        "__init__.py": "from .a import lonely, Box\n",
        "a.py": (
            "def lonely(n):\n"
            "    return lonely(n - 1) if n else 0\n"
            "\n"
            "class Box:\n"
            "    def unused(self):\n"
            "        return 1\n"
            "\n"
            "def _private():\n"
            "    return 2\n"
        ),
    }
    assert _sample_tree(tmp_path, modules, {}) == ["a.lonely", "a.Box", "a.unused"]


def test_callers_in_the_package_or_perfbench_count(tmp_path):
    modules = {
        "a.py": "def helper():\n    return 1\n\nclass Box:\n    def size(self):\n        return 2\n",
        "b.py": "from .a import helper\n\ndef main():\n    return helper()\n",
    }
    bench = {"run.py": "from pkg.a import Box\nprint(Box().size())\n"}
    # main is reached by nothing, so it is the one name reported
    assert _sample_tree(tmp_path, modules, bench) == ["b.main"]
