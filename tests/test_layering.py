"""Layering: a module reaches another module only through its public names.

A rule written once belongs to one module; when a second module needs it,
the owner makes it public.  Using another module's underscore name is how
private copies of a rule start to be shared, so it fails here.  The
runtime itself stays stdlib-only: its absolute imports name standard
library modules and nothing else, and the process pool is imported only
by a run that uses it.  Memoisation has one owner too: ``core.memo``, with
one bound.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

from gemkit import core

MODULES = ("core", "genus", "recognition", "invariants", "classification",
           "handles", "catalogue", "cli", "fixtures")
PRIVATE_USE = re.compile(rf"\b({'|'.join(MODULES)})\._\w+")
SRC = Path(__file__).resolve().parent.parent / "src" / "gemkit"


def test_no_module_uses_another_modules_private_names():
    files = sorted(SRC.glob("*.py"))
    assert files
    hits = [f"{path.name}:{n}: {m.group(0)}"
            for path in files
            for n, line in enumerate(path.read_text().splitlines(), 1)
            for m in PRIVATE_USE.finditer(line)]
    assert hits == []


def test_runtime_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_lru_cache_is_used_only_inside_core_memo():
    tree = ast.parse((SRC / "core.py").read_text())
    memo = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "memo")
    inside = range(memo.lineno, memo.end_lineno + 1)
    outside = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py"))
               for n, line in enumerate(path.read_text().splitlines(), 1)
               if "lru_cache" in line and not line.startswith("from functools import")
               and not (path.name == "core.py" and n in inside)]
    assert outside == []


def test_every_memo_has_the_one_bound():
    assert core.MEMOS
    assert {memo.cache_info().maxsize for memo in core.MEMOS} == {core.MEMO_BOUND}


def test_import_loads_no_process_pool():
    # a fresh interpreter: this one has imported whatever the other tests use
    paths = [str(SRC.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    probe = ("import gemkit, gemkit.cli, sys; "
             "print(sorted(m for m in sys.modules "
             "if m.partition('.')[0] in ('concurrent', 'multiprocessing')))")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
