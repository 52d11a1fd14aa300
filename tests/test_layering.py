"""Layering: a module reaches another module only through its public names.

A rule written once belongs to one module; when a second module needs it,
the owner makes it public.  Using another module's underscore name is how
private copies of a rule start to be shared, so it fails here.
"""

from __future__ import annotations

import re
from pathlib import Path

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
