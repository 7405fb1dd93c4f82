"""Layering guard: no module reaches into another module's private names.

A name with a leading underscore belongs to its own module.  Sibling
modules may import the private helper modules `_quad` and `_extrap`
themselves, and use their public names, but never an `_underscore`
name of any package module: neither by `from .mod import _name` nor by
reading `mod._name` off an imported module.
"""

import ast
from pathlib import Path

import circlecomb

PACKAGE_DIR = Path(circlecomb.__file__).parent


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def violations(source, filename):
    """(filename, line, text) for every private cross-module access."""
    tree = ast.parse(source, filename)
    found = []
    modules = set()             # local names bound to package modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            top, _, inner = (node.module or "").partition(".")
            if node.level:
                inner = node.module
            elif top != "circlecomb":
                continue
            for alias in node.names:
                if not inner:
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append((filename, node.lineno,
                                  f"from {inner} import {alias.name}"))
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.name.startswith("circlecomb.")
                           and alias.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            found.append((filename, node.lineno,
                          f"{node.value.id}.{node.attr}"))
    return found


def test_guard_sees_both_forms():
    src = ("from . import _quad\n"
           "from .disk import _horner, eval_ring\n"
           "from ._extrap import neville_to_zero\n"
           "from circlecomb.realfilter import _stencil\n"
           "import circlecomb.spectrum as sp\n"
           "x = _quad._NODES(_quad.integrate, sp._CHUNK, sp.sinc)\n")
    assert violations(src, "probe.py") == [
        ("probe.py", 2, "from disk import _horner"),
        ("probe.py", 4, "from realfilter import _stencil"),
        ("probe.py", 6, "_quad._NODES"),
        ("probe.py", 6, "sp._CHUNK"),
    ]


def test_no_module_uses_another_modules_private_names():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        found.extend(violations(path.read_text(encoding="utf-8"),
                                path.name))
    assert found == []
