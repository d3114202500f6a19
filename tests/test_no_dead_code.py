"""No function without a caller: every function and class defined in the
package is used by name somewhere outside the tests, and every attribute
the package assigns on `self` is read somewhere outside the tests.

The package, the demos and the benchmark harness (its own test files
excluded) are parsed with `ast`.  A name counts as used when it is read
as a variable, read as an attribute, or appears as an identifier inside
a string constant other than a docstring (`__all__` entries, the
harness's trace targets such as "GroupTable.p_poly").  A docstring that
mentions a function is not a caller of it.  Dunder methods are called by
the interpreter, not by name, and are not checked.  An attribute counts
as read when it appears as an attribute outside an assignment target, or
as an identifier inside such a string constant; assigning it is not a
read.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coxgrowth"
USERS = [PACKAGE, ROOT / "demos", ROOT / "perfbench"]
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parsed(directory):
    for path in sorted(directory.rglob("*.py")):
        if not path.name.startswith("test_"):
            yield path, ast.parse(path.read_text(), str(path))


def _docstrings(tree):
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module,) + DEFINITIONS)
            and ast.get_docstring(node, clean=False) is not None}


def used_names():
    """(used, read): every name the users refer to, and those of them that
    can read an attribute."""
    used = set()
    read = set()
    for directory in USERS:
        for _, tree in _parsed(directory):
            docstrings = _docstrings(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                    if not isinstance(node.ctx, ast.Store):
                        read.add(node.attr)
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and id(node) not in docstrings):
                    found = IDENTIFIER.findall(node.value)
                    used.update(found)
                    read.update(found)
    return used, read


def definitions():
    """(place, name) of every function and class defined in the package."""
    for path, tree in _parsed(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, DEFINITIONS):
                if not (node.name.startswith("__")
                        and node.name.endswith("__")):
                    yield f"{path.name}:{node.lineno}", node.name


def self_attributes():
    """(place, name) of every `self.<name> = ...` in the package."""
    for path, tree in _parsed(PACKAGE):
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                yield f"{path.name}:{node.lineno}", node.attr


def test_every_definition_has_a_user():
    used, _ = used_names()
    unused = [f"{place} {name}" for place, name in definitions()
              if name not in used]
    assert not unused, "defined but never used: " + ", ".join(unused)


def test_every_attribute_is_read():
    _, read = used_names()
    unread = [f"{place} {name}" for place, name in self_attributes()
              if name not in read]
    assert not unread, "assigned but never read: " + ", ".join(unread)


def test_the_scan_sees_the_package():
    # a guard that parsed nothing would pass vacuously
    names = {name for _, name in definitions()}
    assert {"GroupTable", "AffineWeyl", "poly_gcd", "main"} <= names
    attributes = {name for _, name in self_attributes()}
    assert {"perms", "rmult", "roots", "gens"} <= attributes
