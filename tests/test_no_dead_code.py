"""No function without a caller: every function and class defined in the
package is used by name somewhere outside the tests, every attribute the
package assigns on `self` is read somewhere outside the tests, and so is
every constant it assigns at module level.

The package, the demos and the benchmark harness (its own test files
excluded) are parsed with `ast`.  A name counts as used when it is read
as a variable, read as an attribute, or appears as an identifier inside
a string constant of the package or the demos other than a docstring
(`__all__` entries).  The harness's strings, such as its trace targets
("GroupTable.p_poly") and metric names, only observe the program and
are no callers; nor is a docstring that mentions a function.  A method
is stricter: it counts as used only when it is read as an attribute, or
when a string constant is, as a whole, a possibly dotted identifier that
names it; a local variable of the same name, or the word in a message,
is not a caller.  Dunder methods are called by the interpreter, not by
name, and are not checked.  An attribute counts
as read when it appears as an attribute outside an assignment target, or
as an identifier inside such a string constant; assigning it is not a
read.  A module-level constant counts as read when it is also read as a
variable.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coxgrowth"
USERS = [PACKAGE, ROOT / "demos", ROOT / "perfbench"]
HARNESS = ROOT / "perfbench"
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
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
    """(used, read, loaded, named): every name the users refer to, those
    of them that can read an attribute, the variables they read, and the
    names read as attributes or named by a whole dotted identifier."""
    used = set()
    read = set()
    loaded = set()
    named = set()
    for directory in USERS:
        for _, tree in _parsed(directory):
            docstrings = _docstrings(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                    if not isinstance(node.ctx, ast.Store):
                        loaded.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                    if not isinstance(node.ctx, ast.Store):
                        read.add(node.attr)
                        named.add(node.attr)
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and id(node) not in docstrings
                      and directory != HARNESS):
                    found = IDENTIFIER.findall(node.value)
                    used.update(found)
                    read.update(found)
                    if DOTTED.fullmatch(node.value):
                        named.update(found)
    return used, read, loaded, named


def definitions():
    """(place, name, is_method) of every function and class defined in
    the package."""
    for path, tree in _parsed(PACKAGE):
        methods = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for node in cls.body
                   if isinstance(node, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))}
        for node in ast.walk(tree):
            if isinstance(node, DEFINITIONS):
                if not (node.name.startswith("__")
                        and node.name.endswith("__")):
                    yield (f"{path.name}:{node.lineno}", node.name,
                           id(node) in methods)


def self_attributes():
    """(place, name) of every `self.<name> = ...` in the package."""
    for path, tree in _parsed(PACKAGE):
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                yield f"{path.name}:{node.lineno}", node.attr


def module_constants():
    """(place, name) of every non-dunder name the package assigns at
    module level."""
    for path, tree in _parsed(PACKAGE):
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    for name in ast.walk(target):
                        if (isinstance(name, ast.Name)
                                and not name.id.startswith("__")):
                            yield f"{path.name}:{node.lineno}", name.id


def test_every_definition_has_a_user():
    used, _, _, named = used_names()
    unused = [f"{place} {name}" for place, name, method in definitions()
              if name not in (named if method else used)]
    assert not unused, "defined but never used: " + ", ".join(unused)


def test_every_attribute_is_read():
    _, read, _, _ = used_names()
    unread = [f"{place} {name}" for place, name in self_attributes()
              if name not in read]
    assert not unread, "assigned but never read: " + ", ".join(unread)


def test_every_constant_is_read():
    _, read, loaded, _ = used_names()
    unread = [f"{place} {name}" for place, name in module_constants()
              if name not in read | loaded]
    assert not unread, "assigned but never read: " + ", ".join(unread)


def test_the_scan_sees_the_package():
    # a guard that parsed nothing would pass vacuously
    names = {name for _, name, _ in definitions()}
    assert {"GroupTable", "AffineWeyl", "poly_gcd", "main"} <= names
    methods = {name for _, name, method in definitions() if method}
    assert {"p_poly", "classify", "mul_gen"} <= methods
    assert "poly_gcd" not in methods
    attributes = {name for _, name in self_attributes()}
    assert {"perms", "_buckets", "roots", "_refl"} <= attributes
    assert "MAX_GROUP_ORDER" in {name for _, name in module_constants()}
