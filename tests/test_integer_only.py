"""Integer-only arithmetic: no module of the package imports `fractions`
or `decimal`, none contains a float literal, and none uses true division
`/`, not even `ratfun.RatFun`, which has no arithmetic operators.  Every
quotient in the package is exact, by `//` on ints or `poly_exact_div` on
polynomials.

The package is parsed with `ast`, so a `/` inside a string or a comment
does not count."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coxgrowth"
BANNED_MODULES = {"fractions", "decimal"}


def violations(filename, source):
    """One line per import of a banned module, float literal and true
    division in the module `filename` with `source`, in source order."""
    tree = ast.parse(source, filename)
    out = []
    for node in sorted(ast.walk(tree),
                       key=lambda node: getattr(node, "lineno", 0)):
        where = f"{filename}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        out += [f"{where} imports {m}" for m in modules
                if m.split(".")[0] in BANNED_MODULES]
        if (isinstance(node, ast.Constant)
                and isinstance(node.value, (float, complex))):
            out.append(f"{where} float literal {node.value!r}")
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.Div)):
            out.append(f"{where} true division")
    return out


def test_package_is_integer_only():
    modules = sorted(PACKAGE.glob("*.py"))
    # a guard that parsed nothing would pass vacuously
    assert {"ratfun.py", "rootsystem.py", "finite.py",
            "series.py"} <= {p.name for p in modules}
    found = [v for path in modules
             for v in violations(path.name, path.read_text())]
    assert not found, "; ".join(found)


def test_guard_flags_each_fault():
    source = ("from fractions import Fraction\n"
              "import decimal\n"
              "x = 0.5\n"
              "y = x / 2\n"
              "x /= 3\n"
              "z = 7 // 2\n")
    assert violations("m.py", source) == [
        "m.py:1 imports fractions", "m.py:2 imports decimal",
        "m.py:3 float literal 0.5", "m.py:4 true division",
        "m.py:5 true division"]


def test_division_allowed_only_in_ratfun_class():
    # a `/` inside class RatFun is flagged like any other
    source = ("class RatFun:\n"
              "    def __rtruediv__(self, other):\n"
              "        return other / self\n"
              "def quotient(a, b):\n"
              "    return a / b\n")
    assert violations("ratfun.py", source) == [
        "ratfun.py:3 true division", "ratfun.py:5 true division"]
    assert violations("finite.py", source) == [
        "finite.py:3 true division", "finite.py:5 true division"]
