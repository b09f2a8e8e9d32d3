import ast
import pathlib

import kripkit

LIBRARY = pathlib.Path(kripkit.__file__).parent


def test_library_has_no_assert_statements():
    # an invariant of the library is a real check: python -O strips asserts
    paths = sorted(LIBRARY.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def _error_codes():
    """The string first arguments of KripkitError(...) and _Parser.error(...)
    calls in the library, and the places of any other first argument."""
    codes, other = set(), []
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            f = node.func
            if not ((isinstance(f, ast.Name) and f.id == "KripkitError")
                    or (isinstance(f, ast.Attribute) and f.attr == "error")):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                codes.add(arg.value)
            else:
                other.append(f"{path.name}:{node.lineno}")
    return codes, other


def test_readme_lists_every_error_code_the_library_raises():
    codes, other = _error_codes()
    # the one call whose code is not a literal is _Parser.error's own, which
    # passes on the code it is given
    assert len(other) == 1 and other[0].startswith("formula.py:"), other
    readme = (pathlib.Path(__file__).resolve().parent.parent
              / "README.md").read_text()
    start = readme.index("Every library failure raises `KripkitError`")
    listed = []
    for line in readme[start:].split("\n\n", 2)[1].splitlines():
        assert line.startswith("- `"), line
        listed.append(line[3:line.index("`", 3)])
    assert listed == sorted(set(listed))
    assert set(listed) == codes
    assert len(codes) == 17
