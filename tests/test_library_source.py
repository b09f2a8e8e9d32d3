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
