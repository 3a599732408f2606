import ast
import pathlib

import bakergame


def test_no_bare_assert_in_library():
    # assert statements vanish under python -O, so library checks raise
    # errors instead
    found = []
    for path in sorted(pathlib.Path(bakergame.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []
