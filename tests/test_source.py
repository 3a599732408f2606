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


def test_one_descriptor_grammar():
    # parse_descriptor alone reads descriptor text, and a strategy gets
    # its descriptor from its constructor, not patched on afterwards
    path = pathlib.Path(bakergame.__file__).parent / "strategies.py"
    found = []

    def visit(node, funcs):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            funcs = funcs + (node.name,)
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            grammar = "cliquesum(" in node.value or "quotient(" in node.value
            if grammar and "parse_descriptor" not in funcs:
                found.append("grammar literal at line %d" % node.lineno)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if node.attr == "descriptor" and funcs[-1:] != ("__init__",):
                found.append("descriptor assigned at line %d" % node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, funcs)

    visit(ast.parse(path.read_text(), str(path)), ())
    assert found == []
