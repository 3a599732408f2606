import ast
import importlib.util
import pathlib

import bakergame
from bakergame import covers, game, graph, ptas, strategies


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


def test_library_imports_no_scipy_or_numpy():
    # scipy and numpy serve the exact references in tests/ only; the
    # library depends on nothing outside the standard library
    found = []
    for path in sorted(pathlib.Path(bakergame.__file__).parents[1].rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                if name.split(".")[0] in ("scipy", "numpy"):
                    found.append("%s:%d imports %s" % (path.name, node.lineno, name))
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


def test_strategy_moves_assign_nothing_on_self():
    # strategies are values: outside __init__ a method rebinds attributes
    # of a copy, never of self.  The state number caches in the base
    # class's state_id are the only exception.
    path = pathlib.Path(bakergame.__file__).parent / "strategies.py"
    allowed = {("DestroyerStrategy", "state_id", name) for name in ("_sid", "_config_key")}
    found = []
    for cls in ast.parse(path.read_text(), str(path)).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        if not issubclass(getattr(strategies, cls.name), strategies.DestroyerStrategy):
            continue
        for fn in cls.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name == "__init__":
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr":
                    target, attr = node.args[0], "<setattr>"
                elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
                    target, attr = node.value, node.attr
                else:
                    continue
                named_self = isinstance(target, ast.Name) and target.id == "self"
                if named_self and (cls.name, fn.name, attr) not in allowed:
                    where = (cls.name, fn.name, attr, node.lineno)
                    found.append("%s.%s sets self.%s at line %d" % where)
    assert found == []


def test_perfbench_tracer_round_trips():
    # the benchmark's tracer rebinds library names from outside, so a
    # name it pins that the library drops must fail here too
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = (bakergame, covers, game, graph, ptas, strategies)
    owners = list(modules) + [v for m in modules for v in vars(m).values() if isinstance(v, type)]
    before = [dict(vars(owner)) for owner in owners]
    names = ("_candidate_residues", "_dedup_covers", "slice_domset", "pickle")
    pinned = {name: getattr(ptas, name) for name in names}
    t = tracer.Tracer()
    try:
        t.install(bakergame)
        assert [name for name, fn in pinned.items() if getattr(ptas, name) is fn] == []
    finally:
        t.uninstall()
    for owner, saved in zip(owners, before):
        assert {k for k, v in saved.items() if vars(owner).get(k) is not v} == set(), owner
