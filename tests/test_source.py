"""Source guard: every function and method in src/protract has a reader
there, so none is kept for the tests alone."""

import ast
from collections import Counter
from pathlib import Path

import protract

SRC = Path(protract.__file__).resolve().parent

# qualified name -> why it stays without a reader in src/protract
UNREFERENCED_ALLOWED = {
    "_segment_matrix": "perfbench/tracer.py counts RK4 steps through it",
    "PointTensor.max_abs": "the README library tour calls it",
}


def _defs(tree):
    """(qualified name, node, whether a method) of every function and
    method, nested ones included."""
    out = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((prefix + child.name, child, in_class))
                visit(child, prefix + child.name + ".", False)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", True)
            else:
                visit(child, prefix, in_class)
    visit(tree, "", False)
    return out


def _reads(node, attributes_only=False) -> Counter:
    """Each name read under node as an attribute, or also as a variable,
    counted."""
    return Counter(n.attr if isinstance(n, ast.Attribute) else n.id
                   for n in ast.walk(node)
                   if isinstance(n, ast.Attribute)
                   or (isinstance(n, ast.Name) and not attributes_only))


def unreferenced_functions(src: Path) -> set:
    """Qualified names of the functions and methods in src/*.py that are
    read nowhere in src outside their own body and that src/__init__.py
    does not import. A method counts as read only as an attribute; dunder
    methods are called by the interpreter."""
    trees = [ast.parse(path.read_text(), str(path))
             for path in sorted(src.glob("*.py"))]
    exported = {alias.asname or alias.name
                for node in ast.parse((src / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    reads = {flag: sum((_reads(t, flag) for t in trees), Counter())
             for flag in (False, True)}
    out = set()
    for tree in trees:
        for qualname, node, method in _defs(tree):
            name = node.name
            if (name.startswith("__") and name.endswith("__")
                    or name in exported):
                continue
            if reads[method][name] <= _reads(node, method)[name]:
                out.add(qualname)
    return out


def test_every_function_has_a_reader_in_the_package():
    assert unreferenced_functions(SRC) == set(UNREFERENCED_ALLOWED)
