"""Source guard: every function and method in src/protract has a reader
there, so none is kept for the tests alone. Being exported by
protract/__init__.py is no reader: a name that stays without one is in
UNREFERENCED_ALLOWED with its reason."""

import ast
import re
from collections import Counter
from pathlib import Path

import protract

SRC = Path(protract.__file__).resolve().parent
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# qualified name -> why it stays without a reader in src/protract
UNREFERENCED_ALLOWED = {
    "_segment_matrix": "perfbench/tracer.py counts RK4 steps through it",
    "PointTensor.max_abs": "the README library tour calls it",
    "evaluate": "the tree walker, the independent reference of the kernel",
    "antisymmetrize": "acceptance criterion 07 projects with it",
    "tractor_curvature": "criterion 01 and the F(A) = Omega reference",
    "transported_sampler": "acceptance criterion 09",
    "sampled_pde_residual": "acceptance criterion 09",
    "torsion": "a paper construct: the connections are torsion-free",
    "splitting_transform": "a paper construct: cotractors under a change "
                           "of splitting",
    "proj_prolong_nabla": "a paper construct: the prolongation of the "
                          "trace-free nabla nu equation",
    "skew_induced_parts": "a paper construct: the nu slot of a skew "
                          "solution",
    "holonomy_dimension": "perfbench/tracer.py wraps it",
    "check_weyl_cotton_invariance": "acceptance criterion 05",
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
    read nowhere in src outside their own body; an import is no read. A
    method counts as read only as an attribute; dunder methods are called
    by the interpreter."""
    trees = [ast.parse(path.read_text(), str(path))
             for path in sorted(src.glob("*.py"))]
    reads = {flag: sum((_reads(t, flag) for t in trees), Counter())
             for flag in (False, True)}
    out = set()
    for tree in trees:
        for qualname, node, method in _defs(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if reads[method][name] <= _reads(node, method)[name]:
                out.add(qualname)
    return out


def test_every_function_has_a_reader_in_the_package():
    assert unreferenced_functions(SRC) == set(UNREFERENCED_ALLOWED)


def test_tracer_reasons_name_what_the_tracer_reads():
    # a name the tracer wraps or counts through occurs in its text
    text = TRACER.read_text()
    cited = [name for name, why in UNREFERENCED_ALLOWED.items()
             if "perfbench/tracer.py" in why]
    assert cited
    assert [name for name in cited if not re.search(
        r"\b%s\b" % re.escape(name.rsplit(".", 1)[-1]), text)] == []
