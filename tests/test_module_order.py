"""The package's modules form one chain: each imports only modules before it in ORDER."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "toricsplit"
ORDER = ("exact_linear", "fan", "surface_graph", "intersection", "splitting", "bundle_data", "solver", "cli")


class _PackageImports(ast.NodeVisitor):
    """(line, module) of every import of a package module, function-local ones included;
    an ``if TYPE_CHECKING:`` body is skipped, since it never runs."""

    def __init__(self):
        self.found = []

    def visit_If(self, node):
        if isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            for child in node.orelse:
                self.visit(child)
        else:
            self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.level == 1 and node.module is None:
            self.found += [(node.lineno, alias.name) for alias in node.names]
        elif node.level == 1:
            self.found.append((node.lineno, node.module.split(".")[0]))
        elif node.level == 0 and (node.module or "").startswith("toricsplit."):
            self.found.append((node.lineno, node.module.split(".")[1]))

    def visit_Import(self, node):
        for alias in node.names:
            if alias.name.startswith("toricsplit."):
                self.found.append((node.lineno, alias.name.split(".")[1]))


def _imports(path):
    visitor = _PackageImports()
    visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
    return visitor.found


def test_every_module_has_a_place_in_the_order():
    # the package's __init__ re-exports every module, so it stands outside the chain
    assert sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__") == sorted(ORDER)


def test_each_module_imports_only_earlier_modules():
    late = []
    for position, name in enumerate(ORDER):
        for lineno, module in _imports(SRC / f"{name}.py"):
            if module not in ORDER[:position]:
                late.append(f"{name}.py:{lineno} imports {module}")
    assert late == []


def test_function_local_and_type_checking_imports_are_seen_as_such():
    tree = ast.parse(
        "from .solver import x\n"
        "import toricsplit.cli\n"
        "def f():\n    from .fan import y\n"
        "if TYPE_CHECKING:\n    from .bundle_data import z\n"
    )
    visitor = _PackageImports()
    visitor.visit(tree)
    assert visitor.found == [(1, "solver"), (2, "cli"), (4, "fan")]
