"""Every module of the package reads every name it imports. The only
exceptions are the bindings kept for ``perfbench/spans.py`` to wrap, and
those must stay bound until the benchmark stops wrapping them."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flowerpetals"

# imported but not called, so that perfbench/spans.py can wrap the binding
WRAPPED_ONLY = {
    "cli": ["train_node_classification"],
    "tasks": ["loss_and_grad", "predict_graph_labels", "readout_loss_and_grad"],
}


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from json import dumps, loads as parse\n\ndef f(x: np.ndarray):\n"
              "    return parse(x)\n")
    assert unused_imports(source) == ["dumps", "os"]


@pytest.mark.parametrize("module", sorted(
    path.stem for path in PACKAGE.glob("*.py") if path.name != "__init__.py"))
def test_module_reads_every_name_it_imports(module):
    unused = unused_imports((PACKAGE / f"{module}.py").read_text())
    assert unused == WRAPPED_ONLY.get(module, []), (
        "an unused import, or a perfbench-wrapped binding that is gone or now read")
