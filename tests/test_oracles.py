"""The oracles in tests/oracles.py share no code with what they check: the
only names they may take from flowlab are constants and errors."""

import ast
from pathlib import Path

import pytest

ALLOWED = {"flowlab.pcap": {"TCP_FIN", "TCP_RST"}}


def flowlab_imports(source: str) -> list[str]:
    """Every name the source imports from flowlab that ALLOWED does not
    list, as "module.name"; a whole-module import counts as "module.*"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"{a.name}.*" for a in node.names
                      if a.name.split(".")[0] == "flowlab"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "flowlab":
            found += [f"{node.module}.{a.name}" for a in node.names
                      if a.name not in ALLOWED.get(node.module, ())]
        elif isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", "")) in (
                "__import__", "import_module"):
            found.append("dynamic import")
    return found


def test_oracles_import_only_constants():
    source = (Path(__file__).parent / "oracles.py").read_text()
    assert flowlab_imports(source) == []


@pytest.mark.parametrize("source, found", [
    ("from flowlab.meter import canonicalize", ["flowlab.meter.canonicalize"]),
    ("from flowlab.pcap import TCP_FIN, Packet", ["flowlab.pcap.Packet"]),
    ("import flowlab.stats as s", ["flowlab.stats.*"]),
    ("from flowlab import meter", ["flowlab.meter"]),
    ("def f():\n    from flowlab.models import tree_fit",
     ["flowlab.models.tree_fit"]),
    ("import importlib\nm = importlib.import_module('flowlab.meter')",
     ["dynamic import"]),
    ("from flowlab.pcap import TCP_FIN, TCP_RST\nimport numpy", []),
])
def test_checker_flags_each_kind_of_import(source, found):
    assert flowlab_imports(source) == found
