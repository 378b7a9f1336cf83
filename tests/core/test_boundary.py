"""``repro.core`` is the paper's arbitration layer and nothing else.

An arbiter is a function of the cycle's nominations and free outputs
(plus its own fairness state): nominations in, a matching out.  Who
counts the passes, who traces them and who runs the router around them
lives above this package, so nothing in it may import the simulators,
the router model or the observability layer, and no arbiter or
starvation tracker carries a telemetry handle of its own.
"""

import ast
import random
from pathlib import Path

import pytest

import repro.core
from repro.core.antistarvation import AntiStarvationTracker
from repro.core.base import Arbiter
from repro.core.registry import ArbiterContext, available_algorithms, make_arbiter

CORE = Path(repro.core.__file__).parent
FORBIDDEN = ("repro.obs", "repro.sim", "repro.router")
SOURCES = sorted(CORE.glob("*.py"))


def imported_modules(tree: ast.AST):
    """Every module an import statement names, including ``from a import b``
    as ``a.b`` (``b`` may be a submodule)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def forbidden(module: str) -> bool:
    return any(module == name or module.startswith(name + ".") for name in FORBIDDEN)


def test_the_scan_sees_the_package():
    assert {path.name for path in SOURCES} >= {"base.py", "antistarvation.py", "pim.py"}
    assert forbidden("repro.obs.telemetry") and forbidden("repro.sim")
    assert not forbidden("repro.simulator") and not forbidden("repro.core.types")


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_core_imports_no_upper_layer(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = set(imported_modules(tree))
    assert not any(m.startswith(".") for m in modules), "use absolute imports"
    assert sorted(filter(forbidden, modules)) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_core_never_names_telemetry(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not {name for name in names if "telemetry" in name.lower()}


@pytest.mark.parametrize("algorithm", available_algorithms())
def test_arbiters_carry_no_telemetry(algorithm):
    context = ArbiterContext(
        num_rows=16, num_outputs=7, network_rows=tuple(range(8)), rng=random.Random(0)
    )
    arbiter = make_arbiter(algorithm, context)
    assert isinstance(arbiter, Arbiter)
    assert not hasattr(arbiter, "telemetry")
    assert arbiter.wasted_grants == 0


def test_the_starvation_tracker_carries_no_telemetry():
    tracker = AntiStarvationTracker()
    assert not hasattr(tracker, "telemetry")
    assert not hasattr(tracker, "node")
