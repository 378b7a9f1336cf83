"""``repro.core`` is the paper's arbitration layer and nothing else.

An arbiter is a function of the cycle's nominations and free outputs
(plus its own fairness state): nominations in, a matching out.  Who
counts the passes, who traces them and who runs the router around them
lives above this package, so nothing in it may import the simulators,
the router model or the observability layer, and no arbiter or
starvation tracker carries a telemetry handle of its own.

The same holds one level up for the whole model layer -- ``core``,
``router``, ``network`` and ``coherence``: the router nominates and
resolves, and the simulator that drives it records what it did.  No
model module imports the platform (observability, simulators,
resilience, chaos, service, experiments, kernels) or names telemetry.
"""

import ast
import random
from pathlib import Path

import pytest

import repro.coherence
import repro.core
import repro.network
import repro.router
from repro.core.antistarvation import AntiStarvationTracker
from repro.core.base import Arbiter
from repro.core.registry import ArbiterContext, available_algorithms, make_arbiter

CORE = Path(repro.core.__file__).parent
FORBIDDEN = ("repro.obs", "repro.sim", "repro.router")
SOURCES = sorted(CORE.glob("*.py"))

SRC = CORE.parent
PLATFORM = (
    "repro.obs",
    "repro.sim",
    "repro.resilience",
    "repro.chaos",
    "repro.service",
    "repro.experiments",
    "repro.kernels",
)
MODEL_SOURCES = sorted(
    path
    for package in (repro.core, repro.router, repro.network, repro.coherence)
    for path in Path(package.__file__).parent.glob("*.py")
)


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


def forbidden(module: str, names=FORBIDDEN) -> bool:
    return any(module == name or module.startswith(name + ".") for name in names)


def names_in(tree: ast.AST) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def test_the_scan_sees_the_package():
    assert {path.name for path in SOURCES} >= {"base.py", "antistarvation.py", "pim.py"}
    assert forbidden("repro.obs.telemetry") and forbidden("repro.sim")
    assert not forbidden("repro.simulator") and not forbidden("repro.core.types")
    assert {path.parent.name for path in MODEL_SOURCES} == {
        "core", "router", "network", "coherence"
    }
    assert forbidden("repro.obs.telemetry", PLATFORM)
    assert forbidden("repro.kernels.batch", PLATFORM)
    assert not forbidden("repro.router.router", PLATFORM)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_core_imports_no_upper_layer(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = set(imported_modules(tree))
    assert not any(m.startswith(".") for m in modules), "use absolute imports"
    assert sorted(filter(forbidden, modules)) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_core_never_names_telemetry(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not {name for name in names_in(tree) if "telemetry" in name.lower()}


def model_id(path: Path) -> str:
    return str(path.relative_to(SRC))


@pytest.mark.parametrize("path", MODEL_SOURCES, ids=model_id)
def test_model_imports_no_platform(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = set(imported_modules(tree))
    assert sorted(m for m in modules if forbidden(m, PLATFORM)) == []


@pytest.mark.parametrize("path", MODEL_SOURCES, ids=model_id)
def test_model_never_names_telemetry(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not {name for name in names_in(tree) if "telemetry" in name.lower()}


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
