"""Sanity checks of the package's public import surface.

A downstream user's first contact is ``import repro`` and the names
documented in the README; these tests pin that surface so refactors
cannot silently break it.
"""

import importlib

import pytest

import repro


PUBLIC_MODULES = [
    "repro.core",
    "repro.core.antistarvation",
    "repro.core.base",
    "repro.core.maxflow",
    "repro.core.mcm",
    "repro.core.opf",
    "repro.core.pim",
    "repro.core.policies",
    "repro.core.registry",
    "repro.core.spaa",
    "repro.core.timing",
    "repro.core.types",
    "repro.core.wavefront",
    "repro.network",
    "repro.network.channels",
    "repro.network.links",
    "repro.network.packets",
    "repro.network.routing",
    "repro.network.topology",
    "repro.router",
    "repro.router.buffers",
    "repro.router.connection_matrix",
    "repro.router.ports",
    "repro.router.router",
    "repro.coherence",
    "repro.coherence.mshr",
    "repro.coherence.protocol",
    "repro.coherence.transactions",
    "repro.sim",
    "repro.sim.config",
    "repro.sim.engine",
    "repro.sim.metrics",
    "repro.sim.observers",
    "repro.sim.standalone",
    "repro.sim.sweep",
    "repro.sim.timing_model",
    "repro.sim.traffic",
    "repro.resilience",
    "repro.resilience.checkpoint",
    "repro.resilience.faults",
    "repro.resilience.invariants",
    "repro.resilience.watchdog",
    "repro.experiments",
    "repro.experiments.claims",
    "repro.experiments.cli",
    "repro.experiments.figure8",
    "repro.experiments.figure9",
    "repro.experiments.figure10",
    "repro.experiments.figure11",
    "repro.experiments.report",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} must have a module docstring"


def test_version():
    assert repro.__version__


def test_top_level_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


@pytest.mark.parametrize(
    "package_name",
    ["repro.core", "repro.network", "repro.router", "repro.sim",
     "repro.coherence", "repro.experiments"],
)
def test_all_lists_resolve(package_name):
    package = importlib.import_module(package_name)
    for name in getattr(package, "__all__", []):
        assert getattr(package, name, None) is not None, (
            f"{package_name}.__all__ lists {name} but it does not resolve"
        )


def test_readme_quickstart_names_exist():
    from repro.sim import (  # noqa: F401
        NetworkConfig,
        SimulationConfig,
        StandaloneConfig,
        TrafficConfig,
        measure_matches,
        simulate_bnf_point,
    )


def test_public_classes_have_docstrings():
    import repro.core as core
    import repro.sim as sim

    for namespace in (core, sim):
        for name in namespace.__all__:
            obj = getattr(namespace, name)
            if isinstance(obj, type):
                assert obj.__doc__, f"{name} is missing a docstring"
