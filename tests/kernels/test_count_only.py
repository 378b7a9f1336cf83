"""The count-only kernel path: what every plain measurement runs.

Without a ``trial_hook`` or fault injector the kernels return match
counts from array ops alone and build no grant.  These tests pin those
counts to the grants the collecting path emits, kernel by kernel.
"""

from functools import partial

import pytest

pytest.importorskip("numpy")

from repro.kernels import matchers, workload  # noqa: E402
from repro.sim.standalone import (  # noqa: E402
    StandaloneConfig,
    StandaloneRouterModel,
)
from tests.kernels.test_parity import ALGORITHMS  # noqa: E402

KERNELS = {
    "SPAA": partial(matchers.spaa_kernel, rotary=False),
    "SPAA-rotary": partial(matchers.spaa_kernel, rotary=True),
    "OPF": matchers.opf_kernel,
    "WFA": partial(matchers.wfa_kernel, rotary=False),
    "WFA-rotary": partial(matchers.wfa_kernel, rotary=True),
    "PIM1": matchers.pim1_kernel,
}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize(
    "load, occupancy, seed",
    [(1, 0.0, 3), (8, 0.0, 11), (24, 0.5, 42), (64, 0.0, 7), (40, 0.9, 5)],
)
def test_counts_match_collected_grants(algorithm, load, occupancy, seed):
    batch = workload.generate(StandaloneConfig(
        algorithm=algorithm, load=load, occupancy=occupancy,
        trials=200, seed=seed,
    ))
    kernel = KERNELS[algorithm]
    counts, none = kernel(batch, collect=False)
    collected, per_trial = kernel(batch, collect=True)
    assert none is None
    assert counts.tolist() == collected.tolist()
    assert counts.tolist() == [len(grants) for grants in per_trial]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_plain_run_builds_no_grant(algorithm, monkeypatch):
    def refuse(**_):
        raise AssertionError("count-only path built a Grant")

    monkeypatch.setattr(matchers, "Grant", refuse)
    config = StandaloneConfig(algorithm=algorithm, load=32, trials=100, seed=4)
    model = StandaloneRouterModel(config, backend="vectorized")
    assert model.backend == "vectorized", model.fallback_reason
    model.run()
    # The same patch does trip the collecting path.
    hooked = StandaloneRouterModel(
        config, backend="vectorized", trial_hook=lambda trial, grants: None
    )
    with pytest.raises(AssertionError, match="built a Grant"):
        hooked.run()
