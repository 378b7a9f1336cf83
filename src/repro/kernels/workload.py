"""Batched workload generation: all trials of one point as arrays.

One :class:`BatchWorkload` holds every trial of one standalone-model
measurement as ``(trials, load)``-shaped arrays plus per-trial
free-output bitmasks, generated from the keyed RNG stream of
:mod:`repro.kernels.rng` so it is bit-identical (packet for packet,
busy output for busy output) to what
:meth:`repro.sim.standalone.StandaloneRouterModel._generate_packets`
and ``_generate_free_outputs`` produce for each trial.  It draws its
own arrays and never reads the object path's shared packet table, so
the parity gate compares two independent generators.

The layout bakes in the *default* 16x7 connection matrix (Figure 5):
read port 0 of every input port drives the four torus outputs, read
port 1 the three local outputs, minus the MC0-rp1->L0 and MC1-rp1->L1
cells.  Under that matrix a packet's candidate outputs are either all
torus or all local, so each packet nominates through exactly one read
port and ``row`` below is well-defined per packet.  The backend switch
refuses non-default matrices (see :func:`repro.kernels.supports`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels import rng as krng
from repro.router.ports import NUM_OUTPUT_PORTS

#: (row, output) cells absent from the default matrix: a memory
#: controller never targets its own local output port.
_MC0_RP1_ROW, _MC0_BLOCKED_OUT = 11, 4  # L-MC0 rp1 -> G-L0
_MC1_RP1_ROW, _MC1_BLOCKED_OUT = 13, 5  # L-MC1 rp1 -> G-L1

#: "no second output" marker in :attr:`BatchWorkload.out2`.
NO_OUTPUT = -1


@dataclass(frozen=True)
class BatchWorkload:
    """All trials of one standalone config, as ``(T, L)`` arrays.

    Attributes:
        seed: the config's seed (kernels key further draws off it).
        port: input port of each packet, ``0..7``.
        local: True where the packet targets a local output.
        row: the read-port-arbiter row the packet nominates through
            (``2*port`` for torus packets, ``2*port + 1`` for local).
        out1: first (or only) candidate output.
        out2: second torus candidate, or :data:`NO_OUTPUT`.
        conn1: whether ``(row, out1)`` is wired in the default matrix
            (False only for the two blocked memory-controller cells).
        free_bool: ``(T, 7)`` -- True where the output port is free.
    """

    seed: int
    port: np.ndarray
    local: np.ndarray
    row: np.ndarray
    out1: np.ndarray
    out2: np.ndarray
    conn1: np.ndarray
    free_bool: np.ndarray

    @property
    def trials(self) -> int:
        return self.port.shape[0]

    @property
    def load(self) -> int:
        return self.port.shape[1]


def generate(config) -> BatchWorkload:
    """Materialize every trial of *config* (a ``StandaloneConfig``)."""
    trials, load, seed = config.trials, config.load, config.seed
    t = np.arange(trials, dtype=np.uint64)[:, None]
    uid = np.arange(load, dtype=np.uint64)[None, :]

    port = (krng.words(seed, t, krng.D_PORT, uid) % np.uint64(8)).astype(np.int64)
    local = krng.uniforms(seed, t, krng.D_LOCAL_COIN, uid) < config.local_fraction

    # Local packets: one of the three local outputs (L0=4, L1=5, IO=6).
    local_out = 4 + (
        krng.words(seed, t, krng.D_LOCAL_OUT, uid) % np.uint64(3)
    ).astype(np.int64)

    # Torus packets: first direction uniform over the four torus
    # outputs; the optional second direction indexes the remaining
    # three exactly like the object path's pop-then-index (the swap is
    # ``k2 + (k2 >= first)``).
    first = (krng.words(seed, t, krng.D_FIRST_DIR, uid) % np.uint64(4)).astype(
        np.int64
    )
    two = (
        krng.uniforms(seed, t, krng.D_TWO_COIN, uid)
        < config.two_direction_fraction
    )
    k2 = (krng.words(seed, t, krng.D_SECOND_DIR, uid) % np.uint64(3)).astype(
        np.int64
    )
    second = k2 + (k2 >= first)

    out1 = np.where(local, local_out, first)
    out2 = np.where(~local & two, second, NO_OUTPUT)
    row = 2 * port + local
    conn1 = ~(
        local
        & (
            ((row == _MC0_RP1_ROW) & (out1 == _MC0_BLOCKED_OUT))
            | ((row == _MC1_RP1_ROW) & (out1 == _MC1_BLOCKED_OUT))
        )
    )

    return BatchWorkload(
        seed=seed,
        port=port,
        local=local,
        row=row,
        out1=out1,
        out2=out2,
        conn1=conn1,
        free_bool=_free_outputs(trials, seed, config.occupancy),
    )


def _free_outputs(trials: int, seed: int, occupancy: float) -> np.ndarray:
    """Per-trial free-output flags via the object path's swap-remove.

    The object path samples ``busy_count`` distinct outputs with a
    partial Fisher-Yates (draw an index into the shrinking pool, swap
    the last element in); each step's draw is keyed by its step index,
    so the same loop runs here over whole trial columns at once.
    """
    busy_count = round(occupancy * NUM_OUTPUT_PORTS)
    free = np.ones((trials, NUM_OUTPUT_PORTS), dtype=bool)
    if busy_count == 0:
        return free
    pool = np.tile(np.arange(NUM_OUTPUT_PORTS, dtype=np.int64), (trials, 1))
    t = np.arange(trials, dtype=np.uint64)
    rows = np.arange(trials)
    for step in range(busy_count):
        size = NUM_OUTPUT_PORTS - step
        idx = (
            krng.words(seed, t, krng.D_BUSY, step) % np.uint64(size)
        ).astype(np.int64)
        free[rows, pool[rows, idx]] = False
        pool[rows, idx] = pool[rows, size - 1]
    return free
