"""Vectorized arbitration kernels over bitmask/array trial batches.

Each kernel evaluates *all trials at once* and returns per-trial match
counts, plus (optionally) the per-trial grant lists **in the exact
order the object-path arbiter emits them** -- ascending output for
SPAA, ascending row for OPF and PIM1's accept loop, wave-sweep order
for WFA.  Emission order matters because the fault injector's
grant-suppression draws are sequential per grant: replaying grants in
any other order would consume its RNG stream differently and break
bitwise parity.

The kernels assume the default connection matrix (each packet
nominates through exactly one read-port row -- see
:mod:`repro.kernels.workload`), which makes WFA's granted-*packet*
check redundant: a packet's nominations all share one row, so the
granted-row check subsumes it.

Cross-trial arbiter state vectorizes two ways:

* WFA's priority pointer advances only on arbitrations with at least
  one usable nomination, so the pointer at trial ``t`` is the
  exclusive running count of non-empty earlier trials, mod the
  rotation period -- one ``cumsum``.
* SPAA's least-recently-selected history is a genuine sequential
  recurrence (each grant reorders future priorities), so its grant
  step runs as a tight Python loop over primitive lists -- but only
  when grants are collected.  The history decides which row wins an
  output, never whether it is won, so the match counts (one per
  distinct nominated output) are plain array ops.

Every kernel computes its counts with array ops and does per-grant
work only when ``collect`` is set (a fault injector or a
``trial_hook`` reads the grants).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.types import Grant
from repro.kernels import rng as krng
from repro.kernels.workload import NO_OUTPUT, BatchWorkload
from repro.router.ports import NUM_OUTPUT_PORTS, NUM_ROWS

#: "empty cell" marker in the per-cell uid tables (any uid is smaller).
SENTINEL = 1 << 30


def cell_table(workload: BatchWorkload) -> np.ndarray:
    """The per-cell nomination table: min uid per (trial, row, output).

    Cell ``(t, r, o)`` holds the oldest (lowest-uid) packet that
    nominates ``(r, o)`` in trial ``t``, or :data:`SENTINEL` when the
    cell is unrequested.  This is the array form of the object path's
    per-cell nominations after the arbiter's oldest-wins reduction
    (WFA's ``_beats``, PIM's oldest-of-row pick): ages are ``-uid`` and
    uids are unique, so "oldest" is exactly "minimum uid".
    """
    trials, load = workload.trials, workload.load
    cells = np.full((trials, NUM_ROWS, NUM_OUTPUT_PORTS), SENTINEL, np.int64)
    t_grid = np.broadcast_to(
        np.arange(trials, dtype=np.int64)[:, None], (trials, load)
    )
    uid_grid = np.broadcast_to(
        np.arange(load, dtype=np.int64)[None, :], (trials, load)
    )
    first = workload.conn1
    np.minimum.at(
        cells,
        (t_grid[first], workload.row[first], workload.out1[first]),
        uid_grid[first],
    )
    second = workload.out2 != NO_OUTPUT
    np.minimum.at(
        cells,
        (t_grid[second], workload.row[second], workload.out2[second]),
        uid_grid[second],
    )
    return cells


# -- WFA -------------------------------------------------------------------


def wfa_kernel(
    workload: BatchWorkload, rotary: bool, collect: bool
) -> tuple[np.ndarray, list[list[Grant]] | None]:
    """Wrapped wave-front arbitration, all trials per sweep step.

    Each trial's usable-cell matrix is gathered once, rolled so that
    its priority cell sits at (0, 0): sweep step (diagonal, column
    offset) then reads the same rolled cell in every trial, and the
    112-step sweep runs on contiguous ``(T,)`` boolean slices.
    """
    trials = workload.trials
    cells = cell_table(workload)
    valid = (cells != SENTINEL) & workload.free_bool[:, None, :]
    nonempty = valid.any(axis=(1, 2))

    # The object arbiter returns early (pointer untouched) on empty
    # usable sets, so the pointer at trial t counts non-empty trials
    # strictly before t.
    advanced = np.cumsum(nonempty) - nonempty
    if rotary:
        # The rotary ring is the eight network rows, which are rows
        # 0..7 in ring order under the default port numbering.
        pointer = advanced % (8 * NUM_OUTPUT_PORTS)
        start_row = pointer % 8
        start_col = (pointer // 8) % NUM_OUTPUT_PORTS
    else:
        pointer = advanced % (NUM_ROWS * NUM_OUTPUT_PORTS)
        start_row = pointer // NUM_OUTPUT_PORTS
        start_col = pointer % NUM_OUTPUT_PORTS

    # rolled[i, j, t] is valid[t, (start_row + i) % 16, (start_col + j) % 7]
    rows = (start_row[:, None] + np.arange(NUM_ROWS)) % NUM_ROWS
    cols = (start_col[:, None] + np.arange(NUM_OUTPUT_PORTS)) % NUM_OUTPUT_PORTS
    rolled = np.ascontiguousarray(
        valid[
            np.arange(trials)[:, None, None], rows[:, :, None], cols[:, None, :]
        ].transpose(1, 2, 0)
    )
    row_free = np.ones((NUM_ROWS, trials), bool)
    col_free = np.ones((NUM_OUTPUT_PORTS, trials), bool)
    steps: list[tuple[int, int, np.ndarray]] = []
    for diagonal in range(NUM_ROWS):
        for col_offset in range(NUM_OUTPUT_PORTS):
            row_offset = (diagonal - col_offset) % NUM_ROWS
            ok = rolled[row_offset, col_offset] & row_free[row_offset]
            ok &= col_free[col_offset]
            if not ok.any():
                continue
            row_free[row_offset] &= ~ok
            col_free[col_offset] &= ~ok
            if collect:
                steps.append((row_offset, col_offset, np.nonzero(ok)[0]))
    # Every grant takes one row, so the match count is the rows taken.
    counts = NUM_ROWS - row_free.sum(axis=0)
    if not collect:
        return counts, None
    per_trial: list[list[Grant]] = [[] for _ in range(trials)]
    for row_offset, col_offset, sel in steps:
        srow = (start_row[sel] + row_offset) % NUM_ROWS
        scol = (start_col[sel] + col_offset) % NUM_OUTPUT_PORTS
        for t, r, c, u in zip(
            sel.tolist(), srow.tolist(), scol.tolist(),
            cells[sel, srow, scol].tolist(),
        ):
            per_trial[t].append(Grant(row=r, packet=u, output=c))
    return counts, per_trial


# -- PIM1 ------------------------------------------------------------------


def pim1_kernel(
    workload: BatchWorkload, collect: bool
) -> tuple[np.ndarray, list[list[Grant]] | None]:
    """One nominate/grant/accept round of PIM, all trials at once.

    Grant: each output draws ``k`` (keyed by the output) and takes the
    ``k+1``-th requesting row in ascending order -- the array form of
    ``rows[rng.randrange(len(rows))]`` over the sorted row set.
    Accept: each row with offers draws ``j`` (keyed by the row) and
    takes its ``j+1``-th offering output in ascending order, matching
    the object path's per-row offer lists built in sorted-output order.
    """
    trials = workload.trials
    cells = cell_table(workload)
    requested = (cells != SENTINEL) & workload.free_bool[:, None, :]

    t = np.arange(trials, dtype=np.uint64)[:, None]
    outs = np.arange(NUM_OUTPUT_PORTS, dtype=np.uint64)[None, :]
    n_rows = requested.sum(axis=1)  # (T, 7) requesting rows per output
    k = krng.words(workload.seed, t, krng.D_PIM_GRANT, 0, outs) % np.maximum(
        n_rows, 1
    ).astype(np.uint64)
    row_rank = np.cumsum(requested, axis=1)
    offers = requested & (row_rank == (k.astype(np.int64) + 1)[:, None, :])

    n_offers = offers.sum(axis=2)  # (T, 16) offers per row
    # Every row with an offer accepts exactly one of them.
    counts = (n_offers > 0).sum(axis=1)
    if not collect:
        return counts, None
    rows = np.arange(NUM_ROWS, dtype=np.uint64)[None, :]
    j = krng.words(workload.seed, t, krng.D_PIM_ACCEPT, 0, rows) % np.maximum(
        n_offers, 1
    ).astype(np.uint64)
    offer_rank = np.cumsum(offers, axis=2)
    accepted = offers & (offer_rank == (j.astype(np.int64) + 1)[:, :, None])
    per_trial: list[list[Grant]] = [[] for _ in range(trials)]
    # nonzero is row-major: trials ascending, rows ascending within a
    # trial -- exactly the accept loop's ascending-row emission order.
    for t_i, r, o in zip(*(idx.tolist() for idx in np.nonzero(accepted))):
        per_trial[t_i].append(
            Grant(row=r, packet=int(cells[t_i, r, o]), output=o)
        )
    return counts, per_trial


# -- single-output nominations (SPAA, OPF) ---------------------------------


@dataclass(frozen=True)
class SingleOutputBatch:
    """At most one nomination per input port per trial, as (T, 8) arrays."""

    valid: np.ndarray  #: the port nominated this trial
    row: np.ndarray  #: nominating read-port row
    out: np.ndarray  #: the single chosen output
    uid: np.ndarray  #: the nominated packet


def single_output_batch(
    workload: BatchWorkload, check_free: bool
) -> SingleOutputBatch:
    """Batched form of the object path's single-output nominations.

    Per (trial, port): the oldest packet with at least one usable
    candidate wins the port's nomination slot, then picks uniformly
    among its usable candidates *in packet-output order* (first
    direction before second), keyed by the packet's uid -- matching
    ``outputs[rng(len(outputs))]`` on the object path.
    """
    trials, load = workload.trials, workload.load
    tp = np.arange(trials)[:, None]

    cand1 = workload.conn1
    cand2 = workload.out2 != NO_OUTPUT
    if check_free:
        cand1 = cand1 & workload.free_bool[tp, workload.out1]
        safe2 = np.where(cand2, workload.out2, 0)
        cand2 = cand2 & workload.free_bool[tp, safe2]
    n_cand = cand1.astype(np.int64) + cand2

    uid_or_load = np.where(
        n_cand > 0, np.arange(load, dtype=np.int64)[None, :], load
    )
    sel_uid = np.empty((trials, 8), np.int64)
    for port in range(8):
        sel_uid[:, port] = np.where(
            workload.port == port, uid_or_load, load
        ).min(axis=1)
    valid = sel_uid < load
    s = np.where(valid, sel_uid, 0)

    n_s = n_cand[tp, s]
    out1_s = workload.out1[tp, s]
    out2_s = workload.out2[tp, s]
    k = krng.words(
        workload.seed,
        np.arange(trials, dtype=np.uint64)[:, None],
        krng.D_NOM_CHOICE,
        s.astype(np.uint64),
    ) % np.maximum(n_s, 1).astype(np.uint64)
    chosen = np.where(
        n_s == 2,
        np.where(k == 0, out1_s, out2_s),
        np.where(cand1[tp, s], out1_s, out2_s),
    )
    return SingleOutputBatch(
        valid=valid, row=workload.row[tp, s], out=chosen, uid=sel_uid
    )


def opf_kernel(
    workload: BatchWorkload, collect: bool
) -> tuple[np.ndarray, list[list[Grant]] | None]:
    """Uncoordinated oldest-packet-first: lowest claiming row per output.

    OPF nominations skip the free check (the straw man aims blindly);
    the arbiter then drops busy-output claims, scans rows ascending and
    grants each output's first claimant.
    """
    trials = workload.trials
    noms = single_output_batch(workload, check_free=False)
    tp = np.arange(trials)[:, None]
    ok = noms.valid & workload.free_bool[tp, np.where(noms.valid, noms.out, 0)]

    counts = np.zeros(trials, np.int64)
    winners: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
    for out in range(NUM_OUTPUT_PORTS):
        claims = ok & (noms.out == out)
        has = claims.any(axis=1)
        counts += has
        if collect and has.any():
            port_idx = np.where(claims, noms.row, NUM_ROWS).argmin(axis=1)
            sel = np.nonzero(has)[0]
            winners.append((
                out,
                sel,
                noms.row[sel, port_idx[sel]],
                noms.uid[sel, port_idx[sel]],
            ))
    if not collect:
        return counts, None
    # The object arbiter scans rows ascending, so order each trial's
    # grants by winner row (rows are unique within a trial).
    flat: list[tuple[int, int, int, int]] = []
    for out, sel, srow, suid in winners:
        flat.extend(
            zip(sel.tolist(), srow.tolist(), suid.tolist(), [out] * len(sel))
        )
    flat.sort()
    per_trial: list[list[Grant]] = [[] for _ in range(trials)]
    for t, r, u, out in flat:
        per_trial[t].append(Grant(row=r, packet=u, output=out))
    return counts, per_trial


#: set bits per 7-bit output mask.
_POPCOUNT = np.array([bin(mask).count("1") for mask in range(1 << 7)])


def spaa_kernel(
    workload: BatchWorkload, rotary: bool, collect: bool
) -> tuple[np.ndarray, list[list[Grant]] | None]:
    """SPAA's grant step: array counts, sequential LRS loop for grants.

    Nominations only ever target free outputs, and every nominated
    output grants exactly one of its claimants, so a trial's match
    count is its number of distinct nominated outputs -- whoever wins
    them.  Only *which* row wins depends on the least-recently-selected
    history, which couples every trial to all earlier grants; that
    Python loop runs over primitive lists, and only when the grants
    themselves are wanted.
    """
    trials = workload.trials
    noms = single_output_batch(workload, check_free=True)
    out_mask = np.bitwise_or.reduce(
        np.where(noms.valid, 1 << noms.out, 0), axis=1
    )
    counts = _POPCOUNT[out_mask]
    if not collect:
        return counts, None

    valid_l = noms.valid.tolist()
    row_l = noms.row.tolist()
    out_l = noms.out.tolist()
    uid_l = noms.uid.tolist()
    last = [[-1] * NUM_ROWS for _ in range(NUM_OUTPUT_PORTS)]
    clock = 0
    per_trial: list[list[Grant]] = []
    for t in range(trials):
        by_out: dict[int, list[tuple[int, int]]] = {}
        t_valid, t_row, t_out, t_uid = valid_l[t], row_l[t], out_l[t], uid_l[t]
        for port in range(8):
            if t_valid[port]:
                by_out.setdefault(t_out[port], []).append(
                    (t_row[port], t_uid[port])
                )
        grants: list[Grant] = []
        for out in sorted(by_out):
            candidates = by_out[out]
            if rotary:
                # Rotary Rule: network rows (torus read ports, rows
                # 0..7) pre-empt local ones; LRS breaks ties within.
                network = [c for c in candidates if c[0] < 8]
                if network:
                    candidates = network
            history = last[out]
            win_row, win_uid = min(
                candidates, key=lambda c: (history[c[0]], c[0])
            )
            clock += 1
            history[win_row] = clock
            grants.append(Grant(row=win_row, packet=win_uid, output=out))
        per_trial.append(grants)
    return counts, per_trial
