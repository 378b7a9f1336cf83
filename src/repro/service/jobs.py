"""Fleet jobs: the local command line, with the fleet as executor.

A *job* is the argv a local run would take -- ``["fig10", "--preset",
"smoke", ...]``, ``["fig11", ...]`` or ``["chaos", <the flags of
"chaos run">]`` -- typed after ``serve`` or shipped over the wire by
``submit``.  The job's own parser checks it and the ``main`` a local
run enters executes it, with the live ``ServiceServer`` threaded in as
``fleet``: there is no second flag table and no translation step, which
is what keeps fleet artifacts byte-comparable to single-host ones.
"""

from __future__ import annotations

from repro.chaos import cli as chaos_cli
from repro.experiments import cli as experiments_cli
from repro.service.server import ServiceServer

__all__ = ["JOB_KINDS", "check_job", "run_job"]

JOB_KINDS = ("fig10", "fig11", "chaos")


def _entry(job: list[str]):
    """The CLI module a job enters and the argv it enters it with."""
    if job[0] == "chaos":
        return chaos_cli, ["run", *job[1:]]
    return experiments_cli, job


def check_job(job) -> None:
    """Exit, as a bad command line does, unless *job* can run on a fleet.

    Anything may arrive in a ``submit`` frame, so the shape is checked
    first; the flags are the business of the job's own parser (whose
    usage message goes to this process's stderr, as argparse writes it).
    """
    if (
        not isinstance(job, list)
        or not all(isinstance(word, str) for word in job)
        or not job
        or job[0] not in JOB_KINDS
    ):
        raise SystemExit(
            "a job is the local command line, an argv list starting with "
            f"one of {', '.join(JOB_KINDS)}; got {job!r}"
        )
    cli, argv = _entry(job)
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit:
        raise SystemExit(f"the {job[0]} command line refuses {job[1:]}") from None


def run_job(server: ServiceServer, job: list[str]) -> int:
    """Run one checked job over the fleet; returns the job's exit code."""
    cli, argv = _entry(job)
    return cli.main(argv, fleet=server)
