"""The service verbs: ``serve``, ``work``, ``submit`` and ``status``.

Usage::

    # coordinator, one-shot job over whoever connects:
    repro-experiments serve chaos --output-dir fleet-out --count 8 \\
        --port 7421 --wait-workers 2
    # workers (any host that can reach the coordinator):
    repro-experiments work --connect cohost:7421 --name worker-a
    # idle coordinator + remote submission:
    repro-experiments serve --port 7421 &
    repro-experiments submit chaos --connect cohost:7421 --output-dir out
    repro-experiments status --connect cohost:7421

A job is the local command line: ``serve`` and ``submit`` parse only
``--host/--port/--wait-workers/--quiet`` and ``--connect``, wherever
they sit; the rest (``fig10 ...``, ``fig11 ...`` or ``chaos <the flags
of "chaos run">``) goes to :mod:`repro.service.jobs` unread.

``serve`` with a job runs it and then broadcasts ``shutdown`` so the
fleet exits cleanly; ``serve`` without one idles, draining submitted
jobs in arrival order until interrupted (a job that fails is reported
and the coordinator stays up).  A SIGKILLed coordinator restarts with
``--resume``: the journal already holds every completed point, so only
the remainder is re-leased.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

from repro.service.jobs import check_job, run_job
from repro.service.protocol import connect
from repro.service.server import ServiceServer
from repro.service.worker import WorkerConfig, run_worker

__all__ = ["build_parser", "main"]


def _parse_endpoint(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep:
        raise SystemExit(f"--connect needs host:port, got {text!r}")
    try:
        return host, int(port)
    except ValueError as error:
        raise SystemExit(f"bad --connect port in {text!r}") from error


def _ask(endpoint: str, frame: dict) -> dict | None:
    """One frame to the coordinator at *endpoint*, its one reply back."""
    channel = connect(*_parse_endpoint(endpoint))
    try:
        channel.send(frame)
        return channel.recv()
    finally:
        channel.close()


def _cmd_serve(args: argparse.Namespace) -> int:
    # Progress lines are the job's: its own --quiet silences them.
    quiet = ["--quiet"] if args.quiet else []
    if args.job:
        check_job(args.job)
    with ServiceServer(args.host, args.port) as server:
        if not args.job:  # idle: take submitted jobs from the first moment
            server.set_job_check(check_job)
        state = {"state": "idle"}
        server.set_status_provider(
            lambda: {
                "state": state["state"],
                "workers": [w.name for w in server.workers],
            }
        )
        print(
            f"serving on {server.host}:{server.port} "
            f"(session {server.session})",
            file=sys.stderr,
            flush=True,
        )
        try:
            while len(server.workers) < args.wait_workers:
                time.sleep(0.05)
            if args.job:
                state["state"] = f"running {args.job[0]}"
                return run_job(server, args.job + quiet)
            while True:  # idle: drain submitted jobs until interrupted
                job = server.jobs.get()["job"]
                state["state"] = f"running {job[0]}"
                # A job that dies must not take the coordinator and its
                # fleet with it: report, then back to idle.
                try:
                    code = run_job(server, job + quiet)
                except SystemExit as error:  # the job's own usage errors
                    code = error.code
                except Exception:  # noqa: BLE001
                    traceback.print_exc()
                    code = 1
                state["state"] = "idle"
                if code:
                    print(
                        f"submitted {job[0]} job failed: {code}",
                        file=sys.stderr,
                        flush=True,
                    )
        except KeyboardInterrupt:
            return 130
        finally:
            server.broadcast({"type": "shutdown"})


def _cmd_work(args: argparse.Namespace) -> int:
    host, port = _parse_endpoint(args.connect)
    return run_worker(
        WorkerConfig(
            host=host,
            port=port,
            name=args.name or "",
            max_reconnects=args.max_reconnects,
            seed=args.seed,
        )
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    check_job(args.job)
    reply = _ask(args.connect, {"type": "submit", "job": args.job}) or {}
    if reply.get("type") != "ok":
        detail = reply.get("detail", "no reply")
        print(f"coordinator refused the job: {detail}", file=sys.stderr)
        return 1
    print(f"submitted {args.job[0]} to session {reply.get('session')}")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    reply = _ask(args.connect, {"type": "status"})
    if reply is None:
        print("no status reply", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(reply, indent=2, sort_keys=True))
        return 0
    workers = reply.get("workers") or []
    print(f"session:  {reply.get('session')}")
    print(f"state:    {reply.get('state')}")
    print(f"workers:  {len(workers)}" + (f" ({', '.join(workers)})" if workers else ""))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Distributed sweep/chaos service: a lease-based coordinator "
            "plus remote workers (see docs/service.md)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Whatever these two verbs do not claim is the job, so a job flag
    # must never be eaten as the abbreviation of one of theirs.
    takes_job = dict(
        allow_abbrev=False,
        description="JOB is the local command line, unchanged: 'fig10 ...', "
                    "'fig11 ...' or 'chaos <the flags of chaos run>'.  Every "
                    "word that is not one of the options below belongs to "
                    "it, wherever it sits.",
    )
    serve_p = sub.add_parser(
        "serve",
        help="run the coordinator (one-shot JOB, or idle + submit)",
        **takes_job,
    )
    serve_p.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1; the service is "
             "unauthenticated -- do not expose it to untrusted networks)",
    )
    serve_p.add_argument(
        "--port", type=int, default=0,
        help="listen port (default 0 = ephemeral, printed on stderr)",
    )
    serve_p.add_argument(
        "--wait-workers", type=int, default=0, metavar="N",
        help="wait until N workers have joined before starting the job",
    )
    serve_p.add_argument(
        "--quiet", action="store_true",
        help="suppress the progress lines of every job this coordinator runs",
    )
    serve_p.set_defaults(func=_cmd_serve)

    work_p = sub.add_parser("work", help="join a coordinator as a fleet worker")
    work_p.add_argument(
        "--name", default=None, help="worker name shown in status/traces"
    )
    work_p.add_argument(
        "--seed", type=int, default=0,
        help="seed for the jittered reconnect backoff (default 0)",
    )
    work_p.add_argument(
        "--max-reconnects", type=int, default=None, metavar="N",
        help="give up after N consecutive failed connection attempts "
             "(default: retry until shutdown)",
    )
    work_p.set_defaults(func=_cmd_work)

    submit_p = sub.add_parser(
        "submit",
        help="hand JOB to an idle (serve, no job) coordinator",
        **takes_job,
    )
    submit_p.set_defaults(func=_cmd_submit)

    status_p = sub.add_parser("status", help="query a coordinator's status")
    status_p.add_argument(
        "--json", action="store_true", help="print the raw status frame"
    )
    status_p.set_defaults(func=_cmd_status)
    for client_p in (work_p, submit_p, status_p):
        client_p.add_argument(
            "--connect", required=True, metavar="HOST:PORT",
            help="the coordinator's address",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, job = parser.parse_known_args(argv)
    args.job = job  # whatever serve/submit did not claim
    if job and args.command not in ("serve", "submit"):
        parser.error(f"unrecognized arguments: {' '.join(job)}")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
