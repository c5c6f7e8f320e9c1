"""Command-line interface: ``python -m repro`` / ``repro``.

Commands::

    repro list                         # index of experiments
    repro info E7                      # claim, reference
    repro run E7 --scale small         # run one experiment, print table
    repro run E1 --workers 4           # parallel trial execution
    repro run E1 --workers 4 --chunksize 8   # fixed specs per work unit
    repro run E1 --backend cluster     # trials on TCP worker nodes
    repro run all --scale tiny --csv /tmp/repro-csv
    repro worker serve --port 7101     # one cluster worker node
    repro worker serve --port 7101 --node-workers 8   # 8-wide node pool
    repro serve --port 8080            # long-lived experiment service
    repro info                         # every knob, backend, cache status

Experiments are deterministic given ``--seed`` — including under
``--workers N`` (or ``$REPRO_WORKERS``), any ``--chunksize`` (or
``$REPRO_CHUNKSIZE``) and any ``--backend`` (or ``$REPRO_BACKEND``),
which parallelise trial execution without changing any result; see
:mod:`repro.runtime`.  ``--backend cluster`` distributes trials over
the ``repro worker serve`` nodes named by ``$REPRO_CLUSTER_NODES``
(``host:port,host:port``), or spawns localhost nodes when unset; each
node executes chunks on a local pool (``--node-workers``, default CPU
count) and holds one chunk in flight per pool worker, and the
coordinator requeues the chunks of a node that goes silent past the
heartbeat deadline (``$REPRO_HEARTBEAT`` seconds; 0 disables).

Every flag backed by a ``$REPRO_*`` knob parses with that knob's row of
:mod:`repro.settings`, so a flag and its variable accept and reject
the same text, and its ``default:`` help comes from the row too.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Sequence

from repro.experiments.registry import all_experiments, get_experiment
from repro.experiments.spec import SCALES
from repro.runtime import available_backends, make_runner
from repro.settings import KNOBS, format_value, resolve, source

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction harness for 'Routing Complexity of Faulty "
            "Networks' (Angel, Benjamini, Ofek, Wieder; PODC 2005)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all experiments")

    sub.add_parser(
        "thresholds", help="print the critical-probability registry"
    )

    info = sub.add_parser(
        "info",
        help="describe one experiment, or the resolved environment",
    )
    info.add_argument(
        "experiment",
        nargs="?",
        default=None,
        help=(
            "experiment id, e.g. E7; omit to print every setting with "
            "its resolved value and source, the backend, and the "
            "result-cache location and entry count instead"
        ),
    )

    run = sub.add_parser("run", help="run experiment(s) and print tables")
    run.add_argument("experiment", help="experiment id, or 'all'")
    run.add_argument(
        "--scale", choices=SCALES, default="small", help="problem size preset"
    )
    run.add_argument("--seed", type=int, default=0, help="master seed")
    run.add_argument(
        "--csv", metavar="DIR", default=None, help="also write CSVs here"
    )
    _add_workers_argument(run)

    report = sub.add_parser(
        "report", help="run everything and write a markdown report"
    )
    report.add_argument(
        "--scale", choices=SCALES, default="small", help="problem size preset"
    )
    report.add_argument("--seed", type=int, default=0, help="master seed")
    report.add_argument(
        "--out", metavar="FILE", default="EXPERIMENTS.generated.md"
    )
    _add_workers_argument(report)

    worker = sub.add_parser(
        "worker", help="cluster worker-node commands"
    )
    worker_sub = worker.add_subparsers(dest="worker_command", required=True)
    serve = worker_sub.add_parser(
        "serve",
        help="serve trial chunks over TCP for ClusterRunner coordinators",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help=(
            "interface to bind (default loopback; the protocol carries "
            "pickles, so only listen where coordinators are trusted)"
        ),
    )
    serve.add_argument(
        "--port",
        type=_port_int,
        default=0,
        help="TCP port; 0 picks an ephemeral port, announced on stdout",
    )
    _add_knob(
        serve, "--node-workers", "node_workers", "N",
        "local execution-pool size: trials run on this many worker "
        "processes concurrently",
    )

    service = sub.add_parser(
        "serve",
        help=(
            "serve experiments over HTTP with content-addressed result "
            "caching"
        ),
    )
    service.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default loopback)",
    )
    service.add_argument(
        "--port",
        type=_port_int,
        default=0,
        help="TCP port; 0 picks an ephemeral port, announced on stdout",
    )
    _add_knob(
        service, "--backend", "backend", "B",
        "runner backend for job execution: one of "
        f"{', '.join(available_backends())}",
    )
    _add_knob(
        service, "--workers", "workers", "N",
        "worker processes for the backend runner",
    )
    _add_knob(
        service, "--chunksize", "chunksize", "C",
        "specs per parallel work unit for the backend runner",
    )
    _add_knob(
        service, "--cache-dir", "cache_dir", "DIR",
        "result-cache directory; created if missing",
    )
    _add_knob(
        service, "--cache-cap", "cache_cap", "N",
        "LRU cap on cached sweep points and finished tables, in "
        "entries; 0 = unbounded",
    )
    _add_knob(
        service, "--cache-cap-bytes", "cache_cap_bytes", "BYTES",
        "LRU cap on cached sweep points and finished tables, in total "
        "bytes on disk; 0 = unbounded",
    )
    service.add_argument(
        "--job-ttl",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help=(
            "forget finished jobs this many seconds after completion "
            "(their sweep points and finished tables stay in the result "
            "cache); default: "
            "keep every job for the life of the process"
        ),
    )
    return parser


def _positive_float(text: str) -> float:
    import math

    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a number of seconds, got {text!r}"
        ) from None
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text}"
        )
    return value


def _port_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a TCP port number, got {text!r}"
        ) from None
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"port must be in [0, 65535], got {value}"
        )
    return value


def _add_knob(
    parser: argparse.ArgumentParser,
    flag: str,
    name: str,
    metavar: str,
    help: str,
) -> None:
    """A flag backed by the settings row ``name``.  Its text parses
    with the row, so the flag and the variable reject the same text
    with the same message; unset, the knob resolves from the variable,
    else the default."""
    knob = KNOBS[name]

    def parse(text: str):
        try:
            return knob.parse(text, True)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    parser.add_argument(
        flag,
        type=parse,
        default=None,
        metavar=metavar,
        help=f"{help} (default: ${knob.env}, else {knob.default_text})",
    )


def _add_workers_argument(parser: argparse.ArgumentParser) -> None:
    _add_knob(
        parser, "--workers", "workers", "N",
        "worker processes for trial execution; results are identical "
        "for any N",
    )
    _add_knob(
        parser, "--chunksize", "chunksize", "C",
        "specs per parallel work unit; results are identical for any C",
    )
    _add_knob(
        parser, "--backend", "backend", "B",
        f"runner backend: one of {', '.join(available_backends())}; "
        "results are identical for any backend",
    )


def _cmd_list() -> int:
    for spec in all_experiments():
        print(f"{spec.experiment_id:<4} {spec.title}  [{spec.reference}]")
    return 0


def _cmd_thresholds() -> int:
    from repro.percolation import thresholds as th
    from repro.util.tables import render_table

    rows = [
        {
            "model": f"mesh Z^{d} (bond)",
            "threshold": th.mesh_critical_probability(d),
            "meaning": "giant component",
        }
        for d in sorted(th.MESH_PC)
    ]
    for n in (10, 16, 24):
        rows.append(
            {
                "model": f"hypercube n={n}",
                "threshold": th.hypercube_giant_threshold(n),
                "meaning": "giant component (AKS, 1/n)",
            }
        )
        rows.append(
            {
                "model": f"hypercube n={n}",
                "threshold": th.hypercube_routing_threshold(n),
                "meaning": "routing transition (this paper, n^-1/2)",
            }
        )
    rows.append(
        {
            "model": "hypercube (any n)",
            "threshold": th.hypercube_connectivity_threshold(),
            "meaning": "full connectivity (Erdos-Spencer)",
        }
    )
    rows.append(
        {
            "model": "double tree TT_n",
            "threshold": th.double_tree_threshold(),
            "meaning": "root connectivity (Lemma 6, 1/sqrt(2))",
        }
    )
    rows.append(
        {
            "model": "G(n, c/n)",
            "threshold": 1.0,
            "meaning": "giant component at c = 1",
        }
    )
    print(render_table(rows, title="Critical probabilities"))
    return 0


def _kernel_audit_line(spec) -> str:
    """Run ``spec`` at tiny scale and report what ran on the kernel.

    The counts are the difference of the process-wide execution tally
    over the run, so specs of nested runners and batches an engine
    declined at run time count as they executed.
    """
    from repro.runtime import SerialRunner
    from repro.runtime.chunkexec import TALLY

    before = TALLY.copy()
    spec(scale="tiny", seed=0, runner=SerialRunner())
    ran = TALLY - before
    kernel = ran["kernel"]
    total = kernel + ran["per-trial"]
    if kernel and not ran["per-trial"]:
        shape = "vectorized chunk kernel"
    elif kernel:
        shape = "vectorized chunk kernel + per-trial fallback"
    else:
        shape = "per-trial fallback"
    # A kernel spec can still run single stages per trial (a router
    # without an engine drops only routing); demand trials whose
    # commodities one engine call routed say so on the routing stage.
    routing = "routing"
    if ran["commodity-batched"]:
        routing = "routing (commodity-batched)"
    stages = {
        "draw": kernel,
        "conditioning": kernel - ran["conditioning per-trial"],
        routing: kernel - ran["routing per-trial"],
    }
    split = "  ".join(
        f"{stage} {n}/{total} kernel" for stage, n in stages.items()
    )
    return (
        f"execution: {shape} "
        f"({kernel}/{total} specs ran on the kernel at tiny scale)"
        f"\nstages: {split}"
    )


def _cmd_info(experiment_id: str | None) -> int:
    if experiment_id is None:
        return _cmd_info_environment()
    spec = get_experiment(experiment_id)
    print(f"{spec.experiment_id}: {spec.title}")
    print(f"reference: {spec.reference}")
    print(f"claim: {spec.claim}")
    print(_kernel_audit_line(spec))
    return 0


def _cmd_info_environment() -> int:
    """``repro info`` with no experiment: the resolved environment —
    which backend a run would use, where the result cache lives and how
    full it is, the code version that keys new cache entries, then
    every settings row with its resolved value and source.  An invalid
    knob prints ``invalid: <message>`` and the command exits 1."""
    from repro.serve import ResultCache, code_version

    rows, invalid = [], False
    for knob in KNOBS.values():
        try:
            shown = format_value(resolve(knob.name))
        except ValueError as exc:
            shown, invalid = f"invalid: {exc}", True
        rows.append(
            f"  {knob.name:<16}{knob.env:<22}{shown}  "
            f"({source(knob.name)})"
        )
    if not invalid:
        cache_dir = resolve("cache_dir")
        print(f"backend: {resolve('backend')}")
        print(f"cache dir: {cache_dir}")
        print(f"cache entries: {ResultCache(cache_dir).entry_count()}")
        print(f"code version: {code_version()}")
        print(f"experiments: {len(all_experiments())}")
    print("settings:")
    print("\n".join(rows))
    return 1 if invalid else 0


def _cmd_serve(args) -> int:
    from repro.serve import ExperimentService

    service = ExperimentService(
        host=args.host,
        port=args.port,
        backend=args.backend,
        workers=args.workers,
        chunksize=args.chunksize,
        cache_dir=args.cache_dir,
        cache_cap=args.cache_cap,
        cache_cap_bytes=args.cache_cap_bytes,
        job_ttl=args.job_ttl,
    )

    def _announce(svc) -> None:
        print(
            f"repro service on {svc.address} "
            f"(backend={svc.backend}, cache={svc.cache.directory})",
            flush=True,
        )

    service.serve_forever(ready=_announce)
    return 0


def _cmd_run(
    experiment_id: str,
    scale: str,
    seed: int,
    csv_dir,
    workers,
    chunksize,
    backend,
) -> int:
    if experiment_id.lower() == "all":
        specs = all_experiments()
    else:
        specs = [get_experiment(experiment_id)]
    # The runner (and its worker pool or cluster connections, if
    # parallel) is shared by every experiment of the invocation, so
    # `run all --workers N` pays start-up once, not once per experiment.
    with make_runner(workers, chunksize, backend=backend) as runner:
        for spec in specs:
            start = time.perf_counter()
            table = spec(scale=scale, seed=seed, runner=runner)
            elapsed = time.perf_counter() - start
            print(table.render())
            print(f"  ({len(table)} rows, {elapsed:.1f}s, scale={scale})")
            print()
            if csv_dir is not None:
                path = table.to_csv(csv_dir)
                print(f"  wrote {path}")
    return 0


def _cmd_report(
    scale: str, seed: int, out: str, workers, chunksize, backend
) -> int:
    from pathlib import Path

    from repro.experiments.report import render_experiments_markdown

    sections = []
    with make_runner(workers, chunksize, backend=backend) as runner:
        for spec in all_experiments():
            print(f"running {spec.experiment_id} ({scale}) ...", flush=True)
            sections.append(
                (spec, spec(scale=scale, seed=seed, runner=runner))
            )
    preamble = (
        "# Experiment report (generated)\n\n"
        f"Scale: {scale}; master seed: {seed}.  `repro list` prints the "
        "experiment index."
    )
    Path(out).write_text(
        render_experiments_markdown(sections, preamble=preamble),
        encoding="utf-8",
    )
    print(f"wrote {out}")
    return 0


def _cmd_worker_serve(host: str, port: int, node_workers) -> int:
    from repro.runtime.cluster import serve

    serve(host, port, node_workers=node_workers)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = _dispatch(args)
        # Flush here, so a reader that exited early (`| head`) raises
        # inside this block rather than at interpreter shutdown.
        sys.stdout.flush()
    except BrokenPipeError:
        # Python's documented SIGPIPE idiom: send the rest of stdout to
        # devnull, so the flush at exit cannot raise again, and exit 1.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "thresholds":
        return _cmd_thresholds()
    if args.command == "info":
        return _cmd_info(args.experiment)
    if args.command == "run":
        return _cmd_run(
            args.experiment,
            args.scale,
            args.seed,
            args.csv,
            args.workers,
            args.chunksize,
            args.backend,
        )
    if args.command == "report":
        return _cmd_report(
            args.scale,
            args.seed,
            args.out,
            args.workers,
            args.chunksize,
            args.backend,
        )
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "worker":
        if args.worker_command == "serve":
            return _cmd_worker_serve(args.host, args.port, args.node_workers)
        raise AssertionError(
            f"unhandled worker command {args.worker_command!r}"
        )
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
