"""``python -m repro.engine`` — run, shard, merge, and inspect experiments.

Subcommands::

    python -m repro.engine run --experiment sinkless --workers 4
    python -m repro.engine plan --experiment landscape --shards 4 --out plan.json
    python -m repro.engine run-shard --plan plan.json --shard 0/4 --cache-out shard0
    python -m repro.engine merge --plan plan.json --from shard0 shard1 shard2 shard3
    python -m repro.engine fabric --plan plan.json --cache-dir cache
    python -m repro.engine fabric --plan plan.json --target 'cmd://ssh h ...'
    python -m repro.engine status --plan plan.json
    python -m repro.engine stats --report report.json
    python -m repro.engine cache --status
    python -m repro.engine cache --compact
    python -m repro.engine list
    python -m repro.engine describe mis-luby

Observability: every subcommand takes ``-v``/``-vv`` (INFO/DEBUG on
the ``repro`` loggers, stderr) and ``-q`` (errors only — library
users can equally attach their own handlers and silence the CLI);
``run``/``run-shard``/``merge`` take ``--trace PATH`` to stream span
and event JSONL for offline analysis; ``stats`` renders the
phase/counter breakdown a ``--json`` report carries, and ``cache
--status`` the trial cache's counters.

A flag shared by several subcommands means the same in each:
``--json -`` is stdout, count flags reject values below 1, and
``fabric``'s seconds flags reject values that are not positive.
``run`` prints one table per spec (the same renderer the benchmark
suite feeds into ``benchmarks/conftest.report``) plus
cache/parallelism accounting, and optionally writes the full JSON
report; ``list``/``describe`` read the runtime registry's catalogs.

The shard flow needs no scheduler integration: ``plan`` writes one
JSON file fixing the chunk/shard partition for every spec of an
experiment, ``run-shard`` executes one shard of it anywhere (a private
``--cache-out`` root keeps concurrent shards from contending), and
``merge`` unions the shard caches and rebuilds the exact report — and
Figure 1 table — a single-host run would have produced.  Any shell
loop, make, or batch scheduler can drive it — or ``fabric`` drives all
shards itself as supervised subprocesses, with leases, heartbeat
liveness, retry with backoff, and graceful degradation (exit 4 plus a
gap manifest when shards exhaust their attempts).

Failure hygiene: every subcommand reports a setup failure (a missing
plan or cache root, a bad shard index, an unknown name) as one
structured line (command, experiment, shard, cause) on stderr, and
``run``/``run-shard``/``merge``/``fabric`` report run-time failures (a
rejected output, a crashed worker) the same way and exit 3 — never a
bare traceback.  ``--json-errors`` switches that line to a JSON object
for supervising processes.  Usage errors are argparse's own message.
Exit codes: 0 success, 2 bad invocation/setup, 3 run-time failure
(an interrupted ``fabric`` included), 4 degraded fabric.  ``run-shard
--heartbeat PATH`` publishes the :mod:`repro.obs.heartbeat` progress
file the fabric watches, ``--inject SPEC`` arms the
:mod:`repro.engine.faults` chaos harness, and ``status --heartbeats
DIR`` renders the heartbeat files in a fabric work dir.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import shlex
import sys
from typing import Sequence

from repro.engine.cache import DEFAULT_CACHE_DIR, TrialCache
from repro.engine.experiments import EXPERIMENTS, build_experiment, paper_placement
from repro.engine.fabric import BackoffPolicy, run_fabric
from repro.engine.faults import (
    ENV_ATTEMPT,
    ENV_FAULTS,
    FaultInjector,
    parse_fault_specs,
)
from repro.engine.pool import default_workers
from repro.engine.remote import ExecTarget, assign_targets, shard_context
from repro.engine.runner import (
    EngineReport,
    plan_experiment,
    run_experiment,
    run_shard,
)
from repro.engine.shard import (
    ShardPlan,
    dump_plan_file,
    load_plan_file,
    shard_coverage,
)
from repro.obs import (
    HeartbeatEmitter,
    TraceSink,
    format_telemetry,
    get_telemetry,
    merge_snapshots,
    read_heartbeat,
)
from repro.runtime import registry
from repro.util.fsio import atomic_write_text

__all__ = ["main", "format_report", "format_catalog"]

_LOG = logging.getLogger("repro.engine.cli")


def _setup_logging(args: argparse.Namespace) -> None:
    """Configure the ``repro`` logger tree from the CLI verbosity flags.

    The library logs through stdlib ``logging`` (``repro.engine`` /
    ``repro.runtime``) and never prints; the CLI decides what surfaces.
    Default is warnings only; ``-v`` (or ``--progress``, which implies
    wanting to watch the run) shows INFO, ``-vv`` DEBUG, ``-q`` errors
    only.  Embedding callers configure the same loggers themselves and
    never go through here.
    """
    if args.quiet:
        level = logging.ERROR
    elif args.verbose >= 2:
        level = logging.DEBUG
    elif args.verbose or getattr(args, "progress", False):
        level = logging.INFO
    else:
        level = logging.WARNING
    root = logging.getLogger("repro")
    root.setLevel(level)
    if not root.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
        root.addHandler(handler)


def _attach_trace(args: argparse.Namespace) -> TraceSink | None:
    """Open ``--trace PATH`` and attach it to the default telemetry."""
    if not args.trace:
        return None
    sink = TraceSink(args.trace)
    get_telemetry().attach_sink(sink)
    _LOG.info("streaming span/event trace to %s", args.trace)
    return sink


def _detach_trace(sink: TraceSink | None) -> None:
    if sink is not None:
        get_telemetry().detach_sink()
        sink.close()


def _emit_error(
    args: argparse.Namespace,
    err: BaseException,
    code: int,
    experiment: str | None = None,
    shard: int | None = None,
) -> int:
    """One structured error line to stderr; returns the exit code.

    The default form is a single greppable key=value line; with
    ``--json-errors`` it becomes one JSON object, which is what the
    fabric launcher parses out of a failed shard's log to attribute the
    failure.  Never a traceback on this path — ``-vv`` logs one.
    """
    _LOG.debug("%s failed", args.command, exc_info=True)
    cause = type(err).__name__
    message = str(err) or cause
    fields = {
        key: value
        for key, value in (
            ("command", args.command),
            ("experiment", experiment),
            ("shard", shard),
            ("cause", cause),
        )
        if value is not None
    }
    if getattr(args, "json_errors", False):
        payload = {**fields, "message": message, "exit_code": code}
        print(json.dumps({"error": payload}, sort_keys=True), file=sys.stderr)
    else:
        parts = [f"{key}={value}" for key, value in fields.items()]
        parts.append(f"message={message!r}")
        print("error: " + " ".join(parts), file=sys.stderr)
    return code


def format_report(reports: Sequence[EngineReport]) -> str:
    """Render engine reports as benchmark-style tables.

    The return value is plain text suitable for
    ``benchmarks.conftest.report`` — one table per spec with the
    measured growth fit in the title, followed by run accounting.
    """
    from repro.analysis import best_fit, render_table

    blocks = []
    for rep in reports:
        sweep = rep.sweep
        fit_note = ""
        if len(sweep.points) >= 3:
            fit = best_fit(sweep.ns(), sweep.means())
            fit_note = f"\n    measured fit: {fit}"
        paper_det, paper_rand = paper_placement(rep.spec.name)
        paper_note = ""
        if (paper_det, paper_rand) != ("-", "-"):
            paper_note = f"\n    paper: det {paper_det} / rand {paper_rand}"
        table = render_table(
            ["n", "trials", "rounds mean", "rounds max", "rounds min"],
            [
                [p.n, p.trials, round(p.rounds_mean, 2), p.rounds_max, p.rounds_min]
                for p in sweep.points
            ],
            title=f"{rep.spec.name} [{sweep.solver_name}]{fit_note}{paper_note}",
        )
        blocks.append(table + "\n" + rep.summary())
    return "\n\n".join(blocks)


# -- list / describe ---------------------------------------------------


def _constraint_note(
    max_degree: int | None, min_degree: int | None, girth: int | None
) -> str:
    parts = []
    if min_degree is not None:
        parts.append(f"deg>={min_degree}")
    if max_degree is not None:
        parts.append(f"deg<={max_degree}")
    if girth is not None:
        parts.append(f"girth>={girth}")
    return ", ".join(parts) if parts else "any graph"


def format_catalog() -> str:
    """The ``list`` view: every registered problem, solver, and family."""
    problems = registry.problems()
    solvers = registry.solvers()
    families = registry.families()
    lines = [f"problems ({len(problems)}):"]
    for name in sorted(problems):
        info = problems[name]
        lines.append(
            f"  {name:24s} det {info.paper_det} / rand {info.paper_rand}"
            f"  [{_constraint_note(info.max_degree, info.min_degree, info.min_girth)}]"
        )
    lines.append(f"\nsolvers ({len(solvers)}):")
    for name in sorted(solvers):
        info = solvers[name]
        kind = "randomized" if info.randomized else "deterministic"
        lines.append(
            f"  {name:24s} {kind:13s} -> {info.problem}"
            f"  on {', '.join(info.families)}"
        )
    lines.append(f"\nfamilies ({len(families)}):")
    for name in sorted(families):
        info = families[name]
        note = _constraint_note(info.max_degree, info.min_degree, info.girth_at_least)
        lines.append(
            f"  {name:24s} sized by {info.size_kind:6s} [{note}]  {info.description}"
        )
    lines.append(f"\nexperiments ({len(EXPERIMENTS)}):")
    for name in sorted(EXPERIMENTS):
        lines.append(f"  {name:24s} {EXPERIMENTS[name].description}")
    lines.append(
        f"\n{len(registry.sound_triples())} sound (problem, solver, family) "
        f"triples, {len(registry.unsound_triples())} declared-unsound probe "
        "triples; `describe <name>` for details"
    )
    return "\n".join(lines)


def format_description(name: str) -> str:
    """The ``describe`` view for one catalog or experiment entry."""
    problems = registry.problems()
    solvers = registry.solvers()
    families = registry.families()
    blocks = []
    if name in problems:
        info = problems[name]
        rows = [
            f"problem {info.name}",
            f"  {info.description}",
            f"  paper placement: det {info.paper_det} / rand {info.paper_rand}",
            "  instance constraints: "
            + _constraint_note(info.max_degree, info.min_degree, info.min_girth),
            "  solvers: "
            + (
                ", ".join(s.name for s in registry.solvers_for(name)) or "(none)"
            ),
        ]
        blocks.append("\n".join(rows))
    if name in solvers:
        info = solvers[name]
        rows = [
            f"solver {info.name}",
            f"  {info.description}",
            f"  {'randomized' if info.randomized else 'deterministic'}, "
            f"solves {info.problem}",
            f"  sound on families: {', '.join(info.families)}",
        ]
        if info.unsound_families:
            rows.append(
                "  declared unsound (verifier must reject) on: "
                + ", ".join(info.unsound_families)
            )
        if info.ref:
            rows.append(f"  factory: {info.ref}")
        blocks.append("\n".join(rows))
    if name in families:
        info = families[name]
        rows = [
            f"family {info.name}",
            f"  {info.description}",
            "  guarantees: "
            + _constraint_note(info.max_degree, info.min_degree, info.girth_at_least),
            f"  sized by: {info.size_kind}; conformance sizes {info.test_sizes}",
            "  solvers sound here: "
            + (
                ", ".join(
                    s.name
                    for s in sorted(solvers.values(), key=lambda s: s.name)
                    if s.sound_on(name)
                )
                or "(none)"
            ),
        ]
        blocks.append("\n".join(rows))
    if name in EXPERIMENTS:
        exp = EXPERIMENTS[name]
        specs = build_experiment(name)
        rows = [
            f"experiment {exp.name}",
            f"  {exp.description}",
            f"  defaults: max-n {exp.default_max_n}, "
            f"{exp.default_seed_count} seed(s)",
            f"  specs at defaults ({len(specs)}):",
        ]
        rows += [f"    {spec.name}  ns={list(spec.ns)}" for spec in specs]
        blocks.append("\n".join(rows))
    if not blocks:
        known = sorted({*problems, *solvers, *families, *EXPERIMENTS})
        raise ValueError(
            f"unknown name {name!r}; known problems/solvers/families/"
            f"experiments: {', '.join(known)}"
        )
    return "\n\n".join(blocks)


# -- argument parsing --------------------------------------------------


def _positive_int(text: str) -> int:
    """The argparse type of every count flag: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    return value


def _positive_float(text: str) -> float:
    """The argparse type of every seconds flag: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {text!r}"
        )
    return value


def _parser() -> argparse.ArgumentParser:
    # Every flag more than one subcommand takes is defined once, as a
    # parent parser the subcommands list by name, so a shared flag has
    # one type, default, and help text wherever it appears.
    shared: dict[str, argparse.ArgumentParser] = {}

    def parent(name: str) -> argparse.ArgumentParser:
        shared[name] = argparse.ArgumentParser(add_help=False)
        return shared[name]

    grid = parent("grid")
    grid.add_argument(
        "--experiment",
        required=True,
        choices=sorted(EXPERIMENTS),
        help="named experiment",
    )
    grid.add_argument(
        "--max-n",
        type=_positive_int,
        help="upper bound of the size grid (experiment default otherwise)",
    )
    grid.add_argument(
        "--seeds",
        type=_positive_int,
        metavar="COUNT",
        help="number of seeds per point (experiment default otherwise)",
    )
    grid.add_argument(
        "--batch-size",
        type=_positive_int,
        metavar="COUNT",
        help=(
            "trials per dispatch chunk (default: auto — covers a full seed "
            "group; `plan` sizes it independently of the host)"
        ),
    )
    parent("plan").add_argument(
        "--plan", required=True, metavar="PATH", help="plan file from `plan`"
    )
    parent("workers").add_argument(
        "--workers",
        type=_positive_int,
        default=default_workers(),
        help="worker processes (1 = serial; default: CPU count capped at 8)",
    )
    parent("cache-dir").add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"trial cache root (default: {DEFAULT_CACHE_DIR})",
    )
    parent("from").add_argument(
        "--from",
        dest="sources",
        nargs="*",
        default=[],
        metavar="ROOT",
        help=(
            "shard cache roots not yet merged, e.g. the --cache-out roots "
            "of shards: `merge` unions them into --cache-dir, `status` "
            "counts them as present"
        ),
    )
    parent("compact").add_argument(
        "--compact",
        action="store_true",
        help=(
            "rewrite the cache root's shard files keeping only the last "
            "record per key (`merge`: after merging; run only while no "
            "other writer uses the root)"
        ),
    )
    parent("kernels").add_argument(
        "--kernels",
        choices=("auto", "vector", "object"),
        default="auto",
        help=(
            "kernel backend: 'vector' forces the numpy layer, 'object' the "
            "pure-python oracle, 'auto' (default) picks vector whenever "
            "numpy is importable and object otherwise, without a warning"
        ),
    )
    parent("progress").add_argument(
        "--progress",
        action="store_true",
        help="render per-trial progress on stderr as chunks complete",
    )
    parent("json").add_argument(
        "--json",
        metavar="PATH",
        help="also write the result as JSON to PATH ('-' for stdout)",
    )
    parent("trace").add_argument(
        "--trace",
        metavar="PATH",
        help="stream span/event telemetry as JSONL to PATH (off by default)",
    )
    parent("json-errors").add_argument(
        "--json-errors",
        action="store_true",
        help="emit failures as one JSON object on stderr instead of a text line",
    )
    parent("inject").add_argument(
        "--inject",
        action="append",
        metavar="SPEC",
        help=(
            "arm fault injection, e.g. 'kill@1:at=3' or "
            "'hang@0:at=1,secs=60' (repeatable; `run-shard` also "
            f"reads ${ENV_FAULTS}); for chaos tests only"
        ),
    )
    verbosity = parent("verbosity")
    verbosity.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log INFO from the repro loggers to stderr (-vv for DEBUG)",
    )
    verbosity.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="errors only: silence logs and progress rendering",
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.engine",
        description="parallel, cached, shardable experiment runs",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, flags: str = "", **kwargs):
        parents = [shared[flag] for flag in (*flags.split(), "verbosity")]
        sub = subparsers.add_parser(name, parents=parents, **kwargs)
        sub.set_defaults(handler=handler)
        return sub

    run = command(
        "run",
        _run,
        "grid workers progress kernels cache-dir json trace",
        help="run a named experiment",
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every trial; do not read or write the cache",
    )

    plan = command(
        "plan", _plan, "grid", help="write a deterministic sharded execution plan"
    )
    plan.add_argument(
        "--shards",
        type=_positive_int,
        required=True,
        metavar="K",
        help="number of shards to deal the dispatch chunks onto",
    )
    plan.add_argument(
        "--out",
        default="-",
        metavar="PATH",
        help="where to write the plan JSON ('-' for stdout, the default)",
    )

    run_shard_p = command(
        "run-shard",
        _run_shard,
        "plan workers cache-dir progress kernels json trace inject json-errors",
        help="execute one shard of a plan",
    )
    run_shard_p.add_argument(
        "--shard",
        required=True,
        metavar="I[/K]",
        help="0-based shard to run, e.g. '1' or '1/4' (the /K must match the plan)",
    )
    run_shard_p.add_argument(
        "--cache-out",
        metavar="DIR",
        help=(
            "private root this shard writes to (reads still see --cache-dir); "
            "merge the roots afterward.  Default: write into --cache-dir"
        ),
    )
    run_shard_p.add_argument(
        "--heartbeat",
        metavar="PATH",
        help=(
            "publish a progress heartbeat file (atomically replaced) that "
            "a supervisor can watch for liveness"
        ),
    )

    merge = command(
        "merge",
        _merge,
        "plan cache-dir from compact workers kernels json trace json-errors",
        help=(
            "union shard cache roots and rebuild the single-host report "
            "(any remainder is computed locally)"
        ),
    )
    fabric = command(
        "fabric",
        _fabric,
        "plan cache-dir kernels inject json json-errors",
        help=(
            "drive every shard of a plan as supervised subprocesses with "
            "leases, heartbeat liveness, and retry/backoff"
        ),
    )
    fabric.add_argument(
        "--work-dir",
        metavar="DIR",
        help=(
            "fabric state directory: lease board, shard roots, heartbeats, "
            "logs (default: <plan>.fabric/)"
        ),
    )
    fabric.add_argument(
        "--shard-workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes inside each shard subprocess (default: 1)",
    )
    fabric.add_argument(
        "--max-parallel",
        type=_positive_int,
        metavar="N",
        help="shard subprocesses at once (default: half the CPUs)",
    )
    fabric.add_argument(
        "--heartbeat-timeout",
        type=_positive_float,
        default=30.0,
        metavar="SECONDS",
        help=(
            "kill and reassign a shard whose heartbeat stops advancing for "
            "this long (default: 30)"
        ),
    )
    fabric.add_argument(
        "--poll-interval",
        type=_positive_float,
        default=0.1,
        metavar="SECONDS",
        help="launcher supervision loop period (default: 0.1)",
    )
    fabric.add_argument(
        "--max-attempts",
        type=_positive_int,
        default=3,
        metavar="N",
        help="attempts per shard before it is marked failed (default: 3)",
    )
    fabric.add_argument(
        "--backoff-base",
        type=_positive_float,
        default=0.5,
        metavar="SECONDS",
        help="first retry delay; doubles per attempt, jittered (default: 0.5)",
    )
    fabric.add_argument(
        "--retry-failed",
        action="store_true",
        help=(
            "on resume, reset shards a previous launcher marked failed "
            "and try them again"
        ),
    )
    fabric.add_argument(
        "--target",
        dest="targets",
        action="append",
        metavar="URI",
        help=(
            "exec target(s) shards are dealt onto round-robin (repeatable): "
            "'local://' (default) or a 'cmd://' command template with "
            "{plan} {shard} {num_shards} {workers} {cache_dir} {out} "
            "{heartbeat} {kernels} {python} placeholders, e.g. "
            "\"cmd://ssh host repro-shard {plan} {shard}\"; append "
            "'#concurrency=N,timeout=S' for per-target caps (a template "
            "containing '#' must end with '#' or '#options')"
        ),
    )
    fabric.add_argument(
        "--dry-run",
        action="store_true",
        help=(
            "print each shard's resolved target, workdir, and command "
            "without spawning anything"
        ),
    )

    status = command(
        "status",
        _status,
        "plan cache-dir from",
        help="per-shard completion of a plan against a cache",
    )
    status.add_argument(
        "--heartbeats",
        metavar="DIR",
        help=(
            "also render the shard heartbeat files in DIR (a fabric work "
            "dir): phase, trial progress, emitting pid"
        ),
    )

    stats = command(
        "stats",
        _stats,
        "cache-dir",
        help=(
            "render the telemetry of a report, or (without --report) the "
            "`cache --status` view of --cache-dir"
        ),
    )
    stats.add_argument(
        "--report",
        metavar="PATH",
        help=(
            "a JSON report written by run/run-shard/merge --json; renders "
            "its merged telemetry block"
        ),
    )

    cache = command(
        "cache",
        _cache,
        "cache-dir compact",
        help="inspect or compact a trial cache root",
    )
    cache.add_argument(
        "--status",
        action="store_true",
        help=(
            "render the cache's obs counters (hits, misses, shard files "
            "loaded, records compacted) alongside the record count"
        ),
    )
    command(
        "list",
        _list,
        help="list registered problems, solvers, families, experiments",
    )
    describe = command(
        "describe",
        _describe,
        help="describe one problem, solver, family, or experiment",
    )
    describe.add_argument("name", help="catalog or experiment name")
    return parser


# -- shared output -----------------------------------------------------


def _write_json(path: str, payload: object) -> None:
    """Write ``payload`` as indented JSON to ``path``, or stdout for ``-``.

    Files are replaced atomically: a scheduler watching for the file
    must never read half a plan or report.
    """
    text = json.dumps(payload, indent=2)
    if path == "-":
        print(text)
    else:
        atomic_write_text(path, text + "\n")


def _print_reports(experiment: str, reports: Sequence[EngineReport]) -> None:
    """The per-spec tables, plus the Figure 1 table for ``landscape``."""
    print(format_report(reports))
    if experiment == "landscape":
        table = _render_partial_landscape(reports)
        if table is not None:
            print("\n" + table)


def _open_cache(root: str) -> TrialCache:
    """An existing cache root; a read-only probe must not create one.

    A typo'd path would otherwise become an empty cache and report a
    finished plan as all-remaining.
    """
    if not os.path.isdir(root):
        raise ValueError(f"cache root {root!r} does not exist")
    return TrialCache(root)


def _show_cache(cache: TrialCache, counters: bool) -> None:
    """The record count of a cache root, optionally with its counters."""
    cache.load_all()
    print(f"{cache.root}: {len(cache)} record(s) on disk")
    if counters:
        # The obs counters this process accrued touching the root:
        # shard files loaded by load_all, stale lines compacted by
        # --compact, plus hits/misses/puts once a runner used it.
        print(
            "\n"
            + format_telemetry(
                get_telemetry().snapshot(),
                title=cache.root,
                counter_prefix="cache.",
            )
        )


def _inject_specs(args: argparse.Namespace) -> list:
    """The fault specs of every repeated ``--inject`` flag."""
    return [spec for text in args.inject or [] for spec in parse_fault_specs(text)]


def _progress_callback(spec_name: str, total: int):
    """A per-record progress renderer for one spec (stderr, in place)."""
    state = {"done": 0}

    def on_record(record) -> None:
        state["done"] += 1
        print(
            f"\r{spec_name}: {state['done']}/{total} trials",
            end="",
            file=sys.stderr,
            flush=True,
        )

    return on_record


def _render_partial_landscape(reports: Sequence[EngineReport]) -> str | None:
    """The Figure 1 table as assembled so far, or None when still empty."""
    from repro.analysis import render_landscape
    from repro.analysis.landscape import rows_from_engine_reports

    rows = rows_from_engine_reports(reports)
    if not rows:
        return None
    return render_landscape(rows)


# -- run / list / describe ---------------------------------------------


def _run(args: argparse.Namespace) -> int:
    try:
        specs = build_experiment(args.experiment, args.max_n, args.seeds)
        cache = None if args.no_cache else TrialCache(args.cache_dir)
        sink = _attach_trace(args)
    except (ValueError, OSError) as err:
        return _emit_error(args, err, 2, args.experiment)
    try:
        return _run_specs(args, specs, cache)
    except Exception as err:
        return _emit_error(args, err, 3, args.experiment)
    finally:
        _detach_trace(sink)


def _run_specs(args, specs, cache) -> int:
    show_progress = args.progress and not args.quiet
    reports = []
    last_partial: str | None = None
    for spec in specs:
        on_record = None
        if show_progress:
            on_record = _progress_callback(
                spec.name, len(spec.ns) * len(spec.seeds)
            )
        reports.append(
            run_experiment(
                spec,
                workers=args.workers,
                cache=cache,
                batch_size=args.batch_size,
                on_record=on_record,
                kernels=args.kernels,
            )
        )
        if show_progress:
            print(file=sys.stderr)
            # Progressive Figure 1 at large --max-n: re-render the
            # partial landscape whenever a completed spec changed it,
            # so long runs show the table filling in instead of
            # staying silent until the end.
            if args.experiment == "landscape" and len(reports) < len(specs):
                partial = _render_partial_landscape(reports)
                if partial is not None and partial != last_partial:
                    last_partial = partial
                    _LOG.info(
                        "[%d/%d specs]\n%s", len(reports), len(specs), partial
                    )
    _print_reports(args.experiment, reports)
    total = sum(rep.trials_total for rep in reports)
    hits = sum(rep.cache_hits for rep in reports)
    batches = sum(rep.batches for rep in reports)
    elapsed = sum(rep.elapsed for rep in reports)
    print(
        f"\ntotal: {total} trials in {batches} chunk(s), {hits} cache hits, "
        f"{args.workers} worker(s), {elapsed:.2f}s"
    )
    if args.json:
        _write_json(
            args.json,
            {
                "experiment": args.experiment,
                "workers": args.workers,
                "cache": None if cache is None else args.cache_dir,
                "reports": [rep.as_dict() for rep in reports],
            },
        )
    return 0


def _list(args: argparse.Namespace) -> int:
    print(format_catalog())
    return 0


def _describe(args: argparse.Namespace) -> int:
    try:
        print(format_description(args.name))
    except ValueError as err:
        return _emit_error(args, err, 2)
    return 0


# -- sharded execution -------------------------------------------------


def _load_plans(path: str) -> tuple[str, list[ShardPlan]]:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return load_plan_file(payload)


def _parse_shard(value: str, num_shards: int) -> int:
    """Parse ``--shard`` values: a 0-based index, optionally ``i/K``."""
    text = value
    if "/" in text:
        text, _, declared = text.partition("/")
        if int(declared) != num_shards:
            raise ValueError(
                f"--shard says /{declared} but the plan has "
                f"{num_shards} shard(s)"
            )
    index = int(text)
    if not 0 <= index < num_shards:
        raise ValueError(
            f"shard index {index} out of range for a {num_shards}-shard plan "
            "(indices are 0-based)"
        )
    return index


def _plan(args: argparse.Namespace) -> int:
    try:
        specs = build_experiment(args.experiment, args.max_n, args.seeds)
        plans = [
            plan_experiment(
                spec, num_shards=args.shards, batch_size=args.batch_size
            )
            for spec in specs
        ]
        payload = dump_plan_file(args.experiment, plans)
    except (ValueError, OSError) as err:
        return _emit_error(args, err, 2, args.experiment)
    _write_json(args.out, payload)
    if args.out != "-":
        print(
            f"wrote {args.out}: {args.experiment}, {len(plans)} spec(s) x "
            f"{args.shards} shard(s), {payload['trials_total']} trials"
        )
    return 0


def _shard_instrumentation(args, index: int, plans: Sequence[ShardPlan]):
    """The shard's heartbeat emitter and fault injector, from flags + env.

    Fault specs come from repeated ``--inject`` flags and the
    ``REPRO_FAULTS`` environment variable (how the fabric launcher arms
    subprocesses); the attempt number the injector filters on is the
    launcher-stamped ``REPRO_FABRIC_ATTEMPT``.  Both default to inert.
    """
    specs = _inject_specs(args) + parse_fault_specs(os.environ.get(ENV_FAULTS))
    attempt = int(os.environ.get(ENV_ATTEMPT) or 1)
    injector = FaultInjector(specs, index, attempt)
    emitter = None
    if args.heartbeat:
        total = sum(len(plan.manifest(index).trial_indices()) for plan in plans)
        emitter = HeartbeatEmitter(args.heartbeat, index, total)
    return emitter, injector


def _run_shard(args: argparse.Namespace) -> int:
    experiment = None
    index = None
    try:
        experiment, plans = _load_plans(args.plan)
        index = _parse_shard(args.shard, plans[0].num_shards)
        cache = TrialCache(args.cache_dir, isolation=args.cache_out)
        sink = _attach_trace(args)
    except (ValueError, OSError) as err:
        return _emit_error(args, err, 2, experiment, index)
    try:
        return _run_shard_plans(args, plans, index, cache)
    except Exception as err:
        # The CLI boundary: a solver bug, a rejecting verifier, a full
        # disk — one attributable line for the supervisor, not a
        # traceback (which -vv still logs).
        return _emit_error(args, err, 3, experiment, index)
    finally:
        _detach_trace(sink)


def _run_shard_plans(args, plans, index, cache) -> int:
    show_progress = args.progress and not args.quiet
    emitter, injector = _shard_instrumentation(args, index, plans)
    if emitter is not None:
        emitter.start()
    reports = []
    for plan in plans:
        manifest = plan.manifest(index)
        progress_cb = None
        if show_progress:
            progress_cb = _progress_callback(
                f"{manifest.spec.name} [shard {index}]",
                len(manifest.trial_indices()),
            )
        on_record = None
        if progress_cb is not None or emitter is not None or injector.active:
            def on_record(record, _cb=progress_cb):
                if _cb is not None:
                    _cb(record)
                if emitter is not None:
                    emitter.record()
                injector.on_trial()
        reports.append(
            run_shard(
                manifest,
                workers=args.workers,
                cache=cache,
                on_record=on_record,
                kernels=args.kernels,
            )
        )
        if show_progress:
            print(file=sys.stderr)
        print(reports[-1].summary())
    # Corruption applies to what was actually written, after it all was;
    # the final heartbeat still reports honest progress either way.
    injector.on_exit([args.cache_out or args.cache_dir])
    if emitter is not None:
        emitter.done()
    total = sum(rep.trials_total for rep in reports)
    hits = sum(rep.cache_hits for rep in reports)
    computed = sum(rep.computed for rep in reports)
    elapsed = sum(rep.elapsed for rep in reports)
    wrote = args.cache_out or args.cache_dir
    print(
        f"\nshard {index}/{plans[0].num_shards}: {total} trials "
        f"({hits} cached, {computed} computed) in {elapsed:.2f}s; "
        f"records in {wrote}"
    )
    if args.json:
        _write_json(
            args.json,
            {
                "plan": args.plan,
                "shard_index": index,
                "reports": [rep.as_dict() for rep in reports],
            },
        )
    return 0


def _merge(args: argparse.Namespace) -> int:
    sink = None
    experiment = None
    try:
        experiment, plans = _load_plans(args.plan)
        if not args.sources and not os.path.isdir(args.cache_dir):
            # With --from roots, creating a fresh destination is the
            # point; without them, a typo'd --cache-dir would silently
            # recompute the whole experiment instead of replaying it.
            raise ValueError(
                f"cache root {args.cache_dir!r} does not exist and no "
                "--from roots were given; nothing to merge"
            )
        sink = _attach_trace(args)
        cache = TrialCache(args.cache_dir)
        added = 0
        for root in args.sources:
            added += cache.merge(root)
    except (ValueError, OSError) as err:
        _detach_trace(sink)
        return _emit_error(args, err, 2, experiment)
    try:
        return _merge_replay(args, experiment, plans, cache, added)
    except Exception as err:
        return _emit_error(args, err, 3, experiment)
    finally:
        _detach_trace(sink)


def _merge_replay(args, experiment, plans, cache, added) -> int:
    torn = cache.stats.torn_lines
    torn_note = f" ({torn} torn line(s) skipped)" if torn else ""
    print(
        f"merged {len(args.sources)} shard root(s) into "
        f"{args.cache_dir}: {added} new record(s){torn_note}"
    )
    if args.compact:
        kept, dropped = cache.compact()
        print(f"compacted: kept {kept} record(s), dropped {dropped} stale line(s)")
    # Replay the plan from the merged cache — the single-shard pipeline
    # again, so a complete merge is pure cache hits and an incomplete
    # one computes exactly the remainder.
    reports = [
        run_experiment(
            plan.spec,
            workers=args.workers,
            cache=cache,
            batch_size=plan.batch_size,
            kernels=args.kernels,
        )
        for plan in plans
    ]
    print()
    _print_reports(experiment, reports)
    total = sum(rep.trials_total for rep in reports)
    hits = sum(rep.cache_hits for rep in reports)
    print(
        f"\ntotal: {total} trials, {hits} from the merged cache, "
        f"{total - hits} computed during merge"
    )
    if args.json:
        _write_json(
            args.json,
            {
                "experiment": experiment,
                "merged_roots": list(args.sources),
                "records_added": added,
                "reports": [rep.as_dict() for rep in reports],
            },
        )
    return 0


def _status(args: argparse.Namespace) -> int:
    from repro.analysis import render_table

    try:
        experiment, plans = _load_plans(args.plan)
        # Probe the shared root plus any not-yet-merged shard roots, so
        # a scheduler can watch shards that write to private
        # --cache-out dirs without forcing an early merge.
        probes = [_open_cache(root) for root in [args.cache_dir, *args.sources]]
    except (ValueError, OSError) as err:
        return _emit_error(args, err, 2)

    def present(key: str) -> bool:
        return any(probe.contains(key) for probe in probes)

    num_shards = plans[0].num_shards
    rows = []
    remaining = 0
    for shard_index in range(num_shards):
        owed, missing = shard_coverage(plans, shard_index, present)
        remaining += missing
        state = f"{missing} remaining" if missing else "complete"
        rows.append([f"{shard_index}/{num_shards}", owed, owed - missing, state])
    print(
        render_table(
            ["shard", "trials", "cached", "status"],
            rows,
            title=(
                f"{experiment}: {len(plans)} spec(s) x {num_shards} shard(s) "
                f"against {args.cache_dir}"
            ),
        )
    )
    if remaining:
        print(f"\n{remaining} trial(s) remaining before `merge` is all-hits")
    else:
        print("\nplan complete — `merge` will replay without computing")
    if args.heartbeats:
        print("\n" + _render_heartbeats(args.heartbeats))
    return 0


def _render_heartbeats(directory: str) -> str:
    """A one-shot view of the heartbeat files in a fabric work dir.

    Point-in-time, not liveness: staleness needs repeated observation
    (the fabric launcher's LivenessMonitor does that); what a status
    probe *can* report is each shard's last published phase and
    progress, which is usually the question being asked.
    """
    from repro.analysis import render_table

    rows = []
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        names = []
    for name in names:
        if not name.endswith(".hb.json"):
            continue
        beat = read_heartbeat(os.path.join(directory, name))
        if beat is None:
            rows.append([name, "(unreadable)", "-", "-", "-"])
            continue
        rows.append(
            [
                beat.shard_index,
                beat.phase,
                f"{beat.done}/{beat.total}",
                beat.seq,
                beat.pid,
            ]
        )
    if not rows:
        return f"no heartbeat files under {directory}"
    return render_table(
        ["shard", "phase", "trials", "seq", "pid"],
        rows,
        title=f"heartbeats in {directory}",
    )


def _fabric(args: argparse.Namespace) -> int:
    experiment = None
    try:
        experiment, plans = _load_plans(args.plan)
        targets = [ExecTarget.parse(uri) for uri in args.targets or []]
        faults = _inject_specs(args)
        backoff = BackoffPolicy(
            base=args.backoff_base, max_attempts=args.max_attempts
        )
    except (ValueError, OSError) as err:
        return _emit_error(args, err, 2, experiment)
    if args.dry_run:
        return _fabric_dry_run(args, plans, targets)
    try:
        result = run_fabric(
            args.plan,
            args.cache_dir,
            work_dir=args.work_dir,
            shard_workers=args.shard_workers,
            max_parallel=args.max_parallel,
            heartbeat_timeout=args.heartbeat_timeout,
            poll_interval=args.poll_interval,
            backoff=backoff,
            faults=faults,
            retry_failed=args.retry_failed,
            targets=targets,
            kernels=args.kernels,
        )
    except (Exception, KeyboardInterrupt) as err:
        # run_fabric has already killed every shard it was running.
        return _emit_error(args, err, 3, experiment)
    if result.reports is not None:
        _print_reports(experiment, result.reports)
        print()
    print(result.summary())
    if args.json:
        _write_json(args.json, result.as_dict())
    if not result.ok:
        work_dir = args.work_dir or args.plan + ".fabric"
        print(
            f"gap manifest: {os.path.join(work_dir, 'gaps.json')}",
            file=sys.stderr,
        )
        return 4
    return 0


def _fabric_dry_run(args, plans, targets) -> int:
    """Print each shard's resolved launch plan without spawning.

    The exact context and command :func:`run_fabric` would use — the
    way to sanity-check a ``cmd://`` template (quoting, placeholder
    coverage, host assignment) before burning attempts on it.
    """
    num_shards = plans[0].num_shards
    work_dir = args.work_dir or args.plan + ".fabric"
    target_by_shard = assign_targets(num_shards, targets)
    for i in range(num_shards):
        target = target_by_shard[i]
        ctx = shard_context(
            args.plan,
            i,
            num_shards,
            args.cache_dir,
            work_dir,
            shard_workers=args.shard_workers,
            kernels=args.kernels,
        )
        print(f"shard {i}/{num_shards}: target {target.uri}")
        print(f"  workdir {work_dir}")
        print(f"  out     {ctx['out']}")
        print(f"  command {shlex.join(target.command(ctx))}")
    return 0


def _cache(args: argparse.Namespace) -> int:
    try:
        cache = _open_cache(args.cache_dir)
        if args.compact:
            kept, dropped = cache.compact()
            print(
                f"compacted {args.cache_dir}: kept {kept} record(s), "
                f"dropped {dropped} stale line(s)"
            )
        if args.status or not args.compact:
            _show_cache(cache, counters=args.status)
    except (ValueError, OSError) as err:
        return _emit_error(args, err, 2)
    return 0


def _stats(args: argparse.Namespace) -> int:
    """Render telemetry: from a --json report file, or a cache root."""
    try:
        if args.report is None:
            _show_cache(_open_cache(args.cache_dir), counters=True)
            return 0
        with open(args.report, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (ValueError, OSError) as err:
        return _emit_error(args, err, 2)
    entries = payload.get("reports", [])
    if isinstance(payload, dict) and "telemetry" in payload:
        entries = [payload]  # a single report object
    snapshots = [
        entry.get("telemetry") for entry in entries if isinstance(entry, dict)
    ]
    if not any(snapshots):
        print(
            f"{args.report}: no telemetry blocks "
            "(written by an older build, or telemetry disabled?)"
        )
        return 0
    title = payload.get("experiment") or args.report
    print(format_telemetry(merge_snapshots(snapshots), title=str(title)))
    for entry in entries:
        if isinstance(entry, dict) and "elapsed_s" in entry:
            name = entry.get("experiment", "?")
            wall = entry.get("elapsed_s", 0.0)
            compute = entry.get("cpu_elapsed_s", wall)
            print(f"{name}: {wall:.2f}s wall, {compute:.2f}s compute")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand and return its exit code; a usage error
    returns argparse's 2 instead of raising ``SystemExit``."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exit_:
        return exit_.code
    _setup_logging(args)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
