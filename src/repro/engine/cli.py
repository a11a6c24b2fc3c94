"""``python -m repro.engine`` — run, shard, and inspect experiments.

Subcommands::

    python -m repro.engine run --experiment sinkless --workers 4
    python -m repro.engine run-shard --experiment landscape --shard 0/4 --cache-out shard0
    python -m repro.engine status --experiment landscape --shards 4 --from shard0 shard1
    python -m repro.engine run --experiment landscape --from shard0 shard1 shard2 shard3
    python -m repro.engine stats --report report.json
    python -m repro.engine cache --status
    python -m repro.engine cache --compact
    python -m repro.engine list
    python -m repro.engine describe mis-luby

Observability: every subcommand takes ``-v``/``-vv`` (INFO/DEBUG on
the ``repro`` loggers, stderr) and ``-q`` (errors only — library
users can equally attach their own handlers and silence the CLI);
``run``/``run-shard`` take ``--trace PATH`` to stream span JSONL for
offline analysis; ``stats`` renders the phase/counter
breakdown a ``--json`` report carries, and ``cache --status`` the
trial cache's counters.

A flag shared by several subcommands means the same in each:
``--json -`` is stdout, and count flags reject values below 1.
``run`` prints one table per spec (the same renderer the benchmark
suite feeds into ``benchmarks/conftest.report``) plus
cache/parallelism accounting, and optionally writes the full JSON
report; ``list``/``describe`` read the runtime registry's catalogs.

The shard flow needs no scheduler integration and no plan file: which
trials shard ``I/K`` owns is a pure function of the grid flags
(``--experiment --max-n --seeds --batch-size``) and K, so every host
given the same flags derives the same partition.  ``run-shard``
executes one shard anywhere (a private ``--cache-out`` root keeps
concurrent shards from contending), and ``run --from ROOT...`` unions
the shard roots into ``--cache-dir`` and replays the grid, rebuilding
the exact report — and Figure 1 table — a single-host run would have
produced.  Any shell loop, ``xargs -P``, or batch scheduler can drive
it, and restarts a shard that dies: ``run-shard`` stores each chunk as
it completes, so the rerun recomputes only the chunks that were lost,
and ``status`` shows which shards still owe trials.

Failure hygiene: every subcommand reports a setup failure (a missing
cache root, a bad shard index, an unknown name, an unreadable report
file) as one structured line (command, experiment, shard, cause) on
stderr, and ``run``/``run-shard`` report run-time failures (a rejected
output, a crashed worker) the same way and exit 3 — never a bare
traceback.  ``--json-errors`` switches ``run-shard``'s line to a JSON
object a launcher can parse.  Usage errors are argparse's own message.
Exit codes: 0 success, 2 bad invocation/setup, 3 run-time failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Sequence

from repro.engine.cache import DEFAULT_CACHE_DIR, TrialCache
from repro.engine.experiments import EXPERIMENTS, build_experiment
from repro.engine.pool import default_workers
from repro.engine.runner import (
    EngineReport,
    plan_experiment,
    run_experiment,
    run_shard,
)
from repro.engine.shard import ShardPlan, shard_coverage
from repro.obs import TraceSink, format_telemetry, get_telemetry, merge_snapshots
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
    _LOG.info("streaming span trace to %s", args.trace)
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
    ``--json-errors`` it becomes one JSON object, the form a launcher
    parses out of a failed shard's stderr to attribute the failure.
    Never a traceback on this path — ``-vv`` logs one.
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


def _placements(info: registry.ProblemInfo) -> str:
    """A problem's paper placements, ``-`` where the paper places none."""
    return f"det {info.paper_det or '-'} / rand {info.paper_rand or '-'}"


def format_report(reports: Sequence[EngineReport]) -> str:
    """Render engine reports as benchmark-style tables.

    The return value is plain text suitable for
    ``benchmarks.conftest.report`` — one table per spec with the
    measured growth fit in the title, followed by run accounting.
    """
    from repro.analysis import best_fit, render_table

    problems = registry.problems()
    blocks = []
    for rep in reports:
        sweep = rep.sweep
        fit_note = ""
        if len(sweep.points) >= 3:
            fit = best_fit(sweep.ns(), sweep.means())
            fit_note = f"\n    measured fit: {fit}"
        info = problems.get(rep.spec.problem)
        paper_note = ""
        if info is not None and (info.paper_det or info.paper_rand):
            paper_note = f"\n    paper: {_placements(info)}"
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
    max_degree: int | None, min_degree: int | None = None, girth: int | None = None
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
            f"  {name:24s} {_placements(info)}"
            f"  [{_constraint_note(info.max_degree)}]"
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
            f"  paper placement: {_placements(info)}",
            "  instance constraints: "
            + _constraint_note(info.max_degree),
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


def _shard(text: str) -> tuple[int, int]:
    """The argparse type of ``--shard``: ``I/K``, shard I (0-based) of K."""
    index, _, count = text.partition("/")
    try:
        return int(index), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected I/K, e.g. 1/4, got {text!r}"
        ) from None


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
            "trials per dispatch chunk (default: the seed count, up to 64, "
            "so one chunk per size)"
        ),
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
            "of shards: `run` unions them into --cache-dir before it "
            "replays, `status` counts them as present"
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
        help="stream span telemetry as JSONL to PATH (off by default)",
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
        "grid workers progress kernels cache-dir from json trace",
        help=(
            "run a named experiment, or replay it from shard roots "
            "(any remainder is computed locally)"
        ),
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every trial; do not read or write the cache",
    )
    # ``--from`` comes from a parent parser, so it cannot share a mutually
    # exclusive group with ``--no-cache``; ``main`` rejects the pair.
    run.set_defaults(usage_error=run.error)

    run_shard_p = command(
        "run-shard",
        _run_shard,
        "grid workers cache-dir progress kernels json trace",
        help="execute one shard of a named experiment",
    )
    run_shard_p.add_argument(
        "--shard",
        required=True,
        type=_shard,
        metavar="I/K",
        help=(
            "0-based shard I of K, e.g. '1/4'; every shard of one run "
            "takes the same K and grid flags"
        ),
    )
    run_shard_p.add_argument(
        "--cache-out",
        metavar="DIR",
        help=(
            "private root this shard writes to (reads still see --cache-dir); "
            "`run --from` unions the roots afterward.  Default: write into "
            "--cache-dir"
        ),
    )
    run_shard_p.add_argument(
        "--json-errors",
        action="store_true",
        help="emit failures as one JSON object on stderr instead of a text line",
    )

    status = command(
        "status",
        _status,
        "grid cache-dir from",
        help="per-shard completion of a named experiment against a cache",
    )
    status.add_argument(
        "--shards",
        type=_positive_int,
        required=True,
        metavar="K",
        help="number of shards, the K of run-shard's --shard I/K",
    )

    stats = command(
        "stats",
        _stats,
        help="render the merged telemetry of a --json report",
    )
    stats.add_argument(
        "--report",
        required=True,
        metavar="PATH",
        help="a JSON report written by run/run-shard --json",
    )

    cache = command(
        "cache",
        _cache,
        "cache-dir",
        help="inspect or compact a trial cache root",
    )
    cache.add_argument(
        "--compact",
        action="store_true",
        help=(
            "rewrite the cache root's shard files keeping only the last "
            "record per key (run only while no other writer uses the root)"
        ),
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
    must never read half a report.
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


def _check_roots(roots: Sequence[str | None]) -> None:
    """Raise what creating each cache root would raise, creating nothing.

    ``run`` and ``run-shard`` check their roots, then open ``--trace``,
    and only then create the roots, so a bad output path fails the
    command without leaving an empty root or trace file behind.
    """
    for root in filter(None, roots):
        path = existing = os.path.abspath(root)
        while not os.path.exists(existing):
            existing = os.path.dirname(existing)
        if os.path.isdir(existing):
            continue
        if existing == path:
            raise FileExistsError(f"cache root {root!r} is a file")
        raise NotADirectoryError(f"cache root {root!r} lies under a file")


def _merged_cache(args: argparse.Namespace) -> TrialCache:
    """``--cache-dir`` with every ``--from`` root unioned into it
    (``_run`` has checked that each exists)."""
    cache = TrialCache(args.cache_dir)
    if args.sources:
        added = sum(cache.merge(root) for root in args.sources)
        torn = cache.torn_lines
        torn_note = f" ({torn} torn line(s) skipped)" if torn else ""
        print(
            f"merged {len(args.sources)} root(s) into {args.cache_dir}: "
            f"{added} new record(s){torn_note}\n"
        )
    return cache


def _run(args: argparse.Namespace) -> int:
    sink = None
    try:
        specs = build_experiment(args.experiment, args.max_n, args.seeds)
        # A typo'd --from root fails the run before any cache or trace
        # is created or changed.
        for root in args.sources:
            if not os.path.isdir(root):
                raise ValueError(f"cache root {root!r} does not exist")
        _check_roots([] if args.no_cache else [args.cache_dir])
        sink = _attach_trace(args)
        cache = None if args.no_cache else _merged_cache(args)
    except (ValueError, OSError) as err:
        _detach_trace(sink)
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


def _plans(args: argparse.Namespace, num_shards: int) -> list[ShardPlan]:
    """Every spec of the grid flags' experiment, dealt onto ``num_shards``."""
    return [
        plan_experiment(spec, num_shards=num_shards, batch_size=args.batch_size)
        for spec in build_experiment(args.experiment, args.max_n, args.seeds)
    ]


def _run_shard(args: argparse.Namespace) -> int:
    index, num_shards = args.shard
    sink = None
    try:
        plans = _plans(args, num_shards)
        if not 0 <= index < num_shards:
            raise ValueError(
                f"shard index {index} out of range for {num_shards} shard(s) "
                "(indices are 0-based)"
            )
        _check_roots([args.cache_dir, args.cache_out])
        sink = _attach_trace(args)
        cache = TrialCache(args.cache_dir, isolation=args.cache_out)
    except (ValueError, OSError) as err:
        _detach_trace(sink)
        return _emit_error(args, err, 2, args.experiment, index)
    try:
        return _run_shard_plans(args, plans, index, cache)
    except Exception as err:
        # The CLI boundary: a solver bug, a rejecting verifier, a full
        # disk — one attributable line for the launcher, not a
        # traceback (which -vv still logs).
        return _emit_error(args, err, 3, args.experiment, index)
    finally:
        _detach_trace(sink)


def _run_shard_plans(args, plans, index, cache) -> int:
    show_progress = args.progress and not args.quiet
    reports = []
    for plan in plans:
        on_record = None
        if show_progress:
            on_record = _progress_callback(
                f"{plan.spec.name} [shard {index}]",
                len(plan.trial_indices(index)),
            )
        reports.append(
            run_shard(
                plan,
                index,
                workers=args.workers,
                cache=cache,
                on_record=on_record,
                kernels=args.kernels,
            )
        )
        if show_progress:
            print(file=sys.stderr)
        print(reports[-1].summary())
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
                "experiment": args.experiment,
                "shard_index": index,
                "reports": [rep.as_dict() for rep in reports],
            },
        )
    return 0


def _status(args: argparse.Namespace) -> int:
    from repro.analysis import render_table

    try:
        plans = _plans(args, args.shards)
        # Probe the shared root plus any not-yet-merged shard roots, so
        # a scheduler can watch shards that write to private
        # --cache-out dirs without forcing an early merge.
        probes = [_open_cache(root) for root in [args.cache_dir, *args.sources]]
    except (ValueError, OSError) as err:
        return _emit_error(args, err, 2, args.experiment)

    def present(key: str) -> bool:
        return any(probe.contains(key) for probe in probes)

    rows = []
    remaining = 0
    for shard_index in range(args.shards):
        owed, missing = shard_coverage(plans, shard_index, present)
        remaining += missing
        state = f"{missing} remaining" if missing else "complete"
        rows.append([f"{shard_index}/{args.shards}", owed, owed - missing, state])
    print(
        render_table(
            ["shard", "trials", "cached", "status"],
            rows,
            title=(
                f"{args.experiment}: {len(plans)} spec(s) x {args.shards} "
                f"shard(s) against {args.cache_dir}"
            ),
        )
    )
    if remaining:
        print(f"\n{remaining} trial(s) remaining before `run --from` is all-hits")
    else:
        print("\nplan complete — `run --from` will replay without computing")
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
            cache.load_all()
            print(f"{cache.root}: {len(cache)} record(s) on disk")
        if args.status:
            # The obs counters this process accrued touching the root:
            # shard files loaded by load_all, stale lines compacted by
            # --compact.
            print(
                "\n"
                + format_telemetry(
                    get_telemetry().snapshot(),
                    title=cache.root,
                    counter_prefix="cache.",
                )
            )
    except (ValueError, OSError) as err:
        return _emit_error(args, err, 2)
    return 0


def _stats(args: argparse.Namespace) -> int:
    """Render the telemetry a ``--json`` report file carries."""
    try:
        with open(args.report, "r", encoding="utf-8") as handle:
            text = _render_report_telemetry(json.load(handle), args.report)
    except (ValueError, OSError) as err:
        return _emit_error(args, err, 2)
    print(text)
    return 0


def _render_report_telemetry(payload: object, path: str) -> str:
    """The merged telemetry tables of a report file, then one wall-time
    line per report.

    A report file holds one report object, or an object whose
    ``reports`` list holds them (what ``run``/``run-shard --json``
    write).  Anything else raises ``ValueError``, so ``stats``
    reports it as one setup-error line.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"a report file holds one JSON object, not {type(payload).__name__}"
        )
    entries = [payload] if "telemetry" in payload else payload.get("reports", [])
    if not isinstance(entries, list) or not all(
        isinstance(entry, dict) for entry in entries
    ):
        raise ValueError("a report file's reports must be a list of JSON objects")
    snapshots = [entry.get("telemetry") for entry in entries]
    if not any(snapshots):
        return (
            f"{path}: no telemetry blocks "
            "(written by an older build, or telemetry disabled?)"
        )
    if any(isinstance(snap, dict) and "v" in snap for snap in snapshots):
        raise ValueError(
            "telemetry in the retired {v, parts} layout; re-run the "
            "experiment for one {counters, spans} map per report"
        )
    try:
        title = str(payload.get("experiment") or path)
        lines = [format_telemetry(merge_snapshots(snapshots), title=title)]
        lines += [
            f"{entry.get('experiment', '?')}: {entry['elapsed_s']:.2f}s wall"
            for entry in entries
            if "elapsed_s" in entry
        ]
    except (AttributeError, KeyError, TypeError) as err:
        raise ValueError(f"malformed report file: {err!r}") from err
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand and return its exit code; a usage error
    returns argparse's 2 instead of raising ``SystemExit``."""
    try:
        args = _parser().parse_args(argv)
        if getattr(args, "no_cache", False) and args.sources:
            args.usage_error("argument --from: not allowed with argument --no-cache")
    except SystemExit as exit_:
        return exit_.code
    _setup_logging(args)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
