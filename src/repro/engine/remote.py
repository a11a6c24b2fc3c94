"""Exec targets: where a fabric shard runs.

The fabric supervises shards through exactly one seam — a command list
it spawns and a cache root it verifies.  An :class:`ExecTarget` URI
resolves a shard's launch context into that command: ``local://``
builds the ``python -m repro.engine run-shard`` invocation, and
``cmd://<template>`` substitutes ``{plan} {shard} {out} ...``
placeholders into an arbitrary wrapper command — which is how ssh,
docker, podman, or a cluster submit script become targets without this
module knowing any of them.  Targets carry their own concurrency cap
and wall-clock timeout (heterogeneous hosts fail heterogeneously);
leases, retry, and gap accounting stay target-agnostic in the fabric.

Results come home as files.  The launcher verifies each shard against
its root at ``{out}`` on the launcher's own filesystem, so a shard on
another host writes there over a shared filesystem, or its wrapper
copies the root back before exiting.  Roots copied home after the run
union like any other with ``merge --from``, which then replays the
plan and computes locally whatever a partial or torn copy lost.
"""

from __future__ import annotations

import os
import shlex
import string
import sys
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

__all__ = [
    "ExecTarget",
    "assign_targets",
    "local_argv",
    "shard_context",
]

#: Placeholder names a ``cmd://`` template may reference.
CONTEXT_KEYS = frozenset(
    {
        "python",
        "plan",
        "shard",
        "num_shards",
        "workers",
        "cache_dir",
        "out",
        "workdir",
        "heartbeat",
        "attempt",
        "kernels",
    }
)

#: Fragment options a target URI may set: how each parses, and what a
#: bad value was expected to be.
_OPTIONS = {
    "concurrency": (int, "an integer"),
    "timeout": (float, "a number of seconds"),
}


def shard_context(
    plan_path: str,
    shard_index: int,
    num_shards: int,
    cache_dir: str,
    work_dir: str,
    shard_workers: int = 1,
    kernels: str = "auto",
    attempt: int = 1,
    python: str | None = None,
) -> dict[str, Any]:
    """The placeholder map one shard launch resolves a target against.

    Pure — touches no filesystem — so ``--dry-run`` can render every
    shard's command without creating the work dir.
    """
    return {
        "python": python or sys.executable,
        "plan": plan_path,
        "shard": shard_index,
        "num_shards": num_shards,
        "workers": shard_workers,
        "cache_dir": cache_dir,
        "workdir": work_dir,
        "out": os.path.join(work_dir, f"shard-{shard_index}"),
        "heartbeat": os.path.join(work_dir, f"shard-{shard_index}.hb.json"),
        "attempt": attempt,
        "kernels": kernels,
    }


def local_argv(ctx: Mapping[str, Any]) -> list[str]:
    """The ``run-shard`` invocation a ``local://`` target spawns."""
    return [
        str(ctx["python"]),
        "-m", "repro.engine", "run-shard",
        "--plan", str(ctx["plan"]),
        "--shard", f"{ctx['shard']}/{ctx['num_shards']}",
        "--workers", str(ctx["workers"]),
        "--cache-dir", str(ctx["cache_dir"]),
        "--cache-out", str(ctx["out"]),
        "--heartbeat", str(ctx["heartbeat"]),
        "--kernels", str(ctx["kernels"]),
        "--json-errors",
        "-q",
    ]


@dataclass(frozen=True)
class ExecTarget:
    """Where a shard runs: a URI resolving launch context to an argv.

    Two schemes::

        local://                        today's subprocess on this host
        cmd://ssh worker-3 repro-shard {plan} {shard} {workdir}

    A ``cmd://`` template is ``str.format``-substituted with the
    shard's :func:`shard_context` and then ``shlex.split`` — so the
    template is written like a shell command but spawned without a
    shell.  It must mention at least ``{plan}`` and ``{shard}`` (a
    wrapper that doesn't know which shard it runs cannot run it); the
    other placeholders are optional because a remote wrapper may derive
    its own paths.  Per-target options ride in a URI fragment::

        local://#concurrency=2
        cmd://ssh big-box ...#timeout=900,concurrency=4

    The fragment starts at the URI's last ``#``, so a template that
    itself contains ``#`` must end with ``#`` or ``#options``::

        cmd://sh -c "run-shard {plan} {shard} # comment"#

    ``timeout`` is a wall-clock cap per attempt (the launcher kills and
    reschedules past it — a target that stops answering must not hold
    its lease forever); ``concurrency`` caps the shards running on the
    target at once, independent of the fabric's global ``max_parallel``.
    """

    uri: str
    scheme: str
    template: str = ""
    concurrency: int | None = None
    timeout: float | None = None

    def __post_init__(self) -> None:
        if self.scheme not in ("local", "cmd"):
            raise ValueError(
                f"unknown target scheme {self.scheme!r} (know: local, cmd)"
            )
        if self.concurrency is not None and self.concurrency < 1:
            raise ValueError(
                f"target concurrency must be >= 1, got {self.concurrency}"
            )
        if self.timeout is not None and not self.timeout > 0:  # nan too
            raise ValueError(f"target timeout must be > 0, got {self.timeout}")

    @classmethod
    def parse(cls, uri: str) -> "ExecTarget":
        text = uri.strip()
        if "#" in text:
            body, _, fragment = text.rpartition("#")
        else:
            body, fragment = text, ""
        scheme, sep, rest = body.partition("://")
        if not sep or scheme not in ("local", "cmd"):
            raise ValueError(
                f"target {uri!r} is not 'local://' or 'cmd://<template>'"
            )
        options: dict[str, Any] = {}
        for option in filter(None, fragment.split(",")):
            key, eq, value = option.partition("=")
            if not eq:
                raise ValueError(
                    f"target option {option!r} is not 'key=value'; a "
                    "template containing '#' must end with '#' or '#options'"
                )
            if key not in _OPTIONS:
                raise ValueError(
                    f"unknown target option {key!r} (know: {', '.join(_OPTIONS)})"
                )
            kind, expected = _OPTIONS[key]
            try:
                options[key] = kind(value)
            except ValueError:
                raise ValueError(
                    f"target option {key!r} needs {expected}, got {value!r}"
                ) from None
        if scheme == "local":
            if rest.strip():
                raise ValueError(
                    f"local:// takes no command (got {rest!r}); "
                    "use cmd:// for wrappers"
                )
            return cls(uri=text, scheme="local", **options)
        template = rest.strip()
        if not template:
            raise ValueError("cmd:// needs a command template")
        fields = {
            name
            for _, name, _, _ in string.Formatter().parse(template)
            if name
        }
        unknown = fields - CONTEXT_KEYS
        if unknown:
            raise ValueError(
                f"cmd:// template references unknown placeholder(s) "
                f"{sorted(unknown)}; know: {sorted(CONTEXT_KEYS)}"
            )
        for required in ("plan", "shard"):
            if required not in fields:
                raise ValueError(
                    f"cmd:// template must reference {{{required}}} "
                    "(a wrapper that doesn't know its shard cannot run it)"
                )
        return cls(uri=text, scheme="cmd", template=template, **options)

    def command(self, ctx: Mapping[str, Any]) -> list[str]:
        """Resolve the launch context into the argv to spawn.

        Substitution happens before ``shlex.split``, so placeholder
        values containing spaces would split — keep plan/work paths
        space-free for ``cmd://`` targets (the CLI's defaults are).
        """
        if self.scheme == "local":
            return local_argv(ctx)
        rendered = self.template.format(
            **{key: str(value) for key, value in ctx.items()}
        )
        argv = shlex.split(rendered)
        if not argv:
            raise ValueError(f"target {self.uri!r} resolved to an empty command")
        return argv


def assign_targets(
    num_shards: int, targets: Sequence[ExecTarget | str] = ()
) -> list[ExecTarget]:
    """Deal shards onto targets round-robin (shard ``i`` -> target ``i % T``).

    No targets means every shard is ``local://`` — the zero-config
    default that keeps single-host fabric runs byte-for-byte what they
    were.  The same parsed instances repeat in the result, so identity
    (``is``) groups the shards sharing a target's concurrency cap.
    """
    if num_shards < 1:
        raise ValueError(f"need >= 1 shard, got {num_shards}")
    resolved = [
        target if isinstance(target, ExecTarget) else ExecTarget.parse(target)
        for target in targets
    ] or [ExecTarget.parse("local://")]
    return [resolved[i % len(resolved)] for i in range(num_shards)]
