"""Crash-safe file writes: tmp file + ``os.replace``.

Every file the engine hands to another process — report JSON — must
be either absent or complete: a reader that races a writer (or
outlives a killed one) may see the *old* contents but never a torn
prefix.  POSIX rename within one
directory gives exactly that, so the helper stages the text in a
sibling temp file and atomically replaces the target.
"""

from __future__ import annotations

import os
import tempfile

__all__ = ["atomic_write_text"]


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` so readers never see a partial file.

    The temp file lives in the target's directory (rename is only
    atomic within one filesystem) and is cleaned up on any failure, so
    a full disk leaves the previous version of ``path`` intact instead
    of a half-written replacement.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
