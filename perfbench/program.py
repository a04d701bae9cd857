"""Locate the program under test and call its CLI in-process.

The benchmark runs from the root of a source checkout and imports
``mergerfees`` from ``./src`` only, never from an installed copy, so a
directory without the sources fails instead of measuring something else.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import sys


class ProgramMissing(RuntimeError):
    pass


def src_dir() -> str:
    return os.path.abspath("src")


def import_cli():
    """Import ``mergerfees.cli`` from ./src and return the module."""
    src = src_dir()
    if not os.path.isfile(os.path.join(src, "mergerfees", "cli.py")):
        raise ProgramMissing(f"no mergerfees sources under {src}; run from the root of a checkout")
    if src not in sys.path:
        sys.path.insert(0, src)
    import mergerfees.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ProgramMissing(f"mergerfees was imported from {cli.__file__}, not from {src}")
    return cli


def cpu_seconds() -> float:
    """User + system CPU time of this process and its reaped children, at microsecond resolution."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def call(cli, argv: list) -> tuple:
    """Run ``cli.main(argv)``; return (exit code, error text).

    Standard output goes to the null device, as a user's terminal would take
    it; standard error is kept for the failure record.
    """
    err = io.StringIO()
    try:
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        return (exc.code if isinstance(exc.code, int) else 2), err.getvalue()
    except Exception as exc:  # an op that raises is a failed op, not a benchmark crash
        return None, f"{type(exc).__name__}: {exc}"
    return code, err.getvalue()
