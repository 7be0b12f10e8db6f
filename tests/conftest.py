"""Shared fixtures: each theorem pipeline runs once per session, timed, and
the in-process command line."""

import contextlib
import io
import time
from typing import NamedTuple

import pytest

from etacert import cli, regression_suite, run_theorem


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def t1_report():
    return _timed(run_theorem, "T1_mod5")


@pytest.fixture(scope="session")
def t2_report():
    return _timed(run_theorem, "T2_mod25")


@pytest.fixture(scope="session")
def t3_report():
    return _timed(run_theorem, "T3_mod7")


@pytest.fixture(scope="session")
def t4_report():
    return _timed(run_theorem, "T4_mod49")


@pytest.fixture(scope="session")
def regression_report():
    return _timed(regression_suite)


class CliRun(NamedTuple):
    code: int
    out: str
    err: str


@pytest.fixture
def run_cli(monkeypatch):
    """`etacert <argv>` in-process: `run_cli(*argv)` gives its exit code, stdout and stderr.

    `cli.main` returns every exit code, argparse's included, so no run needs
    a subprocess.  The run starts at the default order cap; a test sets
    another with `monkeypatch.setenv("ETA_CERT_ORDER_CAP", ...)`.  Arguments
    are passed through `str`, so numbers and paths can be given as they are.
    """
    monkeypatch.delenv("ETA_CERT_ORDER_CAP", raising=False)

    def run(*argv) -> CliRun:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(arg) for arg in argv])
        return CliRun(code, out.getvalue(), err.getvalue())

    return run
