"""Shared fixtures: each theorem pipeline runs once per session, timed, the
in-process command line, and the checks every frozen value class must pass."""

import contextlib
import copy
import io
import pickle
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


@pytest.fixture
def frozen_value():
    """`frozen_value(value, by_keyword, text, fields)` checks one value of a frozen
    value class: `by_keyword` is the same value built with keyword arguments,
    `text` its repr and `fields` the tuple of its fields, as a frozen dataclass
    prints and hashes them."""

    def check(value, by_keyword, text, fields):
        assert repr(value) == text
        assert value == by_keyword and hash(value) == hash(by_keyword) == hash(fields)
        assert value != fields  # another class compares unequal
        for name in type(value).__slots__:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        for twin in (copy.copy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)

    return check
