"""Collects acceptance-criterion results and prints them after the run, and
fails the session when a test leaves a child process behind."""

import multiprocessing
import os

import pytest

ACCEPTANCE_LINES = []
CHILDREN_LEFT = []


def _child_left():
    """Whether this process has a child process, running or not yet reaped."""
    if multiprocessing.active_children():
        return True
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


def pytest_sessionfinish(session, exitstatus):
    if _child_left():
        CHILDREN_LEFT.append("a test left a child process behind (a worker that was never joined)")
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
    if CHILDREN_LEFT:
        terminalreporter.section("child processes")
        for line in CHILDREN_LEFT:
            terminalreporter.write_line(line, red=True)
