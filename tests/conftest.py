"""Shared pytest wiring for the acceptance gate.

Each acceptance criterion runs under the ``criterion`` fixture, which
measures wall time, enforces the stated runtime budget, and records one
``[C NN] PASS/FAIL`` line that is printed in the terminal summary
regardless of output capture.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

CRITERION_LINES: list[tuple[int, str]] = []


@pytest.fixture(autouse=True, scope="session")
def _subprocesses_import_the_checkout():
    # The CLI tests run `python -m steklov_ball.cli`; like pytest's own
    # pythonpath setting, this finds the package under test uninstalled.
    with pytest.MonkeyPatch.context() as mp:
        src = str(Path(__file__).resolve().parents[1] / "src")
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield


@pytest.fixture
def criterion():
    @contextmanager
    def _criterion(number: int, title: str, budget_s: float):
        t0 = time.perf_counter()
        try:
            yield
        except BaseException:
            dt = time.perf_counter() - t0
            CRITERION_LINES.append(
                (number, f"[C {number:02d}] FAIL  {title} ({dt:.2f}s)")
            )
            raise
        dt = time.perf_counter() - t0
        if dt >= budget_s:
            CRITERION_LINES.append(
                (
                    number,
                    f"[C {number:02d}] FAIL  {title} "
                    f"(runtime {dt:.2f}s over budget {budget_s:.0f}s)",
                )
            )
            pytest.fail(
                f"criterion {number} exceeded runtime budget: {dt:.2f}s >= {budget_s}s"
            )
        CRITERION_LINES.append(
            (number, f"[C {number:02d}] PASS  {title} ({dt:.2f}s)")
        )

    return _criterion


def pytest_terminal_summary(terminalreporter):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(CRITERION_LINES):
        terminalreporter.write_line(line)
