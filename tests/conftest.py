"""Test-session plumbing: the hypothesis profile, the sampling backend and CPU
count in the report header and the acceptance-criteria summary block."""

from __future__ import annotations

import os
import re

from hypothesis import settings

# Property tests draw the same examples on every run, with no time limit per
# example and no replay of failures saved by earlier runs.
settings.register_profile(
    "spheredet", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("spheredet")


def _backend_line() -> str:
    from spheredet.montecarlo import backend_name

    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count()
    return f"sampling backend: {backend_name()}, {cpus} CPUs"


def pytest_report_header(config):
    """Names the Monte-Carlo backend and the usable CPUs, which set how long
    C1 takes."""
    return _backend_line()


_ACCEPTANCE_PATTERN = re.compile(r"test_acceptance\.py::test_(c\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Prints one PASS/FAIL line per acceptance criterion after the run."""
    outcomes = {}
    for word, status in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(word, ()):
            match = _ACCEPTANCE_PATTERN.search(getattr(report, "nodeid", ""))
            if match is None:
                continue
            cid, label = match.group(1).upper(), match.group(2).replace("_", " ")
            key = (int(cid[1:]), cid, label)
            if status == "FAIL" or key not in outcomes:
                outcomes[key] = status
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    # -q hides the report header, so the backend is named here as well.
    terminalreporter.write_line(_backend_line())
    for (_, cid, label), status in sorted(outcomes.items()):
        terminalreporter.write_line(f"[ACCEPTANCE] {cid} {label}: {status}")
