"""Running wbell invocations in-process and judging each one.

An invocation goes through ``dispatch``, the function the ``wbell`` console
script calls, with stdout and stderr captured. It fails when an exception
escapes ``dispatch``, when the exit code is not the expected one, or when an
expected error is not reported as exactly one line on stderr.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Outcome:
    rc: Optional[int]
    stdout: str
    stderr: str
    error: Optional[str]   # "Type: message" of an exception that escaped dispatch
    seconds: float


def invoke(dispatch, argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = dispatch(list(argv))
        except Exception as exc:  # an escaped exception is the finding
            error = f"{type(exc).__name__}: {exc}"
    return Outcome(rc, out.getvalue(), err.getvalue(), error, time.perf_counter() - t0)


def failure(inv, outcome: Outcome) -> Optional[str]:
    """Why the invocation failed, or None when it did what it must."""
    if outcome.error is not None:
        return f"raised {outcome.error}"
    if outcome.rc != inv.expect_rc:
        tail = outcome.stderr.strip().splitlines()[-1:] or [""]
        return f"exit code {outcome.rc}, expected {inv.expect_rc} ({tail[0]})"
    if inv.expect_rc != 0:
        lines = outcome.stderr.splitlines()
        if len(lines) != 1 or not lines[0].startswith("wbell: "):
            return f"error message is not one 'wbell: ' line: {outcome.stderr!r}"
    return None


def parse(inv, outcome: Outcome):
    """The output a check reads: region CSV rows, a dumped table, or JSON."""
    if inv.out_file is not None:
        with open(inv.out_file, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = outcome.stdout
    if inv.expect_rc != 0:
        return None
    if inv.argv[0] == "region":
        rows = []
        for line in text.splitlines()[1:]:
            x, y, status = line.split(",")
            rows.append((float(x), float(y), status))
        return rows
    if "--dump-dist" in inv.argv:
        return text
    return json.loads(text)


def run_round(dispatch, invocations, probe) -> tuple:
    """Outcomes, and the probe's seconds before each invocation and after the last."""
    outcomes, probes = [], [probe()]
    for inv in invocations:
        outcomes.append(invoke(dispatch, inv.argv))
        probes.append(probe())
    return outcomes, probes


def check_round(workload, outcomes: list) -> tuple:
    """(failures, problems): invocations that failed, and wrong outputs of the
    ones that did not. Cross checks that read a failed output are skipped."""
    failures, problems, parsed = [], [], {}
    for inv, outcome in zip(workload.invocations, outcomes):
        why = failure(inv, outcome)
        if why is not None:
            failures.append(f"{inv.label}: {why}")
            continue
        try:
            parsed[inv.label] = parse(inv, outcome)
            problems += [f"{inv.label}: {p}" for p in inv.check(parsed[inv.label])]
        except (ValueError, KeyError, TypeError, OSError) as exc:
            problems.append(f"{inv.label}: unreadable output ({type(exc).__name__}: {exc})")
    for labels, fn in workload.cross_checks:
        if all(label in parsed for label in labels):
            problems += [f"cross check {fn.__name__}: {p}"
                         for p in fn([parsed[label] for label in labels])]
    return failures, problems


def same_outputs(a: list, b: list) -> bool:
    """Two rounds printed the same bytes and ended the same way."""
    return all((x.rc, x.stdout, x.stderr, x.error) == (y.rc, y.stdout, y.stderr, y.error)
               for x, y in zip(a, b))
