"""Pure helpers: metric names, percentiles, output checking, printing."""

from __future__ import annotations

import math
import re

#: A metric name: starts with a letter or digit, at most 64 characters
#: of letters, digits, ``_``, ``.`` and ``-``.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Candidate percentiles, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: A percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def check_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise."""
    if not isinstance(name, str) or not NAME_RE.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def reportable(p: float, n: int) -> bool:
    """True when ``n`` samples leave at least :data:`MIN_SAMPLES_BEYOND`
    of them above the ``p``-th percentile."""
    return n * (100.0 - p) / 100.0 >= MIN_SAMPLES_BEYOND - 1e-9


def tail_percentile(n: int) -> float | None:
    """The highest candidate percentile with at least ten samples beyond
    it, or None when even the median has fewer than ten."""
    fitting = [p for p in PERCENTILES if reportable(p, n)]
    return fitting[-1] if fitting else None


def percentile(values, p: float) -> float:
    """Linear-interpolated ``p``-th percentile of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def summarize(values) -> dict:
    """Median and rule-chosen tail percentile of a sample, with its size.

    Percentiles the sample is too small for are left out."""
    values = list(values)
    body = {"n": len(values)}
    for p in (50.0, tail_percentile(len(values))):
        if p is not None and reportable(p, len(values)):
            body[f"p{p:g}"] = percentile(values, p)
    return body


def named_percentile(values, p: float) -> tuple[float, int]:
    """``(value, n)`` for a fixed-name percentile metric.  A sample too
    small for ``p`` reads 0.0; its ``n`` says why."""
    values = list(values)
    if not reportable(p, len(values)):
        return 0.0, len(values)
    return percentile(values, p), len(values)


def failed_ops(attempted, observed: dict, expected: dict) -> list:
    """Keys of ops that did not produce a correct output.

    ``observed`` maps each completed op to its output (absent or None:
    the op failed); ``expected`` maps the ops that were checked to the
    reference output.  An op counts as failed when it has no output or
    when a checked output differs from the reference."""
    failed = []
    for key in attempted:
        got = observed.get(key)
        if got is None or (key in expected and expected[key] != got):
            failed.append(key)
    return failed


def completed_share(attempted: int, failed: int) -> float:
    """Correct completed ops over attempted ops."""
    if attempted <= 0:
        raise ValueError("no op was attempted")
    return (attempted - failed) / attempted


def interval_union_ns(intervals) -> int:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def format_table(rows) -> str:
    """Align ``(name, value, unit, note)`` rows for printing."""
    lines = []
    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        lines.append(f"  {name:<36} {shown:>14} {unit:<8} {note}")
    return "\n".join(lines)
