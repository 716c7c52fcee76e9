"""Plain-text tables and series for benchmark output.

``emit`` writes through ``sys.__stdout__`` so tables appear in the
terminal even under pytest's output capture — the benchmark suite is as
much a report generator as a test suite.  Set ``REPRO_QUIET=1`` to
silence the tables (CI log hygiene); :func:`export_metrics` still writes
the machine-readable telemetry snapshots regardless, into
``REPRO_METRICS_DIR`` (default ``benchmarks/out``).
"""

from __future__ import annotations

import json
import os
import sys
from typing import Iterable, List, Optional, Sequence

__all__ = ["emit", "render_table", "render_series", "ratio",
           "export_metrics", "cli_verdict", "DEFAULT_METRICS_DIR"]

#: Default landing directory for BENCH_*.json run output: under
#: ``benchmarks/`` next to the tracked baselines, but gitignored.
DEFAULT_METRICS_DIR = os.path.join("benchmarks", "out")


#: When set (by the benchmark suite's conftest), emit() routes through
#: this callable instead — pytest's fd-level capture would otherwise
#: swallow direct __stdout__ writes.
_EMIT_OVERRIDE = None


def _quiet() -> bool:
    return os.environ.get("REPRO_QUIET", "").strip() not in ("", "0")


def emit(text: str) -> None:
    """Print to the real stdout, bypassing pytest capture.

    A no-op when the ``REPRO_QUIET`` environment variable is set to
    anything but ``0`` or empty.
    """
    if _quiet():
        return
    if _EMIT_OVERRIDE is not None:
        _EMIT_OVERRIDE(text)
        return
    sys.__stdout__.write(text + "\n")
    sys.__stdout__.flush()


def export_metrics(name: str, registry, extra: Optional[dict] = None) -> str:
    """Write one telemetry snapshot as JSON for CI artifact upload.

    ``registry`` is a :class:`~repro.telemetry.MetricsRegistry` (or any
    object with a ``snapshot()``, or a plain dict).  The file lands in
    the directory named by ``REPRO_METRICS_DIR`` (default
    ``benchmarks/out`` — run output lives beside the tracked baselines
    but is itself gitignored) as ``<name>.json``; the path is returned.
    """
    out_dir = os.environ.get("REPRO_METRICS_DIR", DEFAULT_METRICS_DIR)
    os.makedirs(out_dir, exist_ok=True)
    payload = registry.snapshot() if hasattr(registry, "snapshot") \
        else dict(registry)
    if extra:
        payload = {"extra": extra, **payload}
    path = os.path.join(out_dir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, default=str)
        handle.write("\n")
    return path


def cli_verdict(args, name: str, payload, extra: Optional[dict], ok: bool,
                passed: str, failed: str) -> bool:
    """A bench command line's report path: under ``--export`` write
    ``payload`` (a registry or a report dict, ``extra`` riding along) as
    ``<name>.json`` through :func:`export_metrics`; then print the
    verdict line, which ``REPRO_QUIET`` does not silence.  Returns
    ``ok``; the caller turns it into the ``--check`` exit status."""
    if args.export:
        path = export_metrics(name, payload, extra=extra)
        print(f"snapshot: {path}")
    print(passed if ok else failed)
    return ok


def _format_cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.2f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def render_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence]) -> str:
    """Fixed-width table with a title rule, ready for emit()."""
    str_rows: List[List[str]] = [[_format_cell(cell) for cell in row]
                                 for row in rows]
    widths = [len(header) for header in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    line = "  ".join(header.ljust(widths[index])
                     for index, header in enumerate(headers))
    rule = "-" * len(line)
    out = [f"\n{title}", rule, line, rule]
    for row in str_rows:
        out.append("  ".join(cell.rjust(widths[index])
                             for index, cell in enumerate(row)))
    out.append(rule)
    return "\n".join(out)


def render_series(title: str, x_label: str, xs: Sequence,
                  series: Sequence[tuple]) -> str:
    """Figure-style output: one row per x, one column per named series."""
    headers = [x_label] + [name for name, __ in series]
    rows = []
    for index, x in enumerate(xs):
        rows.append([x] + [values[index] for __, values in series])
    return render_table(title, headers, rows)


def ratio(a: float, b: float) -> float:
    """a / b, guarded; the paper's 'x-factor' columns."""
    return a / b if b else float("inf")
