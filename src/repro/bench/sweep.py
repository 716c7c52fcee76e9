"""Process-parallel sweep executor over independent simulations.

Every rig in this package is a closed world — one :class:`Simulator`,
one :class:`~repro.telemetry.MetricsRegistry`, no shared mutable state —
which makes multi-run rigs (crash-cut sweeps, siege seed sweeps, Fig. 3
trace replays) embarrassingly parallel *if* the results can be
recombined without perturbing a single byte of output.  The contract:

* every task runs against a **fresh** registry created inside the task
  function (never the parent's), whether it executes in-process or in a
  pool worker;
* task functions never print — the parent consumes results **in task
  order** (``on_result``) and does all emitting/merging itself, so the
  merged artifact is byte-identical no matter how many workers raced;
* ``workers <= 1`` executes the *identical* task functions in-process:
  the sequential path is the parallel path with a pool of one, not a
  separate code path that could drift.

Registries cross the process pipe via pickle (collectors and the clock
are dropped in transit — see ``MetricsRegistry.__getstate__``) and fold
into the parent's master registry with ``merge_from`` in seed order.
The rigs that fan out (``bench.robust``'s crash sweep and siege seeds,
``bench.fig3``'s replays) take ``--workers N`` themselves.
"""

from __future__ import annotations

import importlib
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

__all__ = ["SweepTask", "run_sweep"]


class SweepTask(NamedTuple):
    """One independent simulation: a picklable spec, not a closure.

    ``fn`` is a dotted ``"package.module:function"`` path so the task
    pickles under any start method (spawn included) — the worker resolves
    it by import, then calls ``fn(**kwargs)``.  Everything in ``kwargs``
    must be picklable (frozen geometry dataclasses, ints, strings).
    """

    label: str
    fn: str
    kwargs: Dict[str, Any]


def _resolve(path: str) -> Callable:
    module_name, sep, attr = path.partition(":")
    if not sep or not attr:
        raise ValueError(
            f"task fn {path!r} must be a 'package.module:function' path"
        )
    return getattr(importlib.import_module(module_name), attr)


def _call_task(task: SweepTask):
    """Worker body — module-level so the pool can pickle it by name."""
    return _resolve(task.fn)(**task.kwargs)


def run_sweep(
    tasks: Sequence[SweepTask],
    workers: int = 1,
    on_result: Optional[Callable[[int, SweepTask, Any], None]] = None,
) -> List[Any]:
    """Run every task; return their results in task order.

    ``on_result(index, task, result)`` fires in task order as results
    become consumable — immediately after each task in-process, or as
    the ordered ``imap`` stream drains in parallel mode — which is where
    callers merge registries and emit progress lines.  Byte-identity of
    anything built inside ``on_result`` across worker counts follows
    from that ordering plus the fresh-registry-per-task contract.
    """
    tasks = list(tasks)
    results: List[Any] = []
    pool = None
    if workers > 1 and len(tasks) > 1:
        import multiprocessing

        # Fork (Linux) inherits warm imports — rig construction starts
        # immediately.  Elsewhere fall back to the platform default; tasks
        # are import-path specs precisely so spawn works too.
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        pool = context.Pool(processes=min(workers, len(tasks)))
    with pool or nullcontext():
        stream = map(_call_task, tasks) if pool is None \
            else pool.imap(_call_task, tasks)
        for index, result in enumerate(stream):
            if on_result is not None:
                on_result(index, tasks[index], result)
            results.append(result)
    return results
