"""Write-stream taxonomy: host data classes mapped to allocation points.

The NoFTL premise (PAPER.md §3) is that the DBMS *knows* what it writes.
PR 8's :class:`~repro.telemetry.health.WriteAmplificationLedger` made
that knowledge measurable (every program classified WAL / heap / btree /
map / temp / recovery); this module makes it *actionable*: each data
class gets its own named allocation point per plane, so blocks fill with
single-class data and GC never co-locates a short-lived WAL segment with
a cold heap page.  "Enlightening Flash Storage to Stream Writes by
Objects" (PAPERS.md) quantifies the win; ``repro.bench.observe
streams`` gates it here.

Three namespaces, all plain strings used as keys of a plane's
``active`` dict:

* the legacy temperature streams ``"hot"`` / ``"cold"`` — class code
  0, the untracked case every write takes with ``write_streams`` off;
* one foreground stream per data class — heap splits into
  ``heap-hot`` / ``heap-cold`` driven by buffer-pool reference heat;
* one GC stream per class (``<class>@gc``): victims relocate into their
  *own class's* GC frontier, never into a foreground write point, so
  generational separation survives relocation (the segregation
  invariant DESIGN.md §14 states).

Classes are also encoded as small integers for the per-lpn class table
(:attr:`~repro.ftl.base.MappingState.lpn_class`) and the OOB ``cls``
stamp that lets :meth:`~repro.core.manager.NoFTLStorageManager.mount`
re-derive per-stream frontiers after a power cut.  Code 0 means
"unknown / untracked" so a zero-filled table is the correct cold state.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "CLASS_CODES",
    "CODE_CLASSES",
    "FOREGROUND_STREAMS",
    "GC_SUFFIX",
    "STREAM_CODES",
    "gc_stream_of_code",
    "stream_for",
]

#: data class -> OOB / lpn_class code.  0 is reserved for "unknown".
CLASS_CODES = {
    "wal": 1,
    "heap": 2,
    "btree": 3,
    "map": 4,
    "temp": 5,
    "recovery": 6,
}

#: code -> data class (inverse of :data:`CLASS_CODES`).
CODE_CLASSES = {code: cls for cls, code in CLASS_CODES.items()}

#: Suffix separating a class's GC frontier from its foreground stream.
GC_SUFFIX = "@gc"

#: Foreground stream names per class code (heap defaults to its hot
#: half; the hint-driven split happens in :func:`stream_for`).
FOREGROUND_STREAMS = {
    1: "wal",
    2: "heap-hot",
    3: "btree",
    4: "map",
    5: "temp",
    6: "recovery",
}


def stream_for(data_class: Optional[str], hint: str) -> str:
    """Foreground stream for a classified host write.

    ``heap`` splits by the buffer pool's temperature ``hint`` (reference
    heat); every other class gets one stream.  An unclassified write
    falls back on the legacy temperature streams, so partially stamped
    traffic degrades to hot/cold separation instead of mixing classes.
    """
    if data_class is None or data_class == "unknown":
        return hint
    if data_class == "heap":
        return "heap-cold" if hint == "cold" else "heap-hot"
    return data_class


#: stream name -> class code for every foreground and GC stream of the
#: taxonomy, resolved once so a write pays one dict lookup.  Names not
#: listed — the legacy ``hot`` / ``cold`` points among them — are code 0.
STREAM_CODES = {
    name + suffix: code
    for cls, code in CLASS_CODES.items()
    for name in ((cls, "heap-hot", "heap-cold") if cls == "heap" else (cls,))
    for suffix in ("", GC_SUFFIX)
}


def gc_stream_of_code(code: int) -> str:
    """GC relocation stream for a page of class ``code``.

    Class-tagged pages relocate into their own class's GC frontier;
    untracked pages (code 0 — written before streams were enabled, or
    under the legacy hint path) share one untracked GC stream, which is
    exactly the legacy ``cold`` point.
    """
    cls = CODE_CLASSES.get(code)
    if cls is None:
        return "cold"
    return cls + GC_SUFFIX
