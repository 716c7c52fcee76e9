"""NoFTL reproduction: databases on native flash storage.

A full-system Python reproduction of *"NoFTL for Real: Databases on Real
Native Flash Storage"* (Hardock, Petrov, Gottstein, Buchmann — EDBT
2015): the NAND flash substrate, the on-device FTL baselines (page-map,
DFTL, FASTer), the legacy block device, the NoFTL storage manager (the
paper's contribution), a Shore-MT-shaped transactional storage engine,
the TPC workload kits and the benchmark harness that regenerates every
figure and table of the evaluation.

Subpackages
-----------
``repro.sim``
    Discrete-event simulation kernel (virtual microsecond clock).
``repro.flash``
    NAND model: geometry, timing, native command set, contention, wear.
``repro.ftl``
    On-device FTLs: PageMapFTL, DFTL, FASTer.
``repro.device``
    Block device (legacy interface) and the hazard-safe host front end.
``repro.core``
    NoFTL: host-side flash management integrated with the DBMS.
``repro.db``
    The mini storage engine: pages, heaps, B+-trees, buffer pool, WAL,
    locks, transactions, db-writers.
``repro.workloads``
    TPC-B/-C/-E/-H, synthetic jobs, trace record/replay.
``repro.bench``
    One experiment module per table/figure of the paper.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
