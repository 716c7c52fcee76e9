#!/usr/bin/env python3
"""A tour of the native flash interface (Section 3's command protocol).

Talks to the NAND directly — no FTL anywhere, every command handed to
``SimFlashDevice.execute`` — exercising exactly the commands the paper's
NoFTL protocol defines: IDENTIFY, PAGE READ / PAGE PROGRAM with data,
COPYBACK and BLOCK ERASE without data transfer, and OOB (page metadata)
handling, including the rules real NAND enforces.

Run:  python examples/native_flash_tour.py
"""

from repro.flash import (
    Copyback,
    EraseBlock,
    FlashArray,
    Geometry,
    Identify,
    OPENSSD_JASMINE,
    ProgramPage,
    ProgramSequenceError,
    ReadOob,
    ReadPage,
    SimFlashDevice,
)
from repro.sim import Simulator


def main():
    geometry = Geometry(channels=2, chips_per_channel=2, dies_per_chip=2,
                        planes_per_die=2, blocks_per_plane=16,
                        pages_per_block=16, page_bytes=4096)
    sim = Simulator()
    array = FlashArray(geometry, OPENSSD_JASMINE)
    device = SimFlashDevice(sim, array)
    completed = []

    def run(command):
        """Issue one native command; count it once the die completes it."""
        result = yield from device.execute(command)
        completed.append(command)
        return result

    def tour():
        # IDENTIFY: the HDIO_GETGEO of native flash.
        info = (yield from device.execute(Identify())).data
        print("IDENTIFY:")
        for key in ("channels", "total_dies", "planes_per_die",
                    "pages_per_block", "page_bytes", "capacity_bytes"):
            print(f"  {key:16s} = {info[key]}")

        # PROGRAM with OOB metadata (the logical page number travels in
        # the spare area, so mappings can be rebuilt by a cold scan).
        print("\nPROGRAM page 0 with OOB {'lpn': 4711} ...")
        yield from run(ProgramPage(ppn=0, data=b"hello, raw NAND",
                                   oob={"lpn": 4711}))

        result = yield from run(ReadPage(ppn=0))
        print(f"READ    -> data={result.data!r}, oob={result.oob}")

        meta = (yield from run(ReadOob(ppn=0))).oob
        print(f"READOOB -> {meta}  (cheap spare-area read)")

        # COPYBACK: on-die move, no bus transfer — GC's favourite.
        blocks = geometry.blocks_of_plane(0, 0)
        dst = geometry.ppn_of(blocks[1], 0)
        yield from run(Copyback(src_ppn=0, dst_ppn=dst))
        result = yield from run(ReadPage(ppn=dst))
        print(f"COPYBACK page 0 -> block {blocks[1]}: data={result.data!r}, "
              f"oob preserved={result.oob}")

        # NAND rules are real: programs must ascend within a block.
        print("\ntrying to program page 0 of a block whose page 3 is "
              "written ...")
        yield from run(ProgramPage(ppn=geometry.ppn_of(blocks[2], 3),
                                   data=b"later page"))
        try:
            yield from run(ProgramPage(ppn=geometry.ppn_of(blocks[2], 0),
                                       data=b"earlier page"))
        except ProgramSequenceError as exc:
            print(f"  rejected, as on real NAND: {exc}")

        # ERASE makes the block reusable.
        yield from run(EraseBlock(pbn=blocks[2]))
        yield from run(ProgramPage(ppn=geometry.ppn_of(blocks[2], 0),
                                   data=b"fresh after erase"))
        print("after BLOCK ERASE the block programs from page 0 again.")

        print(f"\nsimulated time spent: {sim.now:.1f} us "
              f"({len(completed)} commands)")

    sim.run_process(tour())


if __name__ == "__main__":
    main()
