"""Unit + property tests for flash geometry and address arithmetic."""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash import Geometry


SMALL = Geometry(
    channels=2,
    chips_per_channel=2,
    dies_per_chip=2,
    planes_per_die=2,
    blocks_per_plane=8,
    pages_per_block=4,
    page_bytes=512,
)


class TestDerivedSizes:
    def test_total_dies(self):
        assert SMALL.total_dies == 8

    def test_total_blocks(self):
        assert SMALL.total_blocks == 8 * 2 * 8

    def test_total_pages(self):
        assert SMALL.total_pages == SMALL.total_blocks * 4

    def test_capacity_bytes(self):
        assert SMALL.capacity_bytes == SMALL.total_pages * 512

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            Geometry(channels=0)
        with pytest.raises(ValueError):
            Geometry(pages_per_block=0)


class TestAddressing:
    def test_ppn_roundtrip_block_page(self):
        ppn = SMALL.ppn_of(pbn=10, page=3)
        assert SMALL.block_of_ppn(ppn) == 10
        assert SMALL.page_offset_of_ppn(ppn) == 3

    def test_page_offset_bounds(self):
        with pytest.raises(ValueError):
            SMALL.ppn_of(0, SMALL.pages_per_block)

    def test_die_of_block_contiguous(self):
        assert SMALL.die_of_block(0) == 0
        assert SMALL.die_of_block(SMALL.blocks_per_die - 1) == 0
        assert SMALL.die_of_block(SMALL.blocks_per_die) == 1

    def test_plane_of_block(self):
        assert SMALL.plane_of_block(0) == 0
        assert SMALL.plane_of_block(SMALL.blocks_per_plane) == 1
        # second die starts again at plane 0
        assert SMALL.plane_of_block(SMALL.blocks_per_die) == 0

    def test_blocks_of_die_partition_whole_device(self):
        seen = []
        for die in range(SMALL.total_dies):
            seen.extend(SMALL.blocks_of_die(die))
        assert seen == list(range(SMALL.total_blocks))

    def test_blocks_of_plane_subdivide_die(self):
        die_blocks = list(SMALL.blocks_of_die(3))
        plane0 = list(SMALL.blocks_of_plane(3, 0))
        plane1 = list(SMALL.blocks_of_plane(3, 1))
        assert plane0 + plane1 == die_blocks

    def test_same_plane_true_within_plane(self):
        blocks = SMALL.blocks_of_plane(2, 1)
        a = SMALL.ppn_of(blocks[0], 0)
        b = SMALL.ppn_of(blocks[-1], 3)
        assert SMALL.same_plane(a, b)

    def test_same_plane_false_across_planes(self):
        a = SMALL.ppn_of(SMALL.blocks_of_plane(2, 0)[0], 0)
        b = SMALL.ppn_of(SMALL.blocks_of_plane(2, 1)[0], 0)
        assert not SMALL.same_plane(a, b)

    def test_same_plane_false_across_dies(self):
        a = SMALL.ppn_of(SMALL.blocks_of_plane(0, 0)[0], 0)
        b = SMALL.ppn_of(SMALL.blocks_of_plane(1, 0)[0], 0)
        assert not SMALL.same_plane(a, b)

    def test_channel_of_die(self):
        dies_per_channel = SMALL.chips_per_channel * SMALL.dies_per_chip
        assert SMALL.channel_of_die(0) == 0
        assert SMALL.channel_of_die(dies_per_channel - 1) == 0
        assert SMALL.channel_of_die(dies_per_channel) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SMALL.die_of_block(SMALL.total_blocks)
        with pytest.raises(ValueError):
            SMALL.decompose(SMALL.total_pages)
        with pytest.raises(ValueError):
            SMALL.blocks_of_die(SMALL.total_dies)

    @pytest.mark.parametrize("below", [True, False], ids=["below", "above"])
    def test_out_of_range_addresses_raise(self, below):
        def bad(limit):
            return -1 if below else limit

        calls = [
            (SMALL.same_plane, bad(SMALL.total_pages), 0),
            (SMALL.same_plane, 0, bad(SMALL.total_pages)),
            (SMALL.die_of_block, bad(SMALL.total_blocks)),
            (SMALL.plane_of_block, bad(SMALL.total_blocks)),
            (SMALL.die_of_ppn, bad(SMALL.total_pages)),
            (SMALL.plane_of_ppn, bad(SMALL.total_pages)),
            (SMALL.channel_of_die, bad(SMALL.total_dies)),
        ]
        for method, *args in calls:
            with pytest.raises(ValueError):
                method(*args)

    def test_describe_contains_identify_fields(self):
        info = SMALL.describe()
        assert info["total_dies"] == 8
        assert info["page_bytes"] == 512
        assert info["capacity_bytes"] == SMALL.capacity_bytes


class TestCachedSizesAreNotFields:
    """The derived sizes are cached on the instance, outside the dataclass
    fields: value semantics must be exactly those of the eight dimensions."""

    DIMENSIONS = (
        "channels", "chips_per_channel", "dies_per_chip", "planes_per_die",
        "blocks_per_plane", "pages_per_block", "page_bytes", "oob_bytes",
    )

    def twin(self):
        return Geometry(**{name: getattr(SMALL, name) for name in self.DIMENSIONS})

    def test_fields_are_the_dimensions(self):
        names = tuple(field.name for field in dataclasses.fields(Geometry))
        assert names == self.DIMENSIONS

    def test_equality_and_hash(self):
        assert self.twin() == SMALL
        assert hash(self.twin()) == hash(SMALL)
        assert dataclasses.replace(SMALL, channels=3) != SMALL

    def test_repr_lists_only_dimensions(self):
        assert repr(SMALL) == (
            "Geometry(channels=2, chips_per_channel=2, dies_per_chip=2, "
            "planes_per_die=2, blocks_per_plane=8, pages_per_block=4, "
            "page_bytes=512, oob_bytes=128)"
        )

    def test_asdict(self):
        assert dataclasses.asdict(SMALL) == {
            name: getattr(SMALL, name) for name in self.DIMENSIONS
        }

    def test_replace_recomputes_sizes(self):
        wider = dataclasses.replace(SMALL, channels=4, pages_per_block=8)
        assert wider.total_dies == 16
        assert wider.total_blocks == 16 * 2 * 8
        assert wider.total_pages == wider.total_blocks * 8
        assert wider.pages_per_plane == 8 * 8
        assert wider.die_of_ppn(wider.total_pages - 1) == 15

    def test_pickle_roundtrip(self):
        clone = pickle.loads(pickle.dumps(SMALL))
        assert clone == SMALL
        assert hash(clone) == hash(SMALL)
        assert clone.describe() == SMALL.describe()
        assert clone.same_plane(0, SMALL.pages_per_plane - 1)


geometries = st.builds(
    Geometry,
    channels=st.integers(1, 4),
    chips_per_channel=st.integers(1, 3),
    dies_per_chip=st.integers(1, 3),
    planes_per_die=st.integers(1, 4),
    blocks_per_plane=st.integers(1, 32),
    pages_per_block=st.integers(1, 16),
    page_bytes=st.sampled_from([512, 2048, 4096]),
)


@settings(max_examples=60)
@given(geometry=geometries, data=st.data())
def test_decompose_compose_roundtrip(geometry, data):
    ppn = data.draw(st.integers(0, geometry.total_pages - 1))
    address = geometry.decompose(ppn)
    assert geometry.compose(address) == ppn
    assert 0 <= address.channel < geometry.channels
    assert 0 <= address.chip < geometry.chips_per_channel
    assert 0 <= address.die < geometry.dies_per_chip
    assert 0 <= address.plane < geometry.planes_per_die
    assert 0 <= address.block < geometry.blocks_per_plane
    assert 0 <= address.page < geometry.pages_per_block


@settings(max_examples=60)
@given(geometry=geometries, data=st.data())
def test_die_and_plane_agree_with_decompose(geometry, data):
    ppn = data.draw(st.integers(0, geometry.total_pages - 1))
    address = geometry.decompose(ppn)
    die_index = geometry.die_of_ppn(ppn)
    assert geometry.channel_of_die(die_index) == address.channel
    assert geometry.plane_of_ppn(ppn) == address.plane


@settings(max_examples=40)
@given(geometry=geometries)
def test_die_block_ranges_partition(geometry):
    total = 0
    for die in range(geometry.total_dies):
        blocks = geometry.blocks_of_die(die)
        total += len(blocks)
        for plane in range(geometry.planes_per_die):
            assert set(geometry.blocks_of_plane(die, plane)) <= set(blocks)
    assert total == geometry.total_blocks


@settings(max_examples=100)
@given(geometry=geometries, data=st.data())
def test_same_plane_agrees_with_decompose(geometry, data):
    """Die-major numbering makes each plane one contiguous ppn range, so
    the flat same_plane test must match the full decomposition."""
    ppn_a = data.draw(st.integers(0, geometry.total_pages - 1))
    # Bias half the draws into ppn_a's own plane so both answers occur.
    plane_start = ppn_a - ppn_a % geometry.pages_per_plane
    ppn_b = data.draw(st.one_of(
        st.integers(0, geometry.total_pages - 1),
        st.integers(plane_start, plane_start + geometry.pages_per_plane - 1),
    ))
    a = geometry.decompose(ppn_a)
    b = geometry.decompose(ppn_b)
    expected = (a.channel, a.chip, a.die, a.plane) == (b.channel, b.chip, b.die, b.plane)
    assert geometry.same_plane(ppn_a, ppn_b) is expected
    assert geometry.same_plane(ppn_b, ppn_a) is expected


@settings(max_examples=60)
@given(geometry=geometries, data=st.data())
def test_cached_sizes_match_dimensions(geometry, data):
    dies = geometry.channels * geometry.chips_per_channel * geometry.dies_per_chip
    blocks_per_die = geometry.planes_per_die * geometry.blocks_per_plane
    assert geometry.total_dies == dies
    assert geometry.blocks_per_die == blocks_per_die
    assert geometry.total_blocks == dies * blocks_per_die
    assert geometry.total_pages == dies * blocks_per_die * geometry.pages_per_block
    assert geometry.pages_per_plane == geometry.blocks_per_plane * geometry.pages_per_block
    ppn = data.draw(st.integers(0, geometry.total_pages - 1))
    pbn = geometry.block_of_ppn(ppn)
    assert geometry.die_of_ppn(ppn) == geometry.die_of_block(pbn)
    assert geometry.plane_of_ppn(ppn) == geometry.plane_of_block(pbn)
