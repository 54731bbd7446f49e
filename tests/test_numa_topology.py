"""The NUMA machine model: topologies, placements, node-aware allocation."""

import json

import pytest

from repro.addr.layout import AddressLayout
from repro.errors import ConfigurationError
from repro.numa.placement import (
    DEFAULT_LINE_SIZE,
    FirstTouchPlacement,
    InterleavedPlacement,
)
from repro.numa.topology import (
    LOCAL_CYCLES,
    ONE_HOP_CYCLES,
    PRESETS,
    SINGLE_NODE,
    TWO_HOP_CYCLES,
    NumaTopology,
    get_topology,
    render_latency_matrix,
)
from repro.os.physmem import FrameAllocator, ReservationAllocator


# ---------------------------------------------------------------------------
# Topologies
# ---------------------------------------------------------------------------
def test_presets_cover_the_sweep():
    assert set(PRESETS) == {"1-node", "2-node", "4-node", "8-node"}
    for name, preset in PRESETS.items():
        assert preset.num_nodes == int(name.split("-")[0])
        assert preset.total_frames == sum(preset.node_frames)
        for node in range(preset.num_nodes):
            assert preset.access_cycles(node, node) == LOCAL_CYCLES


def test_single_node_is_all_local():
    assert SINGLE_NODE.is_single_node()
    assert SINGLE_NODE.access_cycles(0, 0) == LOCAL_CYCLES
    assert not PRESETS["2-node"].is_single_node()


def test_eight_node_preset_has_two_hop_groups():
    """The 8-socket machine is two fully-connected 4-node groups."""
    topo = PRESETS["8-node"]
    assert topo.access_cycles(0, 1) == ONE_HOP_CYCLES
    assert topo.access_cycles(0, 4) == TWO_HOP_CYCLES
    assert topo.access_cycles(5, 6) == ONE_HOP_CYCLES
    assert topo.access_cycles(7, 2) == TWO_HOP_CYCLES


def test_node_of_frame_contiguous_split():
    topo = PRESETS["4-node"]
    per_node = topo.node_frames[0]
    assert topo.node_of_frame(0) == 0
    assert topo.node_of_frame(per_node - 1) == 0
    assert topo.node_of_frame(per_node) == 1
    assert topo.node_of_frame(topo.total_frames - 1) == 3
    # Past-the-end PPNs clamp to the last node (costing never crashes).
    assert topo.node_of_frame(topo.total_frames + 5) == 3


def test_validation_rejects_malformed_machines():
    with pytest.raises(ConfigurationError):
        NumaTopology("bad", (), ())
    with pytest.raises(ConfigurationError):
        NumaTopology("bad", (16, 16), ((90,),))  # not 2x2
    with pytest.raises(ConfigurationError):
        NumaTopology("bad", (16, 16), ((90, 50), (150, 90)))  # remote<local
    with pytest.raises(ConfigurationError):
        NumaTopology("bad", (16, 0), ((90, 150), (150, 90)))  # empty node


def test_json_round_trip_and_pointed_errors(tmp_path):
    topo = PRESETS["2-node"]
    again = NumaTopology.from_json(topo.to_json())
    assert again == topo

    doc = json.loads(topo.to_json())
    doc["latency"] = [[90]]
    with pytest.raises(ConfigurationError, match="2x2"):
        NumaTopology.from_json(json.dumps(doc))
    with pytest.raises(ConfigurationError, match="parse"):
        NumaTopology.from_json("{not json")

    path = tmp_path / "machine.json"
    path.write_text(topo.to_json())
    assert get_topology(str(path)) == topo


def test_get_topology_resolution():
    assert get_topology(None) is SINGLE_NODE
    assert get_topology("4-node") is PRESETS["4-node"]
    topo = PRESETS["2-node"]
    assert get_topology(topo) is topo
    with pytest.raises(ConfigurationError):
        get_topology("3-node")


def test_latency_matrix_rendering():
    text = render_latency_matrix(PRESETS["2-node"])
    assert "node0" in text and "node1" in text
    assert str(ONE_HOP_CYCLES) in text and str(LOCAL_CYCLES) in text


# ---------------------------------------------------------------------------
# Placements
# ---------------------------------------------------------------------------
def test_first_touch_places_everything_on_one_node():
    placement = FirstTouchPlacement(PRESETS["4-node"], node=2)
    for address in (0, 255, 256, 10_000, 1 << 20):
        assert placement.home_of(placement.line_of(address)) == 2


def test_interleaved_round_robins_lines():
    placement = InterleavedPlacement(PRESETS["4-node"])
    line = DEFAULT_LINE_SIZE
    homes = [placement.home_of(placement.line_of(k * line)) for k in range(8)]
    assert homes == [0, 1, 2, 3, 0, 1, 2, 3]
    # Same line, same home — byte offset within a line is irrelevant.
    assert placement.home_of(placement.line_of(line + 7)) == homes[1]


# ---------------------------------------------------------------------------
# Node-aware frame allocation
# ---------------------------------------------------------------------------
def test_frame_allocator_prefers_local_frames():
    layout = AddressLayout()
    topo = PRESETS["4-node"]
    alloc = FrameAllocator(256, layout, topology=topo)
    ppn = alloc.allocate(vpn=0, node=2)
    assert alloc.node_of_frame(ppn) == 2
    assert alloc.stats.node_local == 1 and alloc.stats.node_remote == 0
    # Exhaust node 3's 64-frame slice; the next request spills remote.
    for i in range(64):
        alloc.allocate(vpn=100 + i, node=3)
    spilled = alloc.allocate(vpn=999, node=3)
    assert alloc.node_of_frame(spilled) != 3
    assert alloc.stats.node_remote == 1


def test_reservation_allocator_composes_placement_and_locality():
    layout = AddressLayout(subblock_factor=4)
    alloc = ReservationAllocator(64, layout, topology=PRESETS["4-node"])
    vpn = layout.subblock_factor * 5  # block-aligned
    ppn = alloc.allocate(vpn, node=1)
    assert alloc.node_of_frame(ppn) == 1
    assert layout.properly_placed(vpn, ppn, layout.subblock_factor)
    assert alloc.stats.properly_placed == 1
    assert alloc.stats.node_local == 1


def test_allocators_without_topology_are_single_node():
    alloc = FrameAllocator(16)
    assert alloc.node_of_frame(7) == 0
    ppn = alloc.allocate(vpn=3)
    assert alloc.stats.node_local == 0 and alloc.stats.node_remote == 0
    assert ppn == 0
