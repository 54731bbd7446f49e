"""Shared fixtures for the test suite."""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest

from repro.addr.layout import AddressLayout
from repro.addr.space import AddressSpace


def load_bench_gate():
    """``benchmarks/bench_gate.py`` as a module (``benchmarks/`` holds
    scripts, not a package)."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_gate.py"
    spec = importlib.util.spec_from_file_location("bench_gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def layout() -> AddressLayout:
    """The paper's base configuration (4 KB pages, subblock factor 16)."""
    return AddressLayout()


@pytest.fixture
def small_layout() -> AddressLayout:
    """Subblock factor 4, handy for exhaustive block-level assertions."""
    return AddressLayout(subblock_factor=4)


@pytest.fixture
def rng() -> random.Random:
    """Deterministic RNG for tests that need randomness."""
    return random.Random(0xC0FFEE)


def make_space(layout: AddressLayout, blocks: int = 8, pages_per_block: int = 16,
               base_vpn: int = 0x10000, base_ppn: int = 0x4000) -> AddressSpace:
    """A dense snapshot: ``blocks`` consecutive page blocks, fully mapped.

    Frames are allocated properly placed so promotion-related tests can
    rely on placement.
    """
    space = AddressSpace(layout)
    s = layout.subblock_factor
    for block in range(blocks):
        for offset in range(min(pages_per_block, s)):
            vpn = base_vpn + block * s + offset
            ppn = base_ppn + block * s + offset
            space.map(vpn, ppn)
    return space


@pytest.fixture
def dense_space(layout) -> AddressSpace:
    """Eight fully-populated, properly-placed page blocks."""
    return make_space(layout)


@pytest.fixture
def sparse_space(layout) -> AddressSpace:
    """Isolated single pages scattered across the 64-bit space."""
    space = AddressSpace(layout)
    vpn = 0x1000
    for i in range(40):
        space.map(vpn, 0x900 + i)
        vpn = (vpn * 2654435761 + 12345) % (layout.max_vpn - 1)
    return space
