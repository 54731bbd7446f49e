"""Cache-line accounting for page-table walks.

The paper's access-time metric (§6.1) is *the average number of cache lines
accessed to handle one TLB miss*, under two simplifying assumptions that we
reproduce exactly:

- each page-table node (hash node, linear-table PTE, tree node entry)
  starts on a cache-line boundary, and
- a 256-byte level-two cache line is the default.

A walk step therefore touches ``1 + extra`` lines, where ``extra`` counts
the additional lines crossed when a node is bigger than one line and the
bytes read (tag at the front, a mapping slot possibly far behind it) land in
different lines.  This is precisely the effect the paper quantifies at the
end of §6.3: with subblock factor sixteen a 144-byte clustered node adds
0.125 lines on average for 128-byte lines and 0.625 for 64-byte lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Set, Tuple

from repro.errors import ConfigurationError


def distinct_lines(
    reads: Iterable[Tuple[int, int]], line_size: int
) -> Set[int]:
    """The cache lines (address // ``line_size``) covered by the
    ``(address, nbytes)`` reads of one walk; empty reads cover none."""
    lines: Set[int] = set()
    for address, nbytes in reads:
        if nbytes > 0:
            lines.update(range(
                address // line_size, (address + nbytes - 1) // line_size + 1
            ))
    return lines


@dataclass(frozen=True)
class CacheModel:
    """A cache with a fixed line size, used only to count line touches.

    The model is intentionally stateless: the paper's metric assumes the
    level-two cache "rarely contains page table data", i.e. every touched
    line is a miss.  (The paper notes this makes clustered tables look
    slightly *worse* than reality, since their smaller tables cache
    better.)
    """

    line_size: int = 256

    def __post_init__(self) -> None:
        if self.line_size <= 0 or self.line_size & (self.line_size - 1):
            raise ConfigurationError(
                f"cache line size must be a positive power of two, got "
                f"{self.line_size}"
            )

    def lines_touched(self, reads: Iterable[Tuple[int, int]]) -> int:
        """Count distinct cache lines covering the given reads.

        ``reads`` is an iterable of ``(offset, nbytes)`` pairs, with offsets
        relative to the start of a line-aligned node.
        """
        return len(distinct_lines(reads, self.line_size))

    def lines_for_node(self, node_bytes: int) -> int:
        """Lines needed to read an entire line-aligned node of given size."""
        if node_bytes <= 0:
            return 0
        return (node_bytes + self.line_size - 1) // self.line_size


#: The paper's default: 256-byte level-two cache lines.
DEFAULT_CACHE = CacheModel(line_size=256)
