"""Per-query and per-build instrumentation.

Counters are caller-owned and passed into query functions; structures never
share mutable state between queries.  All counts are monotone within one
query or build.

Charging policy (used consistently by every structure):

* a binary search over ``m`` items charges ``m.bit_length() + 1`` to
  ``predecessor_steps`` (the comparison count of the search);
* each visited tree node of the structure being measured charges 1 to
  ``nodes_visited``;
* each dominance-structure query charges 1 to ``dominance_queries``;
* each scanned grid-list entry charges 1 to ``cells_scanned``;
* each heap push/pop charges 1 to ``heap_ops``;
* each public reporting query charges the length of its answer to
  ``output_size``, once (see ``charge_output``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


CSV_COLUMNS = (
    "kind,n,universe,build_ms,bits_stored,pred_steps_mean,nodes_visited_mean,"
    "dom_queries_mean,cells_scanned_mean,heap_ops_mean,output_mean,"
    "pred_steps_max,nodes_visited_max"
)


@dataclass
class Counters:
    predecessor_steps: int = 0
    nodes_visited: int = 0
    dominance_queries: int = 0
    cells_scanned: int = 0
    heap_ops: int = 0
    output_size: int = 0
    bits_stored: int = 0

    def charge_search(self, length: int) -> None:
        self.predecessor_steps += max(1, int(length).bit_length() + 1)

    def visit_node(self) -> None:
        self.nodes_visited += 1

    def dominance_query(self) -> None:
        self.dominance_queries += 1

    def scan_cells(self, count: int = 1) -> None:
        self.cells_scanned += count

    def heap_op(self, count: int = 1) -> None:
        self.heap_ops += count

    def add_output(self, count: int) -> None:
        self.output_size += count

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class CounterStats:
    """Mean/max aggregation of per-query counters for the bench CSV."""

    queries: int = 0
    sums: dict = field(default_factory=dict)
    maxes: dict = field(default_factory=dict)

    def add(self, c: Counters) -> None:
        self.queries += 1
        for name, value in c.as_dict().items():
            self.sums[name] = self.sums.get(name, 0) + value
            self.maxes[name] = max(self.maxes.get(name, 0), value)

    def mean(self, name: str) -> float:
        if not self.queries:
            return 0.0
        return self.sums.get(name, 0) / self.queries

    def max(self, name: str) -> int:
        return self.maxes.get(name, 0)


def charge_output(out: list, counters: Counters | None) -> list:
    """Charge ``out`` as the answer of one query; returns it."""
    if counters is not None:
        counters.add_output(len(out))
    return out


def bit_width(domain_size: int) -> int:
    """Bits needed to store one value from a domain of the given size."""
    return max(1, int(max(2, domain_size) - 1).bit_length())
