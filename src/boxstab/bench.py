"""Counter instrumentation over growing instance sizes, emitted as CSV."""

from __future__ import annotations

import io
import time

from .counters import CSV_COLUMNS, Counters, CounterStats
from .geom import ModelParams, DEFAULT_PARAMS
from .instances import gen
from .verify import _qpoints, query_cases, structure_row


def total_bits(structure) -> int:
    """Payload bits of a built structure; every structure owns its count."""
    return structure.bits_stored


def bench_structure(
    structure: str,
    sizes: list[int],
    n_queries: int,
    seed: int,
    params: ModelParams = DEFAULT_PARAMS,
    fanout: int | None = None,
) -> str:
    """Build/query each size; returns CSV text with the fixed column order."""
    out = io.StringIO()
    out.write(CSV_COLUMNS + "\n")
    row = structure_row(structure)
    for n in sizes:
        U = max(4, 2 * n)
        inst = gen(row.kind, n, U, seed, fanout=fanout, flat=row.flat)
        out.write(",".join(str(v) for v in bench_row(structure, inst, n_queries, seed, params)) + "\n")
    return out.getvalue()


def bench_row(structure, inst, n_queries, seed, params=DEFAULT_PARAMS):
    """One CSV row: build time, payload bits and per-query counter means.
    The cutting rows build at level t1(n)."""
    row = structure_row(structure)
    qs = _qpoints(inst, n_queries, seed)
    t0 = time.perf_counter()
    s = row.build(inst, params, params.t1(max(2, inst.n)))
    build_ms = (time.perf_counter() - t0) * 1e3
    stats = CounterStats()
    for cases in query_cases(row, s, inst, params, qs, seed):
        c = Counters()
        for case in cases:
            row.query(s, case, c)
        stats.add(c)

    return [
        inst.kind,
        inst.n,
        inst.universe,
        f"{build_ms:.2f}",
        s.bits_stored,
        f"{stats.mean('predecessor_steps'):.2f}",
        f"{stats.mean('nodes_visited'):.2f}",
        f"{stats.mean('dominance_queries'):.2f}",
        f"{stats.mean('cells_scanned'):.2f}",
        f"{stats.mean('heap_ops'):.2f}",
        f"{stats.mean('output_size'):.2f}",
        stats.max("predecessor_steps"),
        stats.max("nodes_visited"),
    ]
