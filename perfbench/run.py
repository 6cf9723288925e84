"""Wall-clock benchmark of the boxstab library.

    python3 perfbench/run.py --workload pl3d-locate --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One process, one caller, closed loop: each query is issued after the
previous one returns, with numpy's thread pools pinned to one thread.
Inputs come from ``instances.gen`` with seeds derived from ``--seed`` (see
workloads.json).

``--trace 0`` generates and sets up a workload's instances (three unless
workloads.json says otherwise) and reports their median set-up time and mean
stored bits.  Each instance gets a fixed list of queries; rounds of passes,
one pass over every list per round, run for ``--seconds``, and a query's
latency is the median of its wall times over the rounds.  Latency
percentiles and throughput pool every instance's queries.  ``--trace 1``
builds the first instance once under the per-module tracer, times each
batch of queries once with the tracer off and once with it on (plus one
``Counters`` per query), and reports the per-layer metrics.  Every answer
is checked against a numpy mask scan over the same boxes outside the timed
loop; a repeated answer is checked against the first one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when any answer is wrong or raised, or when a workload that needs a grid
tree got a single leaf.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import fields
from itertools import islice
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

INSTANCES = 3  # default instances set up per untraced run; setup_s is their median
QUERIES = 2000  # default distinct queries timed per untraced run, over all instances
WARMUP = 100  # untimed queries after each set-up, before timing
MIN_QUERIES = 1000  # p99 needs at least 10 samples beyond it
MIN_ROUNDS = 5  # least number of timed rounds of an untraced run
CHECK_BATCH = 256  # queries answered between two checks against the scan
TRACED_SHARE = 1 / 3  # untraced loop time of a traced run, as a share of --seconds

END_TO_END = {
    "setup_s": "s",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "query_qps": "1/s",
    "bits_stored": "bit",
    "peak_rss_mb": "MiB",
    "correct_share": "share",
}


def import_library():
    """Import boxstab from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import boxstab
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import boxstab from {SRC}: {exc}")
    if Path(boxstab.__file__).resolve().parent != SRC / "boxstab":
        sys.exit(f"perfbench: boxstab imported from {boxstab.__file__}, not {SRC}")


WRONG = object()  # the kept fingerprint of a wrong or raised answer; equals nothing


def fingerprint(got):
    """A small stand-in for an answer: equal answers have equal
    fingerprints, and id lists of different order or content differ."""
    return hash(tuple(got)) if isinstance(got, list) else got


class Pass:
    """One closed-loop pass over a list of queries, checked batch by batch."""

    def __init__(self):
        self.queries = []  # every query issued, in order
        self.lat_ns = []  # per-query wall time of the user call
        self.loop_ns = 0  # wall time of the loop, checks excluded
        self.failed = 0
        self.counters = None  # Counters summed over the pass, when counted
        self.scan_ns = []  # per-query numpy scan time, when recorded
        self.answers = []  # fingerprint of every answer, in order, when kept

    def run(self, wl, s, queries, counters_cls=None, record_scan=False, expected=None, keep=False):
        """Issue ``queries`` one at a time.  An answer whose fingerprint equals
        its entry in ``expected`` (the kept fingerprints of an earlier pass
        over the same list) is right; any other is checked against the numpy
        scan.  A query that raises counts as failed.  Calls accumulate."""
        query = wl.query
        if counters_cls is not None and self.counters is None:
            self.counters = counters_cls()
        expected = iter(expected) if expected is not None else None
        batch = []
        batch_start = perf_counter_ns()
        for q in queries:
            c = counters_cls() if counters_cls is not None else None
            t0 = perf_counter_ns()
            try:
                got = query(s, q, c)
            except Exception as exc:  # a raised query is a failed query
                got = exc
            t1 = perf_counter_ns()
            self.lat_ns.append(t1 - t0)
            batch.append((q, got, next(expected) if expected is not None else WRONG))
            if c is not None:
                for f in fields(c):
                    setattr(self.counters, f.name, getattr(self.counters, f.name) + getattr(c, f.name))
            if len(batch) == CHECK_BATCH:
                self.loop_ns += perf_counter_ns() - batch_start
                self._check(wl, batch, record_scan, keep)
                batch = []
                batch_start = perf_counter_ns()
        self.loop_ns += perf_counter_ns() - batch_start
        self._check(wl, batch, record_scan, keep)
        return self

    def _check(self, wl, batch, record_scan, keep):
        for q, got, exp in batch:
            self.queries.append(q)
            fp = fingerprint(got) if not isinstance(got, Exception) else WRONG
            if fp is not WRONG and fp == exp:
                continue
            if keep:
                self.answers.append(fp)
            t0 = perf_counter_ns()
            hits = wl.scan(q)
            if record_scan:
                self.scan_ns.append(perf_counter_ns() - t0)
            if isinstance(got, Exception):
                if not self.failed:
                    traceback.print_exception(got, file=sys.stderr)
                self.failed += 1
            elif not wl.check(q, got, hits):
                if keep:
                    self.answers[-1] = WRONG
                if not self.failed:
                    print(f"perfbench: wrong answer for {q}: got {got}, scan {hits.tolist()}", file=sys.stderr)
                self.failed += 1


def instance_seed(seed: int, rep: int, instances: int) -> int:
    """Generator seed of the rep-th of a run's ``instances`` instances;
    distinct command-line seeds give disjoint instance sets."""
    return seed * instances + rep


def run_untraced(make, instances, n_queries, seconds):
    """Generate and set up ``instances`` instances, each with a fixed list of
    its share of ``n_queries`` queries, then time rounds of passes, one pass
    over each list per round, until the rounds have spent ``seconds``.  A
    query's latency is the median of its wall times over the rounds.

    Other tenants of a shared host slow the program in bursts that come and
    go over seconds.  A round is short, so each query's repeats are spread
    over the whole run, and their median follows the host's usual speed
    during the run rather than the bursts that one pass happened to meet.
    A pass runs a whole list before any query repeats.  Pooling several
    instances keeps the percentiles from following one instance's mix of
    short and long query paths."""
    times, bits, runs, warm = [], [], [], []
    root_leaf = False
    per_instance = -(-n_queries // instances)
    for rep in range(instances):
        wl = make(rep)
        gc.collect()
        t0 = perf_counter()
        s = wl.setup()
        times.append(perf_counter() - t0)
        bits.append(wl.bits(s))
        root_leaf |= wl.shape(s)[1]
        queries = wl.queries()
        warm.append(Pass().run(wl, s, list(islice(queries, WARMUP))))
        runs.append((wl, s, list(islice(queries, per_instance))))
    gc.collect()
    passes = [[Pass().run(wl, s, qs, keep=True)] for wl, s, qs in runs]
    loop_ns = sum(done[0].loop_ns for done in passes)
    while len(passes[0]) < MIN_ROUNDS or loop_ns < seconds * 1e9:
        for (wl, s, qs), done in zip(runs, passes):
            done.append(Pass().run(wl, s, qs, expected=done[0].answers))
            loop_ns += done[-1].loop_ns
    lat_ns = [statistics.median(ts) for done in passes for ts in zip(*(p.lat_ns for p in done))]
    first_ns = [t for done in passes for t in done[0].lat_ns]
    every = warm + [p for done in passes for p in done]
    attempted = sum(len(p.queries) for p in every)
    failed = sum(p.failed for p in every)
    p50, p99 = statistics.quantiles(lat_ns, n=100)[49::49]
    metrics = {
        "setup_s": statistics.median(times),
        "query_p50_us": p50 / 1e3,
        "query_p99_us": p99 / 1e3,
        "query_qps": len(lat_ns) / (sum(lat_ns) / 1e9),
        "bits_stored": statistics.mean(bits),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "correct_share": 1 - failed / attempted,
    }
    print(f"error_share {failed / attempted} share  (reported as correct_share)")
    print(f"queries {len(lat_ns)} on {instances} instances, each timed in {len(passes[0])} rounds; "
          f"{attempted} answered")
    print(f"first round alone: p50 {statistics.median(first_ns) / 1e3} us, "
          f"qps {len(first_ns) / (sum(first_ns) / 1e9)} 1/s")
    return metrics, dict(END_TO_END), attempted, failed, root_leaf


def run_traced(make, instances, n_queries, seconds):
    """One instance, the first of the untraced run's."""
    from boxstab.counters import Counters
    from tracing import LAYERS, Tracer

    wl = make(0)
    tracer = Tracer()
    gc.collect()
    with tracer:
        s = wl.setup()
    build_ns = dict(tracer.self_ns)
    tracer.reset()
    shape, root_leaf = wl.shape(s)

    queries = wl.queries()
    warm = Pass().run(wl, s, list(islice(queries, WARMUP)))
    plain, traced = Pass(), Pass()
    gc.collect()
    # untraced and traced batches of the same queries alternate, so that
    # both see the same host speed
    while plain.loop_ns < seconds * TRACED_SHARE * 1e9 or len(plain.lat_ns) < MIN_QUERIES:
        batch = list(islice(queries, CHECK_BATCH))
        plain.run(wl, s, batch, record_scan=True)
        with tracer:
            traced.run(wl, s, batch, counters_cls=Counters)
    attempted = len(warm.queries) + len(plain.queries) + len(traced.queries)
    failed = warm.failed + plain.failed + traced.failed

    m = len(plain.queries)
    wall_ns = sum(traced.lat_ns)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.query_self_us"] = tracer.self_ns[layer] / m / 1e3
        metrics[f"{layer}.calls"] = tracer.spans[layer] / m
        metrics[f"{layer}.build_self_s"] = build_ns.get(layer, 0) / 1e9
    empties = tracer.calls_to("StabEmpty2.empty")
    metrics["pl3d.short_share"] = (empties - tracer.truthy["StabEmpty2.empty"]) / empties if empties else 0.0
    metrics["stab5.slow_fallbacks"] = tracer.calls_to("SlowStab5.query", caller="stab5") / m
    fast = tracer.calls_to("ZR4Fast.query")
    metrics["stab6.zr4_fallback_share"] = tracer.calls_to("ZR4Slow.query") / fast if fast else 0.0
    for f in fields(Counters):
        if f.name != "bits_stored":
            metrics[f"counters.{f.name}"] = getattr(traced.counters, f.name) / m
    metrics["baseline.numpy_scan_p50_us"] = statistics.median(plain.scan_ns) / 1e3
    for key, value in shape.items():
        metrics[f"shape.{key}"] = value
    metrics["trace.wall_us"] = wall_ns / m / 1e3
    metrics["trace.overhead_share"] = wall_ns / sum(plain.lat_ns) - 1
    metrics["trace.unattributed_share"] = 1 - sum(tracer.self_ns.values()) / wall_ns

    units = {}
    for name in metrics:
        units[name] = (
            "us" if name.endswith("_us") else "s" if name.endswith("_s")
            else "share" if name.endswith("share") else "count"
        )
    print(f"queries {m} untraced and the same {m} traced, in alternating batches")
    return metrics, units, attempted, failed, root_leaf


def run_one(args, spec) -> int:
    import_library()
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    run = run_traced if args.trace else run_untraced
    instances = spec.get("instances", INSTANCES)
    n_queries = max(MIN_QUERIES, spec.get("queries", QUERIES))
    metrics, units, attempted, failed, root_leaf = run(
        lambda rep: cls(spec, instance_seed(args.seed, rep, instances)), instances, n_queries, args.seconds
    )
    guard_failed = cls.grid_required and root_leaf
    if guard_failed:
        print(f"perfbench: {args.workload} built a single leaf; it must exercise the grid tree", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value} {units[name]}")
    correct = failed == 0 and not guard_failed
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args, names) -> int:
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.exit(f"perfbench: workload {name} exited {proc.returncode} without a result")
        merged["correct"] &= result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    # numpy sizes its thread pools when it is first imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    specs = json.loads((HERE / "workloads.json").read_text())["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*specs, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args, list(specs))
    return run_one(args, specs[args.workload])


if __name__ == "__main__":
    sys.exit(main())
