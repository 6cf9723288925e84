"""Command-line harness: instance generation, verification, benchmarking."""

from __future__ import annotations

import argparse
import sys

from .bench import bench_structure
from .fileio import read_boxes, read_queries, write_boxes
from .geom import ModelParams
from .instances import KINDS, Instance, gen
from .verify import STRUCTURES, verify


def _add_common(p):
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="boxstab")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate a deterministic instance file")
    g.add_argument("--kind", required=True, choices=KINDS)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--universe", type=int, required=True)
    g.add_argument("-o", "--output", required=True)
    g.add_argument("--fanout", type=int, default=None, help="z universe of zr kinds")
    g.add_argument("--flat", action="store_true",
                   help="split only x/y so xy projections stay disjoint (planar point location)")
    _add_common(g)

    v = sub.add_parser("verify", help="compare a structure against the brute oracle")
    v.add_argument("--structure", required=True, choices=STRUCTURES)
    v.add_argument("-i", "--input", required=True)
    v.add_argument("--queries", type=int, default=200)
    v.add_argument("--query-file", default=None, help="use these query points instead")
    v.add_argument("--level", type=int, default=16, help="level of the shallow-cutting structures")
    v.add_argument("--fanout", type=int, default=None,
                   help="z universe for zr kinds (default: max z2 + 1 over the file)")
    _add_common(v)

    b = sub.add_parser("bench", help="counter instrumentation over sizes, CSV out")
    b.add_argument("--structure", required=True, choices=STRUCTURES)
    b.add_argument("--sizes", required=True, help="comma-separated ascending sizes")
    b.add_argument("--queries", type=int, default=100)
    b.add_argument("-o", "--output", default=None)
    b.add_argument("--fanout", type=int, default=None)
    _add_common(b)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.cmd == "gen":
        inst = gen(args.kind, args.n, args.universe, args.seed,
                   fanout=args.fanout, flat=args.flat)
        write_boxes(args.output, inst.boxes, weighted=inst.weighted)
        print(f"wrote {inst.n} boxes ({inst.kind}) to {args.output}")
        return 0

    if args.cmd == "verify":
        boxes, weighted = read_boxes(args.input)
        universe = 2
        for b in boxes:
            for a in range(3):
                for v in b.interval(a):
                    if v is not None:
                        universe = max(universe, v + 1)
        inst = Instance(
            kind="file", n=len(boxes), universe=universe, seed=args.seed,
            boxes=tuple(boxes), weighted=weighted, fanout=args.fanout,
        )
        qpts = read_queries(args.query_file) if args.query_file else None
        try:
            rep = verify(args.structure, inst, args.queries, args.seed,
                         level=args.level, query_points=qpts)
        except Exception as exc:
            print(f"verify failed: {exc}", file=sys.stderr)
            return 2
        if rep.passed:
            print(f"PASS {args.structure}: n={rep.n}, {rep.queries} queries, "
                  f"build {rep.build_ms:.1f} ms")
            return 0
        print(rep.witness(), file=sys.stderr)
        return 1

    if args.cmd == "bench":
        sizes = [int(s) for s in args.sizes.split(",")]
        if sizes != sorted(sizes):
            print("sizes must be ascending", file=sys.stderr)
            return 2
        csv = bench_structure(args.structure, sizes, args.queries, args.seed,
                              fanout=args.fanout)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(csv)
            print(f"wrote {args.output}")
        else:
            sys.stdout.write(csv)
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
