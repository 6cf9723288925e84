import os
import subprocess
import sys
from pathlib import Path

import pytest

import boxstab
from boxstab.cli import main
from boxstab.fileio import read_boxes, read_queries, write_boxes, write_queries
from boxstab import verify as verify_module
from boxstab.geom import Box3, ModelParams
from boxstab.instances import gen
from boxstab.stab6 import IntervalTreeZ
from boxstab.verify import verify


class TestFileIO:
    def test_roundtrip(self, tmp_path):
        inst = gen("stab5", 20, 80, seed=1)
        p = tmp_path / "b.txt"
        write_boxes(str(p), inst.boxes)
        boxes, weighted = read_boxes(str(p))
        assert not weighted
        assert len(boxes) == 20
        assert boxes[3].x == inst.boxes[3].x
        assert boxes[3].z == inst.boxes[3].z  # (None, z2) via '*'

    def test_weighted_roundtrip(self, tmp_path):
        inst = gen("topk-stab", 8, 32, seed=2)
        p = tmp_path / "w.txt"
        write_boxes(str(p), inst.boxes, weighted=True)
        boxes, weighted = read_boxes(str(p))
        assert weighted and boxes[0].weight == inst.boxes[0].weight

    def test_queries_roundtrip(self, tmp_path):
        p = tmp_path / "q.txt"
        write_queries(str(p), [(1, 2, 3), (4, 5, 6, 2)])
        assert read_queries(str(p)) == [(1, 2, 3), (4, 5, 6, 2)]


class TestGenDeterminism:
    def test_same_seed_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["gen", "--kind", "stab6", "--n", "50", "--universe", "200", "--seed", "7", "-o", str(a)])
        main(["gen", "--kind", "stab6", "--n", "50", "--universe", "200", "--seed", "7", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["gen", "--kind", "stab6", "--n", "50", "--universe", "200", "--seed", "7", "-o", str(a)])
        main(["gen", "--kind", "stab6", "--n", "50", "--universe", "200", "--seed", "8", "-o", str(b)])
        assert a.read_bytes() != b.read_bytes()


class TestVerifyCLI:
    @pytest.mark.parametrize(
        "kind,structure",
        [
            ("pl-disjoint", "pl3d"),
            ("stab5", "stab5"),
            ("stab6", "stab6"),
            ("zr4", "zr4fast"),
            ("zr6", "zr6"),
            ("topk-dom", "topkdom"),
            ("topk-stab", "topkstab"),
            ("topk-dom", "dom3"),
            ("topk-dom", "cut2"),
            ("topk-dom", "cut3"),
            ("stab6", "stab2count"),
        ],
    )
    def test_verify_passes(self, tmp_path, kind, structure):
        p = tmp_path / "in.txt"
        args = ["gen", "--kind", kind, "--n", "60", "--universe", "240", "--seed", "3", "-o", str(p)]
        if kind in ("zr4", "zr6"):
            args += ["--fanout", "4"]
        main(args)
        rc = main(["verify", "--structure", structure, "-i", str(p), "--queries", "60", "--seed", "5"])
        assert rc == 0

    def test_verify_pl2_flat(self, tmp_path):
        p = tmp_path / "flat.txt"
        main(["gen", "--kind", "pl-disjoint", "--n", "40", "--universe", "160", "--seed", "2", "--flat", "-o", str(p)])
        assert main(["verify", "--structure", "pl2", "-i", str(p), "--queries", "80", "--seed", "1"]) == 0

    def test_verify_query_file(self, tmp_path):
        p, q = tmp_path / "in.txt", tmp_path / "q.txt"
        main(["gen", "--kind", "stab5", "--n", "30", "--universe", "120", "--seed", "4", "-o", str(p)])
        write_queries(str(q), [(5, 5, 5), (100, 100, 100)])
        assert main(["verify", "--structure", "stab5", "-i", str(p), "--query-file", str(q)]) == 0

    def test_stab6_keeps_library_fanout(self, tmp_path, monkeypatch):
        # only the zr rows infer a fan-out from the file; the stab6 z
        # interval tree keeps the library default Z
        p = tmp_path / "in.txt"
        main(["gen", "--kind", "stab6", "--n", "40", "--universe", "160", "--seed", "3", "-o", str(p)])
        fanouts = []
        init = IntervalTreeZ.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            fanouts.append(self.f)

        monkeypatch.setattr(IntervalTreeZ, "__init__", spy)
        assert main(["verify", "--structure", "stab6", "-i", str(p), "--queries", "20"]) == 0
        assert fanouts == [ModelParams().Z]

    @pytest.mark.parametrize("kind,structure,query", [
        ("topk-dom", "topkdom", "query_topk_dom"),
        ("topk-stab", "topkstab", "query_topk_stab"),
    ])
    def test_query_file_k_column(self, tmp_path, monkeypatch, kind, structure, query):
        p, q = tmp_path / "in.txt", tmp_path / "q.txt"
        main(["gen", "--kind", kind, "--n", "30", "--universe", "120", "--seed", "4", "-o", str(p)])
        write_queries(str(q), [(5, 5, 5, 3), (100, 100, 100, 7)])
        ks = []
        real = getattr(verify_module, query)

        def spy(s, xy, k, counters=None):
            ks.append(k)
            return real(s, xy, k, counters)

        monkeypatch.setattr(verify_module, query, spy)
        assert main(["verify", "--structure", structure, "-i", str(p), "--query-file", str(q)]) == 0
        assert ks == [3, 7]

    def test_corrupted_index_detected(self):
        # the tamper hook deliberately breaks the built structure; verify
        # must exit with a mismatch
        inst = gen("stab5", 64, 256, seed=9)

        def tamper(tree):
            node = tree.root
            while node.leaf is None:
                node = next(iter(node.col_children.values()), None) or next(
                    iter(node.row_children.values())
                )
            rows = node.leaf.rows
            rows[0] = (*rows[0][:-1], rows[0][-1] + 1)  # mislabel one rectangle

        rep = verify("stab5", inst, 100, seed=11, tamper=tamper)
        assert not rep.passed

    def test_verify_mismatch_exit_code(self, tmp_path, monkeypatch):
        # corrupt through the CLI path by feeding rects that violate the
        # pl2 disjointness precondition: nonzero exit, not a traceback
        p = tmp_path / "bad.txt"
        boxes = [Box3(0, (0, 4), (0, 4), (0, 4)), Box3(1, (2, 6), (2, 6), (0, 4))]
        write_boxes(str(p), boxes)
        rc = main(["verify", "--structure", "pl2", "-i", str(p), "--queries", "5"])
        assert rc != 0


class TestBenchCLI:
    def test_csv_shape(self, capsys):
        rc = main(["bench", "--structure", "stab5", "--sizes", "16,64", "--queries", "20", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("kind,n,universe,build_ms,bits_stored")
        assert len(out) == 3  # header + two data rows

    def test_deterministic_counters(self, capsys):
        main(["bench", "--structure", "zr4fast", "--sizes", "64", "--queries", "30", "--seed", "5", "--fanout", "4"])
        first = capsys.readouterr().out
        main(["bench", "--structure", "zr4fast", "--sizes", "64", "--queries", "30", "--seed", "5", "--fanout", "4"])
        second = capsys.readouterr().out
        # counter columns identical across reruns; build_ms may differ
        strip = lambda s: [",".join(c for i, c in enumerate(r.split(",")) if i != 3) for r in s.splitlines()]
        assert strip(first) == strip(second)

    def test_sizes_must_ascend(self):
        assert main(["bench", "--structure", "stab5", "--sizes", "64,16"]) == 2


def test_console_entrypoint():
    # the subprocess imports the package from the same src dir as this run
    src = str(Path(boxstab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "boxstab.cli", "gen", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0
