import pytest

from boxstab.geom import ValidationError
from boxstab.instances import KINDS, check_pairwise_disjoint, gen, gen_pl_arrays


class TestGen:
    def test_empty(self):
        inst = gen("stab5", 0, 4, seed=1)
        assert inst.boxes == ()

    def test_deterministic(self):
        a = gen("stab6", 40, 160, seed=9)
        b = gen("stab6", 40, 160, seed=9)
        assert a.boxes == b.boxes

    def test_universe_validation(self):
        with pytest.raises(ValidationError):
            gen("stab5", 100, 50, seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            gen("nope", 1, 4, seed=0)

    def test_pl_disjoint_500(self):
        inst = gen("pl-disjoint", 500, 2000, seed=3)
        assert len(inst.boxes) == 500
        assert check_pairwise_disjoint(list(inst.boxes))

    def test_pruned_is_disjoint_subset(self):
        inst = gen("pl-subdivision-pruned", 300, 1500, seed=4)
        assert len(inst.boxes) == 300
        assert check_pairwise_disjoint(list(inst.boxes))

    def test_subdivision_fills_space(self):
        inst = gen("pl-disjoint", 64, 256, seed=5)
        vol = sum(
            (b.x[1] - b.x[0] + 1) * (b.y[1] - b.y[0] + 1) * (b.z[1] - b.z[0] + 1)
            for b in inst.boxes
        )
        assert vol == 256**3

    def test_kind_patterns(self):
        for kind in KINDS:
            inst = gen(kind, 12, 64, seed=6, fanout=4)
            for b in inst.boxes:
                if kind == "stab5":
                    assert b.z[0] is None and b.z[1] is not None
                elif kind == "zr4":
                    assert b.x[0] is None and b.y[0] is None
                    assert 0 <= b.z[0] <= b.z[1] < 4
                elif kind == "topk-stab":
                    assert b.z == (None, None) and b.weight is not None

    def test_array_path_matches_gen(self):
        inst = gen("pl-disjoint", 50, 200, seed=11)
        arr = gen_pl_arrays(50, 200, seed=11)
        for i, b in enumerate(inst.boxes):
            assert tuple(arr[i]) == (b.x[0], b.x[1], b.y[0], b.y[1], b.z[0], b.z[1])


def test_overlap_detector_sees_planted_overlap():
    inst = gen("pl-disjoint", 20, 100, seed=7)
    boxes = list(inst.boxes)
    boxes.append(boxes[0])
    assert not check_pairwise_disjoint(boxes)
