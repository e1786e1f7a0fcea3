import pytest

from fatsep.geometry import AxisBox, Ball
from fatsep.instances import (
    Instance,
    ParseError,
    format_instance,
    gen_instance,
    parse_instance,
    read_instance,
    write_instance,
)
from fatsep.oracle import brute_pack
from fatsep.solver import solve_pack
from conftest import INSTANCE_FILES


def test_grid_pack_by_construction():
    inst = gen_instance("grid", 2, k=3, seed=1)
    assert inst.n == 9
    assert brute_pack(inst).value == 9


def test_empty_instance():
    inst = gen_instance("random", 2, n=0, seed=0)
    assert inst.n == 0


def test_generation_deterministic():
    a = gen_instance("random", 3, shape="box", n=18, seed=42)
    b = gen_instance("random", 3, shape="box", n=18, seed=42)
    assert a == b
    c = gen_instance("random", 3, shape="box", n=18, seed=43)
    assert a != c


def test_cluster_family_disjoint_groups():
    from fatsep.geometry import intersects

    inst = gen_instance("cluster", 2, clusters=3, cluster_size=4, seed=0)
    assert inst.n == 12
    # objects from different clusters never intersect
    for i in range(inst.n):
        for j in range(i + 1, inst.n):
            if i // 4 != j // 4:
                assert not intersects(inst.objects[i], inst.objects[j])


def test_round_trip(tmp_path):
    inst = gen_instance("random", 2, n=10, seed=5)
    p = tmp_path / "i.txt"
    write_instance(inst, str(p))
    again = read_instance(str(p))
    assert again == inst


def test_round_trip_byte_stable(tmp_path):
    # 20-file corpus: write -> read -> write must reproduce identical bytes.
    specs = [("random", 2, "ball"), ("random", 3, "box"), ("grid", 2, "ball"), ("cluster", 2, "box")]
    count = 0
    for family, d, shape in specs:
        for seed in range(5):
            kwargs = {"shape": shape, "seed": seed}
            if family == "grid":
                kwargs["k"] = 2
            elif family == "cluster":
                kwargs.update(clusters=2, cluster_size=3)
            else:
                kwargs["n"] = 7
            inst = gen_instance(family, d, **kwargs)
            text = format_instance(inst)
            assert format_instance(parse_instance(text)) == text
            count += 1
    assert count == 20


@pytest.mark.parametrize("case", INSTANCE_FILES)
def test_parse_instance_files(case):
    text, bad_line = INSTANCE_FILES[case]
    if bad_line is None:
        assert parse_instance(text).n == 2
        return
    with pytest.raises(ParseError) as exc:
        parse_instance(text)
    assert exc.value.line_no == bad_line


def test_parse_bad_header():
    with pytest.raises(ParseError) as exc:
        parse_instance("nonsense\n")
    assert exc.value.line_no == 1


def test_parse_wrong_count():
    with pytest.raises(ParseError):
        parse_instance("fatsep v1 d=2 n=2\nball 0 0 1\n")


def test_parse_comments_and_provenance():
    text = "fatsep v1 d=2 n=1\n# label: demo\n# seed: 9\n# free comment\nball 0.5 1.5 2.0\n"
    inst = parse_instance(text)
    assert inst.label == "demo"
    assert inst.seed == 9
    assert inst.objects[0] == Ball((0.5, 1.5), 2.0)


def test_dimension_validation():
    with pytest.raises(ValueError):
        Instance(dim=2, objects=(Ball((0, 0, 0), 1),))


@pytest.mark.parametrize(
    "family, d, kwargs",
    [
        ("cluster", 1, dict(clusters=2, cluster_size=2)),
        ("random", 0, dict(n=3)),
        ("grid", -1, dict(k=2)),
    ],
)
def test_gen_instance_refuses_dimension_below_two(family, d, kwargs):
    # Refused up front, as `Instance` refuses it, instead of failing inside
    # the generator (IndexError, ZeroDivisionError, TypeError).
    with pytest.raises(ValueError, match="dimension must be >= 2"):
        gen_instance(family, d, **kwargs)


def test_api_instances_are_range_checked():
    # Disjoint balls at +-1e160 square their offsets past the float range;
    # an `Instance` refuses them as the parser does, instead of a wrong value.
    with pytest.raises(ValueError, match="exceeds 1e"):
        Instance(2, (Ball((1e160, 0), 1e155), Ball((-1e160, 0), 1e155)))
    with pytest.raises(ValueError, match="exceeds 1e"):
        Instance(2, (AxisBox((0, 0), (1, 1)), AxisBox((-2e150, 0), (-2e150 + 1e150, 1e150))))
    # At the bound the same two balls solve.
    edge = Instance(2, (Ball((1e150, 0), 1e145), Ball((-1e150, 0), 1e145)))
    assert solve_pack(edge).value == brute_pack(edge).value == 2
