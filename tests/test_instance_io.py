import pytest

from rectcover.geometry import Region, generate_instance
from rectcover.instance_io import (
    InstanceFormatError,
    dumps_instance,
    load_instance,
    loads_instance,
    save_instance,
)

from conftest import inst_of, mk


def test_round_trip_exact(tmp_path):
    instance = generate_instance(60, seed=404)
    path = tmp_path / "i.txt"
    save_instance(instance, path)
    loaded = load_instance(path)
    assert loaded.rects == instance.rects
    assert loaded.seed is None  # files carry no seed
    # a second save of the loaded instance is byte-identical
    assert dumps_instance(loaded) == dumps_instance(instance)


def _dumps_per_rectangle(instance):
    # the format as written from each Rectangle, before dumps_instance read coords
    lines = [f"{r.lo.x!r} {r.lo.y!r} {r.hi.x!r} {r.hi.y!r}\n" for r in instance.rects]
    return f"n {instance.n}\n" + "".join(lines)


def test_dumps_reads_the_same_doubles_as_the_rectangles():
    loaded = loads_instance(
        "n 3\n-0.0 -2 1e-300 3.5\n0.1 0.2 0.30000000000000004 1e10\n-1e300 -5e-324 1e300 5e-324\n"
    )
    for instance in (
        generate_instance(300, seed=11),
        generate_instance(300, Region(-40.0, -2.5, -1e-3, 7.0), seed=12),
        loaded,
    ):
        text = dumps_instance(instance)
        assert text == _dumps_per_rectangle(instance)
        assert loads_instance(text).rects == instance.rects
    assert dumps_instance(loaded).splitlines()[1] == "-0.0 -2.0 1e-300 3.5"


def test_empty_instance():
    text = dumps_instance(inst_of([]))
    assert text == "n 0\n"
    assert loads_instance(text).n == 0


def test_comments_and_blank_lines_ignored():
    text = "# generated by hand\n\nn 1\n# the only one\n0.0 0.0 1.0 1.0\n"
    instance = loads_instance(text)
    assert instance.n == 1
    assert instance.rects[0] == mk(0, 0, 1, 1)


def test_region_is_bounding_box():
    instance = loads_instance("n 2\n-1.0 0.0 1.0 2.0\n0.5 -3.0 4.0 1.0\n")
    assert instance.region.x_min == -1.0
    assert instance.region.x_max == 4.0
    assert instance.region.y_min == -3.0
    assert instance.region.y_max == 2.0


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "missing"),
        ("m 1\n0 0 1 1\n", "header"),
        ("n x\n", "integer"),
        ("n 2\n0 0 1 1\n", "declares 2"),
        ("n 1\n0 0 1\n", "line 2"),
        ("n 1\n0 0 one 1\n", "line 2"),
        ("n 1\n1 1 0 2\n", "line 2"),  # corners out of order
        ("n 2\n-1e308 0 0 1\n0 0 1e308 1\n", "float range"),  # width overflows
    ],
)
def test_malformed_inputs(text, fragment):
    with pytest.raises(InstanceFormatError) as err:
        loads_instance(text)
    assert fragment in str(err.value)


def test_missing_file():
    with pytest.raises(InstanceFormatError):
        load_instance("/nonexistent/path/inst.txt")
