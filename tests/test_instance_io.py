import pytest

from rectcover.geometry import generate_instance
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
