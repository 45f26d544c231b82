import dataclasses
import os
import subprocess
import sys

import pytest

from uceauction.records import FrozenInstanceError, field, record, replace


@record(frozen=True)
class FrozenRecord:
    name: str
    size: int = 0
    tags: tuple = field(default_factory=tuple)
    note: str = field(default="", repr=False, compare=False)


@dataclasses.dataclass(frozen=True)
class FrozenData:
    name: str
    size: int = 0
    tags: tuple = dataclasses.field(default_factory=tuple)
    note: str = dataclasses.field(default="", repr=False, compare=False)


@record
class MutableRecord:
    items: list = field(default_factory=list)
    limit: int | None = None
    count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.count = len(self.items)


@dataclasses.dataclass
class MutableData:
    items: list = dataclasses.field(default_factory=list)
    limit: int | None = None
    count: int = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.count = len(self.items)


def _as_record(text, data_name, record_name):
    return text.replace(data_name, record_name)


def test_frozen_record_behaves_as_a_frozen_dataclass():
    for args, kwargs in (
        (("a",), {}),
        (("a", 2), {}),
        (("a",), {"tags": (1, 2), "note": "x"}),
        ((), {"name": "b", "size": 3}),
    ):
        ours, theirs = FrozenRecord(*args, **kwargs), FrozenData(*args, **kwargs)
        assert repr(ours) == _as_record(repr(theirs), "FrozenData", "FrozenRecord")
        assert hash(ours) == hash(theirs)
        assert ours == FrozenRecord(*args, **kwargs)
    assert FrozenRecord("a", note="x") == FrozenRecord("a", note="y")
    assert FrozenRecord("a") != FrozenRecord("a", 1)
    assert FrozenRecord("a") != FrozenData("a")
    assert FrozenRecord.size == 0 and not hasattr(FrozenRecord, "tags")
    with pytest.raises(FrozenInstanceError):
        FrozenRecord("a").size = 1
    with pytest.raises(AttributeError):
        del FrozenRecord("a").name
    for bad_args, bad_kwargs in (((), {}), (("a", 1, (), "", 5), {}), (("a",), {"width": 1})):
        with pytest.raises(TypeError):
            FrozenData(*bad_args, **bad_kwargs)
        with pytest.raises(TypeError):
            FrozenRecord(*bad_args, **bad_kwargs)


def test_mutable_record_behaves_as_a_dataclass():
    ours, theirs = MutableRecord([1, 2]), MutableData([1, 2])
    assert repr(ours) == _as_record(repr(theirs), "MutableData", "MutableRecord")
    assert ours.count == theirs.count == 2
    assert MutableRecord().items is not MutableRecord().items
    assert MutableRecord.__hash__ is None and MutableData.__hash__ is None
    ours.limit = 3
    assert ours == MutableRecord([1, 2], 3) and ours != MutableRecord([1, 2])
    with pytest.raises(TypeError):
        MutableRecord(count=1)


def test_replace_builds_through_init():
    base = MutableRecord([1])
    changed = replace(base, items=[1, 2, 3])
    assert changed == MutableRecord([1, 2, 3]) and changed.count == 3
    assert base.items == [1]
    frozen = FrozenRecord("a", 1, note="x")
    assert replace(frozen, size=2) == FrozenRecord("a", 2)
    assert replace(frozen).note == "x"


def test_package_import_leaves_dataclasses_unloaded():
    """Importing every module loads neither dataclasses nor the inspect, ast
    and dis modules it would bring."""
    code = (
        "import sys\n"
        "import uceauction.cli, uceauction.lp, uceauction.oracle, uceauction.subgradient\n"
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"
