"""Every class that `cook.values.value` makes builds, compares, hashes,
prints, copies and pickles as an instance filled slot by slot with
`object.__setattr__` does, and stays frozen.

The classes are found by reading the syntax tree of `src/cook`, as
`tests/test_imports.py` reads it, so a class decorated later is tested
without being listed here, and a frozen slots dataclass left undecorated is
reported.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import importlib
import inspect
import pickle
from pathlib import Path

import pytest

from cook.lang.ast import Method
from cook.values import value

COOK = Path(__file__).resolve().parent.parent / "src" / "cook"


def decorators():
    """(module, class name, decorator) of every decorated class under `src/cook`."""
    for path in sorted(COOK.rglob("*.py")):
        module = ".".join(("cook", *path.relative_to(COOK).with_suffix("").parts))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for dec in node.decorator_list:
                    yield module, node.name, dec


def value_classes() -> list[type]:
    return [
        getattr(importlib.import_module(module), name)
        for module, name, dec in decorators()
        if isinstance(dec, ast.Name) and dec.id == "value"
    ]


CLASSES = value_classes()


def init_fields(cls) -> list[dataclasses.Field]:
    return [f for f in dataclasses.fields(cls) if f.init]


def sample(cls) -> dict:
    """A distinct value for every parameter of `cls`."""
    return {f.name: f"{cls.__name__}.{f.name}" for f in init_fields(cls)}


def filled(cls, args: dict):
    """An instance of `cls` built without its `__init__`: every field set
    through `object.__setattr__`, from `args` or its default, then
    `__post_init__`, as the stock dataclass `__init__` does."""
    obj = object.__new__(cls)
    for f in dataclasses.fields(cls):
        if f.name in args:
            object.__setattr__(obj, f.name, args[f.name])
        elif f.default is not dataclasses.MISSING:
            object.__setattr__(obj, f.name, f.default)
    if hasattr(cls, "__post_init__"):
        obj.__post_init__()
    return obj


def assert_same(made, ref) -> None:
    for f in dataclasses.fields(type(ref)):
        assert getattr(made, f.name) == getattr(ref, f.name), f.name
    assert made == ref
    assert hash(made) == hash(ref)
    assert repr(made) == repr(ref)


def test_every_frozen_value_class_is_found():
    assert len(CLASSES) == 35
    assert len({c.__qualname__ for c in CLASSES}) == 35


def test_no_stock_frozen_slots_dataclass_is_left():
    def stock(dec) -> bool:
        flags = {k.arg: getattr(k.value, "value", None) for k in getattr(dec, "keywords", ())}
        return (
            isinstance(dec, ast.Call)
            and getattr(dec.func, "id", None) == "dataclass"
            and flags.get("frozen") is True
            and flags.get("slots") is True
        )

    assert [f"{module}.{name}" for module, name, dec in decorators() if stock(dec)] == []


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_construction_matches_a_slot_by_slot_fill(cls):
    args = sample(cls)
    ref = filled(cls, args)
    assert_same(cls(*args.values()), ref)
    assert_same(cls(**args), ref)
    required = {f.name: args[f.name] for f in init_fields(cls) if f.default is dataclasses.MISSING}
    assert_same(cls(**required), filled(cls, required))
    params = inspect.signature(cls).parameters
    assert list(params) == list(args)
    assert [p.default for p in params.values()] == [
        inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
        for f in init_fields(cls)
    ]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_instances_stay_frozen(cls):
    obj = cls(**sample(cls))
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, "other")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, f.name)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_replace_deepcopy_and_pickle_round_trip(cls):
    args = sample(cls)
    obj = cls(**args)
    assert_same(dataclasses.replace(obj), obj)
    assert_same(copy.deepcopy(obj), obj)
    assert_same(pickle.loads(pickle.dumps(obj)), obj)
    if args:
        first = next(iter(args))
        changed = dict(args, **{first: "changed"})
        assert_same(dataclasses.replace(obj, **{first: "changed"}), filled(cls, changed))


def test_method_id_is_set_once_and_follows_replace():
    m = Method("run", "Task", (), (), "int", ())
    assert m.id == "Task.run"
    assert dataclasses.replace(m, name="stop").id == "Task.stop"
    assert dataclasses.replace(m, owner=None).id == "run"
    assert "id=" not in repr(m)
    assert m == dataclasses.replace(m) and hash(m) == hash(dataclasses.replace(m))


def test_keyword_only_factory_and_defaulted_non_init_fields_are_refused():
    class KwOnly:
        a: int = dataclasses.field(kw_only=True)

    class Factory:
        a: list = dataclasses.field(default_factory=list)

    class Hidden:
        a: int = dataclasses.field(default=0, init=False)

    for cls in (KwOnly, Factory, Hidden):
        with pytest.raises(TypeError, match="are supported"):
            value(cls)
