"""`value`: a frozen slots dataclass whose `__init__` stores through its slots.

`dataclass(frozen=True, slots=True)` makes an `__init__` that stores every
field with `object.__setattr__`, a name lookup and a generic call per field,
and that is most of what building a `Loc`, a statement node or a `Scalar`
costs. `value` keeps all the dataclass makes and replaces only `__init__`,
with one generated the way `dataclasses` generates its own: source text
with the same parameters, defaults and keyword names, compiled by one `exec`
per class, that calls each slot's member descriptor (`cls.<field>.__set__`)
directly and then `__post_init__` when the class has one. Only generated
code can take the arguments by name at the speed of a plain function.

The classes stay frozen: syntax nodes and representatives are hashed, used
as dict keys and shared between the models of a program, so any assignment
or deletion after construction still raises `FrozenInstanceError`.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields


def value(cls: type) -> type:
    """`cls` as a frozen slots dataclass whose `__init__` stores through the slots."""
    cls = dataclass(frozen=True, slots=True)(cls)
    env: dict = {}
    params: list[str] = []
    body: list[str] = []
    for f in fields(cls):
        other = f.kw_only or f.default_factory is not MISSING
        if other or (not f.init and f.default is not MISSING):
            raise TypeError(
                f"{cls.__name__}.{f.name}: only plain or defaulted init fields are supported"
            )
        if not f.init:
            continue  # left to `__post_init__`
        env[f"_set_{f.name}"] = getattr(cls, f.name).__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            env[f"_dflt_{f.name}"] = f.default
            params.append(f"{f.name}=_dflt_{f.name}")
        body.append(f"_set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body or ["pass"]), env)
    env["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = env["__init__"]
    return cls
