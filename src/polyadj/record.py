"""Frozen records: the one class decorator the library's value types use.

@record reads a class's fields from its own annotations, in order, with
the class attribute of a field's name as its default. It builds
__init__, __repr__, __eq__ and __hash__ for them from one generated
source, compiled by one exec per class. A field whose default is None is
derived data, which a constructor computes when it is not passed: it
takes no part in ==, hash or repr. Two records are equal when they are of
the same class with equal shown fields, and hash as the tuple of those
fields. __init__ writes the fields with object.__setattr__, which keeps
the instance's fast attribute reads (writing the instance dict would
not), and then calls __post_init__ when the class has one; after that
__setattr__ and __delattr__ raise AttributeError.
"""

from __future__ import annotations


def _refuse_write(self, name, value=None):
    raise AttributeError(f"{type(self).__name__} is frozen: field {name!r} cannot change")


def record(cls):
    names = list(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    shown = [name for name in names if name not in defaults or defaults[name] is not None]
    params = "".join(f", {name}=_defaults[{name!r}]" if name in defaults else f", {name}" for name in names)
    writes = "".join(f"    _setattr(self, {name!r}, {name})\n" for name in names)
    post_init = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
    fields_repr = ", ".join(f"{name}={{self.{name}!r}}" for name in shown)
    mine = "".join(f"self.{name}," for name in shown)
    theirs = "".join(f"other.{name}," for name in shown)
    source = (
        f"def __init__(self{params}):\n{writes}{post_init}"
        f"def __repr__(self):\n    return f\"{cls.__qualname__}({fields_repr})\"\n"
        f"def __eq__(self, other):\n    if other.__class__ is self.__class__:\n"
        f"        return ({mine}) == ({theirs})\n    return NotImplemented\n"
        f"def __hash__(self):\n    return hash(({mine}))\n"
    )
    namespace = {"_defaults": defaults, "_setattr": object.__setattr__}
    exec(source, namespace)
    for method in ("__init__", "__repr__", "__eq__", "__hash__"):
        function = namespace[method]
        function.__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, function)
    cls.__setattr__ = cls.__delattr__ = _refuse_write
    return cls
