"""Plain record classes: the part of the standard `dataclasses` the package
uses, without importing it.

Importing `dataclasses` also imports `inspect`, `ast` and `dis`, and each
dataclass carries five to seven generated methods; in a process that imports
the package that is about 1 MB of memory held for its lifetime.  `record`
builds a class from its annotated fields as `@dataclass` does, with the same
__init__ (fields in order, positional or by keyword, defaults, `field`
factories, __post_init__), __repr__ and __eq__, and, when frozen, __hash__
and read-only attributes.  Only __init__ is generated; the other methods are
shared closures.  `replace` is `dataclasses.replace` for records.
"""
from __future__ import annotations

_MISSING = object()


class FrozenInstanceError(AttributeError):
    """Assignment to a field of a frozen record."""


class Field:
    """One field of a record; see `field`."""

    __slots__ = ("name", "default", "default_factory", "init", "repr", "compare")

    def __init__(self, default, default_factory, init, repr, compare):
        self.name = None
        self.default = default
        self.default_factory = default_factory
        self.init = init
        self.repr = repr
        self.compare = compare


def field(*, default=_MISSING, default_factory=None, init=True, repr=True, compare=True):
    """A field with a default value or factory, or left out of __init__,
    __repr__ or __eq__, as dataclasses.field."""
    return Field(default, default_factory, init, repr, compare)


def _init(cls, fields):
    """__init__ of the fields: parameters in field order, each value set with
    object.__setattr__ (so frozen records can be built), then
    __post_init__ when the class has one."""
    env = {"_MISSING": _MISSING, "_set": object.__setattr__}
    params, body = ["self"], []
    for f in fields:
        if f.default is not _MISSING:
            env["_default_" + f.name] = f.default
            value = "_default_" + f.name
            if f.init:
                params.append("%s=%s" % (f.name, value))
                value = f.name
        elif f.default_factory is not None:
            env["_factory_" + f.name] = f.default_factory
            value = "_factory_%s()" % f.name
            if f.init:
                params.append("%s=_MISSING" % f.name)
                value = "%s if %s is not _MISSING else %s" % (f.name, f.name, value)
        elif f.init:
            params.append(f.name)
            value = f.name
        else:
            continue
        body.append("_set(self, %r, %s)" % (f.name, value))
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec("def __init__(%s):\n    %s\n" % (", ".join(params), "\n    ".join(body or ["pass"])), env)
    init = env["__init__"]
    init.__qualname__ = cls.__qualname__ + ".__init__"
    return init


def record(cls=None, *, frozen=False):
    """Class decorator: cls's annotated fields become a record, as
    @dataclass(frozen=frozen) makes them a dataclass.  Methods the class
    defines itself are kept."""
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    fields = []
    for name in cls.__dict__.get("__annotations__", {}):
        spec = cls.__dict__.get(name, _MISSING)
        if not isinstance(spec, Field):
            spec = Field(spec, None, True, True, True)
        elif spec.default is _MISSING:
            delattr(cls, name)
        else:
            setattr(cls, name, spec.default)
        spec.name = name
        fields.append(spec)
    shown = tuple(f.name for f in fields if f.repr)
    compared = tuple(f.name for f in fields if f.compare)

    def key(self):
        return tuple([getattr(self, name) for name in compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __repr__(self):
        return "%s(%s)" % (
            self.__class__.__qualname__,
            ", ".join(["%s=%r" % (name, getattr(self, name)) for name in shown]),
        )

    methods = {"__init__": _init(cls, fields), "__repr__": __repr__, "__eq__": __eq__}
    if frozen:
        def __setattr__(self, name, value):
            raise FrozenInstanceError("cannot assign to field %r" % name)

        def __delattr__(self, name):
            raise FrozenInstanceError("cannot delete field %r" % name)

        def __hash__(self):
            return hash(key(self))

        methods.update(__setattr__=__setattr__, __delattr__=__delattr__, __hash__=__hash__)
    elif "__hash__" not in cls.__dict__:
        methods["__hash__"] = None
    for name, method in methods.items():
        if name not in cls.__dict__ or name == "__hash__" and cls.__dict__[name] is None:
            setattr(cls, name, method)
    cls.__record_fields__ = tuple(fields)
    return cls


def replace(obj, **changes):
    """A new record like obj with the given fields changed, built through
    its __init__ (so __post_init__ runs again), as dataclasses.replace."""
    for f in obj.__record_fields__:
        if f.init and f.name not in changes:
            changes[f.name] = getattr(obj, f.name)
    return obj.__class__(**changes)
