"""One document rule for every declarative spec.

Every spec dataclass (scenario, variant, overrides, expectation,
traffic, admission, SLO, optimizer) derives its JSON document form
from its own field declarations through :class:`SpecDocument`:

* **Writing** walks the fields in declaration order.  A field is
  written when it has no default, differs from its default, or is
  listed in the class's ``always``.  Pair tuples become JSON objects
  (even when empty), other tuples become lists and nested specs become
  their own documents.
* **Versions** come from ``since``: each field added after version 2
  names the format version that introduced it.  A class declaring a
  ``format_version`` stamps its documents with the largest ``since``
  among the fields written anywhere in the document (2 if none), the
  oldest version able to read it; so adding a field never moves the
  bytes of a document that does not use it.
* **Reading** rejects non-objects, checks a stamped version against
  the class's ``format_version`` (no version means version 1), drops
  the retired ``kernel`` key, rejects unknown fields naming the valid
  ones and builds nested specs from the declared field types.  Value
  checks stay in each class's constructor.

The per-class field plan is worked out once, on first use: documents
are written for every cell (wire task, journal, fingerprint,
artifact), so the walk must not pay for reflection on every call.
"""

from __future__ import annotations

import typing
from dataclasses import MISSING, fields
from typing import Dict, Tuple

from repro.errors import ConfigurationError

#: what a document needs at least: everything a spec without a
#: ``since`` field says has been readable since version 2
BASE_VERSION = 2

#: the values the removed ``kernel`` knob (a choice of scheduler core)
#: took; documents written with either still load, and the key is
#: dropped
RETIRED_KERNELS = ("legacy", "wheel")

#: how a field's value maps onto JSON
_PLAIN, _PAIRS, _LIST, _SPEC, _SPECS = range(5)

#: the default of a field that has none: never equal to a value
_REQUIRED = object()


def freeze(value):
    """Deep-freeze JSON-shaped values into hashable equivalents."""
    if isinstance(value, dict):
        return tuple(sorted((str(key), freeze(item))
                            for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(freeze(item) for item in value)
    return value


def sorted_pairs(value, convert=None) -> tuple:
    """What a pair-tuple field holds: a mapping (or pair sequence) as
    sorted ``(str key, value)`` pairs, each value passed through
    ``convert`` when given."""
    if isinstance(value, dict):
        value = value.items()
    return tuple(sorted((str(key), convert(item) if convert else item)
                        for key, item in value))


def thaw(value):
    """Invert :func:`freeze` back into JSON-shaped values."""
    if isinstance(value, tuple):
        if all(isinstance(item, tuple) and len(item) == 2
               and isinstance(item[0], str) for item in value):
            return {key: thaw(item) for key, item in value}
        return [thaw(item) for item in value]
    return value


class SpecDocument:
    """Mixin giving a frozen spec dataclass ``to_dict``/``from_dict``.

    Class keywords: ``what`` names the document in errors; ``always``
    lists fields written even at their default; ``since`` maps fields
    added after version 2 to the version that introduced them;
    ``format_version`` (top-level documents only) is the newest
    version this build reads, and makes ``to_dict`` stamp a version.
    """

    def __init_subclass__(cls, *, what: str, always: Tuple[str, ...] = (),
                          since: Dict[str, int] = None,
                          format_version: int = None, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._doc_what = what
        cls._doc_always = frozenset(always)
        cls._doc_since = dict(since or {})
        cls._doc_format_version = format_version
        cls._doc_plan = None

    def to_dict(self) -> dict:
        """The JSON-ready document form (see the module docstring)."""
        doc, version = _write(self)
        if self._doc_format_version is not None:
            doc["version"] = version
        return doc

    @classmethod
    def from_dict(cls, doc: dict):
        """Parse a document, rejecting unknown fields and versions."""
        _, known, plan = cls._doc_plan or _plan(cls)
        what = cls._doc_what
        if not isinstance(doc, dict):
            raise ConfigurationError(f"{what} must be a JSON object, "
                                     f"got {type(doc).__name__}")
        kwargs = dict(doc)
        newest = cls._doc_format_version
        if newest is not None:
            version = kwargs.pop("version", 1)
            if not isinstance(version, int) or isinstance(version, bool):
                raise ConfigurationError(
                    f"{what} version must be an integer, got {version!r}")
            if not 1 <= version <= newest:
                raise ConfigurationError(
                    f"{what} format version {version} is not supported "
                    f"by this build (understands versions 1..{newest}); "
                    f"re-export the spec or upgrade")
            kernel = kwargs.pop("kernel", RETIRED_KERNELS[0])
            if kernel not in RETIRED_KERNELS:
                raise ConfigurationError(
                    f"unknown kernel {kernel!r}; the scheduler-core "
                    f"choice was removed, and only "
                    f"{' or '.join(RETIRED_KERNELS)} is still read "
                    f"(and ignored)")
        unknown = sorted(set(kwargs) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown {what} field(s) {', '.join(unknown)}; valid "
                f"fields: {', '.join(sorted(known))}")
        for name, _, _, _, kind, nested in plan:
            value = kwargs.get(name)
            if value is None or kind not in (_SPEC, _SPECS):
                continue
            if kind == _SPEC:
                kwargs[name] = nested.from_dict(value)
            elif isinstance(value, (list, tuple)):
                kwargs[name] = tuple(nested.from_dict(item)
                                     for item in value)
            else:
                raise ConfigurationError(
                    f"{what} {name} must be a list, got "
                    f"{type(value).__name__}")
        return cls(**kwargs)


def _write(spec) -> Tuple[dict, int]:
    """``spec``'s document without a version stamp, and the version
    its written fields need."""
    versioned, _, plan = spec._doc_plan or _plan(type(spec))
    doc = {"version": None} if versioned else {}
    version = BASE_VERSION
    for name, default, always, since, kind, _ in plan:
        value = getattr(spec, name)
        if not always and (value is default or value == default):
            continue
        if since > version:
            version = since
        if value is None or kind == _PLAIN:
            pass
        elif kind == _SPEC:
            value, needs = _write(value)
            if needs > version:
                version = needs
        elif kind == _SPECS:
            items = value
            value = []
            for item in items:
                item_doc, needs = _write(item)
                value.append(item_doc)
                if needs > version:
                    version = needs
        elif kind == _PAIRS:
            value = {key: thaw(item) for key, item in value}
        else:
            value = list(value)
        doc[name] = value
    return doc, version


def _plan(cls) -> tuple:
    """Work out, once, how each of ``cls``'s fields is written and
    read: ``(versioned, field names, ((name, default, always, since,
    kind, nested), ...))``."""
    hints = typing.get_type_hints(cls)
    names = [f.name for f in fields(cls)]
    listed = (cls._doc_always | set(cls._doc_since)) - set(names)
    if listed:
        raise TypeError(f"{cls.__name__} lists unknown field(s) "
                        f"{', '.join(sorted(listed))}")
    entries = []
    for f in fields(cls):
        if f.default is not MISSING:
            default = f.default
        elif f.default_factory is not MISSING:
            default = f.default_factory()
        else:
            default = _REQUIRED
        kind, nested = _kind(hints[f.name])
        entries.append((f.name, default,
                        default is _REQUIRED or f.name in cls._doc_always,
                        cls._doc_since.get(f.name, BASE_VERSION),
                        kind, nested))
    cls._doc_plan = (cls._doc_format_version is not None,
                     frozenset(names), tuple(entries))
    return cls._doc_plan


def _kind(hint) -> tuple:
    """How a field of declared type ``hint`` maps onto JSON."""
    if typing.get_origin(hint) is typing.Union:  # Optional[X]
        (hint,) = [arg for arg in typing.get_args(hint)
                   if arg is not type(None)]
    if isinstance(hint, type) and issubclass(hint, SpecDocument):
        return _SPEC, hint
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        if isinstance(item, type) and issubclass(item, SpecDocument):
            return _SPECS, item
        if typing.get_origin(item) is tuple:
            return _PAIRS, None
        return _LIST, None
    return _PLAIN, None
