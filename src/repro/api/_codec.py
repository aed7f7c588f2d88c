"""The one encoder and the one decoder behind every JSON payload.

A payload type is a :class:`Record` of :class:`Field` rows, each stating one
field once; :meth:`Record.enc` and :meth:`Record.dec` derive the rest —
unknown and missing keys are :class:`WireFormatError`, a row newer than the
payload's version is unknown, and the encoder stays at version 1 unless one
is set.  What a row cannot say is a codec function next to the table that
needs it: a hook on one field, not a second codec.  ``api/result.py`` holds
the rows of the result payload, ``server/wire.py`` those of the request.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from collections.abc import Mapping
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

from repro.exceptions import ReproError


class WireFormatError(ReproError, ValueError):
    """Raised when a payload cannot be encoded to / decoded from the wire."""


class Codec(NamedTuple):
    """How one value crosses the wire, as ``(value, walk)`` functions:
    ``walk.version`` is the payload's version (encoding: the newest a set
    field asked for); hooks find there what was bound (``walk.workload``)."""

    enc: Callable[[Any, Any], Any]
    dec: Callable[[Any, Any], Any]


def _as_is(value: Any, _walk: Any) -> Any:
    return value


def _primitive(expected: str, types: tuple[type, ...],
               convert: Callable[[Any], Any] = lambda value: value) -> Codec:
    """Emitted untouched; decoded from exactly the types named, uncoerced."""
    def dec(value: Any, _walk: Any) -> Any:
        if type(value) not in types:
            raise WireFormatError(f"expected {expected}, got {value!r}")
        return convert(value)
    return Codec(_as_is, dec)


STR = _primitive("a string", (str,))
BOOL = _primitive("a boolean", (bool,))
INT = _primitive("an integer", (int,))
#: A number kept as it arrived (``1`` stays an ``int``), and one held as float.
NUMBER = _primitive("a number", (int, float))
FLOAT = _primitive("a number", (int, float), float)


def many(codec: Any) -> Codec:
    """A JSON array of ``codec`` values; decodes to a tuple."""
    def dec(values: Any, walk: Any) -> tuple:
        if not isinstance(values, (list, tuple)):
            raise WireFormatError(f"expected a JSON array, got {values!r}")
        return tuple(codec.dec(value, walk) for value in values)
    return Codec(lambda values, walk: [codec.enc(value, walk)
                                       for value in values], dec)


def mapping(codec: Any, what: str) -> Codec:
    """A JSON object of free names (each a ``what``) to ``codec`` values."""
    def dec(entries: Any, walk: Any) -> dict:
        if not isinstance(entries, Mapping):
            raise WireFormatError(f"expected a JSON object, got {entries!r}")
        decoded = {}
        for name, value in entries.items():
            try:
                decoded[name] = codec.dec(value, walk)
            except WireFormatError as exc:
                raise WireFormatError(
                    f"Malformed {what} {name!r}: {exc}") from None
        return decoded
    return Codec(lambda entries, walk: {name: codec.enc(value, walk)
                                        for name, value in entries.items()},
                 dec)


#: Free-form JSON object (provenance, advisor options).
OBJECT = mapping(Codec(_as_is, _as_is), "entry")


def flat(cls: type, codec: Any) -> Codec:
    """A dataclass of like fields as the JSON array of them, in order."""
    names = [f.name for f in dataclasses.fields(cls)]

    def dec(values: Any, walk: Any) -> Any:
        if not isinstance(values, (list, tuple)) or len(values) != len(names):
            raise WireFormatError(f"expected {names}, got {values!r}")
        return cls(*(codec.dec(value, walk) for value in values))
    getter = operator.attrgetter(*names)
    return Codec(lambda obj, _walk: list(getter(obj)), dec)


def enum(cls: type, what: str) -> Codec:
    """An :class:`enum.Enum` member, on the wire as its value."""
    def dec(value: Any, _walk: Any) -> Any:
        try:
            return cls(value)
        except ValueError as exc:
            raise WireFormatError(f"Unknown {what}: {exc}") from None
    return Codec(lambda member, _walk: member.value, dec)


class Field(NamedTuple):
    """One row of the table: one field of one payload type.

    ``attr`` is read on encode and is the constructor keyword on decode (the
    key itself when empty).  A key that is not ``required`` may be absent or
    ``null`` — the constructor's default applies — and ``None`` is emitted as
    ``null``.  ``since`` is the payload version that introduced the field; a
    newer field is "not set", to the encoder, while it is ``None``.
    """

    key: str
    codec: Any  # a Codec, or a Record (which has the same two methods)
    attr: str = ""
    required: bool = True
    since: int = 1


class Record:
    """One payload type: its rows, and the two walks over them.

    ``tag`` is the constant ``(key, value)`` marking the type, ``version``
    the ``(key, newest)`` of the payload that carries the format version —
    its own, so one nested in a list encodes as it would alone.
    ``callables`` are attributes that may hold a live callable: a stand-in
    would silently change what the server enforces, so encoding rejects it.
    """

    def __init__(self, name: str, build: Callable[..., Any], *fields: Field,
                 tag: tuple[str, Any] | None = None,
                 version: tuple[str, int] | None = None,
                 callables: tuple[str, ...] = ()) -> None:
        self.name, self.build = name, build
        self.tag, self.version, self.callables = tag, version, callables
        self.fields = tuple(f._replace(attr=f.attr or f.key) for f in fields)
        self._newer = tuple(f for f in self.fields if f.since > 1)
        self._head = tuple(pair for pair in (version, tag) if pair)
        self._keys = {pair[0] for pair in self._head} | {f.key for f in fields}

    def enc(self, obj: Any, walk: Any) -> dict[str, Any]:
        if self.version:  # a versioned payload counts its own version
            walk.version = 1
        for attr in self.callables:
            if getattr(obj, attr) is not None:
                raise WireFormatError(
                    f"{type(obj).__name__} with a {attr} callable has no "
                    f"wire representation; restate the rule declaratively")
        newest = 1
        if self._newer:
            newest = max((f.since for f in self._newer
                          if getattr(obj, f.attr) is not None), default=1)
            walk.version = max(walk.version, newest)
        payload = dict(self._head)
        for key, codec, attr, required, since in self.fields:
            if since <= newest:
                value = getattr(obj, attr)
                payload[key] = (None if value is None and not required
                                else codec.enc(value, walk))
        if self.version:  # first key, but only known once the walk is done
            payload[self.version[0]] = walk.version
        return payload

    def dec(self, payload: Any, walk: Any) -> Any:
        if not isinstance(payload, Mapping):
            raise WireFormatError(
                f"{self.name} payload must be a JSON object, got "
                f"{type(payload).__name__}")
        if self.version:
            key, newest = self.version
            walk.version = payload.get(key)
            if (type(walk.version) is not int
                    or not 1 <= walk.version <= newest):
                raise WireFormatError(
                    f"Unsupported {key} {walk.version!r}; this build "
                    f"understands versions {list(range(1, newest + 1))}")
        known = self._keys - {f.key for f in self._newer
                              if f.since > walk.version}
        unknown = sorted(payload.keys() - known)
        if unknown:
            raise WireFormatError(f"{self.name} payload has unknown fields "
                                  f"{unknown}; known fields: {sorted(known)}")
        if self.tag and payload.get(*self.tag) != self.tag[1]:
            raise WireFormatError(
                f"{self.name} payload has {self.tag[0]} "
                f"{payload[self.tag[0]]!r}; this build understands "
                f"{self.tag[1]!r}")
        values = {}
        for key, codec, attr, required, _since in self.fields:
            value = payload.get(key)
            if value is not None:
                try:
                    values[attr] = codec.dec(value, walk)
                except WireFormatError as exc:
                    raise WireFormatError(
                        f"{self.name}.{key}: {exc}") from None
            elif required:
                raise WireFormatError(
                    f"{self.name} payload is missing required field {key!r}")
        try:
            return self.build(**values)
        except ValueError as exc:
            raise WireFormatError(f"Malformed {self.name}: {exc}") from None


def union(what: str, *records: Record) -> Codec:
    """A tagged union: the object's class picks the record on the way out,
    the tag on the way in."""
    key = records[0].tag[0]
    by_tag = {record.tag[1]: record for record in records}

    def enc(obj: Any, walk: Any) -> dict[str, Any]:
        for record in records:
            if isinstance(obj, record.build):
                return record.enc(obj, walk)
        raise WireFormatError(
            f"{what.capitalize()} type {type(obj).__name__} has no wire "
            f"representation")

    def dec(payload: Any, walk: Any) -> Any:
        tag = payload.get(key) if isinstance(payload, Mapping) else None
        if not isinstance(tag, str) or tag not in by_tag:
            raise WireFormatError(
                f"Unknown {what} {key} {tag!r}; expected one of "
                f"{sorted(by_tag)}")
        return by_tag[tag].dec(payload, walk)

    return Codec(enc, dec)


def encode(codec: Any, obj: Any) -> Any:
    """``obj`` as JSON-shaped data; the walk starts at version 1."""
    return codec.enc(obj, SimpleNamespace(version=1))


def decode(codec: Any, payload: Any, **bound: Any) -> Any:
    """The object ``payload`` describes: with every row known unless it
    carries a version, and ``bound`` what the table's hooks look up."""
    return codec.dec(payload, SimpleNamespace(version=math.inf, **bound))
