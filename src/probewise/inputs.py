"""Typed reads from the JSON input documents: netlist, labels and stimuli.

Every read names the JSON path of the value it reads (``gates[3].output``),
and every failure is an :class:`InputError` whose message starts with that
path. Integers must be JSON integers: strings, floats and booleans are
rejected.
"""

from __future__ import annotations

import json

# The largest sizes an input may declare: the width in bits of a wire, a
# memory word, a symbol or a stimuli ZEXT/SEXT, and a memory's depth in
# words. Past them a document could ask the simulator for any amount of
# memory.
MAX_WIDTH = 4096
MAX_DEPTH = 65536

_NOUNS = {dict: "an object", list: "a list", str: "a string"}
_INT_NOUNS = {None: "an integer", 0: "a non-negative integer",
              1: "a positive integer"}
_REQUIRED = object()


class InputError(ValueError):
    """A malformed input document; the message starts with the JSON path."""


def load(text: str, where: str) -> dict:
    """The JSON object in ``text``; ``where`` names the document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{where}: {exc}") from None
    except RecursionError:
        raise InputError(f"{where}: nested too deeply") from None
    if not isinstance(doc, dict):
        raise InputError(f"{where}: expected a JSON object")
    return doc


def expect(value, where: str, kind: type, minimum: int | None = None):
    """``value`` if it is of JSON type ``kind`` (an int at least ``minimum``)."""
    if kind is int:
        if type(value) is not int or (minimum is not None and value < minimum):
            raise InputError(f"{where}: expected {_INT_NOUNS[minimum]}, "
                             f"got {value!r}")
    elif not isinstance(value, kind):
        raise InputError(f"{where}: expected {_NOUNS[kind]}")
    return value


def field(entry, where: str, key: str, kind: type, minimum: int | None = None,
          default=_REQUIRED, maximum: int | None = None):
    """``entry[key]`` read through :func:`expect`, an int at most ``maximum``;
    an absent or null key yields ``default`` when one is given. ``where``
    names ``entry``, or is empty for a document's top level."""
    value = expect(entry, where, dict).get(key)
    if value is None and default is not _REQUIRED:
        return default
    if type(value) is kind and (minimum is None or value >= minimum) \
            and (maximum is None or value <= maximum):
        return value   # the valid case, without formatting the path
    path = f"{where}.{key}" if where else key
    if key not in entry:
        raise InputError(f"{path}: missing")
    expect(value, path, kind, minimum)
    if maximum is not None and value > maximum:
        raise InputError(f"{path}: expected at most {maximum}, got {value}")
    return value


def literal(value, where: str, width: int | None = None) -> int:
    """The ``0b…`` literal at ``where``; ``width`` fixes its digit count."""
    digits = expect(value, where, str)[2:]
    if not value.startswith("0b") or not digits or set(digits) - {"0", "1"} \
            or width not in (None, len(digits)):
        size = f" of {width} digits" if width is not None else ""
        raise InputError(f"{where}: expected a 0b literal{size}, got {value!r}")
    return int(digits, 2)
