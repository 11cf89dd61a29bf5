"""Exception types shared across gogkit modules, and the loaders' shape check."""
from __future__ import annotations

import json
import reprlib


class GogkitError(Exception):
    """Base class for all gogkit errors."""


class NonAssociative(GogkitError):
    """A multiplication table fails associativity; the message names the triple."""


class NoIdentity(GogkitError):
    """A multiplication table has no two-sided identity."""


class NotPermutationRow(GogkitError):
    """A table row or column is not a permutation of the element indices."""


class Disconnected(GogkitError):
    """A graph expected to be connected has several components."""

    def __init__(self, components: list[list[str]]):
        self.components = components
        super().__init__(f"graph is disconnected; components: {components}")


class SameVertex(GogkitError):
    """An operation requiring two distinct vertices got the same one twice."""


class MalformedWord(GogkitError):
    """A word fails to parse or references unknown vertices/edges/elements."""


class MixedOwners(GogkitError):
    """Operands belong to different graphs of groups (or rings)."""


class BallTooLarge(GogkitError):
    """A ball enumeration exceeded the configured size cap."""


class BadSubgraph(GogkitError):
    """A designated subgraph violates the operation's requirements."""


class RingMismatch(GogkitError):
    """Ring elements with different moduli were combined."""


class GluingConditionFailed(GogkitError):
    """Per-vertex derivation data cannot be glued; names the edge, element and residue."""

    def __init__(self, edge: str, element: int, residue: object):
        self.edge = edge
        self.element = element
        self.residue = residue
        super().__init__(
            f"gluing condition fails on edge {edge!r}, edge-group element {element}: "
            f"residue {residue}"
        )


class BadModulus(GogkitError):
    """The ring modulus kills an edge-group order."""


class NotFinite(GogkitError):
    """A group expected to be finite is not, or cannot be enumerated."""


class Exhausted(GogkitError):
    """A search ran out of candidates; inconclusive, not a disproof."""


class NotCollapsible(GogkitError):
    """The edge is not a tree edge with a surjective inclusion."""


class BadAttachment(GogkitError):
    """An edge group does not conjugate into the named vertex group."""


class TableInvalid(GogkitError):
    """A conjugator table fails its invariants."""


class WrongShape(GogkitError):
    """The graph does not have the expected vertex/edge shape."""


class DocumentError(GogkitError, ValueError):
    """JSON data does not describe the object its loader builds."""


_KIND_TEXT = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def json_path(path: tuple) -> str:
    """Object keys and list indices as text: graph.edges[0].d0_images."""
    text = "".join(f".{p}" if str(p).isidentifier() else f"[{p!r}]" for p in path)
    return text.lstrip(".") or "the top level"


def json_value(data):
    """The value that JSON text ``data`` holds; any other data as it is.  Text
    that is not JSON raises DocumentError("invalid JSON: …"), whichever loader
    reads it; so does text nested past the parser's recursion limit."""
    if not isinstance(data, str):
        return data
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise DocumentError("invalid JSON: nested too deeply") from None


# A bad value is quoted in at most QUOTE_CHARS characters, nested at most six levels.
QUOTE_CHARS = 200
_QUOTE = reprlib.Repr()
_QUOTE.maxlist = _QUOTE.maxtuple = _QUOTE.maxdict = QUOTE_CHARS
_QUOTE.maxstring = _QUOTE.maxlong = _QUOTE.maxother = QUOTE_CHARS


def cut(text: str) -> str:
    """``text``, cut to its first ``QUOTE_CHARS`` characters and "…" when longer."""
    return text if len(text) <= QUOTE_CHARS else text[:QUOTE_CHARS] + "…"


def quote(value) -> str:
    """``value``'s repr for an error text: ``reprlib``'s, nested at most six
    levels (an object's keys sorted), then ``cut``; a short string or number
    reads as its plain repr."""
    return cut(_QUOTE.repr(value))


def expect(value, kind: type, path: tuple):
    """``value`` when it has the JSON type ``kind`` (dict, list, str or int;
    object accepts any), else DocumentError naming its path.  ``true`` and
    ``false`` are not integers.  The one shape check of the loaders; the path
    text is built only when raising, and quotes the value in ``QUOTE_CHARS``."""
    if isinstance(value, kind) and not (kind is int and type(value) is bool):
        return value
    raise DocumentError(f"{json_path(path)} must be {_KIND_TEXT[kind]}, got {quote(value)}")


def member(obj: dict, key: str, kind: type, path: tuple):
    """``obj[key]`` checked by :func:`expect`; a missing key names its path too."""
    if key not in obj:
        raise DocumentError(f"{json_path(path + (key,))} is missing")
    return expect(obj[key], kind, path + (key,))
