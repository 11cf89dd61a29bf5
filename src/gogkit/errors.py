"""Exception types shared across gogkit modules."""
from __future__ import annotations


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


class DocumentError(GogkitError):
    """A JSON document does not describe a valid graph of groups."""
