"""Seeded input fuzz over the four loaders.

Malformed data reaching ``parse_document``, ``derivation_from_data``,
``quotient_from_data`` or ``replay_transcript`` may raise only GogkitError or
ValueError, and every document that parses has valid inclusions, holds only
integer (not bool or float) table entries and table-vertex inclusion images,
and serializes to a document with the same vertex and edge tables.  The inputs are a
valid document, derivation, quotient and transcript of c4c6, c6hnn and c4c2c4.
Each input gets every one-field mutation (each field replaced by each value of
REPLACEMENTS, or deleted) and TWO_FIELD seeded two-field mutations.
"""
import copy
import json
import random

import pytest

from gogkit.derivation import accessibility_derivation, derivation_data, derivation_from_data
from gogkit.documents import document_to_json, parse_document
from gogkit.errors import DocumentError, GogkitError
from gogkit.fixtures import fixture_text, load_fixture
from gogkit.gog import nf, validate
from gogkit.quotients import quotient_data, quotient_from_data, search_quotient
from gogkit.surgery import replay_transcript, reverse_edge, witness_transcript

SEED = 15
TWO_FIELD = 100
DELETE = object()
# The values a mutated field takes: wrong JSON types, ids and word texts of
# the fixtures, and malformed group specs.
REPLACEMENTS = [
    None, True, False, 0, 1, -1, 99, 2.5, 1.0, "", "x", "v", "t(e)", "v:g1", "cyclic 4",
    [], [0], [[0]], {}, {"table": [[0, 1], [1, 0]], "name": 5}, {"gog": {}},
]
# Per fixture: a word its quotient separates and the edge its transcript reverses.
FIXTURES = {"c4c6": ("v:g1", "e"), "c6hnn": ("t(t)", "t"), "c4c2c4": ("u:g1", "e1")}
KINDS = ("document", "derivation", "quotient", "transcript")


def _base(kind, name):
    g = load_fixture(name)
    word, edge = FIXTURES[name]
    if kind == "document":
        return json.loads(fixture_text(name))
    if kind == "derivation":
        return derivation_data(accessibility_derivation(g, min(g.graph.vertices), 5))
    if kind == "quotient":
        return quotient_data(search_quotient(g, "separate", elements=[nf(g, word)]))
    return witness_transcript("reverse", reverse_edge(g, edge)[1])


def _tables(g):
    vertex_tables = {v: vg.group.table for v, vg in g.vertex_groups.items() if vg.order}
    return vertex_tables, {e: K.table for e, K in g.edge_groups.items()}


def _handles(g):
    """Every table entry and every inclusion image into a table vertex group."""
    vertex_tables, edge_tables = _tables(g)
    tables = list(vertex_tables.values()) + list(edge_tables.values())
    yield from (h for table in tables for row in table for h in row)
    for e, images in g.inclusions.items():
        for vid, side in zip((g.graph.d0[e], g.graph.d1[e]), images):
            if g.vertex_groups[vid].order:
                yield from side


def _load(kind, g, data):
    if kind == "document":
        doc = parse_document(data)
        assert validate(doc.gog).ok
        assert all(type(h) is int for h in _handles(doc.gog))
        again = parse_document(document_to_json(doc.gog)).gog
        assert _tables(again) == _tables(doc.gog)
    elif kind == "derivation":
        derivation_from_data(g, data)
    elif kind == "quotient":
        quotient_from_data(g, data)
    else:
        replay_transcript(data)


def _paths(data, prefix=()):
    """The path of every field below the root: dict keys and list indices."""
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutated(data, *mutations):
    data = copy.deepcopy(data)
    for path, value in mutations:
        *parents, last = path
        node = data
        for key in parents:
            node = node[key]
        if value is DELETE:
            del node[last]
        else:
            node[last] = copy.deepcopy(value)
    return data


def _mutations(data, rng):
    values = REPLACEMENTS + [DELETE]
    for path in _paths(data):
        for value in values:
            yield ((path, value),)
    for _ in range(TWO_FIELD):
        first = (rng.choice(list(_paths(data))), rng.choice(values))
        paths = list(_paths(_mutated(data, first)))
        if paths:
            yield first, (rng.choice(paths), rng.choice(values))


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("kind", KINDS)
def test_loaders_raise_only_input_errors(kind, name):
    g = load_fixture(name)
    data = _base(kind, name)
    _load(kind, g, data)
    escaped = []
    for mutations in _mutations(data, random.Random(f"{SEED}:{kind}:{name}")):
        try:
            _load(kind, g, _mutated(data, *mutations))
        except (GogkitError, ValueError):
            pass
        except Exception as exc:  # any other escape is a failure
            escaped.append((mutations, repr(exc)))
    assert escaped == []


@pytest.mark.parametrize("kind", KINDS)
def test_loaders_read_json_text_and_name_text_that_is_not_json(kind):
    g = load_fixture("c4c6")
    _load(kind, g, json.dumps(_base(kind, "c4c6")))
    message = "invalid JSON: Expecting value: line 1 column 1 (char 0)"
    if kind == "transcript":
        assert replay_transcript("not json").problems == [message]
    else:
        with pytest.raises(DocumentError) as info:
            _load(kind, g, "not json")
        assert str(info.value) == message
