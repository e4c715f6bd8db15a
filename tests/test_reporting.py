"""reporting.serialize against json.dumps(doc, sort_keys=True, indent=2,
ensure_ascii=True) + "\\n", byte for byte: on every corpus document, on
seeded random documents that reach every branch of the layout and of
json's ASCII escaping and hold some dicts at several places, on deep
nesting and on empty containers at every level.  Subclasses of dict, str,
int and tuple, which json writes through its isinstance tests, are refused
with TypeError: no document holds one.  The command line's --json output is
checked the same way in test_fuzz_cli."""

import enum
import json
import random
from collections import OrderedDict, namedtuple
from fractions import Fraction

import pytest

from djem.cli import corpus_manifest, fixture_document
from djem.reporting import serialize

SEED = 20261018
DOCUMENTS = 2000

# Each a string json escapes, or must leave alone, in its own way: quote,
# backslash, slash, controls with and without a short escape, DEL, Latin-1,
# BMP and astral characters (the last two written as surrogate pairs).
ODD_CHARACTERS = ('"', "\\", "/", "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f", "\x7f",
                  "\xe9", "\xff", "\xa0", "\u00bd", "\u2028", "\ufeff", "\U0001f600",
                  "\U0010ffff")


def _dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def test_serialize_matches_json_on_every_corpus_document():
    for name, argv in corpus_manifest():
        text = fixture_document(argv)
        assert text == _dumps(json.loads(text)), name


def _string(rng):
    n = rng.choice((0, 1, 2, 5, 12))
    return "".join(rng.choice(ODD_CHARACTERS) if rng.random() < 0.3
                   else chr(rng.randint(0x20, 0x7e)) for _ in range(n))


def _scalar(rng):
    r = rng.random()
    if r < 0.35:
        return _string(rng)
    if r < 0.7:
        return rng.choice((0, 1, -1, rng.randint(-10**6, 10**6), -2**64 - rng.randint(0, 9),
                           2**64 + rng.randint(0, 9), rng.randint(-10**40, 10**40)))
    return rng.choice((True, False, None))


def _value(rng, depth, built):
    """A random value; built collects every dict made so far in the
    document, and a list or tuple now and then holds one of them again (and
    built lists it again), so one object sits at several places and depths."""
    r = rng.random()
    if depth >= 4 or r < 0.4:
        return _scalar(rng)
    n = rng.choice((0, 0, 1, 2, 3, 5))
    if r < 0.7:
        items = [_again(rng, built) if built and rng.random() < 0.2
                 else _value(rng, depth + 1, built) for _ in range(n)]
        return items if r < 0.6 else tuple(items)
    d = {_string(rng): _value(rng, depth + 1, built) for _ in range(n)}
    built.append(d)
    return d


def _again(rng, built):
    built.append(rng.choice(built))
    return built[-1]


def test_serialize_matches_json_on_random_documents():
    rng = random.Random(SEED)
    shared = 0
    for _ in range(DOCUMENTS):
        built = []
        doc = _value(rng, 0, built)
        assert serialize(doc) == _dumps(doc), doc
        if built:
            # What one call wrote of a dict is not what the next call writes
            # once the dict has changed.
            built[0]["\x7f"] = [len(built)]
            assert serialize(doc) == _dumps(doc), doc
            shared += len(built) > len({id(d) for d in built})
    assert shared >= 100, shared


class _Str(str):
    pass


class _Int(int):
    def __repr__(self):
        return "not what json writes"


class _Level(enum.IntEnum):
    LOW = 1


_Pair = namedtuple("_Pair", "a b")


def _nested(depth):
    """depth levels of lists and dicts in turn, each also holding an empty
    container of the other kind, around one leaf."""
    doc = "leaf"
    for level in range(depth):
        doc = [doc, {}] if level % 2 else {"inner": doc, "empty": []}
    return doc


def _empty_at_every_level(depth):
    for level in range(depth + 1):
        for empty in ([], {}, ()):
            doc = empty
            for wrap in range(level):
                doc = {"k": doc} if wrap % 2 else [doc]
            yield doc


@pytest.mark.parametrize("doc", [
    OrderedDict([("b", 1), ("a", [OrderedDict()]), ("c", OrderedDict([("z", None), ("y", True)]))]),
    _Str("plain"), _Str('esc"aped\n\u00e9'), {_Str("key"): _Str("value"), "list": [_Str("")]},
    _Int(7), [_Int(-3), {"n": _Int(2 ** 70)}], {"level": _Level.LOW}, [_Level.LOW],
    _Pair(1, [_Pair("x", None)]), {"t": (1, (2, ()), [])},
    _nested(40), _nested(41),
], ids=lambda doc: type(doc).__name__)
def test_serialize_matches_json_on_subclasses_and_deep_nesting(doc):
    if _exact(doc):
        assert serialize(doc) == _dumps(doc)
    else:
        with pytest.raises(TypeError):
            serialize(doc)


def _exact(doc):
    """Whether doc and everything in it, dict keys included, has one of the
    exact types a document holds."""
    t = type(doc)
    if t is dict:
        return all(type(k) is str and _exact(v) for k, v in doc.items())
    if t is list or t is tuple:
        return all(map(_exact, doc))
    return t in (str, int, bool) or doc is None


def test_serialize_matches_json_on_empty_containers_at_every_level():
    docs = list(_empty_at_every_level(6))
    assert len(docs) == 21
    for doc in docs:
        assert serialize(doc) == _dumps(doc), doc


_SHARED_BAD = {"a": {2: None}}


@pytest.mark.parametrize("doc", [Fraction(1, 2), {"a": [Fraction(3)]}, {1, 2}, 1.5, [0.0],
                                 {1: "x"}, {"a": {None: 1}}, {("a",): 0}, b"bytes",
                                 # a dict held twice, whose inner dict has an int key
                                 [_SHARED_BAD, ({"b": _SHARED_BAD},), _SHARED_BAD]],
                         ids=repr)
def test_serialize_refuses_what_no_document_holds(doc):
    with pytest.raises(TypeError):
        serialize(doc)
