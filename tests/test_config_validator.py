"""``models.validate`` against jsonschema's Draft 7 validator, the slow
reference in ``config_reference``.

On mutations of every committed claim's config, both must report the same
first error, path and message byte for byte, or neither may find one.  The
mutations drop and add keys, swap a value for one of another type or for a
number at a bound of the schema, empty or repeat an array, key ``weights``
with names a JSON path must quote, give a non-torus export ``times``, and
replace the whole config.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import claims
from config_reference import first_error
from solenoidlab.cli import CONFIG_SCHEMA, METRIC_NAMES
from solenoidlab.errors import InvalidInputError, InvariantError
from solenoidlab.models import SPACE_SCHEMA, validate

CONFIGS = [claim["config"] for claim in claims.load().values()]

#: One value of each JSON type, some of them twice.
TYPED = [True, False, 0, 3, 5.0, 0.5, "x", "", None, [], [0.5], {}, {"a": 1}]

#: Each bound of the schema, on it and next to it: 0 (counts, times,
#: resolutions, radii, weights), 0.5 (radii), 1 (times, max_bases) and
#: 2**32 - 1 (seeds).
BOUNDS = [-1, -0.5, -0.0, 0, 0.0, 5e-324, 0.4999999999999999, 0.5, 0.5000000000000001,
          0.9999999999999999, 1, 1.0, 2, 2**32 - 1, 4294967295.0, 2**32]

#: Arrays empty, short, repeating an item, or holding a bool next to the
#: number it equals in Python.
ARRAYS = [[], [0.5], [0.5, 0.25], [0.5, 0.25, 0.125], [0, 0.0], [0.0, -0.0], [1, 1.0],
          [0.25, 0.25], [0.5, "x", 0.5], [[0.5], [0.5]], [0.5, True], [True, True],
          [0, False], [1, True]]

#: Keys that are unknown or known somewhere else, and keys a JSON path must
#: quote: a leading digit or underscore, a quote, a backslash, a space.
KEYS = ["bogus", "a", "b", "name", "times", "metric", "kind", "seed", "0", "_a", "a'b",
        "a\\b", "a b", "a\n", "A1"]

VALUES = TYPED + BOUNDS + ARRAYS


def ours(schema, instance):
    """The line ``models.validate`` raises, or None."""
    try:
        validate(schema, instance)
    except InvalidInputError as e:
        return str(e)
    return None


def _nodes(value, path=()):
    """Each ``(path, value)`` inside ``value``, its root first."""
    yield path, value
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from _nodes(item, path + (key,))


def _objects(doc):
    return [node for _, node in _nodes(doc) if isinstance(node, dict)]


def _drop_key(data, doc):
    objects = [node for node in _objects(doc) if node]
    if objects:
        node = data.draw(st.sampled_from(objects))
        del node[data.draw(st.sampled_from(list(node)))]
    return doc


def _add_keys(data, doc):
    objects = _objects(doc)
    if objects:
        node = data.draw(st.sampled_from(objects))
        for key in data.draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=2)):
            node[key] = copy.deepcopy(data.draw(st.sampled_from(VALUES)))
    return doc


def _replace(data, doc, test, values):
    """``doc`` with one value that passes ``test``, below its root, replaced
    by one of ``values``."""
    paths = [path for path, node in _nodes(doc) if path and test(node)]
    if paths:
        *parents, key = data.draw(st.sampled_from(paths))
        node = doc
        for parent in parents:
            node = node[parent]
        node[key] = copy.deepcopy(data.draw(st.sampled_from(values)))
    return doc


def _swap_type(data, doc):
    return _replace(data, doc, lambda node: True, TYPED)


def _bound_number(data, doc):
    return _replace(data, doc, lambda node: type(node) in (int, float), BOUNDS)


def _array(data, doc):
    return _replace(data, doc, lambda node: isinstance(node, list), ARRAYS)


def _weighted_check(data, doc):
    if isinstance(doc, dict):
        keys = data.draw(st.lists(st.sampled_from(["0", "1", "_a", "a'b", "a\\b"]), max_size=3))
        weights = {key: data.draw(st.sampled_from(BOUNDS + ["x", None])) for key in keys}
        checks = doc["checks"] if isinstance(doc.get("checks"), list) else []
        at = data.draw(st.integers(0, len(checks)))
        checks.insert(at, {"name": "measures", "weights": weights})
        doc["checks"] = checks
    return doc


def _export_times(data, doc):
    if isinstance(doc, dict):
        doc["export"] = {"metric": data.draw(st.sampled_from(METRIC_NAMES)),
                         "times": copy.deepcopy(data.draw(st.sampled_from(ARRAYS)))}
    return doc


def _replace_config(data, doc):
    return copy.deepcopy(data.draw(st.sampled_from([None, [], {}, "x", 0, True])))


MUTATIONS = [_drop_key, _add_keys, _swap_type, _bound_number, _array, _weighted_check,
             _export_times, _replace_config]


@settings(max_examples=400)
@given(st.data())
def test_the_first_error_is_jsonschemas(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(CONFIGS)))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = data.draw(st.sampled_from(MUTATIONS))(data, doc)
    assert ours(CONFIG_SCHEMA, doc) == first_error(CONFIG_SCHEMA, doc)
    if isinstance(doc, dict) and "space" in doc:
        assert ours(SPACE_SCHEMA, doc["space"]) == first_error(SPACE_SCHEMA, doc["space"])


def test_every_claim_config_gets_jsonschemas_verdict():
    for doc in CONFIGS:
        assert ours(CONFIG_SCHEMA, doc) == first_error(CONFIG_SCHEMA, doc)


@pytest.mark.parametrize("seed", BOUNDS + TYPED)
def test_the_seed_subschema_gets_jsonschemas_verdict(seed):
    schema = CONFIG_SCHEMA["properties"]["seed"]
    assert ours(schema, seed) == first_error(schema, seed)


PADIC = {"kind": "padic-cycle", "parameters": {"prime": 2, "digits": 3}}
SHIFT = {"kind": "full-shift", "parameters": {"alphabet_size": 2, "ratio": 0.5, "max_period": 4}}


@pytest.mark.parametrize("cfg, line", [
    (None, "$: None is not of type 'object'"),
    ([], "$: [] is not of type 'object'"),
    ({"space": PADIC, "a": 1, "b": 2},
     "$: Additional properties are not allowed ('a', 'b' were unexpected)"),
    ({"space": PADIC, "checks": [{"name": "measures", "radii": []}]},
     "$.checks[0].radii: [] should be non-empty"),
    ({"space": PADIC, "checks": [{"name": "dimension", "scales": [0.5, 0.25]}]},
     "$.checks[0].scales: [0.5, 0.25] is too short"),
    ({"space": PADIC, "export": {"metric": "chain", "times": [0, 0.0]}},
     "$.export.times: [0, 0.0] has non-unique elements"),
    ({"space": PADIC, "export": {"metric": "chain", "times": [0.5, True]}},
     "$.export.times[1]: True is not of type 'number'"),
    ({"space": PADIC, "export": {"metric": "base", "times": [0.5]}},
     "$.export: 'times' is not one of ['metric']"),
    ({"space": SHIFT, "checks": [{"name": "measures", "weights": {"0": 0}}]},
     "$.checks[0].weights['0']: 0 is less than or equal to the minimum of 0"),
    ({"space": SHIFT, "checks": [{"name": "measures", "weights": {"_a": "x"}}]},
     "$.checks[0].weights['_a']: 'x' is not of type 'number'"),
    ({"space": SHIFT, "checks": [{"name": "measures", "weights": {"a'b": -1}}]},
     "$.checks[0].weights['a\\'b']: -1 is less than or equal to the minimum of 0"),
    ({"space": SHIFT, "checks": [{"name": "measures", "weights": {"a\\b": None}}]},
     "$.checks[0].weights['a\\\\b']: None is not of type 'number'"),
    ({"space": SHIFT, "checks": [{"name": "measures", "weights": {"ab": None}}]},
     "$.checks[0].weights.ab: None is not of type 'number'"),
    ({"space": {"kind": "torus", "parameters": {}}},
     "$.space.kind: 'torus' is not one of "
     "['full-shift', 'padic-cycle', 'two-fixed-points', 'snowflake-interval']"),
])
def test_pinned_lines_are_jsonschemas(cfg, line):
    assert ours(CONFIG_SCHEMA, cfg) == line
    assert first_error(CONFIG_SCHEMA, cfg) == line


@pytest.mark.parametrize("schema", [
    {"pattern": "^a"},
    {"type": "object", "properties": {"a": {"multipleOf": 2}}},
    {"type": "object", "patternProperties": {"^a": {}}},
])
def test_a_keyword_the_validator_lacks_raises(schema):
    with pytest.raises(InvariantError, match="is not supported"):
        validate(schema, {"a": 3})
