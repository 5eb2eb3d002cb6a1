import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscbasis import (DerivativeOperator, Expansion, Frequency,
                      InnerProductTables, OscBasis, build_basis, build_tables,
                      derivative_matrix_legtrig, to_orthogonal_basis)
from oscbasis.approx import BasisRef
from oscbasis.documents import SCHEMA_VERSION, from_doc, to_doc

JUNK = [None, True, False, "junk", "1.5", {}, [], [[1.0], [1.0, 2.0]],
        [[[1.0]]], [1.0, [2.0]], float("nan"), 1e308, -1, 10 ** 400]


def _valid_docs():
    freq = Frequency.exact(5)
    tables = build_tables(freq, 3)
    basis = build_basis(freq, 2, tables)
    exp = Expansion(BasisRef.from_basis(basis), np.linspace(-1.0, 1.0, 6))
    op = to_orthogonal_basis(derivative_matrix_legtrig(freq, 2), basis)
    return {"tables": to_doc(tables), "basis": to_doc(basis),
            "expansion": to_doc(exp), "operator": to_doc(op)}


DOCS = _valid_docs()
KINDS = {"tables": InnerProductTables, "basis": OscBasis,
         "expansion": Expansion, "operator": DerivativeOperator}


def _paths(node, prefix=()):
    """Every key or index path into a JSON document, the root excluded."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize("kind", sorted(DOCS))
def test_valid_documents_round_trip_bit_exactly(kind):
    doc = DOCS[kind]
    assert doc["schema_version"] == SCHEMA_VERSION
    obj = from_doc(json.loads(json.dumps(doc)))
    assert isinstance(obj, KINDS[kind])
    assert json.dumps(to_doc(obj)) == json.dumps(doc)


@pytest.mark.parametrize("kind", sorted(DOCS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_junk_field_loads_or_raises_value_error(kind, data):
    doc = DOCS[kind]
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    junk = data.draw(st.sampled_from(JUNK), label="junk")
    try:
        from_doc(_replaced(doc, path, junk))
    except ValueError:
        pass


@pytest.mark.parametrize("kind", sorted(DOCS))
@pytest.mark.parametrize("key", ["n_max", "k"])
def test_bool_integer_fields_are_refused(kind, key):
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        from_doc(_replaced(DOCS[kind], (key,), True))


@pytest.mark.parametrize("kind, path", [
    ("tables", ("m5", 1, 1)), ("basis", ("rows", 3, "a", 0)),
    ("basis", ("norms", 2)), ("basis", ("rec", 0, "alpha")),
    ("expansion", ("coeffs", 1)), ("operator", ("d_legtrig", 0, 1)),
])
@pytest.mark.parametrize("flag", [True, False])
def test_boolean_inside_numeric_array_is_refused(kind, path, flag):
    # numpy alone would read the boolean as 1.0 or 0.0 among the floats
    with pytest.raises(ValueError, match="is not a numeric array"):
        from_doc(_replaced(DOCS[kind], path, flag))


def test_document_with_two_kinds_is_refused():
    doc = dict(DOCS["tables"], coeffs=[0.0])
    with pytest.raises(ValueError, match="it has 2 of the keys"):
        from_doc(doc)
