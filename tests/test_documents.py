import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscbasis import (DerivativeOperator, Expansion, Frequency,
                      InnerProductTables, OscBasis, build_basis, build_tables,
                      derivative_matrix_legtrig, to_orthogonal_basis)
from oscbasis.documents import SCHEMA_VERSION, from_doc, to_doc

JUNK = [None, True, False, "junk", "1.5", {}, [], [[1.0], [1.0, 2.0]],
        [[[1.0]]], [1.0, [2.0]], float("nan"), 1e308, -1, 10 ** 400]


def _valid_docs():
    freq = Frequency.exact(5)
    tables = build_tables(freq, 3)
    basis = build_basis(freq, 2, tables)
    exp = Expansion(basis.freq, basis.n_max, basis.content_hash(),
                    np.linspace(-1.0, 1.0, 6))
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
    ("expansion", ("coeffs", 1)), ("operator", ("d_orth", 0, 1)),
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


# documents as earlier writers saved them, with m1 ... m4 and d_legtrig
# beside the arrays that are now the whole payload
OMEGA5 = 31.41592653589793
PARENT_TABLES = {
    "schema_version": 2, "omega": OMEGA5, "k": 5, "epsilon": 0.0, "n_max": 1,
    "m1": [[2.0, 0.0], [0.0, 0.6666666666666666]],
    "m2": [[0.0, -0.015915494309189534], [-0.015915494309189534, 0.0]],
    "m3": [[1.0, 0.0], [0.0, 0.333839939251545]],
    "m4": [[1.0, 0.0], [0.0, 0.33282672741512165]],
    "m5": [[0.0, 0.0], [0.0, 0.0010132118364233778]],
    "m6": [[0.0, -0.03183098861837907], [-0.03183098861837907, 0.0]],
}
PARENT_OPERATOR = {
    "schema_version": 2, "omega": OMEGA5, "k": 5, "epsilon": 0.0, "n_max": 1,
    "d_legtrig": [[0.0, OMEGA5, 1.0, 0.0], [-OMEGA5, 0.0, 0.0, 1.0],
                  [0.0, 0.0, 0.0, OMEGA5], [0.0, 0.0, -OMEGA5, 0.0]],
    "d_orth": [[0.0, OMEGA5, 3.462786164022895, 0.0],
               [-OMEGA5, 0.0, 0.0, 8.126190545298327e-17],
               [0.0, 0.0, 0.0, 31.463745722909678],
               [0.0, 0.0, -31.368180025377615, 0.0]],
}


def test_earlier_tables_document_loads_to_identical_tables():
    loaded = from_doc(PARENT_TABLES)
    built = build_tables(Frequency.exact(5), 1)
    for name in ("m5", "m6"):
        assert np.array_equal(getattr(loaded, name), getattr(built, name))
    for name in ("m1", "m2", "m3", "m4", "m5", "m6"):
        assert getattr(loaded, name).tolist() == PARENT_TABLES[name]
    assert sorted(to_doc(loaded)) == sorted(set(PARENT_TABLES) - {"m1", "m2", "m3", "m4"})


def test_earlier_operator_document_loads_to_identical_operator():
    loaded = from_doc(PARENT_OPERATOR)
    freq = Frequency.exact(5)
    basis = build_basis(freq, 1, build_tables(freq, 2))
    op = to_orthogonal_basis(derivative_matrix_legtrig(freq, 1), basis)
    assert np.array_equal(loaded.d_orth, op.d_orth)
    assert loaded.d_orth.tolist() == PARENT_OPERATOR["d_orth"]
    assert loaded.d_legtrig.tolist() == PARENT_OPERATOR["d_legtrig"]
    assert "d_legtrig" not in to_doc(loaded)
