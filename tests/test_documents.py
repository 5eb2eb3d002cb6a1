import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscbasis import (Expansion, Frequency, InnerProductTables, OscBasis,
                      build_basis, build_tables, derivative_matrix_legtrig)
from oscbasis.documents import SCHEMA_VERSION, from_doc, load, save, save_csv, to_doc
from oscbasis.oracle import oracle_tables

JUNK = [None, True, False, "junk", "1.5", {}, [], [[1.0], [1.0, 2.0]],
        [[[1.0]]], [1.0, [2.0]], float("nan"), 1e308, -1, 10 ** 400]


def _valid_docs():
    freq = Frequency.exact(5)
    tables = build_tables(freq, 3)
    basis = build_basis(freq, 2, tables)
    exp = Expansion(basis.freq, basis.n_max, basis.content_hash(),
                    np.linspace(-1.0, 1.0, 6))
    return {"tables": to_doc(tables), "basis": to_doc(basis),
            "expansion": to_doc(exp)}


DOCS = _valid_docs()
KINDS = {"tables": InnerProductTables, "basis": OscBasis, "expansion": Expansion}


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


# a bool is an int to Python, so a header field of either type takes it
BOOL_HEADER_MESSAGES = {"n_max": "n_max must be an integer",
                        "k": "k must be an integer",
                        "omega": "omega must be a real number, got True",
                        "epsilon": "epsilon must be a real number, got True"}


@pytest.mark.parametrize("kind", sorted(DOCS))
@pytest.mark.parametrize("key", ["n_max", "k", "omega", "epsilon"])
def test_bool_integer_fields_are_refused(kind, key):
    with pytest.raises(ValueError, match=BOOL_HEADER_MESSAGES[key]):
        from_doc(_replaced(DOCS[kind], (key,), True))


def test_false_epsilon_of_exact_multiple_is_refused():
    # False == 0.0, so without the type check the basis would load as exact
    doc = _replaced(DOCS["basis"], ("epsilon",), False)
    with pytest.raises(ValueError, match="epsilon must be a real number, got False"):
        from_doc(doc)


@pytest.mark.parametrize("kind, path", [
    ("tables", ("m5", 1, 1)), ("basis", ("rows", 3, "a", 0)),
    ("basis", ("norms", 2)), ("basis", ("rec", 0, "alpha")),
    ("expansion", ("coeffs", 1)),
])
@pytest.mark.parametrize("flag", [True, False])
def test_boolean_inside_numeric_array_is_refused(kind, path, flag):
    # numpy alone would read the boolean as 1.0 or 0.0 among the floats
    with pytest.raises(ValueError, match="is not a numeric array"):
        from_doc(_replaced(DOCS[kind], path, flag))


def test_payload_nested_past_numpy_dimensions_names_its_depth():
    # numpy refuses more dimensions than its limit with the ValueError of a
    # ragged list; 35 levels, within it, already get the shape message
    doc = json.loads(json.dumps(DOCS["tables"]))
    for depth in (35, 900):
        payload = [[0.0]]
        for _ in range(depth - 2):
            payload = [payload]
        doc["m5"] = payload
        message = (r"m5 has shape \(1, 1, .*\), expected 2 dimensions" if depth == 35
                   else r"m5 is nested 900 levels deep, expected 2 dimensions$")
        with pytest.raises(ValueError, match=message):
            from_doc(doc)


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


def test_earlier_tables_document_loads_to_identical_tables(table_blocks):
    loaded = from_doc(PARENT_TABLES)
    built = build_tables(Frequency.exact(5), 1)
    for name in ("m5", "m6"):
        assert np.array_equal(getattr(loaded, name), getattr(built, name))
    # m1 ... m4 as saved are the Legendre norms and the unit-mode Gram's blocks
    assert np.diag(2.0 / (2.0 * np.arange(2) + 1.0)).tolist() == PARENT_TABLES["m1"]
    for name, mat in table_blocks(loaded).items():
        assert mat.tolist() == PARENT_TABLES[name]
    assert sorted(to_doc(loaded)) == sorted(set(PARENT_TABLES) - {"m1", "m2", "m3", "m4"})


def test_earlier_operator_document_is_refused():
    # d_orth is recomputed from the basis; no document kind holds it
    with pytest.raises(ValueError, match="not a tables, basis or expansion "
                                         "document: it has 0 of the keys"):
        from_doc(PARENT_OPERATOR)


def test_to_doc_refuses_an_object_of_no_kind():
    with pytest.raises(TypeError, match="no document kind for list"):
        to_doc([1.0])


@pytest.mark.parametrize("doc", [[DOCS["tables"]], "tables", 2.0, None])
def test_document_that_is_not_an_object_is_refused(doc):
    with pytest.raises(ValueError, match="expected a JSON object"):
        from_doc(doc)


def test_basis_document_with_huge_k_is_refused():
    with pytest.raises(ValueError, match="inconsistent decomposition"):
        from_doc(_replaced(DOCS["basis"], ("k",), 10 ** 400))


@pytest.mark.parametrize("norm", [0.0, -1.0])
def test_basis_document_with_a_norm_not_positive_is_refused(norm):
    with pytest.raises(ValueError, match="basis norms must be positive"):
        from_doc(_replaced(DOCS["basis"], ("norms", 3), norm))


def test_save_csv_refuses_an_expansion(tmp_path):
    exp = from_doc(DOCS["expansion"])
    with pytest.raises(TypeError, match="no CSV form for Expansion"):
        save_csv(exp, tmp_path / "exp")
    assert list(tmp_path.iterdir()) == []


def _objects(n_max):
    """Tables, basis and expansion of size n_max at 2 pi 5."""
    freq = Frequency.exact(5)
    basis = build_basis(freq, n_max, build_tables(freq, n_max + 1))
    return {"tables": build_tables(freq, n_max), "basis": basis,
            "expansion": Expansion(freq, n_max, basis.content_hash(),
                                   np.linspace(-1.0, 1.0, 2 * (n_max + 1)))}


OBJECTS = [_objects(n_max) for n_max in range(4)]
FREQ5 = Frequency.exact(5)
TABLES3 = OBJECTS[3]["tables"]
BASIS2, EXP2 = OBJECTS[2]["basis"], OBJECTS[2]["expansion"]

# every way in for a size: the constructors, dataclasses.replace, the
# builders and the codec
SIZE_ENTRY_POINTS = {
    "InnerProductTables": lambda n: InnerProductTables(FREQ5, n, TABLES3.m5,
                                                       TABLES3.m6),
    "OscBasis": lambda n: OscBasis(FREQ5, n, BASIS2.a, BASIS2.b, BASIS2.norms,
                                   BASIS2.rec),
    "Expansion": lambda n: Expansion(FREQ5, n, EXP2.basis_hash, EXP2.coeffs),
    "replace_tables": lambda n: replace(TABLES3, n_max=n),
    "replace_basis": lambda n: replace(BASIS2, n_max=n),
    "replace_expansion": lambda n: replace(EXP2, n_max=n),
    "build_tables": lambda n: build_tables(FREQ5, n),
    "build_basis": lambda n: build_basis(FREQ5, n, TABLES3),
    "derivative_matrix_legtrig": lambda n: derivative_matrix_legtrig(FREQ5, n),
    "oracle_tables": lambda n: oracle_tables(FREQ5, n),
    **{f"from_doc_{kind}": lambda n, kind=kind: from_doc(dict(DOCS[kind], n_max=n))
       for kind in sorted(DOCS)},
}


@pytest.mark.parametrize("entry", sorted(SIZE_ENTRY_POINTS))
@pytest.mark.parametrize("n_max", [True, False, 3.0, -1, "3", None])
def test_every_entry_point_refuses_a_size_that_is_not_an_int_from_0(entry, n_max):
    message = f"n_max must be an integer >= 0, got {n_max!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SIZE_ENTRY_POINTS[entry](n_max)


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(sorted(DOCS)), size=st.integers(0, 3),
       n_max=st.one_of(st.integers(-2, 4), st.floats(-1.0, 4.0),
                       st.sampled_from([True, False, "3", None, np.int64(2)])))
def test_what_the_constructors_accept_saves_and_loads_back(tmp_path_factory, kind,
                                                          size, n_max):
    # shape checks alone take 3.0 for 3, which save would write and load refuse
    try:
        obj = replace(OBJECTS[size][kind], n_max=n_max)
    except ValueError:
        return
    path = save(obj, tmp_path_factory.getbasetemp() / "size_round_trip.json")
    loaded = load(path, type(obj))
    assert json.dumps(to_doc(loaded)) == json.dumps(to_doc(obj))
    if kind == "basis":
        assert loaded.content_hash() == obj.content_hash()
