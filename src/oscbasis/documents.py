"""The one codec for saved tables, bases and expansions.

A document is a JSON object: the header schema_version, omega, k, epsilon,
n_max, then its kind's payload, floats in repr form for bit-exact round
trips.  Tables hold m5 and m6; the m1 ... m4 of older documents are
ignored.  Loading checks only what needs the JSON: the schema version,
the kind and its keys, the payload's structure, each array's element
type, nesting and finiteness, and that no basis row is longer than its
member's degree, which padding would hide; arrays are sized from the
payload.  Frequency, InnerProductTables, OscBasis and Expansion check the
rest (n_max, sizes, shapes, parity, symmetry).  Faults are ValueErrors.
There is no operator document: d_orth = B^-1 D B is recomputed from a
loaded basis faster than it loads.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from .approx import Expansion
from .basis import OscBasis, representation_matrix
from .frequency import Frequency
from .tables import InnerProductTables

SCHEMA_VERSION = 2

_TABLES = ("m5", "m6")
_STEP = ("alpha", "beta", "gamma", "delta")

# the key that tells each kind apart -> the kind and its payload keys
_KINDS = {
    "m5": (InnerProductTables, _TABLES),
    "rows": (OscBasis, ("rows", "norms", "rec")),
    "coeffs": (Expansion, ("basis_hash", "coeffs")),
}


def _header(freq: Frequency, n_max: int) -> dict:
    return {"schema_version": SCHEMA_VERSION, "omega": freq.omega,
            "k": freq.k, "epsilon": freq.epsilon, "n_max": n_max}


def to_doc(obj) -> dict:
    """The JSON-ready document of a tables, basis or expansion."""
    if isinstance(obj, InnerProductTables):
        return {**_header(obj.freq, obj.n_max),
                **{name: getattr(obj, name).tolist() for name in _TABLES}}
    if isinstance(obj, OscBasis):
        rows = [{"a": a[: i // 2 + 1].tolist(), "b": b[: i // 2 + 1].tolist()}
                for i, (a, b) in enumerate(zip(obj.a, obj.b))]
        return {**_header(obj.freq, obj.n_max), "rows": rows,
                "norms": obj.norms.tolist(),
                "rec": [dict(zip(_STEP, r)) for r in obj.rec.tolist()]}
    if isinstance(obj, Expansion):
        return {**_header(obj.freq, obj.n_max), "basis_hash": obj.basis_hash,
                "coeffs": obj.coeffs.tolist()}
    raise TypeError(f"no document kind for {type(obj).__name__}")


def _array(value, name: str, ndim: int) -> np.ndarray:
    """value as a float array, or ValueError if it is not numeric, not of
    ndim dimensions or not finite."""
    try:
        arr = np.array(value)
    except ValueError:
        # numpy also refuses lists nested past its dimension limit
        depth, first = 0, value
        while isinstance(first, list) and first:
            depth, first = depth + 1, first[0]
        if depth > ndim:
            raise ValueError(f"{name} is nested {depth} levels deep, expected "
                             f"{ndim} dimensions") from None
        raise ValueError(f"{name} is a ragged array") from None
    # numpy reads a JSON true or false among numbers as 1 or 0
    entries = chain.from_iterable(value) if arr.ndim > 1 else value
    if arr.dtype.kind not in "iuf" or (
            isinstance(value, list) and bool in set(map(type, entries))):
        raise ValueError(f"{name} is not a numeric array")
    if arr.ndim != ndim:
        raise ValueError(f"{name} has shape {arr.shape}, expected {ndim} dimensions")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr.astype(float)


def from_doc(doc):
    """The tables, basis or expansion a document holds, refusing with
    ValueError any document that is not well formed."""
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    version = doc.get("schema_version")
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}, "
                         f"expected {SCHEMA_VERSION}")
    kinds = [kind for key, kind in _KINDS.items() if key in doc]
    if len(kinds) != 1:
        raise ValueError("not a tables, basis or expansion document: "
                         f"it has {len(kinds)} of the keys {', '.join(_KINDS)}")
    cls, keys = kinds[0]
    missing = [key for key in ("omega", "k", "epsilon", "n_max", *keys)
               if key not in doc]
    if missing:
        raise ValueError(f"document lacks required key(s): {', '.join(missing)}")
    freq = Frequency(omega=doc["omega"], k=doc["k"], epsilon=doc["epsilon"])
    if cls is OscBasis:
        rows, steps = doc["rows"], doc["rec"]
        if not isinstance(rows, list) or not isinstance(steps, list):
            raise ValueError("basis rows and rec must be lists")
        # sized from the payload: row i reaches Legendre degree i // 2
        a, b = np.zeros((2, len(rows), (len(rows) + 1) // 2))
        for i, row in enumerate(rows):
            if not isinstance(row, dict) or not {"a", "b"} <= row.keys():
                raise ValueError(f"basis row {i} is not an object with keys a and b")
            coeffs = _array([row["a"], row["b"]], f"basis row {i} (a, b)", 2)
            length = coeffs.shape[1]
            if length > i // 2 + 1:
                raise ValueError(f"basis row {i} has {length} coefficients, but "
                                 f"member {i} reaches only Legendre degree {i // 2}")
            a[i, :length], b[i, :length] = coeffs
        flat = [step.get(key) if isinstance(step, dict) else None
                for step in steps for key in _STEP]
        norms = _array(doc["norms"], "basis norms", 1)
        rec = _array(flat, "rec", 1).reshape(len(steps), 4)
        # read-only, so the basis takes them without a copy
        for arr in (a, b, norms, rec):
            arr.flags.writeable = False
        return OscBasis(freq=freq, n_max=doc["n_max"], a=a, b=b, norms=norms,
                        rec=rec)
    if cls is InnerProductTables:
        return InnerProductTables(freq=freq, n_max=doc["n_max"], **{
            name: _array(doc[name], name, 2) for name in _TABLES})
    return Expansion(freq, doc["n_max"], doc["basis_hash"],
                     _array(doc["coeffs"], "coeffs", 1))


def write_json(doc: dict, path) -> Path:
    """doc as one line of newline-terminated JSON at path, written by the
    C encoder of the json module (indent would select its Python one)."""
    path = Path(path)
    path.write_text(json.dumps(doc) + "\n")
    return path


def save(obj, path) -> Path:
    """The document of obj written to path."""
    return write_json(to_doc(obj), path)


def load(path, kind):
    """The object saved at path; ValueError if the file is not JSON (nested
    past the decoder's recursion limit included), is malformed or holds no
    instance of kind, a class or a tuple of classes."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path} is not a JSON document: {exc}") from None
    obj = from_doc(doc)
    if not isinstance(obj, kind):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        raise ValueError(f"{path} holds {type(obj).__name__}, not "
                         f"{' or '.join(cls.__name__ for cls in kinds)}")
    return obj


def save_csv(obj, stem) -> list[Path]:
    """The matrices of obj as CSVs with 17 significant digits, which parse
    back to the identical doubles: <stem>_m5.csv and <stem>_m6.csv for
    tables, and the representation matrix B at stem itself for a basis."""
    if not isinstance(obj, (OscBasis, InnerProductTables)):
        raise TypeError(f"no CSV form for {type(obj).__name__}")
    stem = Path(stem)
    files = ([(stem, representation_matrix(obj), "c")] if isinstance(obj, OscBasis)
             else [(stem.with_name(f"{stem.name}_{name}.csv"), getattr(obj, name), "k")
                   for name in ("m5", "m6")])
    for path, mat, prefix in files:
        header = ",".join(f"{prefix}{i}" for i in range(mat.shape[1]))
        np.savetxt(path, mat, fmt="%.17g", delimiter=",", header=header,
                   comments="")
    return [path for path, _, _ in files]


save_basis = save
load_tables = partial(load, kind=InnerProductTables)
load_basis = partial(load, kind=OscBasis)
load_expansion = partial(load, kind=Expansion)
