"""The one codec for saved tables, bases, expansions and operators.

A document is a JSON object: the header schema_version, omega, k, epsilon,
n_max, then its kind's payload, floats in repr form for bit-exact round
trips.  Tables hold m5 and m6, an operator d_orth (or null); the m1 ... m4
and d_legtrig of older documents are ignored.  Loading checks the header,
each payload array (numeric, exact shape, finite) and the kind's structure:
symmetric tables, a 2(N+1)-square d_orth, basis rows no longer than their
degree and, by OscBasis itself, no coefficient of the wrong parity.  Faults
are ValueErrors.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from .approx import Expansion
from .basis import OscBasis, representation_matrix
from .calculus import DerivativeOperator
from .frequency import Frequency
from .tables import InnerProductTables

SCHEMA_VERSION = 2

_MATRICES = ("m1", "m2", "m3", "m4", "m5", "m6")
_TABLES = ("m5", "m6")
_STEP = ("alpha", "beta", "gamma", "delta")

# the key that tells each kind apart -> the kind and its payload keys
_KINDS = {
    "m5": (InnerProductTables, _TABLES),
    "rows": (OscBasis, ("rows", "norms", "rec")),
    "coeffs": (Expansion, ("basis_hash", "coeffs")),
    "d_orth": (DerivativeOperator, ("d_orth",)),
}


def _header(freq: Frequency, n_max: int) -> dict:
    return {"schema_version": SCHEMA_VERSION, "omega": freq.omega,
            "k": freq.k, "epsilon": freq.epsilon, "n_max": n_max}


def to_doc(obj) -> dict:
    """The JSON-ready document of a tables, basis, expansion or operator."""
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
    if isinstance(obj, DerivativeOperator):
        return {**_header(obj.freq, obj.n_max),
                "d_orth": None if obj.d_orth is None else obj.d_orth.tolist()}
    raise TypeError(f"no document kind for {type(obj).__name__}")


def _array(value, name: str, shape: tuple) -> np.ndarray:
    """value as a float array, or ValueError if it is not numeric, not of
    the given shape (None matches any length) or not finite."""
    try:
        arr = np.array(value)
    except ValueError:
        raise ValueError(f"{name} is a ragged array") from None
    # numpy reads a JSON true or false among numbers as 1 or 0
    entries = chain.from_iterable(value) if arr.ndim > 1 else value
    if arr.dtype.kind not in "iuf" or (
            isinstance(value, list) and bool in set(map(type, entries))):
        raise ValueError(f"{name} is not a numeric array")
    if arr.ndim != len(shape) or any(
            want not in (None, got) for want, got in zip(shape, arr.shape)):
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr.astype(float)


def from_doc(doc):
    """The tables, basis, expansion or operator a document holds, refusing
    with ValueError any document that is not well formed."""
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    version = doc.get("schema_version")
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}, "
                         f"expected {SCHEMA_VERSION}")
    kinds = [kind for key, kind in _KINDS.items() if key in doc]
    if len(kinds) != 1:
        raise ValueError("not a tables, basis, expansion or operator document: "
                         f"it has {len(kinds)} of the keys {', '.join(_KINDS)}")
    cls, keys = kinds[0]
    missing = [key for key in ("omega", "k", "epsilon", "n_max", *keys)
               if key not in doc]
    if missing:
        raise ValueError(f"document lacks required key(s): {', '.join(missing)}")
    for key in ("k", "n_max"):
        if isinstance(doc[key], bool) or not isinstance(doc[key], int) or doc[key] < 0:
            raise ValueError(f"{key} must be an integer >= 0, got {doc[key]!r}")
    try:
        freq = Frequency(omega=doc["omega"], k=doc["k"], epsilon=doc["epsilon"])
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed frequency fields: {exc}") from None
    n_max = doc["n_max"]
    size = 2 * (n_max + 1)
    if cls is OscBasis:
        if not isinstance(doc["rows"], list) or len(doc["rows"]) != size:
            raise ValueError(f"a basis with n_max={n_max} has {size} rows")
        a = np.zeros((size, n_max + 1))
        b = np.zeros((size, n_max + 1))
        for i, row in enumerate(doc["rows"]):
            if not isinstance(row, dict) or not {"a", "b"} <= row.keys():
                raise ValueError(f"basis row {i} is not an object with keys a and b")
            coeffs = _array([row["a"], row["b"]], f"basis row {i} (a, b)", (2, None))
            length = coeffs.shape[1]
            if length > i // 2 + 1:
                raise ValueError(
                    f"basis row {i} has {length} coefficients, but member {i} "
                    f"reaches only Legendre degree {i // 2}"
                )
            a[i, :length], b[i, :length] = coeffs
        norms = _array(doc["norms"], "basis norms", (size,))
        if not np.all(norms > 0.0):
            raise ValueError("basis norms must be positive")
        steps = doc["rec"]
        if not isinstance(steps, list) or len(steps) != n_max:
            raise ValueError(f"a basis with n_max={n_max} has {n_max} rec steps")
        flat = [step.get(key) if isinstance(step, dict) else None
                for step in steps for key in _STEP]
        return OscBasis(freq=freq, n_max=n_max, a=a, b=b, norms=norms,
                        rec=_array(flat, "rec", (4 * n_max,)).reshape(n_max, 4))
    if cls is InnerProductTables:
        mats = {name: _array(doc[name], name, (n_max + 1, n_max + 1))
                for name in _TABLES}
        for name, mat in mats.items():
            if not np.array_equal(mat, mat.T):
                raise ValueError(f"{name} is not symmetric")
        return InnerProductTables(freq=freq, n_max=n_max, **mats)
    if cls is Expansion:
        if not isinstance(doc["basis_hash"], str):
            raise ValueError(f"basis_hash must be a string, got {doc['basis_hash']!r}")
        return Expansion(freq, n_max, doc["basis_hash"],
                         _array(doc["coeffs"], "coeffs", (size,)))
    d_orth = doc["d_orth"]
    return DerivativeOperator(
        freq=freq, n_max=n_max,
        d_orth=None if d_orth is None else _array(d_orth, "d_orth", (size, size)))


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
    """The object saved at path; ValueError if the file is not JSON, is
    malformed or holds no instance of kind, a class or a tuple of classes."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path} is not a JSON document: {exc}") from None
    obj = from_doc(doc)
    if not isinstance(obj, kind):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        raise ValueError(f"{path} holds {type(obj).__name__}, not "
                         f"{' or '.join(cls.__name__ for cls in kinds)}")
    return obj


def save_csv(obj, stem) -> list[Path]:
    """The matrices of obj as CSVs with 17 significant digits, which parse
    back to the identical doubles: <stem>_m1.csv ... <stem>_m6.csv for
    tables, <stem>_d_legtrig.csv (and _d_orth.csv) for an operator, and the
    representation matrix B at stem itself for a basis."""
    stem = Path(stem)
    if isinstance(obj, OscBasis):
        files = [(stem, representation_matrix(obj), "c")]
    elif isinstance(obj, InnerProductTables):
        files = [(stem.with_name(f"{stem.name}_{name}.csv"),
                  getattr(obj, name), "k") for name in _MATRICES]
    else:
        files = [(stem.with_name(f"{stem.name}_{name}.csv"), mat, "c")
                 for name, mat in (("d_legtrig", obj.d_legtrig),
                                   ("d_orth", obj.d_orth)) if mat is not None]
    for path, mat, prefix in files:
        header = ",".join(f"{prefix}{i}" for i in range(mat.shape[1]))
        np.savetxt(path, mat, fmt="%.17g", delimiter=",", header=header,
                   comments="")
    return [path for path, _, _ in files]


save_tables = save_basis = save_expansion = save_operator = save
save_tables_csv = save_operator_csv = save_csv
load_tables = partial(load, kind=InnerProductTables)
load_basis = partial(load, kind=OscBasis)
load_expansion = partial(load, kind=Expansion)
load_operator = partial(load, kind=DerivativeOperator)


def save_basis_csv(basis: OscBasis, path) -> Path:
    """B as one CSV file, members as rows, interleaved columns."""
    return save_csv(basis, path)[0]
