"""JSON file formats: tensors, graphs, states, CP decompositions, reports.

Exact scalars serialize as decimal fraction strings, so exactness survives
serialization; float scalars as [re, im] pairs.  Exact tensors are written
sparsely (gallery fixtures are mostly zeros and stay human-diffable), float
tensors densely.  All writers emit sorted keys so output is reproducible
bit for bit.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from fractions import Fraction
from typing import Any

import numpy as np

from .graph import NetworkGraph
from .network import CPDecomposition, TNState
from .scalars import EXACT, FLOAT, as_exact, parts_to_lanes
from .tensor import Tensor


def _get(doc, key: str, where: str, kind=list):
    """Field ``key`` of the JSON object ``doc``, which must be a ``kind``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, not {type(doc).__name__}")
    value = doc.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{where}: {key!r} must be a JSON {'array' if kind is list else 'integer'}")
    return value


def _ints(doc, key: str, where: str) -> tuple[int, ...]:
    value = _get(doc, key, where)
    if not all(type(x) is int for x in value):
        raise ValueError(f"{where}: {key!r} must be a list of integers, not {value!r}")
    return tuple(value)


def _entry_to_json(x, mode: str):
    if mode == EXACT:
        g = as_exact(x)
        return [str(g.re), str(g.im)]
    c = complex(x)
    return [c.real, c.imag]


def _fraction(v):
    """An int or Fraction from a JSON number or a string like ``"-3/7"`` or ``"0.5"``."""
    if type(v) is int:
        return v
    num, slash, den = str(v).partition("/")
    try:
        return Fraction(int(num), int(den)) if slash else int(num)
    except ValueError:
        return Fraction(str(v))


def _ratio(a: int, den: int) -> str:
    """``str(Fraction(a, den))`` for ints, ``den > 0``."""
    g = math.gcd(a, den)
    return str(a // g) if g == den else f"{a // g}/{den // g}"


def _entry_from_json(v, mode: str, where: str):
    """An exact entry as its ``(re, im)`` parts, a float entry as a complex."""
    try:
        if mode == EXACT:
            re, im = v if isinstance(v, list) else (v, 0)
            return _fraction(re), _fraction(im)
        c = complex(float(v[0]), float(v[1])) if isinstance(v, list) else complex(v)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"{where}: {v!r} is not a valid {mode} entry") from None
    if not cmath.isfinite(c):
        raise ValueError(f"{where}: non-finite float entry {v!r}")
    return c


def tensor_to_json(t: Tensor) -> dict:
    doc: dict[str, Any] = {"dims": list(t.dims), "scalar": t.mode}
    if t.mode == EXACT:
        re, im, den = t.lanes
        nonzero = re != 0 if im is None else (re != 0) | (im != 0)
        ims = itertools.repeat(0) if im is None else im[nonzero]
        doc["sparse"] = [
            {"idx": [i + 1 for i in idx], "re": _ratio(a, den), "im": _ratio(b, den)}
            for idx, a, b in zip(np.argwhere(nonzero).tolist(), re[nonzero], ims)
        ]
    else:
        doc["dense"] = [_entry_to_json(x, FLOAT) for x in t.data.reshape(-1)]
    return doc


_TENSOR_KEYS = frozenset({"dims", "scalar", "dense", "sparse"})
_SPARSE_ENTRY_KEYS = frozenset({"idx", "re", "im"})


def tensor_from_json(doc) -> Tensor:
    where = "tensor document"
    dims = _ints(doc, "dims", where)
    if not doc.keys() <= _TENSOR_KEYS:
        raise ValueError(f"unknown tensor document keys {sorted(doc.keys() - _TENSOR_KEYS)}")
    if "dense" in doc and "sparse" in doc:
        raise ValueError("tensor document holds both 'dense' and 'sparse' entries")
    mode = doc.get("scalar")
    if mode not in (EXACT, FLOAT):
        raise ValueError(f"unknown scalar mode {mode!r}")
    if any(n < 0 for n in dims):
        raise ValueError(f"{where}: negative dims {list(dims)}")
    size = math.prod(dims)
    if "dense" in doc:
        entries = _get(doc, "dense", where)
        if len(entries) != size:
            raise ValueError(f"dense entry count {len(entries)} != {size}")
        values = [_entry_from_json(v, mode, f"dense[{k}]") for k, v in enumerate(entries)]
    elif "sparse" in doc:
        values = [(0, 0) if mode == EXACT else 0j] * size
        seen = set()
        for pos, item in enumerate(_get(doc, "sparse", where)):
            at = f"sparse[{pos}]"
            idx = _get(item, "idx", at)
            if not item.keys() <= _SPARSE_ENTRY_KEYS:
                raise ValueError(f"{at}: unknown keys {sorted(item.keys() - _SPARSE_ENTRY_KEYS)}")
            if len(idx) != len(dims) or not all(type(i) is int and 0 < i <= n for i, n in zip(idx, dims)):
                raise ValueError(f"{at}: index {idx} does not fit dims {list(dims)}")
            flat = 0  # row-major position of the 1-based index
            for i, n in zip(idx, dims):
                flat = flat * n + i - 1
            if flat in seen:
                raise ValueError(f"{at}: index {idx} repeats an earlier entry")
            seen.add(flat)
            values[flat] = _entry_from_json([item.get("re"), item.get("im", 0)], mode, at)
    else:
        raise ValueError("tensor document needs a 'dense' or 'sparse' field")
    return _tensor(values, dims, mode)


def _tensor(values, dims, mode: str) -> Tensor:
    """The tensor of parsed entries ``values`` in flat order."""
    if mode == EXACT:
        return Tensor(parts_to_lanes(dims, values), EXACT)
    return Tensor(np.array(values, dtype=np.complex128).reshape(dims), FLOAT)


def graph_to_json(g: NetworkGraph) -> dict:
    return {"d": g.d, "edges": [[u, v, w] for u, v, w in g.edges]}


def graph_from_json(doc) -> NetworkGraph:
    where = "graph document"
    d = _get(doc, "d", where, int)
    edges = []
    for k, e in enumerate(_get(doc, "edges", where) if "edges" in doc else []):
        if not (isinstance(e, list) and len(e) in (2, 3) and all(type(x) is int for x in e)):
            raise ValueError(f"{where}: edges[{k}] must be [u, v] or [u, v, weight] integers, not {e!r}")
        edges.append((*e, 1) if len(e) == 2 else tuple(e))
    return NetworkGraph(d, tuple(edges))


def state_to_json(s: TNState) -> dict:
    return {
        "graph": graph_to_json(s.graph),
        "edge_dims": list(s.edge_dims),
        "vertex_dims": list(s.vertex_dims),
        "factors": [tensor_to_json(f) for f in s.factors],
    }


def state_from_json(doc) -> TNState:
    where = "state document"
    factors = []
    for k, f in enumerate(_get(doc, "factors", where)):
        try:
            factors.append(tensor_from_json(f))
        except ValueError as exc:
            raise ValueError(f"{where}: factors[{k}]: {exc}") from None
    return TNState(
        graph_from_json(doc.get("graph")),
        _ints(doc, "edge_dims", where),
        _ints(doc, "vertex_dims", where),
        tuple(factors),
    )


def cp_to_json(cp: CPDecomposition) -> dict:
    return {
        "order": cp.order,
        "scalar": cp.mode,
        "terms": [
            [[_entry_to_json(x, cp.mode) for x in v.data] for v in term]
            for term in cp.terms
        ],
    }


def cp_from_json(doc) -> CPDecomposition:
    where = "CP document"
    order = _get(doc, "order", where, int)
    mode = doc.get("scalar")
    if mode not in (EXACT, FLOAT):
        raise ValueError(f"{where}: unknown scalar mode {mode!r}")
    terms = []
    for p, term in enumerate(_get(doc, "terms", where)):
        if not isinstance(term, list) or not all(isinstance(v, list) for v in term):
            raise ValueError(f"{where}: terms[{p}] must be an array of vectors (JSON arrays)")
        terms.append(tuple(
            _tensor([_entry_from_json(x, mode, f"terms[{p}][{s}][{k}]") for k, x in enumerate(v)], (len(v),), mode)
            for s, v in enumerate(term)
        ))
    return CPDecomposition(order, tuple(terms))


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------


def dump(doc: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def write_report_lines(records, path=None, stream=None) -> None:
    """One JSON object per line, ordered by claim id."""
    lines = [json.dumps(r, sort_keys=True) for r in sorted(records, key=lambda r: r["id"])]
    text = "\n".join(lines) + "\n" if lines else ""
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    if stream is not None:
        stream.write(text)
