"""JSON file formats: tensors, graphs, states, CP decompositions, reports.

Exact scalars serialize as decimal fraction strings, so exactness survives
serialization; float scalars as [re, im] pairs.  Exact tensors are written
sparsely (gallery fixtures are mostly zeros and stay human-diffable), float
tensors densely.  All writers emit sorted keys so output is reproducible
bit for bit.
"""

from __future__ import annotations

import cmath
import json
from typing import Any

import numpy as np

from .graph import NetworkGraph
from .network import CPDecomposition, TNState
from .scalars import EXACT, FLOAT, GaussianRational, as_exact, format_fraction, parse_fraction
from .tensor import Tensor


def _entry_to_json(x, mode: str):
    if mode == EXACT:
        g = as_exact(x)
        return [format_fraction(g.re), format_fraction(g.im)]
    c = complex(x)
    return [c.real, c.imag]


def _entry_from_json(v, mode: str):
    if mode == EXACT:
        if isinstance(v, (list, tuple)):
            re, im = v
        else:
            re, im = v, 0
        return GaussianRational(parse_fraction(re), parse_fraction(im))
    c = complex(float(v[0]), float(v[1])) if isinstance(v, (list, tuple)) else complex(v)
    if not cmath.isfinite(c):
        raise ValueError(f"non-finite float entry {v!r}")
    return c


def tensor_to_json(t: Tensor) -> dict:
    doc: dict[str, Any] = {"dims": list(t.dims), "scalar": t.mode}
    flat = t.data.reshape(-1)
    if t.mode == EXACT:
        entries = []
        for pos in range(flat.size):
            g = as_exact(flat[pos])
            if g.is_zero():
                continue
            idx = list(np.unravel_index(pos, t.dims)) if t.dims else []
            entries.append(
                {
                    "idx": [int(i) + 1 for i in idx],
                    "re": format_fraction(g.re),
                    "im": format_fraction(g.im),
                }
            )
        doc["sparse"] = entries
    else:
        doc["dense"] = [_entry_to_json(x, FLOAT) for x in flat]
    return doc


_TENSOR_KEYS = frozenset({"dims", "scalar", "dense", "sparse"})
_SPARSE_ENTRY_KEYS = frozenset({"idx", "re", "im"})


def tensor_from_json(doc: dict) -> Tensor:
    if not doc.keys() <= _TENSOR_KEYS:
        raise ValueError(f"unknown tensor document keys {sorted(doc.keys() - _TENSOR_KEYS)}")
    if "dense" in doc and "sparse" in doc:
        raise ValueError("tensor document holds both 'dense' and 'sparse' entries")
    dims = tuple(int(x) for x in doc["dims"])
    mode = doc["scalar"]
    if mode not in (EXACT, FLOAT):
        raise ValueError(f"unknown scalar mode {mode!r}")
    size = int(np.prod(dims, dtype=np.int64)) if dims else 1
    if "dense" in doc:
        entries = doc["dense"]
        if len(entries) != size:
            raise ValueError(f"dense entry count {len(entries)} != {size}")
        if mode == EXACT:
            arr = np.empty(size, dtype=object)
            for i, v in enumerate(entries):
                arr[i] = _entry_from_json(v, EXACT)
        else:
            arr = np.array([_entry_from_json(v, FLOAT) for v in entries], dtype=np.complex128)
        return Tensor(arr.reshape(dims), mode)
    if "sparse" in doc:
        if mode == EXACT:
            arr = np.full(dims, GaussianRational(0), dtype=object)
        else:
            arr = np.zeros(dims, dtype=np.complex128)
        seen = set()
        for pos, item in enumerate(doc["sparse"]):
            if not item.keys() <= _SPARSE_ENTRY_KEYS:
                raise ValueError(f"sparse[{pos}]: unknown keys {sorted(item.keys() - _SPARSE_ENTRY_KEYS)}")
            idx = tuple(int(i) - 1 for i in item["idx"])
            if len(idx) != len(dims) or not all(0 <= i < n for i, n in zip(idx, dims)):
                raise ValueError(f"sparse[{pos}]: index {item['idx']} does not fit dims {list(dims)}")
            if idx in seen:
                raise ValueError(f"sparse[{pos}]: index {item['idx']} repeats an earlier entry")
            seen.add(idx)
            arr[idx] = _entry_from_json([item["re"], item.get("im", 0)], mode)
        return Tensor(arr, mode)
    raise ValueError("tensor document needs a 'dense' or 'sparse' field")


def graph_to_json(g: NetworkGraph) -> dict:
    return {"d": g.d, "edges": [[u, v, w] for u, v, w in g.edges]}


def graph_from_json(doc: dict) -> NetworkGraph:
    edges = []
    for e in doc.get("edges", []):
        if len(e) == 2:
            edges.append((int(e[0]), int(e[1]), 1))
        else:
            edges.append((int(e[0]), int(e[1]), int(e[2])))
    return NetworkGraph(int(doc["d"]), tuple(edges))


def state_to_json(s: TNState) -> dict:
    return {
        "graph": graph_to_json(s.graph),
        "edge_dims": list(s.edge_dims),
        "vertex_dims": list(s.vertex_dims),
        "factors": [tensor_to_json(f) for f in s.factors],
    }


def state_from_json(doc: dict) -> TNState:
    return TNState(
        graph_from_json(doc["graph"]),
        tuple(int(x) for x in doc["edge_dims"]),
        tuple(int(x) for x in doc["vertex_dims"]),
        tuple(tensor_from_json(f) for f in doc["factors"]),
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


def cp_from_json(doc: dict) -> CPDecomposition:
    mode = doc["scalar"]
    terms = []
    for term in doc["terms"]:
        vecs = []
        for v in term:
            if mode == EXACT:
                arr = np.empty(len(v), dtype=object)
                for i, x in enumerate(v):
                    arr[i] = _entry_from_json(x, EXACT)
            else:
                arr = np.array([_entry_from_json(x, FLOAT) for x in v], dtype=np.complex128)
            vecs.append(Tensor(arr, mode))
        terms.append(tuple(vecs))
    return CPDecomposition(int(doc["order"]), tuple(terms))


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
