import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tnrank import gallery, io
from tnrank.graph import cycle_graph
from tnrank.network import contract_network
from tnrank.scalars import GaussianRational as GR
from tnrank.tensor import Tensor, tensors_equal


def test_exact_tensor_roundtrip_with_fractions_and_imaginary_parts():
    arr = np.empty((2, 2), dtype=object)
    arr[0, 0] = GR(Fraction(1, 3), Fraction(-2, 7))
    arr[0, 1] = GR(0)
    arr[1, 0] = GR(5)
    arr[1, 1] = GR(Fraction(-9, 4), Fraction(1, 1))
    t = Tensor(arr, "exact")
    doc = io.tensor_to_json(t)
    back = io.tensor_from_json(json.loads(json.dumps(doc)))
    assert tensors_equal(back, t)
    # exactness survives: the third is stored as the string "1/3"
    assert any(e["re"] == "1/3" for e in doc["sparse"])


def test_float_tensor_roundtrip():
    rng = np.random.default_rng(0)
    t = Tensor(rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)), "float")
    back = io.tensor_from_json(io.tensor_to_json(t))
    assert np.array_equal(back.data, t.data)


def test_dense_exact_document_is_accepted():
    doc = {
        "dims": [2],
        "scalar": "exact",
        "dense": [["1/2", "0"], ["-3", "1/5"]],
    }
    t = io.tensor_from_json(doc)
    assert t.item((1,)) == GR(Fraction(1, 2))
    assert t.item((2,)) == GR(-3, Fraction(1, 5))


def test_tensor_document_errors():
    with pytest.raises(ValueError):
        io.tensor_from_json({"dims": [2], "scalar": "exact"})
    with pytest.raises(ValueError):
        io.tensor_from_json({"dims": [2], "scalar": "weird", "dense": []})
    with pytest.raises(ValueError):
        io.tensor_from_json({"dims": [2], "scalar": "float", "dense": [[1, 0]]})


def test_graph_roundtrip_and_default_weight():
    g = cycle_graph(4)
    back = io.graph_from_json(io.graph_to_json(g))
    assert back == g
    g2 = io.graph_from_json({"d": 2, "edges": [[1, 2]]})
    assert g2.edges == ((1, 2, 1),)


def test_state_roundtrip():
    fx = gallery.w_state(3)
    back = io.state_from_json(json.loads(json.dumps(io.state_to_json(fx.ring))))
    assert back.edge_dims == fx.ring.edge_dims
    assert tensors_equal(contract_network(back), fx.tensor)


def test_cp_roundtrip():
    fx = gallery.ghz_state(4)
    back = io.cp_from_json(json.loads(json.dumps(io.cp_to_json(fx.cp))))
    assert back.rank == 2
    assert tensors_equal(back.to_tensor(), fx.tensor)


def test_report_lines_sorted(tmp_path):
    recs = [
        {"id": "b-claim", "status": "pass"},
        {"id": "a-claim", "status": "fail"},
    ]
    path = tmp_path / "report.jsonl"
    io.write_report_lines(recs, path=path)
    lines = path.read_text().splitlines()
    assert json.loads(lines[0])["id"] == "a-claim"
    assert json.loads(lines[1])["id"] == "b-claim"


def test_dump_is_deterministic(tmp_path):
    doc = io.tensor_to_json(gallery.w_state(3).tensor)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    io.dump(doc, p1)
    io.dump(doc, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _sparse_doc(*idxs):
    return {"dims": [2, 2], "scalar": "exact", "sparse": [{"idx": i, "re": "1"} for i in idxs]}


def test_sparse_index_out_of_range_is_rejected():
    # 0 used to wrap to the last row.
    with pytest.raises(ValueError, match=r"sparse\[1\].*\[0, 1\]"):
        io.tensor_from_json(_sparse_doc([1, 1], [0, 1]))
    with pytest.raises(ValueError, match=r"sparse\[0\]"):
        io.tensor_from_json(_sparse_doc([3, 1]))


def test_sparse_index_of_wrong_arity_is_rejected():
    # A short index used to fill a whole row.
    with pytest.raises(ValueError, match=r"sparse\[0\].*\[2\]"):
        io.tensor_from_json(_sparse_doc([2]))
    with pytest.raises(ValueError, match=r"sparse\[0\]"):
        io.tensor_from_json(_sparse_doc([1, 1, 1]))


def test_duplicate_sparse_index_is_rejected():
    # A repeat used to keep the last value silently.
    with pytest.raises(ValueError, match=r"sparse\[2\].*repeats"):
        io.tensor_from_json(_sparse_doc([1, 2], [2, 1], [1, 2]))


@pytest.mark.parametrize("bad", [[float("nan"), 0.0], [0.0, float("inf")], "nan"])
def test_non_finite_float_entry_is_rejected(bad):
    doc = {"dims": [2], "scalar": "float", "dense": [[1.0, 0.0], bad]}
    with pytest.raises(ValueError, match="non-finite"):
        io.tensor_from_json(doc)
    sparse = {"dims": [2], "scalar": "float", "sparse": [{"idx": [1], "re": "nan"}]}
    with pytest.raises(ValueError, match="non-finite"):
        io.tensor_from_json(sparse)


def test_bad_sparse_index_is_an_error_line_in_the_cli(tmp_path, capsys):
    from tnrank.cli import main

    io.dump(_sparse_doc([1, 1], [0, 1]), tmp_path / "t.json")
    io.dump({"d": 2, "edges": [[1, 2]]}, tmp_path / "p2.json")
    assert main(["rank", str(tmp_path / "t.json"), str(tmp_path / "p2.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "sparse[1]" in err


def test_unknown_sparse_entry_key_is_rejected():
    # A misspelt "im" used to be dropped, reading the entry as real.
    doc = {"dims": [1], "scalar": "exact", "sparse": [{"idx": [1], "re": "1", "imag": "2"}]}
    with pytest.raises(ValueError, match=r"sparse\[0\]: unknown keys \['imag'\]"):
        io.tensor_from_json(doc)


def test_unknown_tensor_document_key_is_rejected():
    doc = {"dims": [2], "scalar": "float", "dense": [[1, 0], [0, 0]], "dtype": "c16"}
    with pytest.raises(ValueError, match=r"unknown tensor document keys \['dtype'\]"):
        io.tensor_from_json(doc)


def test_dense_and_sparse_together_are_rejected():
    # The sparse entries used to be dropped silently.
    doc = {**_sparse_doc([2, 2]), "dense": [["1"], ["0"], ["0"], ["0"]]}
    with pytest.raises(ValueError, match="both 'dense' and 'sparse'"):
        io.tensor_from_json(doc)


def test_unknown_key_is_an_error_line_in_the_cli(tmp_path, capsys):
    from tnrank.cli import main

    doc = {"dims": [2, 2], "scalar": "exact", "sparse": [{"idx": [1, 1], "re": "1", "imag": "2"}]}
    io.dump(doc, tmp_path / "t.json")
    io.dump({"d": 2, "edges": [[1, 2]]}, tmp_path / "p2.json")
    assert main(["rank", str(tmp_path / "t.json"), str(tmp_path / "p2.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'imag'" in err


def _rank_error(tmp_path, capsys, doc):
    """The stderr of ``tnrank rank`` on a tensor document and P_2."""
    from tnrank.cli import main

    io.dump(doc, tmp_path / "t.json")
    io.dump({"d": 2, "edges": [[1, 2]]}, tmp_path / "p2.json")
    assert main(["rank", str(tmp_path / "t.json"), str(tmp_path / "p2.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    return err


def test_document_that_is_not_an_object_is_an_error_line(tmp_path, capsys):
    assert "tensor document must be a JSON object" in _rank_error(tmp_path, capsys, ["x"])


def test_sparse_entry_that_is_not_an_object_is_an_error_line(tmp_path, capsys):
    doc = {"dims": [1, 1], "scalar": "exact", "sparse": [[1, "1"]]}
    assert "sparse[0] must be a JSON object" in _rank_error(tmp_path, capsys, doc)


def test_dims_that_are_not_a_list_are_an_error_line(tmp_path, capsys):
    doc = {"dims": 2, "scalar": "exact", "dense": ["1", "0"]}
    assert "'dims' must be a JSON array" in _rank_error(tmp_path, capsys, doc)


def test_sparse_index_that_is_not_a_list_is_an_error_line(tmp_path, capsys):
    doc = {"dims": [2, 2], "scalar": "exact", "sparse": [{"idx": 1, "re": "1"}]}
    assert "sparse[0]: 'idx' must be a JSON array" in _rank_error(tmp_path, capsys, doc)


def test_zero_denominator_is_an_error_line(tmp_path, capsys):
    doc = {"dims": [2, 2], "scalar": "exact", "dense": ["1", "1/0", "0", "2"]}
    assert "dense[1]: '1/0' is not a valid exact entry" in _rank_error(tmp_path, capsys, doc)


@pytest.mark.parametrize(
    "doc, field",
    [
        ("x", "state document must be a JSON object"),
        ({"factors": 3}, "'factors' must be a JSON array"),
        ({"graph": {"d": 2, "edges": [[1, 2]]}, "edge_dims": [1], "vertex_dims": [1, 1], "factors": [{"dims": [1, "1"]}]},
         "factors[0]: tensor document: 'dims'"),
        ({"graph": {"d": 2, "edges": [1]}, "edge_dims": [1], "vertex_dims": [1, 1], "factors": []}, "edges[0]"),
        ({"graph": [], "edge_dims": [1], "vertex_dims": [1, 1], "factors": []}, "graph document"),
        ({"graph": {"d": 2, "edges": [[1, 2]]}, "edge_dims": 1, "vertex_dims": [1, 1], "factors": []}, "'edge_dims'"),
    ],
)
def test_malformed_state_documents_name_the_field(doc, field):
    with pytest.raises(ValueError) as info:
        io.state_from_json(doc)
    assert field in str(info.value)


@pytest.mark.parametrize(
    "doc, field",
    [
        ([1], "CP document must be a JSON object"),
        ({"order": "2", "scalar": "exact", "terms": []}, "'order' must be a JSON integer"),
        ({"order": 1, "scalar": "exact", "terms": [["1"]]}, "terms[0] must be an array of vectors"),
        ({"order": 1, "scalar": "exact", "terms": [[["1", {}]]]}, "terms[0][0][1]"),
        ({"order": 1, "scalar": "float", "terms": [[[[1, "nan"]]]]}, "terms[0][0][0]: non-finite"),
        ({"order": 1, "scalar": "real", "terms": []}, "unknown scalar mode 'real'"),
    ],
)
def test_malformed_cp_documents_name_the_field(doc, field):
    with pytest.raises(ValueError) as info:
        io.cp_from_json(doc)
    assert field in str(info.value)


_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 5), st.floats(allow_nan=True),
    st.sampled_from(["1", "1/2", "-3/4", "x", "1/0", "nan", "exact", "float"]),
)
_KEYS = st.sampled_from(["dims", "scalar", "dense", "sparse", "idx", "re", "im", "graph", "d", "edges",
                         "edge_dims", "vertex_dims", "factors", "order", "terms"])
_JSON = st.recursive(_LEAF, lambda ch: st.lists(ch, max_size=4) | st.dictionaries(_KEYS, ch, max_size=5),
                     max_leaves=20)
_TENSOR_DOC = st.fixed_dictionaries(
    {"dims": st.lists(st.integers(-1, 3), max_size=3) | _JSON, "scalar": st.sampled_from(["exact", "float", "x"])},
    optional={"dense": _JSON, "sparse": _JSON | st.lists(st.fixed_dictionaries(
        {"idx": st.lists(st.integers(0, 3), max_size=3) | _JSON}, optional={"re": _LEAF, "im": _LEAF}))},
)
_CP_DOC = st.fixed_dictionaries({"order": st.integers(0, 3), "scalar": st.sampled_from(["exact", "float"]), "terms": _JSON})


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=list(HealthCheck))
@given(reader=st.sampled_from(["tensor", "state", "cp", "graph"]), doc=_JSON | _TENSOR_DOC | _CP_DOC)
def test_readers_refuse_malformed_documents_with_value_error(reader, doc):
    # Any JSON value is either read or refused with ValueError (GraphError
    # is one), so the CLI always ends in an ``error:`` line.
    try:
        getattr(io, f"{reader}_from_json")(doc)
    except ValueError:
        pass
