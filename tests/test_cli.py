import json

import jsonschema
import pytest

from tnrank import io
from tnrank.cli import main


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _write_graph(path, d, edges):
    io.dump({"d": d, "edges": edges}, path)


def test_rank_command_on_w3(workdir, capsys):
    assert main(["gallery", "w", "--d", "3", "--out", "w3.json"]) == 0
    _write_graph("p3.json", 3, [[1, 2], [2, 3]])
    capsys.readouterr()
    assert main(["rank", "w3.json", "p3.json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rank"] == [2, 2]
    assert doc["edges"][0]["shape"] == [2, 4]


def test_rank_rejects_cyclic_graph(workdir, capsys):
    main(["gallery", "w", "--d", "3", "--out", "w3.json"])
    _write_graph("c3.json", 3, [[1, 2], [2, 3], [1, 3]])
    code = main(["rank", "w3.json", "c3.json"])
    assert code == 2
    assert "fit" in capsys.readouterr().err


def test_decompose_contract_roundtrip(workdir, capsys):
    main(["gallery", "ghz", "--d", "4", "--out", "ghz4.json"])
    _write_graph("p4.json", 4, [[1, 2], [2, 3], [3, 4]])
    assert main(["decompose", "ghz4.json", "p4.json", "--out", "state.json"]) == 0
    assert main(["contract", "state.json", "--out", "back.json"]) == 0
    assert json.load(open("ghz4.json")) == json.load(open("back.json"))


def test_embed_order_mismatch_fails(workdir, capsys):
    main(["gallery", "w", "--d", "3", "--what", "cp", "--out", "w3cp.json"])
    _write_graph("k4.json", 4, [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]])
    assert main(["embed", "w3cp.json", "k4.json", "--out", "st.json"]) == 1
    assert "3" in capsys.readouterr().err


def test_embed_roundtrip(workdir):
    main(["gallery", "strassen", "--m", "2", "--n", "2", "--p", "2", "--out", "mu.json"])
    main(["gallery", "strassen", "--what", "cp", "--out", "mucp.json"])
    _write_graph("c3.json", 3, [[1, 2], [2, 3], [1, 3]])
    assert main(["embed", "mucp.json", "c3.json", "--out", "st.json"]) == 0
    assert main(["contract", "st.json", "--out", "back.json"]) == 0
    assert json.load(open("mu.json")) == json.load(open("back.json"))


def test_dim_command_records_conflict(workdir, capsys):
    _write_graph("c3.json", 3, [[1, 2], [2, 3], [1, 3]])
    assert (
        main(
            [
                "dim",
                "--graph", "c3.json",
                "--edge-dims", "2,2,2",
                "--vertex-dims", "4,4,4",
                "--seeds", "0,1,2",
            ]
        )
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["formula_value"] == 37
    assert doc["alt_values"]["mps_minus_one"] == 36
    assert doc["jacobian_estimate"] == 37


def test_fit_command(workdir, capsys):
    main(["gallery", "ghz", "--d", "3", "--out", "ghz3.json"])
    _write_graph("c3.json", 3, [[1, 2], [2, 3], [1, 3]])
    capsys.readouterr()
    assert (
        main(
            [
                "fit", "ghz3.json",
                "--graph", "c3.json",
                "--edge-dims", "1,2,2",
                "--restarts", "5",
                "--seed", "0",
                "--trace",
            ]
        )
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["relative_residual"] < 1e-6
    assert len(doc["residual_history"]) == 5


def test_missing_file_fails(workdir, capsys):
    _write_graph("p3.json", 3, [[1, 2], [2, 3]])
    assert main(["rank", "nope.json", "p3.json"]) == 1


def test_verify_filter_report_schema_and_determinism(workdir, capsys):
    import importlib.resources as resources

    schema = json.loads(
        resources.files("tnrank.schemas").joinpath("verify_report.schema.json").read_text()
    )
    assert main(["verify", "--filter", "parameter-report", "--out", "r1.jsonl"]) == 0
    capsys.readouterr()
    assert main(["verify", "--filter", "parameter-report", "--out", "r2.jsonl"]) == 0
    b1, b2 = open("r1.jsonl", "rb").read(), open("r2.jsonl", "rb").read()
    assert b1 == b2
    for line in b1.decode().splitlines():
        jsonschema.validate(json.loads(line), schema)


def test_mode_flag_converts_to_float(workdir, capsys):
    main(["gallery", "w", "--d", "3", "--out", "w3.json"])
    _write_graph("p3.json", 3, [[1, 2], [2, 3]])
    capsys.readouterr()
    assert main(["rank", "w3.json", "p3.json", "--mode", "float"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "float"
    assert doc["rank"] == [2, 2]


def test_gallery_monomial_and_border(workdir, capsys):
    assert main(["gallery", "monomial", "--exponents", "2,1", "--out", "m.json"]) == 0
    assert main(["gallery", "border", "--d", "3", "--n", "2", "--out", "b.json"]) == 0
    doc = json.load(open("b.json"))
    assert doc["dims"] == [4, 4, 4]


def _grid_edges(side):
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c + 1
            if c + 1 < side:
                edges.append((v, v + 1))
            if r + 1 < side:
                edges.append((v, v + side))
    return edges


def test_contract_refuses_oversized_plan(workdir, capsys):
    # A 6x6 grid with bond 2 and n = 2 contracts to 2^36 entries; the plan
    # is refused before any tensor is allocated.
    from tnrank.graph import NetworkGraph
    from tnrank.network import ProblemSpec, random_state

    g = NetworkGraph(36, tuple(_grid_edges(6)))
    state = random_state(ProblemSpec(g, (2,) * g.c, (2,) * 36), 0)
    io.dump(io.state_to_json(state), "grid.json")
    assert main(["contract", "grid.json", "--out", "t.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(2**36) in err
    assert not (workdir / "t.json").exists()


def test_contract_of_mixed_mode_state_is_an_error_line(workdir, capsys):
    main(["gallery", "ghz", "--d", "3", "--what", "train", "--out", "state.json"])
    doc = io.load("state.json")
    doc["factors"][0] = io.tensor_to_json(io.tensor_from_json(doc["factors"][0]).to_float())
    io.dump(doc, "mixed.json")
    assert main(["contract", "mixed.json", "--out", "t.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "modes differ" in err


@pytest.mark.parametrize(
    "argv, work",
    [(["contract", "state.json"], "contract_network"), (["decompose", "ghz4.json", "p4.json"], "ttns_decompose")],
    ids=["contract", "decompose"],
)
def test_missing_out_is_checked_before_the_work(workdir, capsys, monkeypatch, argv, work):
    main(["gallery", "ghz", "--d", "4", "--what", "train", "--out", "state.json"])
    main(["gallery", "ghz", "--d", "4", "--out", "ghz4.json"])
    _write_graph("p4.json", 4, [[1, 2], [2, 3], [3, 4]])

    def fail(*args):
        raise AssertionError(f"{work} ran before --out was checked")

    monkeypatch.setattr(f"tnrank.cli.{work}", fail)
    capsys.readouterr()
    assert main(argv) == 1
    assert "needs --out" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--seed", "1"],
        ["dim", "--tol", "1e-6"],
        ["fit", "t.json", "--graph", "g.json", "--edge-dims", "1", "--mode", "exact"],
        ["gallery", "w", "--trace"],
    ],
    ids=["verify-seed", "dim-tol", "fit-mode", "gallery-trace"],
)
def test_flags_a_subcommand_does_not_read_are_rejected(workdir, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "exc, shown",
    [(MemoryError("Unable to allocate 8.00 TiB"), "Unable to allocate"), (MemoryError(), "MemoryError")],
    ids=["numpy-message", "bare"],
)
def test_memory_error_is_an_error_line(workdir, capsys, monkeypatch, exc, shown):
    def too_large(d):
        raise exc

    monkeypatch.setattr("tnrank.gallery.w_state", too_large)
    assert main(["gallery", "w", "--d", "40"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and shown in err
