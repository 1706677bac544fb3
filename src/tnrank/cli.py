"""Command-line interface.

Subcommands: rank, decompose, contract, embed, dim, gallery, fit, verify.
Each subcommand takes only the flags it reads.  Every command is
reproducible bit for bit given identical inputs; for ``fit`` that includes
``--seed``, for ``dim`` ``--seeds``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import gallery, geometry, io, verify
from .fit import FitOptions, als_fit
from .graph import GraphError, classify, edge_split, is_tree
from .network import ProblemSpec, contract_network, universal_embed
from .scalars import EXACT, FLOAT, ModeMismatchError
from .tensor import flatten
from .tree_rank import ttns_decompose, ttns_rank


def _int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip())


def _seeds(text: str) -> tuple[int, ...]:
    seeds = _int_tuple(text)
    if not seeds:
        raise argparse.ArgumentTypeError("needs at least one seed")
    return seeds


def _load_tensor(path, mode: str | None):
    t = io.tensor_from_json(io.load(path))
    if mode is None or mode == t.mode:
        return t
    if mode == FLOAT:
        return t.to_float()
    raise ValueError("cannot convert a float tensor to exact mode")


def _subcommand(sub, name: str, run, summary: str, *positionals: str) -> argparse.ArgumentParser:
    """A subparser with its positionals and ``--out``, dispatching to ``run``."""
    p = sub.add_parser(name, help=summary)
    for arg in positionals:
        p.add_argument(arg)
    p.add_argument("--out", default=None, help="output file path")
    p.set_defaults(run=run)
    return p


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="tnrank", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    for name, run, summary in (
        ("rank", _cmd_rank, "rank tuple of a tensor on a tree graph"),
        ("decompose", _cmd_decompose, "decompose a tensor into a tree state"),
    ):
        p = _subcommand(sub, name, run, summary, "tensor", "graph")
        p.add_argument("--mode", choices=[EXACT, FLOAT], default=None,
                       help="convert the input tensor to this scalar mode")
        p.add_argument("--tol", type=float, default=None,
                       help="relative rank tolerance in [0, 1) (float mode)")

    _subcommand(sub, "contract", _cmd_contract, "contract a state file to a tensor", "state")
    _subcommand(sub, "embed", _cmd_embed, "embed a CP decomposition on a graph", "cp", "graph")

    p = _subcommand(sub, "dim", _cmd_dim, "dimension report: formulas vs Jacobian oracle")
    p.add_argument("--graph", required=False)
    p.add_argument("--edge-dims", type=_int_tuple, default=None)
    p.add_argument("--vertex-dims", type=_int_tuple, default=None)
    p.add_argument("--seeds", type=_seeds, default=(0, 1, 2))
    p.add_argument("--matmul-params", type=int, default=None, metavar="N",
                   help="emit the parameter-count report for the N x N matrix product instead")

    p = _subcommand(sub, "gallery", _cmd_gallery, "emit a named fixture")
    p.add_argument("name", choices=["w", "ghz", "strassen", "sym", "skew", "monomial", "border"])
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--exponents", type=_int_tuple, default=(2, 1))
    p.add_argument("--what", choices=["tensor", "cp", "train", "ring", "star"], default="tensor")

    p = _subcommand(sub, "fit", _cmd_fit, "alternating least squares fit on any connected graph",
                    "tensor")
    p.add_argument("--graph", required=True)
    p.add_argument("--edge-dims", type=_int_tuple, required=True)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--ridge", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0, help="seed of the random restarts")
    p.add_argument("--trace", action="store_true", help="report each restart's residual history")
    p.add_argument("--out-state", default=None)

    p = _subcommand(sub, "verify", _cmd_verify, "run the claim suite")
    p.add_argument("--filter", default=None)

    args = ap.parse_args(argv)
    try:
        return args.run(args)
    except (GraphError, ModeMismatchError, ValueError, OSError, KeyError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def _cmd_rank(args) -> int:
    t = _load_tensor(args.tensor, args.mode)
    g = io.graph_from_json(io.load(args.graph))
    if not is_tree(g):
        print(
            f"error: graph is {classify(g)}, not a tree; "
            "no flattening certificate exists -- use `tnrank fit`",
            file=sys.stderr,
        )
        return 2
    ranks = ttns_rank(t, g, args.tol)
    lines = []
    for e in range(1, g.c + 1):
        side_u, side_v = edge_split(g, e)
        m = flatten(t, side_u)
        lines.append(
            {
                "edge": e,
                "endpoints": list(g.endpoints(e)),
                "split": [list(side_u), list(side_v)],
                "shape": list(m.dims),
                "rank": ranks[e - 1],
            }
        )
    doc = {"rank": list(ranks), "edges": lines, "mode": t.mode}
    print(json.dumps(doc, sort_keys=True, indent=1))
    if args.out:
        io.dump(doc, args.out)
    return 0


def _cmd_decompose(args) -> int:
    if not args.out:
        raise ValueError("decompose needs --out for the state file")
    t = _load_tensor(args.tensor, args.mode)
    g = io.graph_from_json(io.load(args.graph))
    state = ttns_decompose(t, g, args.tol)
    io.dump(io.state_to_json(state), args.out)
    print(json.dumps({"edge_dims": list(state.edge_dims)}, sort_keys=True))
    return 0


def _cmd_contract(args) -> int:
    if not args.out:
        raise ValueError("contract needs --out for the tensor file")
    state = io.state_from_json(io.load(args.state))
    t = contract_network(state)
    io.dump(io.tensor_to_json(t), args.out)
    print(json.dumps({"dims": list(t.dims), "mode": t.mode}, sort_keys=True))
    return 0


def _cmd_embed(args) -> int:
    if not args.out:
        raise ValueError("embed needs --out for the state file")
    cp = io.cp_from_json(io.load(args.cp))
    g = io.graph_from_json(io.load(args.graph))
    state = universal_embed(cp, g)
    io.dump(io.state_to_json(state), args.out)
    print(json.dumps({"edge_dims": list(state.edge_dims)}, sort_keys=True))
    return 0


def _cmd_dim(args) -> int:
    if args.matmul_params is not None:
        rep = geometry.parameter_report(args.matmul_params)
        doc = {
            "n": rep.n,
            "ring_dim": rep.ring_dim,
            "train_dim": rep.train_dim,
            "subspace_dim": rep.subspace_dim,
            "cp_rank_lower_bound": rep.cp_rank_lower_bound,
            "secant_dim_lower_bound": rep.secant_dim_lower_bound,
            "ring_needs_fewest": rep.ring_needs_fewest,
        }
    else:
        if not (args.graph and args.edge_dims and args.vertex_dims):
            raise ValueError("dim needs --graph, --edge-dims and --vertex-dims")
        g = io.graph_from_json(io.load(args.graph))
        spec = ProblemSpec(g, args.edge_dims, args.vertex_dims)
        rep = geometry.dim_report(spec, seeds=args.seeds)
        doc = {
            "graph": io.graph_to_json(g),
            "edge_dims": list(spec.edge_dims),
            "vertex_dims": list(spec.vertex_dims),
            "formula_value": rep.formula_value,
            "jacobian_estimate": rep.jacobian_estimate,
            "agreement": rep.agreement,
            "alt_values": rep.alt_values,
            "seeds": list(rep.seeds_used),
            "gap": rep.gap,
        }
    print(json.dumps(doc, sort_keys=True, indent=1))
    if args.out:
        io.dump(doc, args.out)
    return 0


def _cmd_gallery(args) -> int:
    name = args.name
    if name == "w":
        fx = gallery.w_state(args.d)
    elif name == "ghz":
        fx = gallery.ghz_state(args.d)
    elif name == "strassen":
        fx = gallery.strassen(args.m, args.n, args.p)
    elif name == "sym":
        from .tensor import basis_vector

        fx = gallery.decomposable_sym([basis_vector(args.d, k) for k in range(1, args.d + 1)])
    elif name == "skew":
        from .tensor import basis_vector

        fx = gallery.decomposable_skew([basis_vector(args.d, k) for k in range(1, args.d + 1)])
    elif name == "monomial":
        fx = gallery.monomial_tensor(args.exponents)
    elif name == "border":
        fx = gallery.border_example(args.d, args.n)
    else:
        raise ValueError(name)

    what = args.what
    if what == "tensor":
        tensor = fx if name in ("monomial", "border") else fx.tensor
        doc = io.tensor_to_json(tensor)
    elif what == "cp":
        cp = getattr(fx, "cp", None)
        if cp is None:
            raise ValueError(f"fixture {name} has no CP decomposition")
        doc = io.cp_to_json(cp)
    elif what in ("train", "ring", "star"):
        state = getattr(fx, what, None)
        if state is None:
            raise ValueError(f"fixture {name} has no {what} state")
        doc = io.state_to_json(state)
    if not args.out:
        print(json.dumps(doc, sort_keys=True, indent=1))
    else:
        io.dump(doc, args.out)
        print(json.dumps({"written": args.out}, sort_keys=True))
    return 0


def _cmd_fit(args) -> int:
    t = io.tensor_from_json(io.load(args.tensor)).to_float()
    g = io.graph_from_json(io.load(args.graph))
    spec = ProblemSpec(g, args.edge_dims, t.dims)
    opts = FitOptions(
        max_iters=args.max_iters, restarts=args.restarts, seed=args.seed, ridge=args.ridge
    )
    result = als_fit(t, spec, opts)
    doc = {
        "relative_residual": result.relative_residual,
        "max_factor_magnitude": result.max_factor_magnitude,
        "best_restart": result.best_restart,
        "ridge_events": result.ridge_events,
        "edge_dims": list(spec.edge_dims),
    }
    if args.trace:
        doc["residual_history"] = [list(h) for h in result.residual_history]
    print(json.dumps(doc, sort_keys=True, indent=1))
    if args.out:
        io.dump(doc, args.out)
    if args.out_state:
        io.dump(io.state_to_json(result.best_state), args.out_state)
    return 0


def _cmd_verify(args) -> int:
    records = verify.run_claims(args.filter)
    for r in records:
        print(f"{r['status']:>7}  {r['id']}")
    io.write_report_lines(records, path=args.out)
    ok = verify.all_gated_pass(records)
    total = sum(1 for r in records if r["gated"])
    passed = sum(1 for r in records if r["gated"] and r["status"] == "pass")
    findings = sum(1 for r in records if not r["gated"])
    print(f"gated: {passed}/{total} passed, {findings} findings")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
