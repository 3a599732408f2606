"""Command line front end.

Exit codes: 0 success, 1 usage or input error, 2 infeasible instance,
3 a clique minor witness was found instead of a strategy, 4 budget
exhausted, 5 invalid solution (a solver or oracle answer failed
verify_solution, or a solver invariant broke).
"""

import argparse
import json
import sys
import time

from . import generators, ptas
from .fileio import (
    FormatError,
    parse_annotated_graph,
    parse_embedding,
    parse_graph,
    write_embedding,
    write_graph,
)
from .game import DEFAULT_BUDGET, GameState, parse_preserver, play
from .graph import GraphError
from .sequences import SequenceError, parse_rseq
from .strategies import (
    MinorWitness,
    StrategyError,
    build_strategy,
    round_bound,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_MINOR_WITNESS = 3
EXIT_BUDGET = 4
EXIT_INVALID = 5


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path) as f:
        return f.read()


def _write_out(text, path):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def _emit_json(obj, path=None):
    _write_out(json.dumps(obj, indent=2, sort_keys=True) + "\n", path)


def _witness_report(witness):
    return {
        "outcome": "minor_witness",
        "minor_witness": {
            "k": witness.k,
            "branch_sets": [sorted(b) for b in witness.branch_sets],
        }
    }


def _require_valid(problem, inst, sol):
    if not ptas.verify_solution(problem, inst, sol):
        raise ptas.SolverInvariantError("%s answer fails verification" % problem)


def _load_strategy(args, graph):
    emb = parse_embedding(_read(args.embedding)) if getattr(args, "embedding", None) else None
    return build_strategy(args.strategy, graph, emb)


def cmd_generate(args):
    if args.family == "grid":
        g = generators.gen_grid(args.rows, args.cols)
    elif args.family == "apexgrid":
        g = generators.gen_apex_grid(args.n)
    elif args.family == "diaggrid":
        g, emb = generators.gen_diag_grid(args.n)
        if args.embedding_out:
            _write_out(write_embedding(emb), args.embedding_out)
    else:  # ktree; argparse choices admit no other family
        g = generators.gen_ktree(args.n, args.d, args.seed)
    _write_out(write_graph(g), args.output)
    return EXIT_OK


def cmd_play(args):
    graph = parse_graph(_read(args.graph))
    built = _load_strategy(args, graph)
    if isinstance(built, MinorWitness):
        _emit_json(_witness_report(built), args.output)
        return EXIT_MINOR_WITNESS
    graph2, strategy, perm = built
    rseq = parse_rseq(args.rseq)
    preserver = parse_preserver(args.preserver)
    state = GameState(graph2, rseq)
    t0 = time.monotonic()
    transcript = play(strategy, preserver, state, args.budget)
    elapsed = time.monotonic() - t0
    if args.json:
        report = transcript.to_json()
        report["strategy"] = args.strategy
        report["rseq"] = args.rseq
        report["preserver"] = args.preserver
        try:
            bound = round_bound(strategy.descriptor, rseq)
            str(bound)  # the report spells it in decimal, within Python's digit limit
        except (SequenceError, OverflowError, ValueError, RecursionError):
            bound = None
        report["round_bound"] = bound
        if perm is not None:
            report["vertex_map"] = {str(o): n for o, n in sorted(perm.items())}
        if args.timing:
            report["wall_time"] = elapsed
        _emit_json(report, args.output)
    else:
        _write_out("\n".join(transcript.to_lines()) + "\n", args.output)
    if transcript.outcome == "win":
        return EXIT_OK
    if transcript.outcome == "budget_exceeded":
        return EXIT_BUDGET
    return EXIT_ERROR


def _instance_from_graph(problem, graph, ann, colors):
    if problem == "domset":
        demand = ann.get("demand", graph.vertex_set)
        hits = tuple(ann[k] for k in sorted(ann) if k.startswith("hit:"))
        return ptas.DomSetInstance(graph, frozenset(demand), hits)
    if problem == "mis":
        return ptas.ISInstance(graph, frozenset(ann.get("forbidden", frozenset())))
    if problem == "ccolorable":
        listed = {k: ann[k] for k in ann if k.startswith("list:")}
        if listed:
            lists = []
            for v in graph.vertices:
                lst = frozenset(
                    int(k.split(":", 1)[1]) for k, vs in listed.items() if v in vs
                )
                lists.append((v, lst))
            return ptas.ColorInstance(graph, colors, tuple(lists))
        return ptas.ColorInstance.full(graph, colors)
    raise ValueError("unknown problem %r" % problem)


def _solution_report(problem, sol, inv):
    back = (lambda v: inv[v]) if inv else (lambda v: v)
    report = {
        "problem": problem,
        "feasible": sol.feasible,
        "size": sol.size,
        "vertices": sorted(back(v) for v in sol.vertices),
    }
    if sol.colors is not None:
        report["colors"] = {str(back(v)): a for v, a in sorted(sol.colors.items())}
    return report


def cmd_solve(args):
    graph, ann = parse_annotated_graph(_read(args.graph))
    built = _load_strategy(args, graph)
    if isinstance(built, MinorWitness):
        _emit_json(_witness_report(built), args.output)
        return EXIT_MINOR_WITNESS
    graph2, strategy, perm = built
    if perm is not None:
        ann = {name: frozenset(perm[v] for v in vs) for name, vs in ann.items()}
    inst2 = _instance_from_graph(args.problem, graph2, ann, args.colors)
    inv = {n: o for o, n in perm.items()} if perm else None
    solver = {
        "domset": ptas.solve_domset,
        "mis": ptas.solve_mis,
        "ccolorable": ptas.solve_ccolorable,
    }[args.problem]
    t0 = time.monotonic()
    try:
        sol = solver(
            inst2,
            strategy,
            args.k,
            memo=args.memo,
            deadline_seconds=args.deadline,
            max_nodes=args.max_nodes,
        )
    except ptas.BudgetExceededError as exc:
        report = {
            "problem": args.problem,
            "error": str(exc),
            "nodes": exc.nodes,
            "positions": exc.positions,
        }
        _emit_json(report, args.output)
        return EXIT_BUDGET
    elapsed = time.monotonic() - t0
    _require_valid(args.problem, inst2, sol)
    report = _solution_report(args.problem, sol, inv)
    report["k"] = args.k
    report["strategy"] = args.strategy
    report["ratio_bound"] = str(ptas.ratio_bound(args.problem, args.k))
    report["provenance"] = sol.provenance
    if args.timing:
        report["wall_time"] = elapsed
    _emit_json(report, args.output)
    return EXIT_OK if sol.feasible else EXIT_INFEASIBLE


def cmd_oracle(args):
    inst = _instance_from_graph(args.problem, *parse_annotated_graph(_read(args.graph)), args.colors)
    if args.problem == "domset":
        res = ptas.oracle_domset(inst)
        if res is ptas.INFEASIBLE:
            _emit_json({"problem": "domset", "feasible": False}, args.output)
            return EXIT_INFEASIBLE
        sol = ptas.Solution("domset", True, res)
    elif args.problem == "mis":
        sol = ptas.Solution("mis", True, ptas.oracle_mis(inst))
    else:
        chosen, coloring = ptas.oracle_ccolorable(inst)
        sol = ptas.Solution("ccolorable", True, chosen, coloring)
    _require_valid(args.problem, inst, sol)
    _emit_json(_solution_report(args.problem, sol, None), args.output)
    return EXIT_OK


def quadratic_fit(rows):
    """One-sided check of "quadratic time" on bench rows (dicts with n
    and seconds): the largest size may cost at most 3x what quadratic
    growth from each smaller size predicts.  Faster growth than that
    fails; slower growth, linear say, passes.  coefficient is the
    smallest seconds / n**2 among the smaller sizes, the one the check
    binds on (the largest size's own with a single row)."""
    top = max(rows, key=lambda r: r["n"])
    smaller = [r for r in rows if r is not top] or [top]
    c = min(max(r["seconds"], 1e-9) / r["n"] ** 2 for r in smaller)
    return {"coefficient": c, "within_3x": max(top["seconds"], 1e-9) <= 3 * c * top["n"] ** 2}


def _bench_grid(n, rows):
    """rows x (n / rows) grid, or the square grid when rows is None."""
    if rows is None:
        side = round(n**0.5)
        if side * side != n:
            raise ValueError("bench sizes must be squares, got %d" % n)
        return side, side
    if rows < 1 or n % rows:
        raise ValueError("bench size %d is not a multiple of --rows %d" % (n, rows))
    return rows, n // rows


def cmd_bench(args):
    sizes = [int(s) for s in args.sizes.split(",")]
    shapes = [_bench_grid(n, args.rows) for n in sizes]
    rows = []
    failed = None
    for n, shape in zip(sizes, shapes):
        graph = generators.gen_grid(*shape)
        built = build_strategy(args.strategy, graph)
        if isinstance(built, MinorWitness):
            _emit_json(_witness_report(built), args.output)
            return EXIT_MINOR_WITNESS
        graph2, strategy, _perm = built
        inst = ptas.ISInstance.full(graph2)
        t0 = time.monotonic()
        try:
            sol = ptas.solve_mis(
                inst, strategy, args.k, memo=True, deadline_seconds=args.per_size_budget
            )
        except ptas.BudgetExceededError as exc:
            failed = n
            rows.append(
                {
                    "n": n,
                    "status": "budget_exceeded",
                    "nodes": exc.nodes,
                    "positions": exc.positions,
                }
            )
            break
        elapsed = time.monotonic() - t0
        _require_valid("mis", inst, sol)
        rows.append({"n": n, "status": "ok", "size": sol.size, "seconds": elapsed})
    report = {"problem": "mis", "k": args.k, "strategy": args.strategy, "rows": rows}
    if args.rows is not None:
        report["grid_rows"] = args.rows
    done = [r for r in rows if r["status"] == "ok"]
    if failed is None and len(done) == len(sizes) and done:
        report["quadratic_fit"] = quadratic_fit(done)
    _emit_json(report, args.output)
    return EXIT_BUDGET if failed is not None else EXIT_OK


def _build_parser():
    top = argparse.ArgumentParser(prog="bakergame")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a graph from a built-in family")
    p.add_argument("family", choices=["grid", "apexgrid", "diaggrid", "ktree"])
    p.add_argument("--rows", type=int, default=3)
    p.add_argument("--cols", type=int, default=3)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--embedding-out", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("play", help="referee one full game")
    p.add_argument("--graph", required=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--rseq", required=True)
    p.add_argument("--preserver", default="max")
    p.add_argument("--embedding", default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_play)

    p = sub.add_parser("solve", help="approximate a problem via the game")
    p.add_argument("--problem", required=True, choices=["domset", "mis", "ccolorable"])
    p.add_argument("--graph", required=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--colors", type=int, default=2)
    p.add_argument("--embedding", default=None)
    p.add_argument("--memo", action="store_true")
    p.add_argument("--deadline", type=float, default=None)
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--timing", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="solve a small instance exactly")
    p.add_argument("--problem", required=True, choices=["domset", "mis", "ccolorable"])
    p.add_argument("--graph", required=True)
    p.add_argument("--colors", type=int, default=2)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="time the solver across grid sizes")
    p.add_argument("--sizes", default="25,100")
    p.add_argument(
        "--rows", type=int, default=None, help="grids of this many rows (default: square)"
    )
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--strategy", default="minorfree:5")
    p.add_argument("--per-size-budget", type=float, default=60.0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_bench)

    return top


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ptas.SolverInvariantError as exc:
        print("error: invalid solution: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    except (FormatError, GraphError, SequenceError, StrategyError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
