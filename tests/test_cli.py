import hashlib
import json

import pytest

from bakergame.cli import main, quadratic_fit
from bakergame.fileio import write_graph
from bakergame.generators import gen_grid
from bakergame.strategies import build_strategy


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_generate_grid(tmp_path, capsys):
    p = tmp_path / "g.gr"
    code, _ = run(capsys, ["generate", "grid", "--rows", "3", "--cols", "3", "-o", str(p)])
    assert code == 0
    text = p.read_text()
    assert "p graph 9 12" in text


def test_generate_diaggrid_with_embedding(tmp_path, capsys):
    g = tmp_path / "g.gr"
    e = tmp_path / "g.emb"
    code, _ = run(
        capsys,
        ["generate", "diaggrid", "--n", "3", "-o", str(g), "--embedding-out", str(e)],
    )
    assert code == 0
    assert "p embed 9 2" in e.read_text()


def test_play_reports_win(tmp_path, capsys):
    g = tmp_path / "g.gr"
    run(capsys, ["generate", "grid", "--rows", "3", "--cols", "3", "-o", str(g)])
    code, out = run(
        capsys,
        ["play", "--graph", str(g), "--strategy", "minorfree:5",
         "--rseq", "const:1", "--preserver", "max", "--json"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] == "win"
    assert report["rounds"] <= report["round_bound"]
    assert "wall_time" not in report  # deterministic without --timing


@pytest.mark.parametrize(
    "rows, cols, strategy, rseq, printed",
    [
        pytest.param(1, 3, "chordal:1", "const:2000", True, id="1-3-chordal:1-const:2000"),
        pytest.param(1, 3, "chordal:1", "const:14000", True, id="1-3-chordal:1-const:14000"),
        pytest.param(1, 3, "chordal:1", "const:20000", False, id="1-3-chordal:1-const:20000"),
        pytest.param(2, 2, "minorfree:5", "schedule:mis:2", None, id="2-2-minorfree:5-schedule:mis:2"),
    ],
)
def test_play_json_reports_huge_round_bounds(tmp_path, capsys, rows, cols, strategy, rseq, printed):
    # the chain behind these bounds has 2000 to 20000 levels on the path
    # and about 1.2e26 on the grid.  A bound of more digits than Python
    # prints (about 6000 at const:20000) is null, like one that cannot
    # be computed; never a traceback.  The grid's is a number or null.
    g = tmp_path / "g.gr"
    run(capsys, ["generate", "grid", "--rows", str(rows), "--cols", str(cols), "-o", str(g)])
    code, out = run(
        capsys,
        ["play", "--graph", str(g), "--strategy", strategy, "--rseq", rseq,
         "--preserver", "max", "--json"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] == "win"
    bound = report["round_bound"]
    if printed is False:
        assert bound is None
    elif printed or bound is not None:
        assert isinstance(bound, int) and report["rounds"] <= bound


def test_play_minor_witness_exit(tmp_path, capsys):
    g = tmp_path / "k5.gr"
    lines = ["p graph 5 10"] + [
        "e %d %d" % (u, v) for u in range(5) for v in range(u + 1, 5)
    ]
    g.write_text("\n".join(lines) + "\n")
    code, out = run(
        capsys,
        ["play", "--graph", str(g), "--strategy", "minorfree:5",
         "--rseq", "const:1", "--json"],
    )
    assert code == 3
    assert json.loads(out)["outcome"] == "minor_witness"


def test_minor_witness_honours_output(tmp_path, capsys):
    k5 = tmp_path / "k5.gr"
    lines = ["p graph 5 10"] + [
        "e %d %d" % (u, v) for u in range(5) for v in range(u + 1, 5)
    ]
    k5.write_text("\n".join(lines) + "\n")
    out = tmp_path / "w.json"
    for argv in (
        ["solve", "--problem", "mis", "--graph", str(k5), "--strategy", "minorfree:5",
         "--k", "2"],
        ["play", "--graph", str(k5), "--strategy", "minorfree:5", "--rseq", "const:1"],
        # a 3x3 grid has a triangle minor
        ["bench", "--sizes", "9", "--strategy", "minorfree:3"],
    ):
        code, stdout = run(capsys, argv + ["-o", str(out)])
        assert code == 3, argv[0]
        assert stdout == ""
        assert json.loads(out.read_text())["outcome"] == "minor_witness"
        out.unlink()


def test_play_distortion_json(tmp_path, capsys):
    g = tmp_path / "g.gr"
    e = tmp_path / "g.emb"
    run(capsys, ["generate", "diaggrid", "--n", "2", "-o", str(g), "--embedding-out", str(e)])
    code, out = run(
        capsys,
        ["play", "--graph", str(g), "--strategy", "distortion", "--embedding", str(e),
         "--rseq", "const:1", "--json"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] == "win"
    assert report["round_bound"] == 6  # dim + (beta * 1 + 1) ** dim
    # beta * c leaves the float range: the report says null, no traceback
    _, out = run(
        capsys,
        ["play", "--graph", str(g), "--strategy", "distortion", "--embedding", str(e),
         "--rseq", "const:" + "9" * 400, "--json"],
    )
    assert json.loads(out)["round_bound"] is None


def test_play_distortion_wins_past_the_float_range(tmp_path, capsys):
    # the embedding file gives beta as a float, so beta * head overflows;
    # the survivor cap is then unbounded and the deletes finish the game
    g = tmp_path / "g.gr"
    e = tmp_path / "g.emb"
    run(capsys, ["generate", "diaggrid", "--n", "2", "-o", str(g), "--embedding-out", str(e)])
    argv = ["play", "--graph", str(g), "--strategy", "distortion", "--embedding", str(e),
            "--rseq", "const:" + "9" * 400]
    code, out = run(capsys, argv)
    assert code == 0
    assert out.splitlines()[-1] == "outcome win"
    code, out = run(capsys, argv + ["--json"])
    report = json.loads(out)
    assert code == 0 and report["outcome"] == "win" and report["round_bound"] is None


def test_play_deep_chordal_strategy_on_a_path(tmp_path, capsys):
    # chordal:2000 meets a one-vertex piece after its first Restrict and
    # plays the edgeless move there without nesting 2000 builds
    p = tmp_path / "p.gr"
    run(capsys, ["generate", "grid", "--rows", "1", "--cols", "3", "-o", str(p)])
    code, out = run(capsys, ["play", "--graph", str(p), "--strategy", "chordal:2000", "--rseq", "const:1"])
    assert code == 0
    assert out.splitlines()[-1] == "outcome win"


def test_play_rejects_nested_minorfree(tmp_path, capsys):
    k5 = tmp_path / "k5.gr"
    lines = ["p graph 5 10"] + [
        "e %d %d" % (u, v) for u in range(5) for v in range(u + 1, 5)
    ]
    k5.write_text("\n".join(lines) + "\n")
    grid = tmp_path / "grid.gr"
    run(capsys, ["generate", "grid", "--rows", "3", "--cols", "3", "-o", str(grid)])
    for g in (k5, grid):
        for text in ("cliquesum(minorfree:5,chordal:1)", "quotient(minorfree:5,3)"):
            code = main(["play", "--graph", str(g), "--strategy", text, "--rseq", "const:1"])
            captured = capsys.readouterr()
            assert code == 1, (g.name, text)
            assert captured.out == ""
            assert captured.err.startswith("error:") and "minorfree" in captured.err


def test_play_rejects_deeply_nested_descriptor(tmp_path, capsys):
    grid = tmp_path / "grid.gr"
    run(capsys, ["generate", "grid", "--rows", "2", "--cols", "2", "-o", str(grid)])
    text = "cliquesum(" * 1000 + "edgeless" + ",edgeless)" * 1000
    code = main(["play", "--graph", str(grid), "--strategy", text, "--rseq", "const:1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:") and "nest deeper" in captured.err


def test_play_rejects_numbers_that_cannot_win(tmp_path, capsys):
    grid = tmp_path / "grid.gr"
    run(capsys, ["generate", "grid", "--rows", "2", "--cols", "3", "-o", str(grid)])
    for text in ("chordal:-1", "quotient(chordal:2,0)", "minorfree:2"):
        code = main(["play", "--graph", str(grid), "--strategy", text, "--rseq", "const:1"])
        captured = capsys.readouterr()
        assert code == 1, text
        assert captured.out == ""
        assert captured.err.startswith("error:") and text in captured.err


def test_play_geom_sequence_past_float_range(tmp_path, capsys):
    # the simulated windows of minorfree:6 read geom:1,2 past 2**1024;
    # the strategy falls back on deletions and still wins
    g = tmp_path / "g.gr"
    run(capsys, ["generate", "grid", "--rows", "8", "--cols", "8", "-o", str(g)])
    code, out = run(
        capsys,
        ["play", "--graph", str(g), "--strategy", "minorfree:6", "--rseq", "geom:1,2"],
    )
    assert code == 0
    assert out.splitlines()[-1] == "outcome win"


def test_play_schedule_sequence_syntax(tmp_path, capsys):
    # the README form schedule:<problem>:<k>; a comma before k is rejected
    g = tmp_path / "g.gr"
    run(capsys, ["generate", "ktree", "--n", "12", "--d", "2", "-o", str(g)])
    argv = ["play", "--graph", str(g), "--strategy", "chordal:2", "--rseq"]
    code, out = run(capsys, argv + ["schedule:mis:2"])
    assert code == 0
    assert out.splitlines()[-1] == "outcome win"
    code = main(argv + ["schedule:mis,2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "bad sequence descriptor" in captured.err


def test_play_budget_exit(tmp_path, capsys):
    g = tmp_path / "g.gr"
    run(capsys, ["generate", "grid", "--rows", "3", "--cols", "3", "-o", str(g)])
    code, _ = run(
        capsys,
        ["play", "--graph", str(g), "--strategy", "minorfree:5",
         "--rseq", "const:1", "--budget", "1", "--json"],
    )
    assert code == 4


def test_solve_then_oracle_pipeline(tmp_path, capsys):
    g = tmp_path / "g.gr"
    run(capsys, ["generate", "grid", "--rows", "3", "--cols", "3", "-o", str(g)])
    code, out = run(
        capsys,
        ["solve", "--problem", "mis", "--graph", str(g),
         "--strategy", "minorfree:5", "--k", "2", "--memo"],
    )
    assert code == 0
    sol = json.loads(out)
    code, out = run(capsys, ["oracle", "--problem", "mis", "--graph", str(g)])
    assert code == 0
    exact = json.loads(out)
    assert 2 * sol["size"] >= exact["size"]
    assert sol["ratio_bound"] == "1/2"


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "command, problem, digest",
    [
        ("solve", "domset", "5bed19d8a6dbf86e9fcaafdde9fdd5d2a33adbfef102d8693c9995581bdf3fbe"),
        ("solve", "mis", "6e0d976ec2e20f777721c93cbc678850041ed7432f40f11fa64135a20e8c3236"),
        ("solve", "ccolorable", "de6f309a6eccdb513a4fa8ebdb5837e52a39f416d0b4957aaa4b60703cc9152a"),
        ("oracle", "domset", "8625a543770c66858ca62218605a263124f2b8e0731593e52d3d3847bc2638d7"),
        ("oracle", "mis", "151e4429df8f44a48a878be8164a137a128be42c189f30857c4c3b314f39e9c9"),
    ],
    ids=lambda v: v[:10],
)
def test_annotated_file_outputs_pinned(tmp_path, capsys, command, problem, digest):
    # minorfree:5 renumbers the 4x5 grid, so solve must carry every
    # annotation set through that permutation and back
    g = gen_grid(4, 5)
    perm = build_strategy("minorfree:5", g)[2]
    assert any(v != w for v, w in perm.items())
    ann = {
        "demand": {v for v in g.vertices if v % 2 == 0},
        "hit:0": {3, 17},
        "hit:1": {8},
        "forbidden": {0, 6, 13},
        "list:1": {v for v in g.vertices if v % 3},
        "list:2": {v for v in g.vertices if v % 4},
    }
    path = tmp_path / "g.gr"
    path.write_text(write_graph(g, ann))
    assert _sha256(path.read_text()) == "870233f9dbfc37571e28f1690c60a8d5bf1cc74bea59e60c661b128396370528"
    argv = [command, "--problem", problem, "--graph", str(path)]
    if command == "solve":
        argv += ["--strategy", "minorfree:5", "--k", "2", "--memo"]
    code, out = run(capsys, argv)
    assert code == 0 and _sha256(out) == digest


@pytest.mark.parametrize("command", ["solve", "oracle"])
@pytest.mark.parametrize(
    "colors, ann, error",
    [
        ("-1", {}, "colors must be at least 1, got -1"),
        ("0", {}, "colors must be at least 1, got 0"),
        ("2", {"list:5": {0, 1}, "list:1": {2}}, "a listed color lies outside 1..2"),
    ],
    ids=["negative", "zero", "listed"],
)
def test_bad_colors_exit(tmp_path, capsys, command, colors, ann, error):
    path = tmp_path / "g.gr"
    path.write_text(write_graph(gen_grid(2, 2), ann))
    argv = [command, "--problem", "ccolorable", "--graph", str(path), "--colors", colors]
    if command == "solve":
        argv += ["--strategy", "minorfree:5", "--k", "2"]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: %s\n" % error


def test_solve_infeasible_exit(tmp_path, capsys):
    g = tmp_path / "g.gr"
    g.write_text("p graph 2 1\ne 0 1\na hit:0\n")
    code, out = run(
        capsys,
        ["solve", "--problem", "domset", "--graph", str(g),
         "--strategy", "chordal:1", "--k", "2"],
    )
    assert code == 2
    assert json.loads(out)["feasible"] is False


def test_solve_budget_exit(tmp_path, capsys):
    g = tmp_path / "g.gr"
    run(capsys, ["generate", "grid", "--rows", "3", "--cols", "3", "-o", str(g)])
    code, out = run(
        capsys,
        ["solve", "--problem", "mis", "--graph", str(g),
         "--strategy", "minorfree:5", "--k", "2", "--max-nodes", "5"],
    )
    assert code == 4
    # the counters reached: the sixth node broke the budget, and the
    # first six nodes are one path of six distinct positions
    report = json.loads(out)
    assert report["error"] == "node budget exhausted"
    assert (report["nodes"], report["positions"]) == (6, 6)


def test_solve_deadline_exit(tmp_path, capsys):
    g = tmp_path / "g.gr"
    run(capsys, ["generate", "grid", "--rows", "3", "--cols", "3", "-o", str(g)])
    code, out = run(
        capsys,
        ["solve", "--problem", "mis", "--graph", str(g),
         "--strategy", "minorfree:5", "--k", "2", "--deadline", "-1"],
    )
    assert code == 4
    # the deadline had passed before the first node, which broke it
    report = json.loads(out)
    assert report["error"] == "time budget exhausted"
    assert (report["nodes"], report["positions"]) == (1, 1)


def test_solve_invalid_solution_exit(tmp_path, capsys, monkeypatch):
    from bakergame import ptas

    g = tmp_path / "g.gr"
    run(capsys, ["generate", "grid", "--rows", "3", "--cols", "3", "-o", str(g)])

    def adjacent(inst, *args, **kwargs):
        return ptas.Solution("mis", True, frozenset(inst.graph.edge_list()[0]))

    monkeypatch.setattr(ptas, "solve_mis", adjacent)
    code = main(
        ["solve", "--problem", "mis", "--graph", str(g),
         "--strategy", "minorfree:5", "--k", "2"]
    )
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert "invalid solution" in captured.err


def test_bad_file_exit(tmp_path, capsys):
    g = tmp_path / "bad.gr"
    g.write_text("e 0 1\n")
    code = main(["play", "--graph", str(g), "--strategy", "edgeless", "--rseq", "const:1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "line 1" in err


def test_bench_small(tmp_path, capsys):
    code, out = run(capsys, ["bench", "--sizes", "9", "--k", "1", "--per-size-budget", "30"])
    assert code == 0
    report = json.loads(out)
    assert report["rows"][0]["n"] == 9
    assert report["rows"][0]["status"] == "ok"


def test_bench_rows(capsys):
    code, out = run(
        capsys, ["bench", "--sizes", "10,15", "--rows", "5", "--k", "2", "--per-size-budget", "60"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["grid_rows"] == 5
    assert [r["n"] for r in report["rows"]] == [10, 15]
    assert all(r["status"] == "ok" for r in report["rows"])
    assert "quadratic_fit" in report
    # a size that the row count does not divide is an input error, caught
    # before any size runs
    code, out = run(capsys, ["bench", "--sizes", "10,12", "--rows", "5"])
    assert code == 1 and out == ""


def test_bench_budget_row_has_counters(capsys):
    # a size that runs out of time reports the counters it reached, as
    # solve's exit-4 report does
    code, out = run(
        capsys, ["bench", "--sizes", "25,100", "--rows", "5", "--per-size-budget", "0"]
    )
    assert code == 4
    row = json.loads(out)["rows"][-1]
    assert row["status"] == "budget_exceeded"
    assert row["nodes"] >= 1 and row["positions"] >= 1


def _fit_rows(law):
    return [{"n": n, "seconds": s} for n, s in law]


def test_quadratic_fit_is_one_sided():
    sizes = (25, 100, 400, 900, 1600)
    assert quadratic_fit(_fit_rows((n, 0.01 * n) for n in sizes))["within_3x"]
    assert quadratic_fit(_fit_rows((n, 1e-4 * n * n) for n in sizes))["within_3x"]
    # measured node counts on 5-row grids at k = 2: the first size is cheap
    strips = ((25, 1971), (100, 170096), (200, 314883), (400, 587915))
    assert quadratic_fit(_fit_rows(strips))["within_3x"]
    assert not quadratic_fit(_fit_rows((n, 1e-6 * n**3) for n in sizes))["within_3x"]
    # measured node counts on square grids of side 3..7 at k = 2
    squares = ((9, 166), (16, 600), (25, 1971), (36, 4799), (49, 15875))
    assert not quadratic_fit(_fit_rows(squares))["within_3x"]


def test_play_json_deep_chordal_bound_is_null(tmp_path, capsys):
    # round_bound takes two frames per chordal degree, so chordal:2000
    # passes Python's recursion limit: the report says null, no traceback
    p = tmp_path / "p.gr"
    run(capsys, ["generate", "grid", "--rows", "1", "--cols", "3", "-o", str(p)])
    argv = ["play", "--graph", str(p), "--strategy", "chordal:2000", "--rseq", "const:1", "--json"]
    code, out = run(capsys, argv)
    report = json.loads(out)
    assert code == 0 and report["outcome"] == "win" and report["round_bound"] is None
