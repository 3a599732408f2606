"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

1. Runs every workload at its smallest size, untraced once and traced
   twice, and asserts that every end-to-end metric is printed by name
   with its unit, that the JSON result matches BENCHMARK.json, that
   every per-layer ``.calls`` count repeats exactly across the two
   traced runs, and that the workload reaches the layers it exists for.
2. Feeds the checker known-bad outputs and asserts that each call is
   counted as failed, so the checks are not vacuous.
3. Runs the benchmark in a directory that holds only BENCHMARK.json and
   the benchmark's files, and asserts that it fails without a result.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

# The eight end-to-end metrics of the printed report, with their units.
SUMMARY_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "call_s.p50": "s",
    "call_s.tail": "s",
    "quality.gap": "ratio",
    "game.rounds": "rounds",
    "fail_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# Layers each workload must reach, so a wrapper that stops matching
# the library shows up as a zero count.
REACHED = {
    "solve-grid": ("ptas.solve", "strategies.fork", "ptas.memo_key", "covers.plan_dp"),
    "solve-ktree": ("ptas.solve", "ptas.dedup_covers", "covers.occupied_intervals"),
    "referee": ("game.minimax_rounds", "game.play", "game.legal_replies", "graph.bfs_distances"),
}


def bench(*args, cwd=run.ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "1", "--seed", "3", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc, spec_metrics):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, lines
    want = {m["name"]: m["unit"] for m in spec_metrics}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == want, (sorted(set(got) ^ set(want)), got)
    return lines, res


def check_workloads(spec):
    for name in workloads.WORKLOADS:
        proc = bench("--workload", name, "--trace", "0", "--tiny")
        lines, _ = result_of(proc, spec["end_to_end"])
        printed = {}
        for line in lines[:-1]:
            m = re.match(r"(\S+)\s+(\S+)\s+(\S+)", line)
            if m:
                printed[m.group(1)] = m.group(3)
        for metric, unit in SUMMARY_UNITS.items():
            assert printed.get(metric) == unit, "%s: %s not printed in %s" % (name, metric, unit)
        counts = []
        for _ in range(2):
            proc = bench("--workload", name, "--trace", "1", "--tiny")
            _, res = result_of(proc, spec["per_layer"])
            metrics = res["metrics"].items()
            counts.append({k: v["value"] for k, v in metrics if k.endswith(".calls")})
        assert counts[0] == counts[1], "%s: call counts differ between traced runs" % name
        for layer in REACHED[name]:
            assert counts[0][layer + ".calls"] > 0, "%s: no calls into %s" % (name, layer)
        print("ok   %s: metrics printed with units, call counts repeat" % name)


def check_bad_outputs():
    bg = run.load_library(run.ROOT)
    g = bg.gen_grid(2, 3)
    inst = bg.ISInstance.full(g)
    strat = bg.build_strategy("minorfree:5", g)[1]
    adjacent = frozenset({0, 1})
    cases = {
        "adjacent vertices as an independent set": bg.Solution("mis", True, adjacent),
        "feasible but below the guarantee": bg.Solution("mis", True, frozenset()),
    }
    for reason, bad in cases.items():
        call = workloads.solve_call(bg, reason, "mis", inst, strat, 2, workloads.grid_mis(2, 3))
        call.run = lambda bad=bad: bad
        record = run.Record()
        record.run_pass([call])
        assert record.attempted == 1 and len(record.failures) == 1, (reason, record.failures)
    print("ok   known-bad outputs are counted as failed")


def check_without_sources(spec_path):
    run.OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=run.OUT_DIR))
    try:
        shutil.copy(spec_path, tmp / "BENCHMARK.json")
        skip = shutil.ignore_patterns("out", "__pycache__")
        shutil.copytree(HERE, tmp / "perfbench", ignore=skip)
        proc = bench("--workload", "solve-grid", "--trace", "0", cwd=tmp)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(tmp)
    print("ok   without sources: exit %d, no result" % proc.returncode)


def main():
    spec_path = run.ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    check_bad_outputs()
    check_without_sources(spec_path)
    check_workloads(spec)
    print("self-test passed")


if __name__ == "__main__":
    main()
