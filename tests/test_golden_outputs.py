"""Solver outputs pinned as digests.

tests/golden_outputs.json holds, per case, the sha256 of one solve's
feasibility, vertices, colours and provenance.  A change meant to keep
outputs the same must leave every digest as it is.  The cases cover
3-trees under chordal:3, grids under minorfree:5 and apex grid 3 under
minorfree:6, the three problems at k = 2 and 3, each on the full
instance and on gen_random_instance seed 0, with the memo on.

Regenerate (only for a change that is meant to alter outputs, and say
why in CHANGES.md) with:

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import hashlib
import json
import os

from bakergame import ptas
from bakergame.generators import gen_apex_grid, gen_grid, gen_ktree, gen_random_instance
from bakergame.strategies import build_strategy

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_outputs.json")

_SOLVERS = {
    "mis": (ptas.solve_mis, ptas.ISInstance.full),
    "domset": (ptas.solve_domset, ptas.DomSetInstance.full),
    "ccolorable": (ptas.solve_ccolorable, lambda g: ptas.ColorInstance.full(g, 2)),
}


def _graphs():
    for n in (8, 12, 16, 20):
        yield "ktree%d" % n, gen_ktree(n, 3, seed=1), "chordal:3"
    for side in (3, 4, 5):
        yield "grid%dx%d" % (side, side), gen_grid(side, side), "minorfree:5"
    yield "apex3", gen_apex_grid(3), "minorfree:6"


def _digest(sol):
    colors = None if sol.colors is None else sorted(sol.colors.items())
    text = json.dumps(
        [sol.feasible, sorted(sol.vertices), colors, sol.provenance], sort_keys=True
    )
    return hashlib.sha256(text.encode()).hexdigest()


def digests():
    out = {}
    for name, g, desc in _graphs():
        g2, st, _ = build_strategy(desc, g)
        for problem, (solve, full) in _SOLVERS.items():
            insts = (("full", full(g2)), ("random0", gen_random_instance(problem, g2, seed=0)))
            for k in (2, 3):
                for label, inst in insts:
                    sol = solve(inst, st, k, memo=True)
                    out["%s/%s/k%d/%s" % (name, problem, k, label)] = _digest(sol)
    return out


def test_solver_outputs_match_the_golden_digests():
    with open(GOLDEN) as f:
        golden = json.load(f)
    assert digests() == golden


if __name__ == "__main__":
    with open(GOLDEN, "w") as f:
        json.dump(digests(), f, indent=1, sort_keys=True)
        f.write("\n")
