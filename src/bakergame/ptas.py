"""Game-driven approximation solvers with exact baselines.

Each solver follows a strategy move by move.  A Delete splits the
problem into branches on the smallest vertex (chosen or not, or which
colour it takes); a Restrict tries every interval cover of the proposed
layering, solves the slices independently one level deeper, and keeps
the best combination.  Margins make the slice unions legal: demand is
split along mid-margins (which tile the label line), and existential
requirements are confined to core margins, far enough from interval
ends that distinct slices cannot interfere.

The strategy's moves depend only on the game position: its memory, the
round and the live vertices.  The instance being solved plays no part,
and it is the only thing the branches change.  So each search keeps a
table of positions (_Search).  The first node that reaches a position
plays the strategy there once and records the move and the child
positions; every later node at that position reads the record.

One walk serves all three problems.  It keeps the game tree on an
explicit stack, so deep games need no deep Python recursion: a Delete
node is a small frame, a Restrict node a generator.  A node is an
instance and a position id.  What differs between the problems is a
small _Problem record: the cover radius, the instance's memo key, the
delete branches, how a cover slices the instance, how slice answers
combine (a union, or for domset the plan_dp choice of which slice meets
which hit-set) and the check on the combination.  Every node passes up
(size, bag, provenance).

The accumulated loss is one (1 +/- eps_level) factor per Restrict, and
the window schedule makes those products converge to 1 +/- 1/k.
"""

import pickle
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, count, product

from .covers import Cover, margin, occupied_intervals, plan_dp
# apply_restrict stays bound for perfbench/tracer.py; children use _restricted
from .game import DELETE, GameState, LabelTable, _restricted, apply_delete, apply_restrict  # noqa: F401
from .graph import OrderedGraph, bits_of
from .sequences import ScheduleSeq

INFEASIBLE = None
_MISS = object()  # a memo lookup that found nothing


class PtasError(ValueError):
    pass


class OracleError(PtasError):
    pass


class SolverInvariantError(PtasError):
    """A solver answer lacks a property that it must have, such as the
    union of a Restrict's slice answers or an answer that fails
    verify_solution: a fault in the solver, not in its input."""


class BudgetExceededError(RuntimeError):
    """A solve ran out of its node or time budget.  nodes and positions
    are the counts the search had reached."""

    def __init__(self, message, nodes=None, positions=None):
        super().__init__(message)
        self.nodes = nodes
        self.positions = positions


@dataclass(frozen=True)
class DomSetInstance:
    """Minimize |A|: A must dominate every demand vertex (closed
    neighborhoods) and intersect every hit-set."""

    graph: OrderedGraph
    demand: frozenset
    hits: tuple = ()

    def __post_init__(self):
        vs = self.graph.vertex_set
        if not frozenset(self.demand) <= vs:
            raise PtasError("demand outside the graph")
        for h in self.hits:
            if not frozenset(h) <= vs:
                raise PtasError("hit-set outside the graph")

    @staticmethod
    def full(graph):
        return DomSetInstance(graph, graph.vertex_set, ())


@dataclass(frozen=True)
class ISInstance:
    """Maximize |A|: A independent and disjoint from forbidden."""

    graph: OrderedGraph
    forbidden: frozenset = frozenset()

    def __post_init__(self):
        if not frozenset(self.forbidden) <= self.graph.vertex_set:
            raise PtasError("forbidden set outside the graph")

    @staticmethod
    def full(graph):
        return ISInstance(graph, frozenset())


@dataclass(frozen=True)
class ColorInstance:
    """Maximize the vertices of an induced subgraph properly colored
    with one color from each vertex's list."""

    graph: OrderedGraph
    colors: int
    lists: tuple  # tuple of (vertex, frozenset of colors), sorted by vertex

    def __post_init__(self):
        if self.colors < 1:
            raise PtasError("colors must be at least 1, got %d" % self.colors)
        if dict(self.lists).keys() != set(self.graph.vertex_set):
            raise PtasError("lists do not match the vertex set")
        if any(not 1 <= a <= self.colors for _, lst in self.lists for a in lst):
            raise PtasError("a listed color lies outside 1..%d" % self.colors)

    @staticmethod
    def full(graph, c):
        full = frozenset(range(1, c + 1))
        return ColorInstance(graph, c, tuple((v, full) for v in graph.vertices))


def ratio_bound(problem, k):
    """Guaranteed ratio against the optimum: an upper bound factor for
    minimization, a lower bound factor for maximization."""
    if problem == "domset":
        return 1 + Fraction(1, k)
    if problem in ("mis", "ccolorable"):
        return 1 - Fraction(1, k)
    raise PtasError("unknown problem %r" % problem)


@dataclass
class Solution:
    problem: str
    feasible: bool
    vertices: frozenset = frozenset()
    colors: dict | None = None
    provenance: list = field(default_factory=list)

    @property
    def size(self):
        return len(self.vertices)


@dataclass(slots=True)
class _Delete:
    """A position where the strategy deletes lo, the smallest live
    vertex: nbrs is the bitmask of its live neighbours, bit w for
    neighbour w, and child the position after."""

    lo: int
    nbrs: int
    child: int | None


@dataclass(slots=True)
class _Restrict:
    """A position where the strategy restricts: lo is the smallest live
    vertex, then its state, the strategy after the move, the move, the
    label table of its layering, the deduplicated covers as (residue,
    intervals, the problem's masks per interval), the child position
    of each window used so far and the child state of each kept vertex
    set so far, keyed by its bits."""

    lo: int
    state: GameState
    strat: object
    action: object
    table: object
    covers: list
    children: dict = field(default_factory=dict)
    kept: dict = field(default_factory=dict)


class StateIds:
    """Numbers strategy memories for the position table of one search:
    state_id() gives two strategies the same number exactly when their
    memories are equal.  The serial tells cached numbers of different
    tables apart."""

    _serials = count()

    def __init__(self):
        self.serial = next(self._serials)
        self._ids = {}

    def number(self, key):
        return self._ids.setdefault(key, len(self._ids))


class _Search:
    """Per-solve budget and node count, plus the table of game positions.

    A position is the strategy's memory (numbered by the StateIds table
    ids), the round and the live vertices; two nodes share one exactly
    when they differ at most in their instance.  positions[i] is the
    (strategy, state) pair that first reached position i, until a node
    there calls expand, which plays the strategy once and leaves a
    _Delete or _Restrict record in its place.  The game's end has no
    position: its id is None, and the strategy does not observe the
    move that reaches it."""

    __slots__ = ("deadline", "max_nodes", "prob", "nodes", "ids", "positions", "_index")

    def __init__(self, prob, deadline=None, max_nodes=None):
        self.deadline = deadline
        self.max_nodes = max_nodes
        self.prob = prob
        self.nodes = 0
        self.ids = StateIds()
        self.positions = []
        self._index = {}

    def position(self, strat, state):
        """Id of the position strat plays at state, numbered on first
        sight."""
        g = state.graph
        if g.n == 0:
            return None
        key = (strat.state_id(self.ids), state.round, g.vertices[0], g.vertex_bits())
        pid = self._index.get(key)
        if pid is None:
            pid = self._index[key] = len(self.positions)
            self.positions.append((strat, state))
        return pid

    def expand(self, pid):
        """Play the strategy's move at position pid, which no node has
        reached yet, and return its record.  A Delete record keeps
        neither the state nor the strategy, only what the delete
        branches need.  A Restrict record checks its layering once and
        keeps the label table and slice masks that later nodes read."""
        strat, state = self.positions[pid]
        g = state.graph
        lo = g.vertices[0]
        action, strat = strat.next_action(state)
        if action.kind == DELETE:
            ns = apply_delete(state)
            child = self.position(strat.observe(action, None, ns), ns) if ns.graph.n else None
            rec = _Delete(lo, bits_of(g.adj[lo]), child)
        else:
            head, r = state.rseq.head, self.prob.radius
            table = LabelTable(g, action.layering)
            covers = []
            for residue, ivs in _dedup_covers(head, r, table.labels):
                if any([b - a + 1 > head for a, b in ivs]):
                    raise SolverInvariantError("cover window longer than head %d" % head)
                covers.append((residue, ivs, [self.prob.masks(table, iv, r) for iv in ivs]))
            rec = _Restrict(lo, state, strat, action, table, covers)
        self.positions[pid] = rec
        return rec

    def window_child(self, rec, window):
        """Id of the position after the preserver answers the Restrict
        record rec with window.  Windows that keep the same vertices
        share one child state; the strategy observes each window that
        keeps any, since a strategy may read the window itself."""
        child = rec.children.get(window, _MISS)
        if child is _MISS:
            bits = rec.table.bits(*window)
            child = None  # a window that keeps nothing ends the game
            if bits:
                ns = rec.kept.get(bits)
                if ns is None:
                    ns = rec.kept[bits] = _restricted(rec.state, rec.table.vertices(*window))
                child = self.position(rec.strat.observe(rec.action, window, ns), ns)
            rec.children[window] = child
        return child

    def tick(self):
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise BudgetExceededError("node budget exhausted", self.nodes, len(self.positions))
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceededError("time budget exhausted", self.nodes, len(self.positions))


# Solvers pass their choices up the game tree as a bag: None, or a pair
# (item, rest) whose item is one cell (a vertex, or a (vertex, colour)
# pair) or a frozenset of cells.  Choosing one more cell is then O(1),
# and only Restrict nodes, which must check the union of their slices
# anyway, build a frozenset.


def _bag_set(bag):
    out = set()
    while bag is not None:
        item, bag = bag
        if type(item) is frozenset:
            out |= item
        else:
            out.add(item)
    return frozenset(out)


# ---------------------------------------------------------------------------
# cover enumeration shared by the solvers


def _candidate_residues(ell, r, labels):
    """0 and the "move" residues of the (ell, r)-covers of the labels,
    ascending; none when ell <= 2r, which admits no cover.

    Going from residue rho - 1 to rho shifts every interval right by
    one, so an interval trimmed by d = 0, r, 2r or 1 gains or loses a
    label lab only if rho is lab - d + 1 or lab - ell + d + 1 modulo the
    step.  At any other residue the slicing is that of rho - 1.  So the
    smallest residue of each distinct slicing is 0 or a move, and the
    list holds every residue a scan of all ell - 2r covers would keep."""
    step = ell - 2 * r
    if step <= 0:
        return []
    trims = (0, r, 2 * r, 1)
    moves = {(lab - t) % step for lab in labels for d in trims for t in (d - 1, ell - d - 1)}
    return sorted(moves | {0})


def _dedup_covers(ell, r, labels):
    """Yield (residue, intervals) with distinct slicing signatures of the
    sorted distinct labels, smallest residue first: what a scan of every
    residue yields, since each signature first shows at a candidate residue.

    A signature holds, per occupied interval trimmed by d = 0, r, 2r and
    1 (the last matters when r = 0, for interior-keeping slices), the
    range of sorted labels inside; labels own disjoint, non-empty vertex
    sets, so equal ranges mean equal slices."""
    seen = set()
    for residue in _candidate_residues(ell, r, labels):
        intervals = occupied_intervals(Cover(ell, r, residue), labels)
        sig = []
        for lo, hi in intervals:
            for d in (0, r, 2 * r, 1):
                i, j = bisect_left(labels, lo + d), bisect_right(labels, hi - d)
                sig.append((i, j) if i < j else None)
        sig = tuple(sig)
        if sig not in seen:
            seen.add(sig)
            yield residue, intervals


# ---------------------------------------------------------------------------
# the game-tree walk shared by the solvers


@dataclass(frozen=True)
class _Problem:
    """How one problem plays the game, given by functions of the walk's
    instance values (see each problem's section for its form).

    name: the problem, as ScheduleSeq knows it.  maximize: the
    objective's sense.  radius: r of the (ell, r)-covers a
    Restrict tries.  leaf(inst): the answer on the empty graph.
    instance_key(inst, lo): ints naming inst, bits taken relative to lo,
    the smallest live vertex.  delete_branches(inst, v, nbrs): (cell,
    child) pairs for the deletion of v, the smallest live vertex, whose
    live neighbours are the bitmask nbrs, bit w for neighbour w; cell is
    what the branch adds to the bag, None for nothing; a later branch
    wins a tie.  masks(table, interval, r): the interval's bitmasks from
    the layering's LabelTable, made once per cover.  slice(inst,
    intervals, masks): per interval of one cover, the window its slice
    plays and (tag, child) pairs, or INFEASIBLE when the cover cannot
    work.
    combine(inst, tables): one child answer per (window, {tag: answer})
    table, to be united, or INFEASIBLE.  check(inst, g, chosen): raise
    SolverInvariantError unless the united answer is valid."""

    name: str
    maximize: bool
    radius: int
    leaf: object
    instance_key: object
    delete_branches: object
    masks: object
    slice: object
    combine: object
    check: object

    def better(self, a, b):
        return a != b and (a > b) == self.maximize


def _restrict_node(prob, inst, rec, key, memo, search):
    """The walk's frame for a node at a _Restrict position, as a
    generator: it yields (instance, position id) for each slice and is
    sent the slice's answer; it stores its own answer in the memo."""
    state = rec.state
    best = INFEASIBLE
    for residue, intervals, masks in rec.covers:
        plan = prob.slice(inst, intervals, masks)
        if plan is INFEASIBLE:
            continue
        tables = []
        for window, subs in plan:
            table = {}
            for tag, sub in subs:
                if sub is INFEASIBLE:
                    continue
                res = yield sub, search.window_child(rec, window)
                if res is not INFEASIBLE:
                    table[tag] = res
            if not table:  # no slice of this window works: drop the cover
                break
            tables.append((window, table))
        else:
            picked = prob.combine(inst, tables)
            if picked is INFEASIBLE:
                continue
            chosen = frozenset().union(*[_bag_set(res[1]) for res in picked])
            if best is INFEASIBLE or prob.better(len(chosen), best[1]):
                best = (residue, len(chosen), chosen, picked)
    out = INFEASIBLE
    if best is not INFEASIBLE:
        residue, size, chosen, picked = best
        prob.check(inst, state.graph, chosen)
        prov = [{"round": state.round + 1, "ell": state.rseq.head, "residue": residue}]
        for res in picked:
            prov.extend(res[2])
        out = (size, (chosen, None), prov)
    if memo is not None:
        memo[key] = out
    return out


def _walk(prob, inst, pid, memo, search):
    """Answer the game tree below position pid: INFEASIBLE or (size,
    bag, provenance).

    The tree lives on an explicit stack, so deep games need no deep
    Python recursion.  A node at a _Delete position is a list frame
    [memo key, branches, next branch, best answer, child position]; a
    later branch wins a tie.  A node at a _Restrict position is a
    _restrict_node generator.  Each node ticks the budget on entry, and
    its answer goes into the memo once its last child has answered."""
    positions = search.positions
    better = prob.better
    stack = []
    while True:
        search.tick()
        if pid is None:
            res = prob.leaf(inst)
        else:
            rec = positions[pid]
            if type(rec) is tuple:
                rec = search.expand(pid)
            key = memo is not None and pickle.dumps((pid, prob.instance_key(inst, rec.lo)))
            res = memo.get(key, _MISS) if key else _MISS
            if res is _MISS:
                if type(rec) is _Delete:
                    branches = prob.delete_branches(inst, rec.lo, rec.nbrs)
                    stack.append([key, branches, 0, INFEASIBLE, rec.child])
                else:
                    stack.append(_restrict_node(prob, inst, rec, key, memo, search))
                res = None  # a new frame is first sent None, which is INFEASIBLE
        # pass res up the stack until a frame has another child to enter
        while stack:
            frame = stack[-1]
            if type(frame) is list:
                key, branches, i, best, child = frame
                if res is not INFEASIBLE:
                    cell = branches[i - 1][0]
                    if cell is not None:
                        res = (res[0] + 1, (cell, res[1]), res[2])
                    if best is INFEASIBLE or not better(best[0], res[0]):
                        frame[3] = res
                if i < len(branches):
                    frame[2] = i + 1
                    inst, pid = branches[i][1], child
                    break
                stack.pop()
                res = frame[3]
                if memo is not None:
                    memo[key] = res
            else:
                try:
                    inst, pid = frame.send(res)
                except StopIteration as done:
                    stack.pop()
                    res = done.value
                else:
                    break
        else:
            return res


def _empty(inst):
    return (0, None, [])


def _union(inst, tables):
    return [table[None] for _, table in tables]


# ---------------------------------------------------------------------------
# dominating set: the walk's instance is a pair (demand, hits) of the
# demand bitmask and the tuple of hit-set bitmasks, bit v for vertex v


def slice_domset(demand, masks, assigned_hits):
    """Restrict demand bits to one cover interval, whose _dom_masks are
    (core, mid): demand shrinks to the mid-margin, and each hit-set
    (bits) assigned to it must be met inside the core margin.  The
    slice's (demand, hits) bit pair, or INFEASIBLE."""
    core, mid = masks
    hits = tuple(h & core for h in assigned_hits)
    if not all(hits):
        return INFEASIBLE
    return demand & mid, hits


def _dom_masks(table, interval, r):
    return table.bits(*margin(interval, 2 * r)), table.bits(*margin(interval, r))


def _dom_leaf(inst):
    return INFEASIBLE if inst[1] else _empty(inst)


def _dom_key(inst, lo):
    demand, hits = inst
    # equal hit-sets collapse, as they would in a frozenset
    return demand >> lo, tuple(sorted({h >> lo for h in hits}))


def _dom_branches(inst, v, nbrs):
    """v is chosen, or not: then a demanded v needs a chosen
    neighbour, which becomes one more hit-set."""
    demand, hits = inst
    bit = 1 << v
    out = [(v, (demand & ~(nbrs | bit), tuple(x for x in hits if not x & bit)))]
    hits_b = [x & ~bit for x in hits]
    if demand & bit:
        hits_b.append(nbrs)
    if all(hits_b):
        out.append((None, (demand & ~bit, tuple(hits_b))))
    return out


def _dom_slices(inst, intervals, masks):
    """Every hit-set goes to one interval whose core it meets; each
    interval is tried with every subset of the hit-sets it can host."""
    avail = [[i for i, (core, _) in enumerate(masks) if h & core] for h in inst[1]]
    if not all(avail):
        return INFEASIBLE
    return [(iv, _dom_tables(inst, masks[i], i, avail)) for i, iv in enumerate(intervals)]


def _dom_tables(inst, masks, i, avail):
    """0/1 tuples over the hit-sets, j being 1 only if interval i can
    host hit-set j, each with its slice's (demand, hits) pair."""
    demand, hits = inst
    for tup in product(*[(0, 1) if i in opts else (0,) for opts in avail]):
        yield tup, slice_domset(demand, masks, [h for h, b in zip(hits, tup) if b])


def _dom_combine(inst, tables):
    """The cheapest plan that puts every hit-set in exactly one slice."""
    plan = plan_dp(
        [(iv, {tup: res[0] for tup, res in table.items()}) for iv, table in tables],
        (1,) * len(inst[1]),
        "min",
    )
    if plan is INFEASIBLE:
        return INFEASIBLE
    assignment, _total = plan
    return [table[assignment[iv]] for iv, table in tables]


def _dom_check(inst, g, chosen):
    for x in g.vertices:
        if inst[0] >> x & 1 and x not in chosen and not g.adj[x] & chosen:
            raise SolverInvariantError("combined slices fail to dominate vertex %d" % x)


_DOMSET = _Problem(
    "domset", False, 1, _dom_leaf, _dom_key, _dom_branches,
    _dom_masks, _dom_slices, _dom_combine, _dom_check,
)


# ---------------------------------------------------------------------------
# independent set: the walk's instance is the forbidden set as a bitmask,
# bit v for vertex v


def slice_mis(forbidden, masks):
    """Forbidden bitmask of the slice on an interval, whose _mis_masks
    are (keep, outside the core margin): outside vertices are forbidden
    too, so the independent sets of distinct slices are not adjacent."""
    keep, outside = masks
    return (forbidden | outside) & keep


def _mis_masks(table, interval, r):
    keep = table.bits(*interval)
    return keep, keep & ~table.bits(*margin(interval, 2 * r))


def _mis_branches(forbidden, v, nbrs):
    skip = (None, forbidden & ~(1 << v))
    if forbidden >> v & 1:
        return [skip]
    # every neighbour of the smallest vertex survives its deletion
    return [(v, forbidden | nbrs), skip]


def _mis_slices(forbidden, intervals, masks):
    return [(iv, [(None, slice_mis(forbidden, m))]) for iv, m in zip(intervals, masks)]


def _mis_check(forbidden, g, chosen):
    for u in chosen:
        if forbidden >> u & 1:
            raise SolverInvariantError("combined slices choose forbidden vertex %d" % u)
        if g.adj[u] & chosen:
            raise SolverInvariantError("combined slices are not independent")


_MIS = _Problem(
    "mis", True, 1, _empty, lambda f, lo: f >> lo, _mis_branches,
    _mis_masks, _mis_slices, _union, _mis_check,
)


# ---------------------------------------------------------------------------
# induced c-colorable subgraph: the walk's instance is a tuple of
# (colour, bitmask of the vertices whose list holds it), and bag cells
# are (vertex, colour) pairs


def slice_ccolorable(lists, interior):
    """Keep the interval's interior, its _col_masks: one label trimmed
    from both ends, so unions over a non-overlapping cover stay apart."""
    return tuple((a, m & interior) for a, m in lists)


def _col_masks(table, interval, r):
    return table.bits(*margin(interval, 1))


def _col_key(lists, lo):
    return tuple([m >> lo for _, m in lists])


def _col_branches(lists, v, nbrs):
    """v is skipped or takes a colour a, which then leaves its
    neighbours' lists.  Colours that occur on the same other vertices
    are interchangeable, so only the smallest of them is tried; smaller
    colours come later, so that they win ties."""
    rest = tuple([(a, m & ~(1 << v)) for a, m in lists])
    seen = set()
    coloured = []
    for i, ((a, m), (_, occ)) in enumerate(zip(lists, rest)):
        if m >> v & 1 and occ not in seen:
            seen.add(occ)
            coloured.append(((v, a), rest[:i] + ((a, occ & ~nbrs),) + rest[i + 1 :]))
    return [(None, rest)] + coloured[::-1]


def _col_slices(lists, intervals, masks):
    out = []
    for iv, interior in zip(intervals, masks):
        inner = margin(iv, 1)
        if inner[0] <= inner[1]:
            out.append((inner, [(None, slice_ccolorable(lists, interior))]))
    return out


def _col_check(lists, g, chosen):
    colour = dict(chosen)
    allowed = dict(lists)
    if len(colour) != len(chosen):
        raise SolverInvariantError("combined slices colour a vertex twice")
    for u, a in colour.items():
        if not allowed[a] >> u & 1:
            raise SolverInvariantError("vertex %d coloured off its list" % u)
        if any(colour.get(w) == a for w in g.adj[u]):
            raise SolverInvariantError("combined slices collide on an edge")


_COLORABLE = _Problem(
    "ccolorable", True, 0, _empty, _col_key, _col_branches,
    _col_masks, _col_slices, _union, _col_check,
)


# ---------------------------------------------------------------------------
# public solver entry points


def _solve(prob, graph, inst, strategy, k, memo, deadline_seconds, max_nodes):
    dl = None if deadline_seconds is None else time.monotonic() + deadline_seconds
    search = _Search(prob, dl, max_nodes)
    pid = search.position(strategy, GameState(graph, ScheduleSeq(prob.name, k)))
    return _walk(prob, inst, pid, {} if memo else None, search)


def solve_domset(inst, strategy, k, memo=False, deadline_seconds=None, max_nodes=None):
    pair = (bits_of(inst.demand), tuple(bits_of(h) for h in inst.hits))
    res = _solve(_DOMSET, inst.graph, pair, strategy, k, memo, deadline_seconds, max_nodes)
    if res is INFEASIBLE:
        return Solution("domset", False)
    return Solution("domset", True, _bag_set(res[1]), None, res[2])


def solve_mis(inst, strategy, k, memo=False, deadline_seconds=None, max_nodes=None):
    forbidden = bits_of(inst.forbidden)
    res = _solve(_MIS, inst.graph, forbidden, strategy, k, memo, deadline_seconds, max_nodes)
    return Solution("mis", True, _bag_set(res[1]), None, res[2])


def solve_ccolorable(inst, strategy, k, memo=False, deadline_seconds=None, max_nodes=None):
    lists = dict(inst.lists)
    palette = sorted(frozenset().union(*lists.values()))
    masks = tuple((a, bits_of([v for v in lists if a in lists[v]])) for a in palette)
    res = _solve(_COLORABLE, inst.graph, masks, strategy, k, memo, deadline_seconds, max_nodes)
    colours = dict(sorted(_bag_set(res[1])))
    return Solution("ccolorable", True, frozenset(colours), colours, res[2])


def verify_solution(problem, inst, solution):
    """Polynomial feasibility check; never trusts the solver."""
    g = inst.graph
    if not solution.feasible:
        return problem == "domset"
    if not solution.vertices <= g.vertex_set:
        return False
    if problem == "domset":
        for x in inst.demand:
            if x not in solution.vertices and not (g.adj[x] & solution.vertices):
                return False
        for h in inst.hits:
            if not (frozenset(h) & solution.vertices):
                return False
        return True
    if problem == "mis":
        if solution.vertices & inst.forbidden:
            return False
        for u in solution.vertices:
            if g.adj[u] & solution.vertices:
                return False
        return True
    if problem == "ccolorable":
        col = solution.colors or {}
        if frozenset(col) != solution.vertices:
            return False
        lists = dict(inst.lists)
        for u, a in col.items():
            if a not in lists[u]:
                return False
            for w in g.adj[u]:
                if col.get(w) == a:
                    return False
        return True
    raise PtasError("unknown problem %r" % problem)


# ---------------------------------------------------------------------------
# exact baselines (small inputs only)


def oracle_domset(inst, cap=25):
    """Exact minimum size, or INFEASIBLE.  Branches over the smallest
    unmet requirement, which is complete for hitting-set search."""
    g = inst.graph
    if g.n > cap:
        raise OracleError("baseline limited to %d vertices" % cap)
    constraints = [frozenset([x]) | g.adj[x] for x in sorted(inst.demand)]
    constraints += [frozenset(h) for h in inst.hits]
    if any(not c for c in constraints):
        return INFEASIBLE
    best = [None]

    def go(chosen, cons):
        if not cons:
            if best[0] is None or len(chosen) < len(best[0]):
                best[0] = frozenset(chosen)
            return
        if best[0] is not None and len(chosen) + 1 >= len(best[0]):
            return
        c = min(cons, key=lambda s: (len(s), sorted(s)))
        for v in sorted(c):
            chosen.append(v)
            go(chosen, [s for s in cons if v not in s])
            chosen.pop()

    go([], constraints)
    if best[0] is None:
        return INFEASIBLE
    return best[0]


def oracle_mis(inst, cap=25):
    """Exact maximum independent set avoiding the forbidden vertices."""
    g = inst.graph
    if g.n > cap:
        raise OracleError("baseline limited to %d vertices" % cap)
    allowed = frozenset(g.vertex_set - inst.forbidden)
    best = [frozenset()]

    def go(chosen, remaining):
        if len(chosen) + len(remaining) <= len(best[0]):
            return
        if not remaining:
            if len(chosen) > len(best[0]):
                best[0] = frozenset(chosen)
            return
        v = max(sorted(remaining), key=lambda u: len(g.adj[u] & remaining))
        go(chosen | {v}, remaining - g.adj[v] - {v})
        go(chosen, remaining - {v})

    go(frozenset(), allowed)
    return best[0]


def _list_colorable(g, vs, lists):
    order = sorted(vs, key=lambda v: -len(g.adj[v] & vs))
    assignment = {}

    def go(i):
        if i == len(order):
            return True
        v = order[i]
        for a in sorted(lists[v]):
            if any(assignment.get(w) == a for w in g.adj[v]):
                continue
            assignment[v] = a
            if go(i + 1):
                return True
            del assignment[v]
        return False

    if go(0):
        return dict(assignment)
    return None


def oracle_ccolorable(inst, cap=15):
    """Exact largest induced subgraph colorable from the lists."""
    g = inst.graph
    if g.n > cap:
        raise OracleError("baseline limited to %d vertices" % cap)
    lists = dict(inst.lists)
    vs = list(g.vertices)
    for size in range(g.n, -1, -1):
        for combo in combinations(vs, size):
            sub = frozenset(combo)
            col = _list_colorable(g.induced(sub), sub, lists)
            if col is not None:
                return sub, col
    return frozenset(), {}
