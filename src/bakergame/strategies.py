"""Winning strategies for the deleting side, built compositionally.

Each strategy is a small state machine: next_action(state) proposes a
move, observe(action, reply, new_state) advances the private memory
once the referee has resolved it, and fork() duplicates the memory so
adversarial search and branching solvers can explore replies
independently.

Forking costs O(1).  Graphs, sequences, partitions and layerings are
never mutated, and a strategy's own memory lives in attributes that are
rebound rather than changed in place, so a fork shares all of them.
The sub-strategies a composite drives are shared copy-on-write: a fork
marks them shared, and whichever side next moves one forks it first, so
a move copies only the strategies it advances.  state_id() numbers a
strategy's memory within a StateIds table (equal numbers exactly for
equal memory) and caches the number until the strategy moves; solvers
and minimax key their memos on it.

The composite strategies mimic an inner game: the clique-sum strategy
simulates play on its base, the quotient strategy simulates play on
the contracted graph and translates contracted moves into a Restrict
plus a burst of padding Deletes.  Round bounds for each composition
are computed from descriptors by round_bound.  build_strategy reads
descriptor text only through parse_descriptor and builds from the
descriptor it returns; every strategy reports that descriptor.
"""

import math
import pickle
from collections import deque
from dataclasses import dataclass
from functools import partial

from .game import Action, GameState, DELETE, apply_delete, apply_restrict
from .graph import (
    GeodesicPartition,
    GraphError,
    OrderedGraph,
    check_chordal_ordering,
    check_geodesic_partition,
    extend_geodesic_layering,
    quotient,
    spread_componentwise_layering,
    bfs_layering,
    validate_embedding,
)
from .sequences import PairedSeq, SequenceError, ThinnedSeq


class StrategyError(RuntimeError):
    pass


class DestroyerStrategy:
    """Base class.  Subclasses rebind their memory attributes instead of
    mutating them, name in SUBS the attributes holding sub-strategies,
    and move a sub-strategy only through _own.  Every next_action and
    observe starts by dropping the cached state number (_sid = None).
    config() returns what stays fixed for the object's lifetime (it is
    pickled once) and state(ids) a hashable value of the rest, with
    sub-strategies given by their state_id."""

    descriptor = None
    SUBS = ()
    _shared = False
    _sid = None
    _config_key = None

    def next_action(self, state):
        raise NotImplementedError

    def observe(self, action, reply, new_state):
        pass

    def fork(self):
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone._shared = False
        for name in self.SUBS:
            sub = getattr(self, name)
            if sub is not None:
                sub._shared = True
        return clone

    def _own(self, name):
        """The sub-strategy held in attribute name, forked first if it is
        shared, so that moving it cannot disturb another holder."""
        sub = getattr(self, name)
        if sub._shared:
            sub = sub.fork()
            setattr(self, name, sub)
        return sub

    def config(self):
        return ()

    def state(self, ids):
        raise NotImplementedError

    def state_id(self, ids):
        """Number of this strategy's memory in the StateIds table ids."""
        cached = self._sid
        if cached is not None and cached[0] == ids.serial:
            return cached[1]
        if self._config_key is None:
            self._config_key = pickle.dumps(self.config())
        sid = ids.number((type(self), self._config_key, self.state(ids)))
        self._sid = (ids.serial, sid)
        return sid


def _sub_id(sub, ids):
    return None if sub is None else sub.state_id(ids)


def _seq_key(seq):
    return None if seq is None else seq.key()


def _action_key(a):
    return (a.kind, None if a.layering is None else frozenset(a.layering.items()))


def _pending_key(pending):
    if isinstance(pending, Action):
        return _action_key(pending)
    if pending is None:
        return None
    return tuple(_action_key(x) if isinstance(x, Action) else x for x in pending)


# ---------------------------------------------------------------------------
# descriptors and round bounds


@dataclass(frozen=True)
class EdgelessD:
    pass


@dataclass(frozen=True)
class ChordalD:
    d: int


@dataclass(frozen=True)
class ChainD:
    """k consecutive layers, each inducing a chordal piece of
    left-degree <= d, glued bottom-up along cliques."""

    d: int
    k: int


@dataclass(frozen=True)
class CliqueSumD:
    base: object
    leaf: object


@dataclass(frozen=True)
class QuotientD:
    inner: object
    d: int


@dataclass(frozen=True)
class DistortionD:
    dim: int
    beta: float


@dataclass(frozen=True)
class SubgraphD:
    host: object


@dataclass(frozen=True)
class MinorFreeD:
    """No K_k minor: a quotient over a width-(k-2) geodesic partition
    whose quotient graph is chordal of left-degree <= k-2, built by
    chordal_geodesic_partition on a reordered graph."""

    k: int

    @property
    def d(self):
        return self.k - 2


def _sat(v, cap):
    return v if cap is None else min(v, cap + 1)


def _rb(desc, r, cap):
    if isinstance(desc, EdgelessD):
        return 2
    if isinstance(desc, ChordalD):
        if desc.d <= 0:
            return 2
        k = r.at(2)
        if cap is not None and k > cap:
            return cap + 1
        return _sat(_rb(ChainD(desc.d - 1, k), r.tail(2), cap) + 2, cap)
    if isinstance(desc, ChainD):
        if desc.k <= 1:
            return _rb(ChordalD(desc.d), r, cap)
        t1 = _rb(ChainD(desc.d, desc.k - 1), PairedSeq(r), cap)
        if cap is not None and t1 > cap:
            return cap + 1
        t2 = _rb(ChordalD(desc.d), r.tail(2 * t1 + 1), cap)
        return _sat(2 * t1 + t2 + 1, cap)
    if isinstance(desc, CliqueSumD):
        t1 = _rb(desc.base, PairedSeq(r), cap)
        if cap is not None and t1 > cap:
            return cap + 1
        t2 = _rb(desc.leaf, r.tail(2 * t1 + 1), cap)
        return _sat(2 * t1 + t2 + 1, cap)
    if isinstance(desc, QuotientD):
        th = ThinnedSeq(r, desc.d)
        m = _rb(desc.inner, th, cap)
        if cap is not None and m > cap:
            return cap + 1
        return _sat(th.index(m), cap)
    if isinstance(desc, DistortionD):
        prod = 1
        for i in range(1, desc.dim + 1):
            prod *= desc.beta * r.at(i) + 1
        return desc.dim + math.floor(prod)
    if isinstance(desc, SubgraphD):
        return _rb(desc.host, r, cap)
    if isinstance(desc, MinorFreeD):
        return _rb(QuotientD(ChordalD(desc.d), desc.d), r, cap)
    raise StrategyError("unknown descriptor %r" % (desc,))


def round_bound(desc, rseq, cap=None):
    """Rounds within which the described strategy wins, at worst.

    With cap given, any value above cap is reported as cap + 1 and the
    computation short-circuits, which also keeps sequence queries from
    diverging on fast-growing schedules.
    """
    try:
        return _rb(desc, rseq, cap)
    except (SequenceError, OverflowError):
        if cap is None:
            raise
        return cap + 1


# ---------------------------------------------------------------------------
# elementary strategies


class EdgelessStrategy(DestroyerStrategy):
    """Restrict once with labels spaced head apart (at most one vertex
    per reply window), then delete."""

    descriptor = EdgelessD()

    def __init__(self):
        self.phase = "restrict"

    def state(self, ids):
        return self.phase

    def next_action(self, state):
        self._sid = None
        if self.phase == "restrict":
            if state.graph.m:
                raise StrategyError("graph has edges")
            if state.graph.n <= 1:
                # nothing to separate
                self.phase = "delete"
                return Action.delete()
            try:
                h = state.rseq.head
            except SequenceError:
                # the window dwarfs any label spacing we could write down
                self.phase = "delete"
                return Action.delete()
            lam = {v: (i + 1) * h for i, v in enumerate(state.graph.vertices)}
            return Action.restrict(lam)
        return Action.delete()

    def observe(self, action, reply, new_state):
        self._sid = None
        if action.kind != DELETE:
            self.phase = "delete"


def _make_chain(layers, d):
    """Strategy for a graph split into consecutive layers, each layer
    inducing a chordal piece of left-degree <= d-1, with every lower
    prefix acting as a clique-sum base for the components above it."""
    layers = [frozenset(p) for p in layers if p]
    leaf = ChordalD(d - 1)
    if len(layers) <= 1:
        return _build(leaf)
    return CliqueSumStrategy(
        base=frozenset().union(*layers[:-1]),
        inner=_make_chain(layers[:-1], d),
        leaf_factory=partial(_build, leaf),
        descriptor=CliqueSumD(ChainD(d - 1, len(layers) - 1), leaf),
    )


class ChordalStrategy(DestroyerStrategy):
    """For chordal ordered graphs of left-degree <= d: isolate one
    component, restrict to few levels of a breadth-first layering, then
    peel the surviving levels as a chain of clique-sums over pieces of
    left-degree <= d-1."""

    SUBS = ("delegate",)

    def __init__(self, d):
        if d < 1:
            raise StrategyError("d = %d: use EdgelessStrategy for d <= 0" % d)
        self.d = d
        self.descriptor = ChordalD(d)
        self.phase = "spread"
        self.bfs_lam = None
        self.bfs_key = None  # bfs_lam as a frozenset of items, for state()
        self.delegate = None
        self.checked = False

    def config(self):
        return (self.d, self.descriptor)

    def state(self, ids):
        return (self.phase, self.checked, self.bfs_key, _sub_id(self.delegate, ids))

    def next_action(self, state):
        self._sid = None
        if self.delegate is not None:
            return self._own("delegate").next_action(state)
        g = state.graph
        if not self.checked:
            ok, ld = check_chordal_ordering(g)
            if not ok:
                raise StrategyError("ordering is not chordal")
            if ld > self.d:
                raise StrategyError("left-degree %d exceeds %d" % (ld, self.d))
            self.checked = True
        if self.phase == "spread":
            if g.is_connected():
                # the spread Restrict could not separate anything
                self.phase = "bfs"
            else:
                lam = spread_componentwise_layering(g, state.rseq.head)
                return Action.restrict(lam)
        # one component remains, so g is connected
        lam = bfs_layering(g, g.smallest())
        span = max(lam.values()) - min(lam.values()) + 1
        try:
            fits = span <= state.rseq.head
        except SequenceError:
            fits = True
        if fits:
            # every level already fits one window, peel them directly
            labels = sorted(set(lam.values()))
            layers = [
                frozenset(v for v in g.vertices if lam[v] == lab) for lab in labels
            ]
            self.delegate = _make_chain(layers, self.d)
            return self.delegate.next_action(state)
        self.bfs_lam = lam
        self.bfs_key = frozenset(lam.items())
        return Action.restrict(lam)

    def observe(self, action, reply, new_state):
        self._sid = None
        if self.delegate is not None:
            self._own("delegate").observe(action, reply, new_state)
            return
        if self.phase == "spread":
            self.phase = "bfs"
            return
        live = new_state.graph.vertex_set
        labels = sorted({self.bfs_lam[v] for v in live})
        layers = [
            frozenset(v for v in live if self.bfs_lam[v] == lab) for lab in labels
        ]
        self.delegate = _make_chain(layers, self.d)


class CliqueSumStrategy(DestroyerStrategy):
    """For graphs glued from a base class along cliques: alternate a
    componentwise Restrict with one simulated move on the base.  When
    the surviving component misses the base entirely, hand over to a
    fresh leaf strategy for the attached piece.  All strategies here
    read the sequence from the state, so no alignment padding is
    needed before the handover.  descriptor is the CliqueSumD that
    inner (its base) and leaf_factory() (its leaf) play."""

    SUBS = ("inner", "leaf")

    def __init__(self, base, inner, leaf_factory, descriptor):
        self.base = frozenset(base)
        self.inner = inner
        self.leaf_factory = leaf_factory
        self.descriptor = descriptor
        self.sim_rseq = None
        self.j = 0
        self.phase = "spread"
        self.pending = None
        self.leaf = None
        self.exhausted = False

    def config(self):
        return (self.leaf_factory, self.descriptor)

    def state(self, ids):
        return (
            self.base,
            _seq_key(self.sim_rseq),
            self.j,
            self.phase,
            _pending_key(self.pending),
            self.exhausted,
            _sub_id(self.inner, ids),
            _sub_id(self.leaf, ids),
        )

    def next_action(self, state):
        self._sid = None
        if self.exhausted:
            return Action.delete()
        if self.leaf is not None:
            return self._own("leaf").next_action(state)
        if self.sim_rseq is None:
            self.sim_rseq = PairedSeq(state.rseq)
        g = state.graph
        bp = self.base & g.vertex_set
        if not bp:
            self.leaf = self.leaf_factory()
            return self.leaf.next_action(state)
        try:
            if self.phase == "spread":
                if g.is_connected():
                    # nothing to separate, go straight to the simulation
                    self.phase = "mimic"
                else:
                    lam = spread_componentwise_layering(g, state.rseq.head)
                    self.pending = ("spread", None)
                    return Action.restrict(lam)
            sim_state = GameState(g.induced(bp), self.sim_rseq.tail(self.j), self.j)
            a = self._own("inner").next_action(sim_state)
        except SequenceError:
            # the simulated windows grew past anything computable;
            # plain deletions still finish the game
            self.exhausted = True
            return Action.delete()
        if a.kind == DELETE:
            if g.smallest() != min(bp):
                raise StrategyError("smallest vertex lies outside the base")
            self.pending = ("inner-delete", a)
            return Action.delete()
        lam_star = a.layering
        lam = dict(lam_star)
        for comp in g.induced(g.vertex_set - bp).components():
            anchors = sorted(z for z in bp if g.adj[z] & comp)
            if not anchors:
                raise StrategyError("component not attached to the base")
            for v in comp:
                lam[v] = lam_star[anchors[0]]
        self.pending = ("inner-restrict", a)
        return Action.restrict(lam)

    def observe(self, action, reply, new_state):
        self._sid = None
        if self.exhausted:
            return
        if self.leaf is not None:
            self._own("leaf").observe(action, reply, new_state)
            return
        tag, inner_action = self.pending if self.pending else (None, None)
        self.pending = None
        if tag == "spread":
            self.phase = "mimic"
            return
        live = new_state.graph.vertex_set
        self.j += 1
        sim_new = GameState(
            new_state.graph.induced(self.base & live), self.sim_rseq.tail(self.j), self.j
        )
        inner_reply = None if tag == "inner-delete" else reply
        try:
            self._own("inner").observe(inner_action, inner_reply, sim_new)
        except SequenceError:
            self.exhausted = True
        self.base &= live
        self.phase = "spread"


class QuotientStrategy(DestroyerStrategy):
    """Plays on a graph carrying a width-d geodesic partition by
    simulating a game on the quotient.  A contracted Restrict lifts
    through the partition; a contracted Delete of the first part turns
    into a Restrict on the extension of that part's stored layering.
    Either way a burst of d * head padding Deletes keeps the real
    sequence aligned with the thinned one the simulation reads.
    descriptor is a QuotientD or MinorFreeD; its d is the width."""

    SUBS = ("inner",)

    def __init__(self, inner, gp, descriptor):
        self.inner = inner
        self.gp = gp
        self.d = descriptor.d
        self.descriptor = descriptor
        self.part_of = {v: i for i, p in enumerate(gp.parts) for v in p}
        self.h = gp.quotient_graph
        self.sim_rseq = None
        self.j = 0
        self.padding = 0
        self.pending = None
        self.exhausted = False

    def config(self):
        # part_of is derived from gp, d from descriptor
        return (self.gp, self.descriptor)

    def state(self, ids):
        return (
            self.h.vertex_set,
            _seq_key(self.sim_rseq),
            self.j,
            self.padding,
            _pending_key(self.pending),
            self.exhausted,
            _sub_id(self.inner, ids),
        )

    def next_action(self, state):
        self._sid = None
        if self.exhausted:
            return Action.delete()
        if self.sim_rseq is None:
            if not check_geodesic_partition(state.graph, self.gp, self.d):
                raise StrategyError("not a width-%d geodesic partition" % self.d)
            self.sim_rseq = ThinnedSeq(state.rseq, self.d)
        if self.padding > 0:
            return Action.delete()
        sim_state = GameState(self.h, self.sim_rseq.tail(self.j), self.j)
        try:
            a = self._own("inner").next_action(sim_state)
            head = state.rseq.head
        except SequenceError:
            # windows past anything computable; deletions still finish
            self.exhausted = True
            return Action.delete()
        if a.kind == DELETE:
            p = self.h.smallest()
            live = self.gp.parts[p] & state.graph.vertex_set
            lam_p = {v: self.gp.part_layerings[p][v] for v in live}
            ext = extend_geodesic_layering(state.graph, live, lam_p)
            self.pending = ("inner-delete", a, head)
            return Action.restrict(ext)
        lam_h = a.layering
        lam = {v: lam_h[self.part_of[v]] for v in state.graph.vertices}
        self.pending = ("inner-restrict", a, head)
        return Action.restrict(lam)

    def observe(self, action, reply, new_state):
        self._sid = None
        if self.exhausted:
            return
        if self.padding > 0:
            self.padding -= 1
            return
        tag, a, head = self.pending
        self.pending = None
        self.j += 1
        try:
            if tag == "inner-delete":
                new_h = self.h.induced(self.h.vertex_set - {self.h.smallest()})
                self._own("inner").observe(
                    a, None, GameState(new_h, self.sim_rseq.tail(self.j), self.j)
                )
            else:
                lo, hi = reply
                keep = [p for p in self.h.vertices if lo <= a.layering[p] <= hi]
                new_h = self.h.induced(keep)
                self._own("inner").observe(
                    a, reply, GameState(new_h, self.sim_rseq.tail(self.j), self.j)
                )
        except SequenceError:
            self.exhausted = True
            return
        self.h = new_h
        self.padding = self.d * head


class DistortionStrategy(DestroyerStrategy):
    """One coordinate Restrict per embedding axis, then deletes; the
    embedding guarantees few survivors once every axis is pinned."""

    def __init__(self, embedding):
        self.emb = embedding
        self.descriptor = DistortionD(embedding.dim, embedding.beta)
        self.axis = 0
        self.heads = ()
        self.checked = False

    def config(self):
        return (self.emb, self.descriptor)

    def state(self, ids):
        return (self.axis, self.heads, self.checked)

    def next_action(self, state):
        self._sid = None
        if not self.checked:
            validate_embedding(state.graph, self.emb)
            self.checked = True
        if self.axis < self.emb.dim:
            lam = self.emb.coordinate_layering(state.graph, self.axis)
            self.heads += (state.rseq.head,)
            return Action.restrict(lam)
        return Action.delete()

    def observe(self, action, reply, new_state):
        self._sid = None
        if action.kind == DELETE or self.axis >= self.emb.dim:
            return
        self.axis += 1
        if self.axis == self.emb.dim:
            cap = 1
            for h in self.heads:
                cap *= self.emb.beta * h + 1
            if new_state.graph.n > cap:
                raise StrategyError(
                    "%d survivors exceed the %d guaranteed by the embedding"
                    % (new_state.graph.n, math.floor(cap))
                )


class SubgraphStrategy(DestroyerStrategy):
    """Drives a host strategy on a supergraph with a dominating
    sequence and copies its moves down to the actual game."""

    SUBS = ("host",)

    def __init__(self, host_strategy, host_state):
        self.host = host_strategy
        self.host_graph = host_state.graph  # every later host graph is induced from it
        self.host_state = host_state
        self.descriptor = SubgraphD(host_strategy.descriptor)
        self.pending = None
        self.checked = False

    def config(self):
        return (self.host_graph, self.descriptor)

    def state(self, ids):
        hs = self.host_state
        return (
            hs.graph.vertex_set,
            _seq_key(hs.rseq),
            hs.round,
            _pending_key(self.pending),
            self.checked,
            _sub_id(self.host, ids),
        )

    def next_action(self, state):
        self._sid = None
        hg = self.host_state.graph
        if not self.checked:
            if not state.graph.vertex_set <= hg.vertex_set:
                raise StrategyError("vertices missing from the host graph")
            for u, v in state.graph.edge_list():
                if not hg.has_edge(u, v):
                    raise StrategyError("edge (%d,%d) missing from the host" % (u, v))
            self.checked = True
        if state.rseq.head > self.host_state.rseq.head:
            raise StrategyError("sequence not dominated by the host sequence")
        a = self._own("host").next_action(self.host_state)
        self.pending = a
        if a.kind == DELETE:
            return Action.delete()
        lam = {v: a.layering[v] for v in state.graph.vertices}
        return Action.restrict(lam)

    def observe(self, action, reply, new_state):
        self._sid = None
        a = self.pending
        self.pending = None
        if a.kind == DELETE:
            ns = apply_delete(self.host_state)
            self._own("host").observe(a, None, ns)
        else:
            ns = apply_restrict(self.host_state, a.layering, reply)
            self._own("host").observe(a, reply, ns)
        self.host_state = ns
        self.checked = False  # subgraph may shrink arbitrarily; recheck


# ---------------------------------------------------------------------------
# geodesic partition construction for graphs without a small clique minor


@dataclass(frozen=True)
class MinorWitness:
    """k connected, pairwise adjacent branch sets in the input graph."""

    k: int
    branch_sets: tuple


def verify_minor_witness(graph, witness):
    sets = [frozenset(s) for s in witness.branch_sets]
    if len(sets) != witness.k:
        return False
    for i, a in enumerate(sets):
        if not a or not graph.induced(a).is_connected():
            return False
        for b in sets[i + 1 :]:
            if a & b:
                return False
            if not any(graph.adj[v] & b for v in a):
                return False
    return True


@dataclass(frozen=True)
class PartitionResult:
    graph: OrderedGraph  # reordered copy of the input
    perm: dict  # old id -> new id
    gp: GeodesicPartition


def chordal_geodesic_partition(graph, k):
    """Build a width-(k-2) geodesic partition whose quotient is chordal
    with left-degree <= k-2, or return a MinorWitness showing K_k is a
    minor.  The input is reordered; perm maps old ids to new ids.

    Each processed piece carries at most k-2 pairwise adjacent boundary
    parts.  The new part is the union of breadth-first tree paths from
    one shallowest contact per boundary part down to the root, so its
    depth layering has width at most max(k-2, 1).
    """
    if k < 3:
        raise GraphError("need k >= 3, got %d" % k)
    d = k - 2
    part_sets = []
    part_depths = []
    queue = deque((comp, ()) for comp in graph.components())
    while queue:
        comp, boundary = queue.popleft()
        if boundary:
            last = part_sets[boundary[-1]]
            cand = sorted(v for v in comp if graph.adj[v] & last)
            root = cand[0]
        else:
            root = min(comp)
        sub = graph.induced(comp)
        depth = sub.bfs_distances(root)
        parent = {}
        for v in sorted(comp):
            if v != root:
                parent[v] = min(w for w in sub.adj[v] if depth[w] == depth[v] - 1)
        part = {root}
        for q in boundary:
            qset = part_sets[q]
            x = min(
                (v for v in comp if graph.adj[v] & qset),
                key=lambda v: (depth[v], v),
            )
            while x != root:
                part.add(x)
                x = parent[x]
        idx = len(part_sets)
        part_sets.append(frozenset(part))
        part_depths.append({v: depth[v] for v in part})
        rest = sub.induced(comp - part)
        for child in rest.components():
            near = tuple(
                q
                for q in list(boundary) + [idx]
                if any(graph.adj[v] & child for v in part_sets[q])
            )
            if len(near) > d:
                branch = tuple(part_sets[q] for q in near[: k - 1]) + (child,)
                return MinorWitness(k, branch)
            queue.append((child, near))
    order = []
    for i, p in enumerate(part_sets):
        order.extend(sorted(p, key=lambda v: (part_depths[i][v], v)))
    perm = {v: i for i, v in enumerate(order)}
    adj = {
        perm[v]: frozenset(perm[w] for w in graph.adj[v]) for v in graph.vertices
    }
    newg = OrderedGraph(range(graph.n), _adj=adj)
    newg.annotations.update(
        {name: frozenset(perm[v] for v in s) for name, s in graph.annotations.items()}
    )
    parts = tuple(frozenset(perm[v] for v in p) for p in part_sets)
    layerings = tuple(
        {perm[v]: dep for v, dep in part_depths[i].items()} for i in range(len(parts))
    )
    gp = GeodesicPartition(parts, layerings, quotient(newg, parts))
    return PartitionResult(newg, perm, gp)


# ---------------------------------------------------------------------------
# descriptor text grammar and the strategy builder


def _int_at_least(text, low, form):
    n = int(text)
    if n < low:
        raise StrategyError("%s needs a number >= %d, got %d" % (form, low, n))
    return n


def parse_descriptor(text, embedding=None):
    """Text form -> descriptor.  The one grammar of strategies:

        edgeless | chordal:<d> | minorfree:<k> | distortion
        | cliquesum(<a>,<b>) | quotient(<a>,<d>)

    with d >= 0 in chordal, d >= 1 in quotient and k >= 3, the
    smallest values a strategy can win with.  minorfree:<k> is valid
    only as the whole descriptor, since its decomposition reorders the
    graph; distortion reads its dimension and distortion from
    embedding.  Malformed text raises StrategyError naming the text.
    """
    t = text.strip()
    try:
        if t == "edgeless":
            return EdgelessD()
        if t.startswith("chordal:"):
            return ChordalD(_int_at_least(t[len("chordal:") :], 0, "chordal:<d>"))
        if t.startswith("minorfree:"):
            return MinorFreeD(_int_at_least(t[len("minorfree:") :], 3, "minorfree:<k>"))
        if t == "distortion":
            if embedding is None:
                raise StrategyError("distortion needs an embedding")
            return DistortionD(embedding.dim, embedding.beta)
        for head in ("cliquesum(", "quotient("):
            if t.startswith(head) and t.endswith(")"):
                break
        else:
            raise StrategyError("not a known form")
        # split the arguments at the commas outside parentheses
        args = [""]
        depth = 0
        for ch in t[len(head) : -1]:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    break
            if ch == "," and depth == 0:
                args.append("")
            else:
                args[-1] += ch
        if depth != 0:
            raise StrategyError("unbalanced parentheses")
        if len(args) != 2:
            raise StrategyError("%s...) takes 2 arguments, got %d" % (head, len(args)))
        a = parse_descriptor(args[0], embedding)
        if head == "quotient(":
            b = _int_at_least(args[1], 1, "quotient(<a>,<d>)")
        else:
            b = parse_descriptor(args[1], embedding)
        if MinorFreeD in (type(a), type(b)):
            raise StrategyError("minorfree:<k> is valid only as the whole descriptor")
        return QuotientD(a, b) if head == "quotient(" else CliqueSumD(a, b)
    except (StrategyError, ValueError) as exc:
        raise StrategyError("strategy descriptor %r: %s" % (text, exc)) from None


def _build(desc, graph=None, embedding=None):
    """Strategy for any descriptor but MinorFreeD; cliquesum and
    quotient play on graph, distortion on embedding."""
    if isinstance(desc, ChordalD) and desc.d > 0:
        return ChordalStrategy(desc.d)
    if isinstance(desc, (EdgelessD, ChordalD)):
        return EdgelessStrategy()
    if isinstance(desc, DistortionD):
        return DistortionStrategy(embedding)
    if isinstance(desc, CliqueSumD):
        inner = _build(desc.base, graph, embedding)
        leaf_factory = partial(_build, desc.leaf, graph, embedding)
        return CliqueSumStrategy(graph.vertex_set, inner, leaf_factory, desc)
    if isinstance(desc, QuotientD):
        # the trivial partition: every vertex is its own part
        parts = tuple(frozenset([v]) for v in graph.vertices)
        layerings = tuple({v: 0} for v in graph.vertices)
        gp = GeodesicPartition(parts, layerings, quotient(graph, parts))
        return QuotientStrategy(_build(desc.inner, graph, embedding), gp, desc)
    raise StrategyError("no strategy builds %r" % (desc,))


def build_strategy(text, graph, embedding=None):
    """Instantiate the described strategy for graph.

    Returns (graph_to_play_on, strategy, perm or None).  minorfree may
    reorder the graph; a MinorWitness is returned instead when the
    requested clique minor exists.
    """
    desc = parse_descriptor(text, embedding)
    if not isinstance(desc, MinorFreeD):
        return graph, _build(desc, graph, embedding), None
    res = chordal_geodesic_partition(graph, desc.k)
    if isinstance(res, MinorWitness):
        return res
    return res.graph, QuotientStrategy(_build(ChordalD(desc.d)), res.gp, desc), res.perm
