"""Winning strategies for the deleting side, built compositionally.

Each strategy is an immutable value: next_action(state) returns the
proposed move and the strategy that follows it, and observe(action,
reply, new_state) returns the strategy once the referee has resolved
the move.  Neither changes the object it is called on, so adversarial
search and branching solvers explore replies by observing each one on
the same strategy.

A move that changes memory returns self.fork(**changes), a shallow copy
with the changed attributes rebound; a move that changes nothing returns
self.  Graphs, sequences, partitions and layerings are never mutated, so
a copy shares all of them.  A composite whose whole remaining game is
one sub-strategy on the real game hands over instead of wrapping it: the
move returns the sub-strategy's move and successor.  So a chordal
strategy becomes its chain once it knows the levels, and a chain becomes
its leaf once its top base is gone.

Strategies compare and hash as values, by class and memory, so the
solvers' position table keys on the strategy itself.  What a descriptor
fixes (partition, embedding, leaf, layers) is left out of the
comparison: every strategy of one search comes from one build_strategy
call on one graph and embedding, so equal descriptors mean equal
partitions, embeddings and leaves.  Memory holds simulated sequences,
pending moves and sub-strategies as they are, since sequences and
Actions compare as values too.

The composite strategies mimic an inner game: the clique-sum strategy
simulates play on its base, the quotient strategy simulates play on
the contracted graph and translates contracted moves into a Restrict
plus a burst of padding Deletes.  One clique-sum value plays a whole
chain of clique-sums, as a tuple of frames that each simulate the frame
below on their base and that every move walks in a loop.  Round bounds
for each composition are computed from descriptors by round_bound.
build_strategy reads descriptor text only through parse_descriptor and
builds from the descriptor it returns; every strategy reports that
descriptor.
"""

import math
from collections import deque
from dataclasses import dataclass

from .game import Action, GameState, DELETE
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
from .sequences import INDEX_LIMIT, ConstSeq, SequenceError, ThinnedSeq


class StrategyError(RuntimeError):
    pass


class DestroyerStrategy:
    """Base class of strategy values.  next_action(state) returns
    (action, successor) and observe(action, reply, new_state) the
    successor; neither assigns an attribute of self outside __init__.
    A changing move returns self.fork(**changes) instead.

    Strategies compare and hash as values: two are equal exactly when they
    share a class and every attribute not named in _fixed, which lists what
    the descriptor or other attributes fix.  Memory holds only what the
    moves read; _key may project it further (the quotient keys its graph by
    its vertex set).  The first hash makes the key and keeps it: an object's
    memory is fixed once a move returns it."""

    descriptor = None
    _fixed = ()
    _keyed = None  # (hash, key), made by the first hash

    def next_action(self, state):
        raise NotImplementedError

    def observe(self, action, reply, new_state):
        return self

    def fork(self, **changes):
        """A copy with the attributes in changes rebound, without the
        cached key."""
        clone = object.__new__(type(self))
        memory = clone.__dict__ = vars(self) | changes
        memory.pop("_keyed", None)
        return clone

    def _key(self, **views):
        """The class and every attribute not in _fixed, with views
        standing in for the attributes it names."""
        memory = vars(self) | views
        for name in self._fixed:
            del memory[name]
        return (type(self), *memory.values())

    def __hash__(self):
        keyed = self._keyed
        if keyed is None:
            key = self._key()
            keyed = self._keyed = (hash(key), key)
        return keyed[0]

    def __eq__(self, other):
        if self is other:
            return True
        return type(other) is type(self) and hash(self) == hash(other) and self._keyed[1] == other._keyed[1]


# ---------------------------------------------------------------------------
# descriptors and round bounds


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
class MinorFreeD:
    """No K_k minor: a quotient over a width-(k-2) geodesic partition
    whose quotient graph is chordal of left-degree <= k-2, built by
    chordal_geodesic_partition on a reordered graph."""

    k: int

    @property
    def d(self):
        return self.k - 2


def round_bound(desc, r):
    """Rounds within which the described strategy wins, at worst, on
    sequence r.

    An unbounded case, one that would read r past INDEX_LIMIT, raises
    SequenceError; a distortion bound past the float range raises
    OverflowError.  Within one call, each chordal degree is bounded once
    per sequence value.  A constant sequence is its own tail and
    pairing, so on const:c a chordal degree d costs polynomially in d,
    not c ** d.  Thinned by a quotient of width d, const:c is const:c
    read at every (d*c + 1)-th index, so a quotient over a constant
    costs one inner bound.  The recursion takes two frames per degree.
    """
    chordal = {}  # (d, seq) -> bound

    def glue(t1, leaf, r):
        # a clique-sum whose base wins within t1 rounds of r paired,
        # and whose leaf then plays on the rest of r
        return 2 * t1 + bound(leaf, r.tail(2 * t1 + 1)) + 1

    def bound(desc, r):
        if isinstance(desc, ChordalD):
            if desc.d <= 0:
                return 2
            key = (desc.d, r)
            if key not in chordal:
                chordal[key] = bound(ChainD(desc.d - 1, r.at(2)), r.tail(2)) + 2
            return chordal[key]
        if isinstance(desc, ChainD):
            if desc.k > INDEX_LIMIT:
                raise SequenceError("chain longer than the evaluation limit %d" % INDEX_LIMIT)
            if desc.d <= 0:
                # edgeless levels: t_1 = 2 and t_i = 2 * t_{i-1} + 2 + 1
                return 5 * 2 ** (desc.k - 1) - 3
            # level i of k glues ChordalD(d) on r paired k - i times over the
            # levels below: build those sequences top-down, fold bottom-up
            seqs = [r]
            while len(seqs) < desc.k:
                seqs.append(seqs[-1].paired())
                # only a constant is its own pairing; any other r would be
                # read at index 2 ** k or later by the bottom level
                if seqs[-1] is not r and 2 ** len(seqs) > INDEX_LIMIT:
                    raise SequenceError("chain indexes past the evaluation limit %d" % INDEX_LIMIT)
            t = bound(ChordalD(desc.d), seqs.pop())
            while seqs:
                t = glue(t, ChordalD(desc.d), seqs.pop())
            return t
        if isinstance(desc, CliqueSumD):
            return glue(bound(desc.base, r.paired()), desc.leaf, r)
        if isinstance(desc, QuotientD):
            if isinstance(r, ConstSeq):
                return (desc.d * r.c + 1) * bound(desc.inner, r)
            th = ThinnedSeq(r, desc.d)
            return th.index(bound(desc.inner, th))
        if isinstance(desc, DistortionD):
            prod = 1
            for i in range(1, desc.dim + 1):
                prod *= desc.beta * r.at(i) + 1
            return desc.dim + math.floor(prod)
        if isinstance(desc, MinorFreeD):
            return bound(QuotientD(ChordalD(desc.d), desc.d), r)
        raise StrategyError("unknown descriptor %r" % (desc,))

    return bound(desc, r)


# ---------------------------------------------------------------------------
# elementary strategies


class EdgelessStrategy(DestroyerStrategy):
    """Restrict once with labels spaced head apart (at most one vertex
    per reply window), then delete."""

    descriptor = ChordalD(0)

    def __init__(self):
        self.phase = "restrict"

    def next_action(self, state):
        if self.phase == "restrict":
            if state.graph.m:
                raise StrategyError("graph has edges")
            if state.graph.n <= 1:
                # nothing to separate
                return Action.delete(), self.fork(phase="delete")
            try:
                h = state.rseq.head
            except SequenceError:
                # the window dwarfs any label spacing we could write down
                return Action.delete(), self.fork(phase="delete")
            lam = {v: (i + 1) * h for i, v in enumerate(state.graph.vertices)}
            return Action.restrict(lam), self
        return Action.delete(), self

    def observe(self, action, reply, new_state):
        if action.kind != DELETE:
            return self.fork(phase="delete")
        return self


def _make_chain(lam, d):
    """Strategy for a graph whose levels under the layering lam each
    induce a chordal piece of left-degree <= d-1, every lower prefix
    acting as a clique-sum base for the components above it: one
    CliqueSumStrategy with a frame per level but the last, over a
    ChordalD(d-1) strategy for the first level that is also its leaf."""
    levels = {}
    for v, lab in lam.items():
        levels.setdefault(lab, []).append(v)
    layers = [levels[lab] for lab in sorted(levels)]
    leaf = ChordalD(d - 1)
    bottom = _build(leaf)
    if len(layers) <= 1:
        return bottom
    desc = CliqueSumD(ChainD(d - 1, len(layers) - 1), leaf)
    return CliqueSumStrategy(layers[:-1], bottom, bottom, desc)


class ChordalStrategy(DestroyerStrategy):
    """For chordal ordered graphs of left-degree <= d: isolate one
    component, restrict to few levels of a breadth-first layering, then
    peel the surviving levels as a chain of clique-sums over pieces of
    left-degree <= d-1.  Only phase "spread" checks the ordering.  The
    chain is the successor: observe builds it from the BFS Restrict, and
    a move that already knows the levels returns the chain itself, not a
    chordal strategy around it."""

    def __init__(self, d):
        if d < 1:
            raise StrategyError("d = %d: use EdgelessStrategy for d <= 0" % d)
        self.d = d
        self.descriptor = ChordalD(d)
        self.phase = "spread"

    def next_action(self, state):
        g = state.graph
        if g.n == 1:
            # chordal with left-degree 0: the move and successor that the
            # d nested builds would reach
            return EdgelessStrategy().next_action(state)
        if self.phase == "spread":
            ok, ld = check_chordal_ordering(g)
            if not ok:
                raise StrategyError("ordering is not chordal")
            if ld > self.d:
                raise StrategyError("left-degree %d exceeds %d" % (ld, self.d))
            if not g.is_connected():
                lam = spread_componentwise_layering(g, state.rseq.head)
                return Action.restrict(lam), self
        # one component remains, so g is connected
        lam = bfs_layering(g, g.smallest())
        span = max(lam.values()) - min(lam.values()) + 1
        try:
            fits = span <= state.rseq.head
        except SequenceError:
            fits = True
        if fits:
            # every level already fits one window, peel them directly
            return _make_chain(lam, self.d).next_action(state)
        return Action.restrict(lam), self.fork(phase="bfs")

    def observe(self, action, reply, new_state):
        if self.phase == "spread":
            return self.fork(phase="bfs")
        return _make_chain({v: action.layering[v] for v in new_state.graph.vertices}, self.d)


class CliqueSumStrategy(DestroyerStrategy):
    """For graphs glued along cliques from a base class, once or as a
    chain.  rank[v] is the index of v's layer; vertices in no layer rank
    len(layers).  Frame i plays on the live vertices of rank <= i with
    base those of rank < i: it alternates a componentwise Restrict with
    one simulated move of frame i - 1 on its base, and once the base is
    gone the fresh strategy leaf plays for it (a value, so one leaf
    serves every frame).  Frame 0 has no base; bottom is its leaf.  Once
    the top frame's base is gone, the leaf's game is the whole game: the
    move is the fresh leaf's, and its successor is the successor, so the
    top frame never holds a leaf.  All strategies here read the sequence
    from the state, so no alignment padding is needed before a handover.
    descriptor is the top frame's CliqueSumD.

    A frame is a tuple (sim_rseq, j, phase, pending, leaf, exhausted):
    its simulation's sequence, round and phase, its pending move
    ("spread" for its own Restrict, else the simulated Action of the
    frame below), the strategy that plays for it once its base is gone,
    and whether it gave up; its base is read from the state.  A move
    walks down the frames to the one that acts and back up, translating
    the action at each; one union-find sweep in rank order tells which
    of the nested frame graphs are connected."""

    _fixed = ("rank", "leaf")  # not layers: the chains of one search differ there

    def __init__(self, layers, bottom, leaf, descriptor):
        self.layers = tuple(frozenset(layer) for layer in layers)
        self.rank = {v: i for i, layer in enumerate(self.layers) for v in layer}
        self.frames = ((None, 0, "spread", None, bottom, False),) + (
            (None, 0, "spread", None, None, False),
        ) * len(layers)
        self.leaf = leaf
        self.descriptor = descriptor

    def _graph(self, g, i):
        """Frame i's part of g, the vertices of rank <= i."""
        return g if i == len(self.layers) else g.induced(frozenset().union(*self.layers[: i + 1]))

    def _sweep(self, g):
        """The lowest rank in g, and for each i whether the vertices of g
        of rank <= i induce a connected graph."""
        live, root, comps, low, connected = g.vertex_set, {}, 0, None, []

        def find(v):
            while root[v] != v:
                root[v] = v = root[root[v]]
            return v

        for r, layer in enumerate(self.layers + (live.difference(*self.layers),)):
            for v in layer:
                if v in live:
                    root[v] = v  # v stays a root while it is added
                    comps += 1
                    for u in g.adj[v]:
                        if u in root:
                            u = find(u)
                            if u != v:
                                root[u] = v
                                comps -= 1
            if low is None and comps:
                low = r
            connected.append(comps <= 1)
        return low, connected

    def _lift(self, lam_star, g, i):
        """lam_star, a layering of frame i's base, extended to its graph:
        each other component takes the label of its smallest base neighbour."""
        rank, top = self.rank, len(self.layers)
        lam = dict(lam_star)
        rest = self.layers[i] if i < top else g.vertex_set.difference(*self.layers)
        for comp in g.induced(rest).components():
            anchors = [u for v in comp for u in g.adj[v] if rank.get(u, top) < i]
            if not anchors:
                raise StrategyError("component not attached to the base")
            lam.update(dict.fromkeys(comp, lam_star[min(anchors)]))
        return lam

    def next_action(self, state):
        g, top = state.graph, len(self.layers)
        if not self.frames[top][5]:  # the top frame is not exhausted
            low, connected = self._sweep(g)
            if low >= top:
                # the top frame's base is gone: a fresh leaf plays the
                # rest of the game, and is the successor
                return self.leaf.next_action(state)
        frames, a = list(self.frames), None
        rseq, rnd = state.rseq, state.round  # what frame i reads
        try:
            for i in range(top, -1, -1):  # down to the frame that acts
                sim, j, phase, pending, leaf, exhausted = frames[i]
                catch = i
                if exhausted:
                    a = Action.delete()
                    break
                if leaf is not None:
                    break
                if sim is None:
                    sim = rseq.paired()
                    frames[i] = (sim, j, phase, pending, leaf, exhausted)
                if low >= i:
                    break  # the base is gone: a fresh leaf plays
                if phase == "spread" and not connected[i]:
                    a = Action.restrict(spread_componentwise_layering(self._graph(g, i), rseq.head))
                    frames[i] = (sim, j, phase, "spread", leaf, exhausted)
                    break
                rseq, rnd = sim.tail(j), j
            if a is None:  # frame i's leaf moves
                catch = i + 1
                leaf = leaf or self.leaf
                a, leaf = leaf.next_action(GameState(self._graph(g, i), rseq, rnd))
                frames[i] = (sim, j, phase, pending, leaf, exhausted)
        except SequenceError:
            # the windows grew past anything computable: the frame that
            # met them deletes from now on (mimic if it was simulating)
            frames[:catch] = self.frames[:catch]
            sim, j, phase, pending, leaf, _ = frames[catch]
            frames[catch] = (sim, j, "mimic" if catch > i else phase, pending, leaf, True)
            i, a = catch, Action.delete()
        # up, translating a at each frame; a Delete of frame i's smallest
        # vertex is every frame's above exactly when it is g's smallest
        if a.kind == DELETE and self.rank.get(g.smallest(), top) > i:
            raise StrategyError("smallest vertex lies outside the base")
        for i in range(i + 1, top + 1):
            frames[i] = frames[i][:2] + ("mimic", a, None, False)
            if a.kind != DELETE:
                a = Action.restrict(self._lift(a.layering, g, i))
        return a, self.fork(frames=tuple(frames))

    def observe(self, action, reply, new_state):
        g, top = new_state.graph, len(self.layers)
        frames = list(self.frames)
        for i in range(top, -1, -1):  # down to the frame that moved
            sim, j, phase, pending, leaf, exhausted = frames[i]
            if exhausted or leaf is not None:
                break
            if pending == "spread":
                frames[i] = (sim, j, "mimic", None, None, False)
                break
            frames[i] = (sim, j + 1, "spread", None, None, False)
            action = pending
            reply = None if action.kind == DELETE else reply
        if leaf is not None:
            # the leaf observes; a sequence error there exhausts the frame
            # above
            sim, j = frames[i + 1][:2]
            try:
                leaf = leaf.observe(action, reply, GameState(self._graph(g, i), sim.tail(j), j))
                frames[i] = frames[i][:4] + (leaf, exhausted)
            except SequenceError:
                frames[i + 1] = frames[i + 1][:5] + (True,)
        return self.fork(frames=tuple(frames))


class QuotientStrategy(DestroyerStrategy):
    """Plays on a graph carrying a width-d geodesic partition by
    simulating a game on the quotient.  A contracted Restrict lifts
    through the partition; a contracted Delete of the first part turns
    into a Restrict on the extension of that part's stored layering.
    Either way a burst of d * head padding Deletes keeps the real
    sequence aligned with the thinned one the simulation reads.
    descriptor is a QuotientD or MinorFreeD; its d is the width."""

    _fixed = ("gp", "part_of")

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

    def _key(self):
        # h is the quotient graph induced by its vertex set
        return super()._key(h=self.h.vertex_set)

    def next_action(self, state):
        # padding follows a simulated move, so sim_rseq is set by then
        if self.exhausted or self.padding > 0:
            return Action.delete(), self
        sim_rseq, inner = self.sim_rseq, self.inner
        if sim_rseq is None:
            if not check_geodesic_partition(state.graph, self.gp, self.d):
                raise StrategyError("not a width-%d geodesic partition" % self.d)
            sim_rseq = ThinnedSeq(state.rseq, self.d)
        sim_state = GameState(self.h, sim_rseq.tail(self.j), self.j)
        try:
            a, inner = inner.next_action(sim_state)
            head = state.rseq.head
        except SequenceError:
            # windows past anything computable; deletions still finish
            return Action.delete(), self.fork(sim_rseq=sim_rseq, inner=inner, exhausted=True)
        if a.kind == DELETE:
            p = self.h.smallest()
            live = self.gp.parts[p] & state.graph.vertex_set
            lam_p = {v: self.gp.part_layerings[p][v] for v in live}
            lam = extend_geodesic_layering(state.graph, live, lam_p)
        else:
            lam = {v: a.layering[self.part_of[v]] for v in state.graph.vertices}
        return Action.restrict(lam), self.fork(sim_rseq=sim_rseq, inner=inner, pending=(a, head))

    def observe(self, action, reply, new_state):
        if self.exhausted:
            return self
        if self.padding > 0:
            return self.fork(padding=self.padding - 1)
        a, head = self.pending
        j = self.j + 1
        try:
            if a.kind == DELETE:
                new_h, reply = self.h.induced(self.h.vertex_set - {self.h.smallest()}), None
            else:
                lo, hi = reply
                new_h = self.h.induced(p for p in self.h.vertices if lo <= a.layering[p] <= hi)
            inner = self.inner.observe(a, reply, GameState(new_h, self.sim_rseq.tail(j), j))
        except SequenceError:
            return self.fork(pending=None, j=j, exhausted=True)
        return self.fork(pending=None, j=j, inner=inner, h=new_h, padding=self.d * head)


class DistortionStrategy(DestroyerStrategy):
    """One coordinate Restrict per embedding axis, then deletes; the
    embedding guarantees few survivors once every axis is pinned."""

    _fixed = ("emb",)

    def __init__(self, embedding):
        self.emb = embedding
        self.descriptor = DistortionD(embedding.dim, embedding.beta)
        self.axis = 0
        self.heads = ()  # one per axis restricted so far

    def next_action(self, state):
        if not self.heads:
            validate_embedding(state.graph, self.emb)
        if self.axis >= self.emb.dim:
            return Action.delete(), self  # the first Restrict checked the embedding
        lam = self.emb.coordinate_layering(state.graph, self.axis)
        return Action.restrict(lam), self.fork(heads=self.heads + (state.rseq.head,))

    def observe(self, action, reply, new_state):
        if action.kind == DELETE or self.axis >= self.emb.dim:
            return self
        if self.axis + 1 == self.emb.dim:
            cap = 1
            try:
                for h in self.heads:
                    cap *= self.emb.beta * h + 1
            except OverflowError:
                cap = math.inf  # past the float range: any finite graph meets it
            if new_state.graph.n > cap:
                raise StrategyError(
                    "%d survivors exceed the %d guaranteed by the embedding"
                    % (new_state.graph.n, math.floor(cap))
                )
        return self.fork(axis=self.axis + 1)


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


def _split_off(adj, comp, part):
    """The components of comp - part, for connected comp and nonempty
    part, as frozensets ordered by smallest member.

    A search starts from each neighbour of part and the searches run in
    lock step, one vertex each per turn; two that meet merge, the smaller
    into the larger.  A search that runs dry has found a component.  Once
    one search is left, its component is the rest of comp, so the
    largest component is never walked."""
    seeds = {w for v in part for w in adj[v] if w in comp and w not in part}
    owner = {v: i for i, v in enumerate(seeds)}  # vertex -> its search
    found = [([v], [v]) for v in seeds]  # per search: vertices to expand, members
    running, done = dict.fromkeys(range(len(found))), []
    while len(running) > 1:
        for i in list(running):
            if i not in running:
                continue  # merged this turn
            todo, members = found[i]
            if not todo:
                del running[i]
                done.append(frozenset(members))
                continue
            for w in adj[todo.pop()]:
                if w not in comp or w in part:
                    continue
                j = owner.get(w)
                if j is None:
                    owner[w] = i
                    todo.append(w)
                    members.append(w)
                elif j != i:
                    if len(members) > len(found[j][1]):
                        i, j = j, i
                    owner.update(dict.fromkeys(found[i][1], j))  # i merges into the larger j
                    for mine, theirs in zip(found[j], found[i]):
                        mine.extend(theirs)
                    del running[i]
                    i = j
                    todo, members = found[i]
    if running:
        done.append(comp.difference(part, *done))
    return sorted(done, key=min)


def chordal_geodesic_partition(graph, k):
    """Build a width-(k-2) geodesic partition whose quotient is chordal
    with left-degree <= k-2, or return a MinorWitness showing K_k is a
    minor.  The input is reordered; perm maps old ids to new ids.

    Each processed piece carries at most k-2 pairwise adjacent boundary
    parts.  The new part is the union of breadth-first tree paths from
    one shallowest contact per boundary part down to the root, so its
    depth layering has width at most max(k-2, 1).

    A piece costs about the size of its new part and its smaller
    children: contacts come from each boundary part's neighbours, the
    search from the root stops at the first level that reaches every
    boundary part, tree parents are found only along the paths, and
    _split_off never walks the largest child.
    """
    if k < 3:
        raise GraphError("need k >= 3, got %d" % k)
    d = k - 2
    adj = graph.adj
    part_sets = []
    part_depths = []
    queue = deque((comp, ()) for comp in graph.components())
    while queue:
        comp, boundary = queue.popleft()
        # the vertices of comp adjacent to each boundary part
        touch = [frozenset(w for u in part_sets[q] for w in adj[u] if w in comp) for q in boundary]
        root = min(touch[-1]) if boundary else min(comp)
        # breadth-first levels of comp, up to the first that leaves no
        # boundary part without a contact
        depth, level, dist, unmet = {root: 0}, [root], 0, touch
        while unmet := [t for t in unmet if t.isdisjoint(level)]:
            dist += 1
            level = dict.fromkeys(w for v in level for w in adj[v] if w in comp and w not in depth)
            depth.update(dict.fromkeys(level, dist))
        part = {root}
        for t in touch:
            x = min((depth[v], v) for v in t if v in depth)[1]
            while x not in part:  # up the tree paths, parent = smallest neighbour one level up
                part.add(x)
                x = min(w for w in adj[x] if depth.get(w) == depth[x] - 1)
        idx = len(part_sets)
        part_sets.append(frozenset(part))
        part_depths.append({v: depth[v] for v in part})
        for child in _split_off(adj, comp, part_sets[idx]):
            # every child touches the new part, comp being connected
            near = tuple(q for q, t in zip(boundary, touch) if not t.isdisjoint(child)) + (idx,)
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
    parts = tuple(frozenset(perm[v] for v in p) for p in part_sets)
    layerings = tuple(
        {perm[v]: dep for v, dep in part_depths[i].items()} for i in range(len(parts))
    )
    gp = GeodesicPartition(parts, layerings, quotient(newg, parts))
    return PartitionResult(newg, perm, gp)


# ---------------------------------------------------------------------------
# descriptor text grammar and the strategy builder

MAX_NESTING = 100  # keeps parse_descriptor's recursion far below Python's limit


def _int_at_least(text, low, form):
    n = int(text)
    if n < low:
        raise StrategyError("%s needs a number >= %d, got %d" % (form, low, n))
    return n


def parse_descriptor(text, embedding=None):
    """Text form -> descriptor.  The one grammar of strategies:

        edgeless | chordal:<d> | minorfree:<k> | distortion
        | cliquesum(<a>,<b>) | quotient(<a>,<d>)

    with d >= 0 in chordal, d >= 1 in quotient and k >= 3, the smallest
    values a strategy can win with, and edgeless short for chordal:0.
    minorfree:<k> is valid only as the whole descriptor, since it
    reorders the graph; distortion reads its dimension and distortion
    from embedding.  Text nested deeper than MAX_NESTING, like any
    malformed text, raises StrategyError naming the text.
    """

    def parse(t):
        t = t.strip()
        if t == "edgeless":
            return ChordalD(0)
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
        body = t[len(head) : -1]
        cuts = [-1]
        depth = 0
        for i, ch in enumerate(body):
            if ch == "(":
                depth += 1
                if depth >= MAX_NESTING:  # the top level scans all text before recursing
                    raise StrategyError("parentheses nest deeper than %d" % MAX_NESTING)
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    break
            elif ch == "," and depth == 0:
                cuts.append(i)
        if depth != 0:
            raise StrategyError("unbalanced parentheses")
        if len(cuts) != 2:
            raise StrategyError("%s...) takes 2 arguments, got %d" % (head, len(cuts)))
        a = parse(body[: cuts[1]])
        if head == "quotient(":
            b = _int_at_least(body[cuts[1] + 1 :], 1, "quotient(<a>,<d>)")
        else:
            b = parse(body[cuts[1] + 1 :])
        if MinorFreeD in (type(a), type(b)):
            raise StrategyError("minorfree:<k> is valid only as the whole descriptor")
        return QuotientD(a, b) if head == "quotient(" else CliqueSumD(a, b)

    try:
        return parse(text)
    except (StrategyError, ValueError) as exc:
        raise StrategyError("strategy descriptor %r: %s" % (text, exc)) from None


def _build(desc, graph=None, embedding=None):
    """Strategy for any descriptor but MinorFreeD; cliquesum and
    quotient play on graph, distortion on embedding."""
    if isinstance(desc, ChordalD):
        return ChordalStrategy(desc.d) if desc.d > 0 else EdgelessStrategy()
    if isinstance(desc, DistortionD):
        return DistortionStrategy(embedding)
    if isinstance(desc, CliqueSumD):
        base, leaf = (_build(d, graph, embedding) for d in (desc.base, desc.leaf))
        return CliqueSumStrategy((graph.vertex_set,), base, leaf, desc)
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
