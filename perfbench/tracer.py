"""Span tracer that wraps bakergame's layer functions from outside.

Nothing in the library changes.  ``install`` rebinds each traced
function in every ``bakergame`` module that holds it (``from .covers
import occupied_intervals`` binds early, so patching the defining
module alone would miss callers) and replaces methods on their
classes.  Each wrapped call records a span: name, start, end and the
span that was open when it began.  Spans stay in flat arrays until the
run ends; self time is a span's duration minus the durations of its
direct children.

``covers.margin`` is deliberately not traced: it runs millions of times
per k-tree solve and its spans would swamp both the trace and the
timings.
"""

import array
import functools
import json
import pickle
import types
from time import perf_counter

# Layer spans reported per workload, in report order.  The first three
# are opened by the benchmark around each top-level library call.
SPANS = (
    "ptas.solve",
    "game.play",
    "game.minimax_rounds",
    "strategies.fork",
    "strategies.next_action",
    "strategies.observe",
    "strategies.build_strategy",
    "strategies.chordal_geodesic_partition",
    "ptas.memo_key",
    "ptas.dedup_covers",
    "ptas.slice",
    "covers.occupied_intervals",
    "covers.plan_dp",
    "game.apply_delete",
    "game.apply_restrict",
    "game.legal_replies",
    "graph.induced",
    "graph.bfs_distances",
    "graph.check_geodesic_partition",
    "graph.extend_geodesic_layering",
    "graph.require_layering",
)


class Tracer:
    def __init__(self):
        self.names = list(SPANS)
        self.name_id = {name: i for i, name in enumerate(self.names)}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._open = [-1]
        # A generator span is recorded once per resume, so its calls are
        # counted at invocation instead.
        self.generator_calls = {}
        self.covers_proposed = 0
        self.covers_kept = 0
        self._patches = []

    # -- recording ---------------------------------------------------------

    def begin(self, nid):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._open[-1])
        self.span_end.append(0.0)
        self._open.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def finish(self, idx):
        self.span_end[idx] = perf_counter()
        self._open.pop()

    def mark(self):
        return len(self.span_start)

    def drop_since(self, mark):
        """Forget the spans recorded since ``mark``."""
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[mark:]

    def wrap(self, name, fn):
        begin, finish = self.begin, self.finish
        nid = self.name_id[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

        return traced

    def _wrap_dedup(self, fn):
        """_dedup_covers is a generator: time every resume, count the
        invocations and the covers it keeps."""
        begin, finish = self.begin, self.finish
        name = "ptas.dedup_covers"
        nid = self.name_id[name]
        self.generator_calls[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.generator_calls[name] += 1
            gen = fn(*args, **kwargs)
            while True:
                idx = begin(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    finish(idx)
                self.covers_kept += 1
                yield item

        return traced

    def _wrap_candidates(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.covers_proposed += len(out)
            return out

        return counted

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, modules, name, fn):
        wrapped = self.wrap(name, fn)
        for mod in modules:
            for attr in [a for a, v in vars(mod).items() if v is fn]:
                self._set(mod, attr, wrapped)

    def install(self, bg):
        """Wrap the layer functions of the imported bakergame package."""
        from bakergame import covers, game, graph, ptas, strategies

        modules = (bg, covers, game, graph, ptas, strategies)
        for name, fn in (
            ("covers.occupied_intervals", covers.occupied_intervals),
            ("covers.plan_dp", covers.plan_dp),
            ("game.legal_replies", game.legal_replies),
            ("graph.check_geodesic_partition", graph.check_geodesic_partition),
            ("graph.extend_geodesic_layering", graph.extend_geodesic_layering),
            ("graph.require_layering", graph.require_layering),
            ("strategies.build_strategy", strategies.build_strategy),
            (
                "strategies.chordal_geodesic_partition",
                strategies.chordal_geodesic_partition,
            ),
        ):
            self._rebind_everywhere(modules, name, fn)
        # counted only when the solver calls them
        self._set(ptas, "apply_delete", self.wrap("game.apply_delete", ptas.apply_delete))
        self._set(
            ptas, "apply_restrict", self.wrap("game.apply_restrict", ptas.apply_restrict)
        )
        for attr in ("slice_domset", "slice_mis", "slice_ccolorable"):
            self._set(ptas, attr, self.wrap("ptas.slice", getattr(ptas, attr)))
        self._set(ptas, "_dedup_covers", self._wrap_dedup(ptas._dedup_covers))
        self._set(
            ptas, "_candidate_residues", self._wrap_candidates(ptas._candidate_residues)
        )
        self._set(
            ptas, "pickle", types.SimpleNamespace(dumps=self.wrap("ptas.memo_key", pickle.dumps))
        )
        og = graph.OrderedGraph
        self._set(og, "induced", self.wrap("graph.induced", og.induced))
        self._set(og, "bfs_distances", self.wrap("graph.bfs_distances", og.bfs_distances))
        base = strategies.DestroyerStrategy
        self._set(base, "fork", self.wrap("strategies.fork", base.fork))
        for cls in vars(strategies).values():
            if isinstance(cls, type) and issubclass(cls, base):
                for method in ("next_action", "observe"):
                    if method in vars(cls):
                        fn = vars(cls)[method]
                        self._set(cls, method, self.wrap("strategies." + method, fn))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_stats(self):
        """{span name: (calls, self seconds)} for every name in SPANS."""
        start, end, parent = self.span_start, self.span_end, self.span_parent
        dur = [e - s for s, e in zip(start, end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            calls[nid] += 1
            self_s[nid] += dur[i] - child[i]
        out = {name: (calls[i], self_s[i]) for i, name in enumerate(self.names)}
        for name, n in self.generator_calls.items():
            out[name] = (n, out[name][1])
        return out

    def write(self, path):
        """One JSON header line, then the span arrays in native byte order:
        name index (int32), parent span (int32, -1 for none), start and
        end (float64, perf_counter seconds)."""
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "arrays": ["name:i4", "parent:i4", "start:f8", "end:f8"],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
