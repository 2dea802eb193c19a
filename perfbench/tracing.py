"""Per-layer tracing from outside the program: wrappers around elgeo's public calls.

``Tracer.install`` replaces each traced function or method, in every loaded
``elgeo`` module that binds it, with a wrapper that records a span: its
duration and the time its traced children took.  Three metrics are self
times, as the span minus its traced children: ``dataset.load_s`` (so that
``build_kb`` inside ``load_dataset`` is not counted twice),
``geometry.loss_s`` (``loss_term`` without the gradient scatter) and
``evaluation.rank_s`` (``rank_axiom`` without scoring).  ``loss_term`` calls
made while scoring belong to ``evaluation.score_s``, not to the geometry.

Spans are timed with ``time.perf_counter``.  The CPU clock of the end-to-end
metrics is a system call (about 0.44 us against 0.08 us here), and the
``contains`` spans, about 100k per round of ``hierarchy_filtered``, last
about a microsecond each, so that clock would inflate them.  Sums are kept
in memory and read once per round.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from elgeo import closure, dataset, evaluation, geometry, normalize, reasoner, sampling, \
    sexpr, training

# (owner, attribute, span name); the span name keys the sums below
TRACED = (
    (dataset, "load_dataset", "load"),
    (dataset, "build_kb", "load"),
    (sexpr, "parse_general", "parse"),
    (normalize, "normalize", "normalize"),
    (reasoner, "saturate", "saturate"),
    (closure, "compute_closure", "compute"),
    (closure.DeductiveClosure, "contains", "contains"),
    (sampling.NegativeSampler, "corrupt_ids", "corrupt"),
    (geometry, "loss_term", "loss"),
    (geometry.GradientBuffer, "add_center", "scatter"),
    (geometry.GradientBuffer, "add_radius", "scatter"),
    (geometry.GradientBuffer, "add_rel", "scatter"),
    (training.Adam, "step", "adam"),
    (training, "validation_loss", "validation"),
    (evaluation, "rank_axiom", "rank"),
    (geometry.EmbeddingModel, "score_tails", "score"),
    (evaluation, "aggregate", "aggregate"),
)


COUNTED = ("saturate", "compute", "corrupt", "loss", "score")


class Tracer:
    """Span sums per name, plus the work counts of each layer."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self._spans = {name: [0.0, 0.0, 0] for *_, name in TRACED}  # seconds, self, calls
        self._stack: list[list[float]] = []   # per open span: its traced children's seconds
        self._scoring = [0]                    # open score spans
        self.counts: Counter = Counter()

    def reset(self):
        """Zero every sum in place; the installed wrappers hold references to them."""
        for span in self._spans.values():
            span[:] = [0.0, 0.0, 0]
        self.counts.clear()

    def _count(self, name: str, args, result):
        c = self.counts
        if name == "saturate":
            c["subsumer_pairs"] += sum(len(s) for s in result.subsumers)
        elif name == "compute":
            c["derived_axioms"] += sum(result.stats.values())
        elif name == "corrupt":
            c["rows_requested"] += len(args[2])
            c["rows_kept"] += int(result[1].sum())
        elif name == "loss":
            c["loss_rows"] += len(args[2][0])
        elif name == "score":
            c["candidates_scored"] += len(args[3])

    def wrap(self, name: str, fn):
        span = self._spans[name]
        stack, scoring = self._stack, self._scoring
        count = self._count if name in COUNTED else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if name == "loss" and scoring[0]:
                return fn(*args, **kwargs)   # part of the score span
            frame = [0.0]
            stack.append(frame)
            if name == "score":
                scoring[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if name == "score":
                    scoring[0] -= 1
                if stack:
                    stack[-1][0] += dt
                span[0] += dt
                span[1] += dt - frame[0]
                span[2] += 1
            if count:
                count(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner, attr, name in TRACED:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            # rebind every module-level alias too (``from .geometry import loss_term``)
            targets = [owner] + [m for key, m in sys.modules.items()
                                 if key.startswith("elgeo") and m is not owner
                                 and getattr(m, attr, None) is original]
            for target in targets:
                self._saved.append((target, attr, original))
                setattr(target, attr, wrapper)

    def uninstall(self):
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything traced since the last reset."""
        s, c = self._spans, self.counts
        requested = c["rows_requested"]
        return {
            "dataset.load_s": s["load"][1],
            "sexpr.parse_s": s["parse"][0],
            "normalize.normalize_s": s["normalize"][0],
            "reasoner.saturate_s": s["saturate"][0],
            "reasoner.subsumer_pairs": c["subsumer_pairs"],
            "closure.compute_s": s["compute"][0],
            "closure.derived_axioms": c["derived_axioms"],
            "closure.contains_calls": s["contains"][2],
            "closure.contains_s": s["contains"][0],
            "sampling.corrupt_s": s["corrupt"][0],
            "sampling.rows_requested": requested,
            "sampling.kept_ratio": c["rows_kept"] / requested if requested else 0.0,
            "geometry.loss_s": s["loss"][1],
            "geometry.loss_rows": c["loss_rows"],
            "geometry.scatter_s": s["scatter"][0],
            "geometry.scatter_calls": s["scatter"][2],
            "training.adam_s": s["adam"][0],
            "training.adam_steps": s["adam"][2],
            "training.validation_s": s["validation"][0],
            "evaluation.rank_s": s["rank"][1],
            "evaluation.score_s": s["score"][0],
            "evaluation.candidates_scored": c["candidates_scored"],
            "evaluation.aggregate_s": s["aggregate"][0],
        }
