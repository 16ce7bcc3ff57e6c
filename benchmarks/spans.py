"""Spans around the program's public functions, for the traced run.

Each wrapper is installed at the name its callers look up: `train` finds
`draw`, `gradient`, `sgd_step` and `estimate_risk` in `relerm.trainer`,
the samplers find `induced_pairs` in `relerm.samplers`, and
`Graph.has_edges` is replaced on the class. A span records its name,
start, end and parent; spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

import numpy as np

from relerm import checkpoint, evaluation, graph, graphex, samplers, trainer


def _count_has_edges(c, out, g, us, vs):
    c["graph.has_edges_queries"] += len(us)


def _count_induced_pairs(c, out, *args, **kwargs):
    c["graph.induced_pairs_calls"] += 1
    c["graph.pairs_tested"] += len(out[0]) + len(out[1])


def _count_draw(c, sub, g, config, *args, **kwargs):
    c["samplers.draw_calls"] += 1
    c["samplers.vertices_drawn"] += len(sub.vertices)
    c["samplers.pairs_drawn"] += len(sub.positive_pairs) + len(sub.negative_pairs)
    if config.algorithm == "p_sampling":
        c["samplers.psample_draws"] += 1
        c["samplers.empty_draws"] += len(sub.vertices) == 0


def _count_unigram(c, out, g, sample, table, k_neg, rng):
    c["samplers.negatives_drawn"] += len(sample.vertices) * k_neg
    c["samplers.negatives_kept"] += len(out.negative_pairs) - len(sample.negative_pairs)


def _count_gradient(c, out, sample, labels, params, *args, **kwargs):
    pairs = len(sample.positive_pairs) + len(sample.negative_pairs)
    c["losses.gradient_calls"] += 1
    c["losses.pairs_scored"] += pairs
    c["losses.flops_computed"] += 4 * pairs * params.dim


def _count_loss(c, out, *args, **kwargs):
    c["losses.loss_calls"] += 1


def _count_update(c, out, params, grad, lr):
    c["trainer.rows_updated"] += len(grad.embeddings) + len(grad.categories)


def _count_estimate(c, est, *args, **kwargs):
    c["trainer.estimate_draws"] += est.n_samples


def _count_graphex(c, lg, spec, n, rng):
    c["graphex.vertices"] += lg.graph.vertex_count
    c["graphex.edges"] += lg.graph.edge_count
    # the dense generator flips one coin per ordered candidate pair;
    # computed from the expected candidate count m = n * x_max
    c["graphex.coin_flips_computed"] += (n * spec.x_max) ** 2


def _count_file(key):
    def count(c, out, obj, path):
        c[key] += os.path.getsize(path)
    return count


# (owner, attribute, span name, counter)
TARGETS = [
    (graph, "load_edge_list", "graph.ingest", None),
    (graph, "save_cache", "graph.ingest", None),
    (graph, "load_cache", "graph.ingest", None),
    (graph.Graph, "has_edges", "graph.has_edges", _count_has_edges),
    (samplers, "induced_pairs", "graph.induced_pairs", _count_induced_pairs),
    (trainer, "induced_pairs", "graph.induced_pairs", _count_induced_pairs),
    (samplers, "induced_edges", "graph.induced_edges", None),
    (trainer, "draw", "samplers.draw", _count_draw),
    (samplers, "random_walk", "samplers.walk", None),
    (samplers, "negative_unigram", "samplers.unigram_negatives", _count_unigram),
    (samplers, "build_unigram", "samplers.unigram_build", None),
    (trainer, "build_unigram", "samplers.unigram_build", None),
    (trainer, "gradient", "losses.gradient", _count_gradient),
    (trainer, "combined_loss", "losses.loss", _count_loss),
    (trainer, "train", "trainer.train", None),
    (trainer, "sgd_step", "trainer.update", _count_update),
    (trainer, "estimate_risk", "trainer.estimate", _count_estimate),
    (trainer, "exact_risk_psample", "trainer.exact_risk", None),
    (trainer, "exact_risk_walk", "trainer.exact_risk", None),
    (trainer, "check_unbiasedness", "trainer.unbiasedness", None),
    (evaluation, "make_split", "evaluation.split", None),
    (evaluation, "fit_logistic", "evaluation.fit", None),
    (evaluation, "predict_labels", "evaluation.predict", None),
    (evaluation, "macro_f1", "evaluation.predict", None),
    (graphex, "sample_graphex", "graphex.sample", _count_graphex),
    (graphex, "mark_embeddings", "graphex.mark", None),
    (checkpoint, "save_checkpoint", "checkpoint.save", _count_file("checkpoint.bytes")),
    (checkpoint, "export_embeddings", "checkpoint.export",
     _count_file("checkpoint.export_bytes")),
]

SPAN_NAMES = sorted({name for _, _, name, _ in TARGETS})

COUNTERS = [
    "graph.has_edges_queries", "graph.induced_pairs_calls", "graph.pairs_tested",
    "samplers.draw_calls", "samplers.negatives_drawn", "samplers.psample_draws",
    "losses.gradient_calls", "losses.flops_computed", "losses.loss_calls",
    "trainer.rows_updated", "trainer.estimate_draws", "graphex.vertices",
    "graphex.edges", "graphex.coin_flips_computed", "checkpoint.bytes",
    "checkpoint.export_bytes",
]

RATIOS = {  # name -> (numerator counter, base counter)
    "samplers.vertices_per_draw": ("samplers.vertices_drawn", "samplers.draw_calls"),
    "samplers.pairs_per_draw": ("samplers.pairs_drawn", "samplers.draw_calls"),
    "samplers.negatives_kept_ratio": ("samplers.negatives_kept", "samplers.negatives_drawn"),
    "samplers.empty_draw_ratio": ("samplers.empty_draws", "samplers.psample_draws"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, out, *args, **kwargs)
            return out
        return traced

    def install(self) -> None:
        for owner, attr, name, count in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Total and self seconds per span name plus the counters, for the
        spans and counts recorded since construction."""
        out = {}
        names = np.array([s[0] for s in self.spans], dtype=object)
        dur = np.array([s[2] - s[1] for s in self.spans], dtype=np.float64)
        parent = np.array([s[3] for s in self.spans], dtype=np.int64)
        nested = parent >= 0
        own = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        for name in SPAN_NAMES:
            hit = names == name
            out[f"{name}_s"] = float(dur[hit].sum())
            out[f"{name}_self_s"] = float(own[hit].sum())
        c = self.counts
        for key in COUNTERS:
            out[key] = float(c[key])
        for key, (num, base) in RATIOS.items():
            out[key] = c[num] / c[base] if c[base] else 0.0
        grad_s = out["losses.gradient_s"]
        out["losses.pairs_scored_per_s"] = c["losses.pairs_scored"] / grad_s if grad_s else 0.0
        return out

    def write(self, path: str, tag: str) -> None:
        """Append the spans as JSON lines: tag, name, start, end, parent."""
        with open(path, "a") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps([tag, name, start, end, parent]) + "\n")


def per_layer_names() -> list[str]:
    names = []
    for name in SPAN_NAMES:
        names += [f"{name}_s", f"{name}_self_s"]
    return names + COUNTERS + list(RATIOS) + ["losses.pairs_scored_per_s", "trace.overhead_s"]


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    return "count"
