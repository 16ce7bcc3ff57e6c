"""The benchmark's contract with the program: the traced benchmark wraps
program functions by name, and its training probe reads what `draw`,
`gradient` and `sgd_step` return. A change to either fails here, not only
in a benchmark run."""

import importlib
import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

from relerm import LossConfig, ParamStore, SamplerConfig, TrainConfig, from_edges
from relerm import trainer as T

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "benchmarks")
SPANS = os.path.join(BENCHMARKS, "spans.py")


def test_benchmark_span_targets_resolve():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in spans.TARGETS
               if not hasattr(owner, attr)]
    assert not missing


def test_benchmark_smoke_passes():
    # the whole harness at reduced sizes, every workload traced and
    # untraced, each result checked against its references; it writes only
    # under benchmarks/.work
    proc = subprocess.run([sys.executable, os.path.join(BENCHMARKS, "smoke.py")],
                          cwd=os.path.dirname(BENCHMARKS), capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


@pytest.fixture
def bench(monkeypatch):
    """benchmarks/phases.py and benchmarks/spans.py, imported as the
    benchmark imports them (with its directory on the path)."""
    monkeypatch.syspath_prepend(BENCHMARKS)
    return importlib.import_module("phases"), importlib.import_module("spans")


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < p
    return from_edges(n, np.stack([iu[keep], ju[keep]], axis=1))


TRAIN_CASES = {
    "rw_skipgram+unigram": SamplerConfig(algorithm="rw_skipgram", walk_length=12, window=4,
                                         negative="unigram", negatives_per_vertex=2),
    "p_sampling+induced": SamplerConfig(retention=0.05, negative="induced"),
}


@pytest.mark.parametrize("name", list(TRAIN_CASES))
def test_step_probe_checks_every_training_step(bench, name):
    phases, _ = bench
    graph, k = random_graph(200, 0.05, seed=1), 30
    probe = phases.StepProbe(set(range(k)), phases.Ledger())
    probe.install()
    try:
        T.train(graph, None, None, TrainConfig(sampler=TRAIN_CASES[name], steps=k,
                                               embedding_dim=8, seed=3, eval_samples=5))
    finally:
        probe.uninstall()
    assert probe.ledger.failures == []
    assert probe.checked == k and len(probe.pairs) == k
    if name == "p_sampling+induced":
        assert 0 in probe.pairs and max(probe.pairs) > 0  # empty draws and others


def test_tracer_layer_metrics_are_finite(bench):
    _, spans = bench
    graph = random_graph(60, 0.1, seed=2)
    path5 = from_edges(5, np.array([[0, 1], [1, 2], [2, 3], [3, 4]]))
    sampler = SamplerConfig(retention=0.3, negative="unigram", negatives_per_vertex=2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        params, _ = T.train(graph, None, None, TrainConfig(sampler=sampler, steps=20,
                                                           embedding_dim=4, seed=1,
                                                           eval_samples=5))
        T.estimate_risk(graph, None, params, sampler, LossConfig(), 50,
                        np.random.default_rng(4), method="loop")
        T.check_unbiasedness(path5, ParamStore(4, 0, seed=5),
                             SamplerConfig(retention=0.5), LossConfig(), 1000,
                             np.random.default_rng(6))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert all(np.isfinite(v) for v in metrics.values())
    # one `draw` call per training step (20) and per batch of an estimate:
    # 5 draws come as batches of 1 and 4 (twice, for the trace), 50 as
    # batches of 1, 16 and 33
    assert metrics["samplers.draw_calls"] == 27 and metrics["losses.gradient_calls"] > 20
    assert metrics["trainer.rows_updated"] > 0 and metrics["samplers.negatives_drawn"] > 0
