"""The benchmark's phases: set-up, train (with save, final risk and the
two-stage classifier), risk checks and graphex simulation.

Every workload runs every phase, so that each reports every end-to-end
metric; a workload differs from the others in its training sampler and in
how much work each phase gets (see `run.workloads`). All program calls go
through module attributes (`T.train`, `G.load_cache`, ...) so the traced
run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

import numpy as np

from relerm import checkpoint as C
from relerm import evaluation as E
from relerm import graph as G
from relerm import graphex as X
from relerm import samplers as S
from relerm import trainer as T
from relerm.losses import LossConfig, ParamStore
from relerm.samplers import SamplerConfig
from relerm.trainer import TrainConfig

import inputs
import reference as ref

LOSS = LossConfig()
EVAL_SEED = 7919          # fixed seed of the final-risk estimate
FIXTURE_SEED = 1          # fixed inputs of the risk checks (see inputs.py)
MC_SEED = 2
LEARNING_GAP_SE = 10.0    # trained risk below step-0 risk by this many SE
F1_OVER_CHANCE = 5.0      # macro-F1 at least this multiple of chance
Z_GATE = 4.0


@dataclass(frozen=True)
class TrainSpec:
    sampler: SamplerConfig
    dim: int
    steps: int              # the checked training: final risk, eval, learning
    timed_steps: int        # each timed training (same seed, so its draws
                            # are the first timed_steps draws of the checked one)
    lr_start: float
    lr_end: float
    risk_draws: int
    # "trained": classify the trained embeddings and require learning.
    # "planted": the trained embeddings carry no block signal at this
    # budget, so classify planted block features instead.
    eval_features: str


@dataclass(frozen=True)
class RiskcheckSpec:
    psample_fixtures: tuple
    walk_cases: tuple        # (fixture, walk length)
    unbiased_cases: tuple    # (fixture, SamplerConfig)
    draws: int               # aggregated estimates and unbiasedness
    loop_draws: int          # per-draw estimates


@dataclass(frozen=True)
class SimulateSpec:
    replicates: tuple        # (size n, replicates)
    risk_draws: int
    # None: graphs from the workload seed. A companion run sets a fixed
    # seed, so that its edge rate carries no seed-to-seed variation.
    seed: int | None = None


# The calibration loop's seconds on a quiet machine (the reference machine
# of README.md); calibrated times are scaled to this speed.
CALIBRATION_REFERENCE_S = 0.0060


def loop_seconds() -> float:
    """Times a fixed Python loop of the benchmark's own: dict updates and
    float additions, no call into the program."""
    t0 = time.perf_counter()
    d, s = {}, 0.0
    for i in range(30_000):
        k = i % 1009
        d[k] = d.get(k, 0.0) + i * 0.5
        s += d[k]
    return time.perf_counter() - t0


class Ledger:
    """Counts the program operations a run attempts and the checks that
    fail; each failed check counts as one failed operation.

    While `calibrated` is set (the timed rounds), each call's seconds are
    scaled to the quiet speed of `loop_seconds`, timed right before and
    right after the call: seconds x CALIBRATION_REFERENCE_S / mean loop
    seconds. A co-tenant that slows the machine slows the loop with it
    (README.md, "Times are calibrated")."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.calibrated = False
        self._loops: list[float] = []
        self._excluded = 0.0

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        if not self.calibrated:
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            return out, time.perf_counter() - t0
        self._loops, self._excluded = [loop_seconds()], 0.0
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        seconds = time.perf_counter() - t0 - self._excluded
        self._loops.append(loop_seconds())
        return out, seconds * CALIBRATION_REFERENCE_S / (sum(self._loops) / len(self._loops))

    def inner_loop(self) -> None:
        """Times the loop inside the call in progress (the step probe does,
        during a training); its seconds are left out of the call's."""
        if self.calibrated:
            t0 = time.perf_counter()
            self._loops.append(loop_seconds())
            self._excluded += time.perf_counter() - t0

    def check(self, ok, what: str) -> None:
        if not ok:
            self.failures.append(what)


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# -- set-up -------------------------------------------------------------------

@dataclass
class Inputs:
    planted: inputs.Planted
    edge_set: ref.EdgeSet
    edge_path: str
    cache_path: str
    fixtures: dict          # name -> (n, edges)
    feature_rows: np.ndarray


@dataclass
class Prepared:
    graph: G.Graph
    unigram: S.UnigramTable
    labels: G.LabelTable
    planted_params: ParamStore
    fixture_graphs: dict
    fixture_params: dict


def make_inputs(spec: inputs.PlantedSpec, seed: int, workdir: str) -> Inputs:
    planted = inputs.planted_partition(spec, np.random.default_rng((seed, 0)))
    edge_path = os.path.join(workdir, "edges.txt")
    with open(edge_path, "w") as f:
        f.write(inputs.edge_list_text(planted.edges))
    return Inputs(planted=planted,
                  edge_set=ref.EdgeSet(spec.vertices, planted.edges),
                  edge_path=edge_path,
                  cache_path=os.path.join(workdir, "graph.bin"),
                  fixtures=inputs.fixture_edges(),
                  feature_rows=inputs.planted_features(
                      planted, np.random.default_rng((seed, 3))))


def setup(inp: Inputs, tau: float, ledger: Ledger) -> tuple[Prepared, float, G.Graph]:
    """The program calls that prepare inputs: ingest the edge list, write
    and reload the binary cache, build the unigram table, and construct
    the fixture graphs and parameter stores. Returns the prepared inputs,
    the seconds taken and the graph as parsed before the cache round trip."""
    total = 0.0
    with open(inp.edge_path) as f:
        (parsed, _), dt = ledger.call(G.load_edge_list, f)
    total += dt
    _, dt = ledger.call(G.save_cache, parsed, inp.cache_path)
    total += dt
    graph, dt = ledger.call(G.load_cache, inp.cache_path)
    total += dt
    unigram, dt = ledger.call(S.build_unigram, graph, tau)
    total += dt
    (labels, planted_params, fixture_graphs, fixture_params), dt = ledger.call(
        _build_fixtures, inp, graph.vertex_count)
    total += dt
    prepared = Prepared(graph, unigram, labels, planted_params,
                        fixture_graphs, fixture_params)
    return prepared, total, parsed


def _build_fixtures(inp: Inputs, v: int):
    """The label table, the planted-feature parameters, and the fixture
    graphs and their parameter stores."""
    labels = G.LabelTable(inp.planted.spec.blocks, inp.planted.labels,
                          np.ones(v, dtype=bool))
    planted_params = ParamStore(inp.feature_rows.shape[1], 0, seed=0)
    for i, row in enumerate(inp.feature_rows):
        planted_params.embeddings[i] = row
    fixture_graphs, fixture_params = {}, {}
    for name, (n, edges) in inp.fixtures.items():
        fixture_graphs[name] = G.from_edges(n, edges)
        for dim in (inputs.FIXTURE_DIM, inputs.FIXTURE_DIM + 1):
            ps = ParamStore(dim, 0, seed=FIXTURE_SEED)
            for i, row in enumerate(inputs.fixture_embeddings(n, dim, FIXTURE_SEED)):
                ps.embeddings[i] = row
            fixture_params[name, dim] = ps
    return labels, planted_params, fixture_graphs, fixture_params


def check_setup(inp: Inputs, parsed: G.Graph, prep: Prepared, tau: float,
                ledger: Ledger) -> None:
    g = prep.graph
    ledger.check(np.array_equal(g.edge_list.astype(np.int64), inp.planted.edges),
                 "ingested edge list differs from the generated edges")
    ledger.check(all(np.array_equal(a, b) for a, b in (
        (g.offsets, parsed.offsets), (g.neighbors, parsed.neighbors),
        (g.edge_list, parsed.edge_list))), "cache round trip changed the graph")
    bad = ref.csr_violations(g.offsets, g.neighbors, g.edge_list)
    ledger.check(not bad, f"ingested graph invariants: {bad}")
    deg = np.bincount(inp.planted.edges.reshape(-1),
                      minlength=inp.planted.spec.vertices).astype(np.float64)
    want = deg ** tau / (deg ** tau).sum()
    ledger.check(np.allclose(prep.unigram.probabilities, want, rtol=1e-12, atol=0),
                 "unigram probabilities differ from degree^tau")


# -- train --------------------------------------------------------------------

class StepProbe:
    """Wraps `gradient` and `sgd_step` where `train` looks them up. Records
    the pair count of every step; on the chosen steps compares the gradient
    with the numpy reference and the update with -lr * g, and keeps the
    time that took apart. Every `calibrate_every` steps it times the
    ledger's calibration loop, so a long training is calibrated inside."""

    def __init__(self, steps: set, ledger: Ledger, calibrate_every: int = 0):
        self.steps = steps
        self.ledger = ledger
        self.calibrate_every = calibrate_every
        self.step = 0
        self.pairs: list[int] = []
        self.check_s = 0.0
        self.checked = 0

    def install(self):
        self._grad, self._sgd = T.gradient, T.sgd_step
        T.gradient, T.sgd_step = self._gradient, self._sgd_step

    def uninstall(self):
        T.gradient, T.sgd_step = self._grad, self._sgd

    def _gradient(self, sample, labels, params, config, cats=None):
        out = self._grad(sample, labels, params, config, cats)
        self.pairs.append(len(sample.positive_pairs) + len(sample.negative_pairs))
        if self.step in self.steps:
            t0 = time.perf_counter()
            verts = sample.vertices
            want = ref.edge_gradient(verts, params.embedding_matrix(verts),
                                     sample.positive_pairs, sample.negative_pairs)
            got = np.array([out.embeddings[int(v)] for v in verts])
            err = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)
            self.ledger.check(err <= 1e-9, f"gradient at step {self.step}: rel err {err:.2e}")
            self.check_s += time.perf_counter() - t0
        return out

    def _sgd_step(self, params, grad, lr):
        probe = self.step in self.steps
        if probe:
            t0 = time.perf_counter()
            before = {v: params.embedding(v).copy() for v in grad.embeddings}
            self.check_s += time.perf_counter() - t0
        self._sgd(params, grad, lr)
        if probe:
            t0 = time.perf_counter()
            moved = all(np.array_equal(params.embedding(v), before[v] - lr * g)
                        for v, g in grad.embeddings.items())
            self.ledger.check(moved, f"sgd_step at step {self.step} is not -lr * g")
            self.checked += 1
            self.check_s += time.perf_counter() - t0
        self.step += 1
        if self.calibrate_every and self.step % self.calibrate_every == 0:
            self.ledger.inner_loop()


def window_pair_bound(walk_length: int, window: int) -> int:
    """Index pairs (i, j), 0 < j - i <= window, in a walk of walk_length steps."""
    return sum(max(0, walk_length + 1 - d) for d in range(1, window + 1))


def replay_draws(prep: Prepared, inp: Inputs, cfg: TrainConfig,
                 ledger: Ledger) -> list[int]:
    """Re-draw the samples `train` consumed (with workers=1 its generator
    feeds `draw` alone) and check each one against the benchmark's own edge
    set. Returns the pair count of every draw."""
    sc = cfg.sampler
    rng = np.random.default_rng(cfg.seed)
    table = S.build_unigram(prep.graph, sc.unigram_power) if sc.negative == "unigram" else None
    es = inp.edge_set
    bound = window_pair_bound(sc.walk_length, sc.window)
    pairs, bad = [], []
    for step in range(cfg.steps):
        sub = S.draw(prep.graph, sc, rng, unigram_table=table)
        pos, neg = sub.positive_pairs, sub.negative_pairs
        pairs.append(len(pos) + len(neg))
        if sc.negative == "unigram":
            if len(neg) and ((neg[:, 0] == neg[:, 1]).any() or es.contains(neg[:, 0], neg[:, 1]).any()):
                bad.append(f"step {step}: unigram negative is an edge or a self-pair")
        if sc.algorithm == "rw_skipgram" and len(pos) > bound:
            bad.append(f"step {step}: {len(pos)} positives exceed {bound} window pairs")
        if sc.negative == "induced":
            want_pos, want_neg = es.induced(sub.vertices)
            if not (np.array_equal(es.pair_codes(pos), want_pos)
                    and np.array_equal(es.pair_codes(neg), want_neg)):
                bad.append(f"step {step}: pairs are not the induced edges/non-edges")
            if len(sub.vertices) and len(np.setdiff1d(sub.vertices, pos)):
                bad.append(f"step {step}: isolated vertex kept")
    ledger.check(not bad, "; ".join(bad[:3]))
    return pairs


@dataclass
class TrainResult:
    params: ParamStore
    train_s: float
    save_s: float        # save_checkpoint plus export_embeddings
    digest: str          # of the checkpoint and TSV bytes


def train_config(spec: TrainSpec, seed: int, steps: int) -> TrainConfig:
    return TrainConfig(sampler=spec.sampler, steps=steps, lr_start=spec.lr_start,
                       lr_end=spec.lr_end, embedding_dim=spec.dim, seed=seed)


def train_phase(prep: Prepared, spec: TrainSpec, steps: int, seed: int, workdir: str,
                ledger: Ledger, probe: StepProbe) -> TrainResult:
    """`train`, then `save_checkpoint` and `export_embeddings`."""
    probe.install()
    try:
        (params, _), train_s = ledger.call(T.train, prep.graph, None, None,
                                           train_config(spec, seed, steps))
    finally:
        probe.uninstall()

    ck, tsv = os.path.join(workdir, "checkpoint.bin"), os.path.join(workdir, "embeddings.tsv")
    _, s1 = ledger.call(C.save_checkpoint, params, ck)
    _, s2 = ledger.call(C.export_embeddings, params.embeddings, tsv)
    digest = hashlib.sha256()
    for path in (ck, tsv):
        with open(path, "rb") as f:
            digest.update(f.read())
    return TrainResult(params, train_s - probe.check_s, s1 + s2, digest.hexdigest())


def final_risk(prep: Prepared, spec: TrainSpec, params: ParamStore,
               ledger: Ledger) -> T.RiskEstimate:
    """`estimate_risk` under the training sampler, with a fixed seed."""
    risk, _ = ledger.call(T.estimate_risk, prep.graph, None, params, spec.sampler,
                          LOSS, spec.risk_draws, np.random.default_rng(EVAL_SEED))
    return risk


def eval_phase(prep: Prepared, feats: ParamStore, seed: int,
               ledger: Ledger) -> tuple[float, float]:
    """The two-stage protocol on frozen features: uniform 0.5 split,
    logistic fit on the train vertices, top-k prediction, macro-F1 on the
    test vertices. Returns (seconds, macro-F1)."""
    labels = prep.labels
    split, s1 = ledger.call(E.make_split, prep.graph, 0.5, "uniform_vertex",
                            np.random.default_rng((seed, 1)))
    everyone = np.arange(prep.graph.vertex_count, dtype=np.int64)
    x, s2 = ledger.call(feats.embedding_matrix, everyone)
    (w, b), s3 = ledger.call(E.fit_logistic, x[split.train_vertices],
                             labels.labels[split.train_vertices])
    fitted, s4 = ledger.call(feats.copy)
    fitted.label_dim = labels.label_dim
    fitted.weights, fitted.bias = w, b
    pred, s5 = ledger.call(E.predict_labels, fitted, everyone, labels, "top_k")
    f1, s6 = ledger.call(E.macro_f1, pred, labels, split.test_vertices)
    return s1 + s2 + s3 + s4 + s5 + s6, f1


def check_training(prep: Prepared, spec: TrainSpec, seed: int, probe: StepProbe,
                   risk: T.RiskEstimate, f1: float, ledger: Ledger) -> None:
    ledger.check(probe.checked == len(probe.steps) and len(probe.pairs) == spec.steps,
                 "step probe did not see every checked step")
    ledger.check(np.isfinite(risk.mean) and risk.std_error > 0, "final risk not finite")
    chance = 1.0 / prep.labels.label_dim
    ledger.check(f1 > F1_OVER_CHANCE * chance,
                 f"macro-F1 {f1:.3f} not far above chance {chance:.3f}")
    if spec.eval_features == "trained":
        risk0 = T.estimate_risk(prep.graph, None, ParamStore(spec.dim, 0, seed=seed),
                                spec.sampler, LOSS, spec.risk_draws,
                                np.random.default_rng(EVAL_SEED))
        gap = risk0.mean - risk.mean
        se = float(np.hypot(risk0.std_error, risk.std_error))
        ledger.check(gap > LEARNING_GAP_SE * se,
                     f"trained risk {risk.mean:.2f} not below step-0 risk "
                     f"{risk0.mean:.2f} by {LEARNING_GAP_SE} SE ({se:.2f})")


# -- risk checks (part a) -----------------------------------------------------

@dataclass
class RiskcheckResult:
    seconds: float
    estimates: list    # (fixture, sampler, exact risk, aggregated, per-draw)
    unbiased: list     # (fixture, sampler, UnbiasednessReport)

    def fingerprint(self) -> list:
        return ([(exact, agg.mean, loop.mean) for _, _, exact, agg, loop in self.estimates]
                + [rep.z_scores.tolist() for _, _, rep in self.unbiased])


def riskcheck_phase(prep: Prepared, spec: RiskcheckSpec, ledger: Ledger) -> RiskcheckResult:
    """Exact risks, both estimator paths and the unbiasedness check on the
    fixture graphs."""
    p = inputs.FIXTURE_PSAMPLE_RETENTION
    dim = inputs.FIXTURE_DIM
    out = RiskcheckResult(0.0, [], [])
    cases = [(name, SamplerConfig(algorithm="p_sampling", retention=p))
             for name in spec.psample_fixtures]
    cases += [(name, SamplerConfig(algorithm="rw_induced", walk_length=r))
              for name, r in spec.walk_cases]
    for i, (name, sampler) in enumerate(cases):
        g, params = prep.fixture_graphs[name], prep.fixture_params[name, dim]
        if sampler.algorithm == "p_sampling":
            exact, dt = ledger.call(T.exact_risk_psample, g, None, params, p, LOSS)
        else:
            exact, dt = ledger.call(T.exact_risk_walk, g, None, params,
                                    sampler.walk_length, "uniform_vertex", LOSS)
        out.seconds += dt
        rng = np.random.default_rng((MC_SEED, i))
        agg, dt = ledger.call(T.estimate_risk, g, None, params, sampler, LOSS,
                              spec.draws, rng, method="aggregated")
        out.seconds += dt
        loop, dt = ledger.call(T.estimate_risk, g, None, params, sampler, LOSS,
                               spec.loop_draws, rng, method="loop")
        out.seconds += dt
        out.estimates.append((name, sampler, exact, agg, loop))
    for i, (name, sampler) in enumerate(spec.unbiased_cases):
        g, params = prep.fixture_graphs[name], prep.fixture_params[name, dim + 1]
        rep, dt = ledger.call(T.check_unbiasedness, g, params, sampler, LOSS,
                              spec.draws, np.random.default_rng((MC_SEED, 100 + i)))
        out.seconds += dt
        out.unbiased.append((name, sampler, rep))
    return out


def _risk_terms(name: str, sampler: SamplerConfig) -> ref.PairSum:
    n, edges = inputs.fixture_edges()[name]
    if sampler.algorithm == "p_sampling":
        return ref.psample_risk_terms(n, edges, sampler.retention)
    return ref.walk_risk_terms(n, edges, sampler.walk_length)


def check_riskcheck(prep: Prepared, rc: RiskcheckResult, ledger: Ledger) -> None:
    for name, sampler, exact, agg, loop in rc.estimates:
        emb = inputs.fixture_embeddings(prep.fixture_graphs[name].vertex_count,
                                        inputs.FIXTURE_DIM, FIXTURE_SEED)
        want = _risk_terms(name, sampler).value(emb)
        tag = f"{name}/{sampler.algorithm}"
        ledger.check(_rel(exact, want) <= 1e-10,
                     f"{tag}: exact risk {exact!r} != enumeration {want!r}")
        for label, est in (("aggregated", agg), ("loop", loop)):
            z = abs(est.mean - want) / max(est.std_error, 1e-300)
            ledger.check(z < Z_GATE, f"{tag}: {label} estimate |z| = {z:.2f}")
    for name, sampler, rep in rc.unbiased:
        n = prep.fixture_graphs[name].vertex_count
        dim = inputs.FIXTURE_DIM + 1
        tag = f"{name}/{sampler.algorithm}"
        ledger.check(rep.max_abs_z < Z_GATE,
                     f"{tag}: unbiasedness max |z| = {rep.max_abs_z:.2f}")
        emb = inputs.fixture_embeddings(n, dim, FIXTURE_SEED)
        fd = _risk_terms(name, sampler).finite_difference_gradient(emb)
        got = rep.exact_gradient[: n * dim].reshape(n, dim)
        err = np.linalg.norm(got - fd) / max(np.linalg.norm(fd), 1e-300)
        ledger.check(err < 1e-6, f"{tag}: exact gradient vs finite differences {err:.1e}")


# -- graphex simulation (part b) ----------------------------------------------

def _kernel_fn(x: float) -> np.ndarray:
    return np.array([np.exp(-x), 1.0])


KERNEL = X.MarkingKernel(fn=_kernel_fn, dim=2)


@dataclass
class SimResult:
    sample_s: float      # sample_graphex calls
    mark_s: float        # mark_embeddings calls
    mc_s: float          # per-draw estimate_risk calls
    edges: int
    mc_draws: int
    fingerprint: list


def simulate_phase(spec: SimulateSpec, seed: int, ledger: Ledger,
                   check: bool) -> SimResult:
    graphon = X.GraphonSpec.exp_decay()
    rng = np.random.default_rng((seed if spec.seed is None else spec.seed, 2))
    out = SimResult(0.0, 0.0, 0.0, 0, 0, [])
    for n, reps in spec.replicates:
        samplers = (SamplerConfig(algorithm="rw_induced", walk_length=8),
                    SamplerConfig(algorithm="p_sampling", retention=min(1.0, 6.0 / n)))
        counts = []
        for _ in range(reps):
            lg, dt = ledger.call(X.sample_graphex, graphon, n, rng)
            out.sample_s += dt
            out.edges += lg.graph.edge_count
            counts.append(lg.graph.edge_count)
            params, dt = ledger.call(X.mark_embeddings, lg, KERNEL, rng)
            out.mark_s += dt
            for sampler in samplers:
                est, dt = ledger.call(T.estimate_risk, lg.graph, None, params, sampler,
                                      LOSS, spec.risk_draws, rng, method="loop")
                out.mc_s += dt
                out.mc_draws += spec.risk_draws
                out.fingerprint.append(est.mean)
                if check:
                    ledger.check(np.isfinite(est.mean), f"graphex n={n}: risk not finite")
            if check:
                g = lg.graph
                bad = ref.csr_violations(g.offsets, g.neighbors, g.edge_list)
                ledger.check(not bad, f"graphex n={n}: {bad}")
                marks = params.embedding_matrix(np.arange(g.vertex_count))
                want = np.array([_kernel_fn(float(x)) for x in lg.latents])
                ledger.check(np.array_equal(marks, want), f"graphex n={n}: marks != m(x)")
        out.fingerprint += counts
        if check:
            mean, var = ref.graphex_edge_moments(n)
            z = (np.mean(counts) - mean) / np.sqrt(var / reps)
            ledger.check(abs(z) < Z_GATE,
                         f"graphex n={n}: mean edges {np.mean(counts):.0f}, z = {z:.2f}")
    return out
