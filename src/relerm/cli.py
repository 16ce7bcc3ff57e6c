"""Experiment runner CLI.

Configuration is one declarative file of flat dotted keys ("sampler.p =
0.1"); every key can be overridden on the command line with --set
key=value. All randomized subcommands require a seed and write the
resolved seed into their output header, so a run is reproducible from
its config alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import graph as graph_mod
from .checkpoint import export_embeddings, load_checkpoint, save_checkpoint
from .evaluation import make_split, simultaneous_eval, two_stage_eval
from .graphex import (GraphonSpec, MarkingKernel, risk_convergence_experiment,
                      sample_graphex, stability_experiment)
from .losses import LossConfig
from .samplers import SamplerConfig, build_unigram, draw
from .trainer import TrainConfig, check_unbiasedness, estimate_risk, \
    exact_risk_psample, exact_risk_walk, train
from .losses import ParamStore


class ConfigError(Exception):
    def __init__(self, violations):
        self.violations = violations
        super().__init__("; ".join(violations))


def parse_config(path: str | None, overrides: list[str]) -> dict[str, str]:
    cfg: dict[str, str] = {}
    if path is not None:
        with open(path) as f:
            for line_no, line in enumerate(f, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ConfigError([f"{path}:{line_no}: expected 'key = value'"])
                key, _, value = stripped.partition("=")
                cfg[key.strip()] = value.strip()
    for item in overrides:
        if "=" not in item:
            raise ConfigError([f"override {item!r} is not key=value"])
        key, _, value = item.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


def _get(cfg, key, cast, default=None, errors=None):
    if key not in cfg:
        if default is None and errors is not None:
            errors.append(f"missing required key {key!r}")
        return default
    raw = cfg[key]
    try:
        if cast is bool:
            return raw.lower() in ("1", "true", "yes")
        return cast(raw)
    except ValueError:
        if errors is not None:
            errors.append(f"key {key!r}: cannot parse {raw!r} as {cast.__name__}")
        return default


def _sampler_config(cfg, errors) -> SamplerConfig:
    sc = SamplerConfig(
        algorithm=_get(cfg, "sampler.algorithm", str, "p_sampling"),
        walk_length=_get(cfg, "sampler.walk_length", int, 80, errors),
        window=_get(cfg, "sampler.window", int, 10, errors),
        retention=_get(cfg, "sampler.retention", float, 0.1, errors),
        edge_count=_get(cfg, "sampler.edge_count", int, 100, errors),
        negative=_get(cfg, "sampler.negative", str, "none"),
        unigram_power=_get(cfg, "sampler.unigram_power", float, 0.75, errors),
        negatives_per_vertex=_get(cfg, "sampler.negatives_per_vertex", int, 5, errors),
        walk_start=_get(cfg, "sampler.walk_start", str, "uniform_vertex"),
    )
    errors.extend(sc.validate())
    return sc


def _loss_config(cfg, errors) -> LossConfig:
    lc = LossConfig(
        q=_get(cfg, "loss.q", float, 0.0, errors),
        prob_clip=_get(cfg, "loss.prob_clip", float, 1e-7, errors),
        mode=_get(cfg, "loss.mode", str, "edge_only"),
    )
    errors.extend(lc.validate())
    return lc


# keys of features that were removed; a config that sets one is rejected,
# not silently run without it
REMOVED_KEYS = {
    "train.workers": "threaded training was removed; training runs in one thread",
    "train.concurrent_updates": "lock-free concurrent updates were removed",
}


def _train_config(cfg, errors, seed) -> TrainConfig:
    errors.extend(f"key {key!r} is not supported: {why}"
                  for key, why in REMOVED_KEYS.items() if key in cfg)
    tc = TrainConfig(
        sampler=_sampler_config(cfg, errors),
        loss=_loss_config(cfg, errors),
        steps=_get(cfg, "train.steps", int, 1000, errors),
        lr_start=_get(cfg, "train.lr_start", float, 0.025, errors),
        lr_end=_get(cfg, "train.lr_end", float, 1e-4, errors),
        embedding_dim=_get(cfg, "train.embedding_dim", int, 128, errors),
        seed=seed,
        eval_every=_get(cfg, "train.eval_every", int, 0, errors),
        eval_samples=_get(cfg, "train.eval_samples", int, 25, errors),
    )
    return tc


PATH3_EDGES = "0 1\n1 2\n"


def _load_graph(cfg, errors):
    cache = cfg.get("graph.cache")
    edges = cfg.get("graph.edges")
    if cache:
        if not os.path.exists(cache):
            errors.append(f"graph.cache path {cache!r} does not exist")
            return None
        return graph_mod.load_cache(cache)
    if edges:
        if not os.path.exists(edges):
            errors.append(f"graph.edges path {edges!r} does not exist")
            return None
        with open(edges) as f:
            g, _ = graph_mod.load_edge_list(
                f,
                drop_self_loops=_get(cfg, "graph.drop_self_loops", bool, True),
                largest_component_only=_get(cfg, "graph.largest_component_only",
                                            bool, False),
            )
        return g
    errors.append("one of graph.edges or graph.cache is required")
    return None


def _load_labels(cfg, g, errors):
    path = cfg.get("labels.path")
    if not path:
        return None
    dim = _get(cfg, "labels.dim", int, None, errors)
    if dim is None:
        return None
    if not os.path.exists(path):
        errors.append(f"labels.path {path!r} does not exist")
        return None
    with open(path) as f:
        return graph_mod.load_labels(f, g, dim)


def _outdir(cfg, errors):
    out = cfg.get("output.dir", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _require_seed(cfg, errors) -> int:
    return _get(cfg, "seed", int, None, errors)


def _header(seed):
    return {"record": "header", "seed": seed}


def cmd_ingest(cfg):
    errors = []
    seed = _require_seed(cfg, errors)
    out = _outdir(cfg, errors)
    edges = cfg.get("graph.edges")
    if not edges:
        errors.append("graph.edges is required for ingest")
    elif not os.path.exists(edges):
        errors.append(f"graph.edges path {edges!r} does not exist")
    if errors:
        raise ConfigError(errors)
    with open(edges) as f:
        g, ids = graph_mod.load_edge_list(
            f,
            drop_self_loops=_get(cfg, "graph.drop_self_loops", bool, True),
            largest_component_only=_get(cfg, "graph.largest_component_only",
                                        bool, False),
        )
    path = os.path.join(out, "graph.bin")
    graph_mod.save_cache(g, path, ids)
    print(json.dumps({"record": "ingest", "seed": seed, "cache": path,
                      "vertices": g.vertex_count, "edges": g.edge_count}))
    return 0


def cmd_sample(cfg):
    errors = []
    seed = _require_seed(cfg, errors)
    out = _outdir(cfg, errors)
    g = _load_graph(cfg, errors)
    sc = _sampler_config(cfg, errors)
    count = _get(cfg, "sample.count", int, 10, errors)
    if errors:
        raise ConfigError(errors)
    rng = np.random.default_rng(seed)
    table = build_unigram(g, sc.unigram_power) if sc.negative == "unigram" else None
    path = os.path.join(out, "samples.jsonl")
    with open(path, "w") as f:
        f.write(json.dumps(_header(seed)) + "\n")
        for i in range(count):
            s = draw(g, sc, rng, unigram_table=table)
            f.write(json.dumps({
                "record": "sample", "index": i, "source": s.source,
                "vertices": s.vertices.tolist(),
                "positive_pairs": s.positive_pairs.tolist(),
                "negative_pairs": s.negative_pairs.tolist(),
            }) + "\n")
    print(path)
    return 0


def cmd_train(cfg):
    errors = []
    seed = _require_seed(cfg, errors)
    out = _outdir(cfg, errors)
    g = _load_graph(cfg, errors)
    tc = _train_config(cfg, errors, seed if seed is not None else 0)
    errors.extend(tc.validate())
    labels = _load_labels(cfg, g, errors) if g is not None else None
    if tc.loss.mode == "node_classification" and labels is None:
        errors.append("node_classification loss requires labels.path and labels.dim")
    if errors:
        raise ConfigError(errors)
    wallclock = _get(cfg, "train.trace_wallclock", bool, False)
    params, trace = train(g, labels, None, tc, trace_wallclock=wallclock)
    ckpt = os.path.join(out, "checkpoint.bin")
    save_checkpoint(params, ckpt)
    trace_path = os.path.join(out, "trace.jsonl")
    with open(trace_path, "w") as f:
        f.write(json.dumps(_header(seed)) + "\n")
        for rec in trace:
            f.write(json.dumps(rec) + "\n")
    emb_path = os.path.join(out, "embeddings.tsv")
    export_embeddings(params.embeddings, emb_path)
    print(json.dumps({"record": "train", "seed": seed, "checkpoint": ckpt,
                      "trace": trace_path, "final_risk": trace[-1]["risk_mean"]}))
    return 0


def cmd_eval(cfg):
    errors = []
    seed = _require_seed(cfg, errors)
    out = _outdir(cfg, errors)
    g = _load_graph(cfg, errors)
    tc = _train_config(cfg, errors, seed if seed is not None else 0)
    labels = _load_labels(cfg, g, errors) if g is not None else None
    if labels is None:
        errors.append("eval requires labels.path and labels.dim")
    protocol = _get(cfg, "eval.protocol", str, "two_stage")
    if protocol not in ("two_stage", "simultaneous"):
        errors.append(f"unknown eval.protocol {protocol!r}")
    fraction = _get(cfg, "eval.fraction", float, 0.5, errors)
    schemes = _get(cfg, "eval.schemes", str, "uniform_vertex").split(",")
    n_seeds = _get(cfg, "eval.seeds", int, 5, errors)
    prediction = _get(cfg, "eval.prediction", str, "threshold")
    if errors:
        raise ConfigError(errors)
    path = os.path.join(out, "results.csv")
    rows = []
    for scheme in schemes:
        scores = []
        for s in range(n_seeds):
            rng = np.random.default_rng((seed, s))
            split = make_split(g, fraction, scheme.strip(), rng)
            run_tc = replace(tc, seed=int(np.random.default_rng((seed, s, 1)).integers(2 ** 31)))
            if protocol == "two_stage":
                score = two_stage_eval(g, labels, split, run_tc, prediction)
            else:
                score = simultaneous_eval(g, labels, split, run_tc, prediction)
            scores.append(score)
        rows.append((protocol, tc.sampler.algorithm + "+" + tc.sampler.negative,
                     scheme.strip(), float(np.mean(scores))))
    with open(path, "w") as f:
        f.write(f"# seed={seed}\n")
        f.write("protocol,sampler,test_scheme,macro_f1\n")
        for row in rows:
            f.write(",".join(str(x) for x in row) + "\n")
    print(path)
    return 0


def cmd_simulate(cfg):
    errors = []
    seed = _require_seed(cfg, errors)
    out = _outdir(cfg, errors)
    experiment = _get(cfg, "simulate.experiment", str, "risk_convergence")
    sizes = [float(s) for s in _get(cfg, "simulate.sizes", str, "50,100,200").split(",")]
    replicates = _get(cfg, "simulate.replicates", int, 10, errors)
    delta = _get(cfg, "simulate.delta", float, 25.0, errors)
    if experiment not in ("mecke", "risk_convergence", "stability"):
        errors.append(f"unknown simulate.experiment {experiment!r}")
    sc = _sampler_config(cfg, errors)
    lc = _loss_config(cfg, errors)
    tc = _train_config(cfg, errors, seed if seed is not None else 0)
    if errors:
        raise ConfigError(errors)
    rng = np.random.default_rng(seed)
    spec = GraphonSpec.exp_decay()
    if experiment == "mecke":
        records = []
        for n in sizes:
            for rep in range(replicates):
                lg = sample_graphex(spec, n, rng)
                records.append({"experiment": "mecke", "n": n, "replicate": rep,
                                "statistic": "edge_count",
                                "value": lg.graph.edge_count})
    elif experiment == "risk_convergence":
        kernel = MarkingKernel(fn=lambda x: np.array([np.exp(-x), 1.0]),
                               dim=2, noise_scale=0.1)
        records = risk_convergence_experiment(spec, kernel, sizes, sc, lc,
                                              replicates, rng)
    else:
        records = stability_experiment(spec, sizes, delta, tc, replicates, rng)
    path = os.path.join(out, "simulate.jsonl")
    with open(path, "w") as f:
        f.write(json.dumps(_header(seed)) + "\n")
        for rec in records:
            f.write(json.dumps(rec) + "\n")
    print(path)
    return 0


def cmd_riskcheck(cfg):
    errors = []
    seed = _require_seed(cfg, errors)
    out = _outdir(cfg, errors)
    n = _get(cfg, "riskcheck.samples", int, 100000, errors)
    if errors:
        raise ConfigError(errors)
    if cfg.get("graph.edges") or cfg.get("graph.cache"):
        g = _load_graph(cfg, errors)
        if errors:
            raise ConfigError(errors)
    else:
        g, _ = graph_mod.load_edge_list(PATH3_EDGES.splitlines())
    loss = LossConfig(mode="edge_only")
    rng = np.random.default_rng(seed)
    report = {"record": "riskcheck", "seed": seed, "checks": []}
    ok = True

    def param_store():
        ps = ParamStore(4, 0, seed=seed)
        for v in range(g.vertex_count):
            ps.embedding(v)
        return ps

    for name, sampler in (
        ("p_sampling", SamplerConfig(algorithm="p_sampling", retention=0.5)),
        ("rw_induced", SamplerConfig(algorithm="rw_induced", walk_length=2)),
    ):
        ps = param_store()
        if name == "p_sampling":
            exact = exact_risk_psample(g, None, ps, 0.5, loss)
        else:
            exact = exact_risk_walk(g, None, ps, 2, "uniform_vertex", loss)
        est = estimate_risk(g, None, ps, sampler, loss, n, rng)
        se = max(est.std_error, 1e-12)
        risk_z = abs(est.mean - exact) / se
        rep = check_unbiasedness(g, ps, sampler, loss, n, rng)
        passed = bool(risk_z < 4.0 and rep.max_abs_z < 4.0)
        ok = ok and passed
        report["checks"].append({"sampler": name, "exact_risk": exact,
                                 "mc_risk": est.mean, "risk_z": float(risk_z),
                                 "max_grad_z": rep.max_abs_z, "pass": passed})
    path = os.path.join(out, "riskcheck.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=2)
    print(json.dumps(report))
    return 0 if ok else 1


COMMANDS = {
    "ingest": cmd_ingest,
    "sample": cmd_sample,
    "train": cmd_train,
    "eval": cmd_eval,
    "simulate": cmd_simulate,
    "riskcheck": cmd_riskcheck,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="relerm",
                                     description="relational ERM experiment runner")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("config", nargs="?", help="config file of flat dotted keys")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config, args.overrides)
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(json.dumps({"record": "error", "kind": "config",
                          "violations": exc.violations}), file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surface as machine-readable record
        print(json.dumps({"record": "error", "kind": type(exc).__name__,
                          "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
