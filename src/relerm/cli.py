"""Experiment runner CLI.

Configuration is one declarative file of flat dotted keys
("sampler.retention = 0.1"); every key can be overridden on the command
line with --set key=value. The `sampler.*`, `loss.*` and `train.*` keys are
the fields of SamplerConfig, LossConfig and TrainConfig, defaults included;
each subcommand's other keys and their defaults are in COMMANDS. Before a
subcommand creates its output directory or does any work, one prologue
reads the required `seed`, rejects every key the subcommand does not read,
parses every value as the type of its default (booleans: 1/true/yes or
0/false/no; a tuple: a comma list), checks choices and bounds, validates
the configs, and loads the graph and labels, reporting all violations at
once (exit 2). Every subcommand writes the seed into its output header, so
a run is reproducible from its config alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING, dataclass, fields, replace
from typing import Callable

import numpy as np

from . import graph as graph_mod
from .checkpoint import export_embeddings, save_checkpoint
from .evaluation import (PREDICTION_MODES, SPLIT_SCHEMES, make_split, simultaneous_eval,
                         two_stage_eval)
from .graphex import (GraphonSpec, MarkingKernel, risk_convergence_experiment,
                      sample_graphex, stability_experiment)
from .losses import LossConfig, ParamStore
from .samplers import SamplerConfig, build_unigram, draw
from .trainer import PSAMPLE_MAX_VERTICES, TrainConfig, check_unbiasedness, \
    estimate_risk, exact_risk, train


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


# -- config schema ------------------------------------------------------------

EDGE_LIST = {"graph.edges": "", "graph.drop_self_loops": True,
             "graph.largest_component_only": False}
GRAPH = {**EDGE_LIST, "graph.cache": ""}  # a cache wins over an edge list
LABELS = {"labels.path": "", "labels.dim": 0}
# keys whose value, or each item of whose list, must be one of these
CHOICES = {"eval.protocol": ("two_stage", "simultaneous"), "eval.schemes": SPLIT_SCHEMES,
           "eval.prediction": PREDICTION_MODES,
           "simulate.experiment": ("mecke", "risk_convergence", "stability")}
# keys whose value, or each item of whose list, must pass this test: counts,
# sizes and the stability size step are positive, a fraction lies in [0, 1]
BOUNDS = {key: (lambda v: v > 0, "must be > 0") for key in (
    "sample.count", "eval.seeds", "simulate.replicates", "riskcheck.samples", "simulate.sizes",
    "simulate.delta")}
BOUNDS["eval.fraction"] = (lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]")


def _cast(raw: str, kind: type):
    if kind is not bool:
        return kind(raw)
    if raw.lower() in ("1", "true", "yes"):
        return True
    if raw.lower() in ("0", "false", "no"):
        return False
    raise ValueError(raw)


def _value(cfg: dict[str, str], key: str, default, errors: list[str]):
    """cfg[key] as the type of `default`, or `default` when the key is
    absent or its value does not parse (a violation). A tuple default
    takes a comma list of its items' type."""
    if key not in cfg:
        return default
    raw = cfg[key]
    listed = isinstance(default, tuple)
    kind = type(default[0] if listed else default)
    try:
        if listed:
            return tuple(_cast(item.strip(), kind) for item in raw.split(","))
        return _cast(raw, kind)
    except ValueError:
        what = f"a comma list of {kind.__name__}" if listed else kind.__name__
        errors.append(f"key {key!r}: cannot parse {raw!r} as {what}")
        return default


def _section(section: str, cls: type, value: Callable, seed: int):
    """Config dataclass `cls` with each field set to value(`section.<field>`,
    default). A field holding a config dataclass (TrainConfig's sampler and
    loss) is read from its own section, named after the field; a `seed`
    field takes `seed`."""
    values = {}
    for f in fields(cls):
        if f.name == "seed":
            values[f.name] = seed
        elif f.default_factory is not MISSING:
            values[f.name] = _section(f.name, f.default_factory, value, seed)
        else:
            values[f.name] = value(f"{section}.{f.name}", f.default)
    return cls(**values)


# -- the prologue every subcommand shares -------------------------------------

@dataclass
class Run:
    """A subcommand's checked config and loaded inputs."""
    seed: int
    opts: dict  # the subcommand's own keys, parsed, defaults filled in
    config: SamplerConfig | TrainConfig | None = None
    graph: graph_mod.Graph | None = None
    ids: dict[int, int] | None = None
    labels: graph_mod.LabelTable | None = None

    def path(self, name: str) -> str:
        return os.path.join(self.opts["output.dir"], name)


@dataclass(frozen=True)
class Command:
    """A subcommand's body and the config it reads besides `seed` and
    `output.dir`."""
    run: Callable[[Run], int]
    keys: dict  # its own keys, with their defaults
    config: tuple[str, type] | None = None  # (section, SamplerConfig or TrainConfig)
    required: tuple = ()  # groups of its own keys of which one must be set


def accepted_keys(name: str) -> set[str]:
    """Every config key subcommand `name` reads; any other is rejected."""
    spec = COMMANDS[name]
    keys = {"seed", "output.dir", *spec.keys}
    if spec.config:  # a build that records each key it reads
        _section(*spec.config, lambda key, default: keys.add(key) or default, 0)
    return keys


def prologue(name: str, cfg: dict[str, str]) -> Run:
    """Check subcommand `name`'s whole config, raising one ConfigError that
    lists every violation, then load its graph and labels and create its
    output directory."""
    spec = COMMANDS[name]
    errors = [] if "seed" in cfg else ["missing required key 'seed'"]
    errors.extend(f"unknown key {key!r} for {name}"
                  for key in sorted(set(cfg) - accepted_keys(name)))
    seed = _value(cfg, "seed", 0, errors)
    opts = {key: _value(cfg, key, default, errors)
            for key, default in {"output.dir": ".", **spec.keys}.items()}
    run = Run(seed, opts)
    if spec.config:
        run.config = _section(*spec.config, lambda key, default: _value(cfg, key, default, errors),
                              seed)
        errors.extend(run.config.validate())  # a TrainConfig's covers sampler, loss and seed
    if seed < 0 and not isinstance(run.config, TrainConfig):
        errors.append(f"seed {seed} must be >= 0")
    def items(key):
        values = opts.get(key, ())
        return values if isinstance(values, tuple) else (values,)
    for key, allowed in CHOICES.items():
        errors.extend(f"key {key!r}: {v!r} is not one of {allowed}"
                      for v in items(key) if v not in allowed)
    for key, (test, rule) in BOUNDS.items():
        errors.extend(f"key {key!r}: {v!r} {rule}" for v in items(key) if not test(v))
    for group in spec.required:
        if not any(opts[key] for key in group):
            errors.append(f"{name} requires {' or '.join(group)}")
    if isinstance(run.config, TrainConfig) and run.config.loss.mode == "node_classification" \
            and "labels.path" in opts and not opts["labels.path"] \
            and ("labels.path",) not in spec.required:
        errors.append("node_classification loss requires labels.path")
    if isinstance(run.config, TrainConfig) and run.config.loss.mode == "category_embedding":
        errors.append("category_embedding loss requires categories, which the CLI cannot "
                      "load yet")
    if opts.get("labels.path") and "labels.dim" not in cfg:
        errors.append("missing required key 'labels.dim'")
    errors.extend(f"{key} path {opts[key]!r} does not exist"
                  for key in ("graph.cache", "graph.edges", "labels.path")
                  if opts.get(key) and not os.path.exists(opts[key]))
    if errors:
        raise ConfigError(errors)
    if opts.get("graph.cache"):
        run.graph = graph_mod.load_cache(opts["graph.cache"])
    elif opts.get("graph.edges"):
        with open(opts["graph.edges"]) as f:
            run.graph, run.ids = graph_mod.load_edge_list(
                f, drop_self_loops=opts["graph.drop_self_loops"],
                largest_component_only=opts["graph.largest_component_only"])
    if opts.get("labels.path"):
        with open(opts["labels.path"]) as f:
            run.labels = graph_mod.load_labels(f, run.graph, opts["labels.dim"])
    if name == "riskcheck" and run.graph is not None \
            and run.graph.vertex_count > PSAMPLE_MAX_VERTICES:
        # its exact p-sampling risk enumerates every vertex subset
        raise ConfigError([f"riskcheck accepts at most {PSAMPLE_MAX_VERTICES} vertices, "
                           f"the graph has {run.graph.vertex_count}"])
    os.makedirs(opts["output.dir"], exist_ok=True)
    return run


def _write_jsonl(run: Run, name: str, records) -> str:
    """Write `name` in the output directory: a header record with the seed,
    then one line per record. Returns its path."""
    path = run.path(name)
    with open(path, "w") as f:
        f.write(json.dumps({"record": "header", "seed": run.seed}) + "\n")
        for rec in records:
            f.write(json.dumps(rec) + "\n")
    return path


# -- subcommands --------------------------------------------------------------

PATH3_EDGES = "0 1\n1 2\n"


def cmd_ingest(run: Run) -> int:
    path = run.path("graph.bin")
    graph_mod.save_cache(run.graph, path, run.ids)
    print(json.dumps({"record": "ingest", "seed": run.seed, "cache": path,
                      "vertices": run.graph.vertex_count, "edges": run.graph.edge_count}))
    return 0


def cmd_sample(run: Run) -> int:
    g, sc = run.graph, run.config
    rng = np.random.default_rng(run.seed)
    table = build_unigram(g, sc.unigram_power) if sc.negative == "unigram" else None
    samples = (draw(g, sc, rng, unigram_table=table) for _ in range(run.opts["sample.count"]))
    print(_write_jsonl(run, "samples.jsonl", (
        {"record": "sample", "index": i, "source": s.source,
         "vertices": s.vertices.tolist(),
         "positive_pairs": s.positive_pairs.tolist(),
         "negative_pairs": s.negative_pairs.tolist()} for i, s in enumerate(samples))))
    return 0


def cmd_train(run: Run) -> int:
    params, trace = train(run.graph, run.labels, None, run.config,
                          trace_wallclock=run.opts["train.trace_wallclock"])
    ckpt = run.path("checkpoint.bin")
    save_checkpoint(params, ckpt)
    trace_path = _write_jsonl(run, "trace.jsonl", trace)
    export_embeddings(params.embeddings, run.path("embeddings.tsv"))
    print(json.dumps({"record": "train", "seed": run.seed, "checkpoint": ckpt,
                      "trace": trace_path, "final_risk": trace[-1]["risk_mean"]}))
    return 0


def cmd_eval(run: Run) -> int:
    seed, tc, opts = run.seed, run.config, run.opts
    protocol = opts["eval.protocol"]
    evaluate = two_stage_eval if protocol == "two_stage" else simultaneous_eval
    rows = []
    for scheme in opts["eval.schemes"]:
        scores = []
        for s in range(opts["eval.seeds"]):
            rng = np.random.default_rng((seed, s))
            split = make_split(run.graph, opts["eval.fraction"], scheme, rng)
            run_tc = replace(tc, seed=int(np.random.default_rng((seed, s, 1)).integers(2 ** 31)))
            scores.append(evaluate(run.graph, run.labels, split, run_tc, opts["eval.prediction"]))
        rows.append((protocol, tc.sampler.algorithm + "+" + tc.sampler.negative,
                     scheme, float(np.mean(scores))))
    path = run.path("results.csv")
    with open(path, "w") as f:
        f.write(f"# seed={seed}\n")
        f.write("protocol,sampler,test_scheme,macro_f1\n")
        for row in rows:
            f.write(",".join(str(x) for x in row) + "\n")
    print(path)
    return 0


def cmd_simulate(run: Run) -> int:
    tc, opts = run.config, run.opts
    experiment, sizes, replicates = (opts["simulate.experiment"], list(opts["simulate.sizes"]),
                                     opts["simulate.replicates"])
    rng = np.random.default_rng(run.seed)
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
        records = risk_convergence_experiment(spec, kernel, sizes, tc.sampler, tc.loss,
                                              replicates, rng)
    else:
        records = stability_experiment(spec, sizes, opts["simulate.delta"], tc, replicates, rng)
    print(_write_jsonl(run, "simulate.jsonl", records))
    return 0


def cmd_riskcheck(run: Run) -> int:
    seed, n = run.seed, run.opts["riskcheck.samples"]
    g = run.graph if run.graph is not None else \
        graph_mod.load_edge_list(PATH3_EDGES.splitlines())[0]
    loss = LossConfig(mode="edge_only")
    rng = np.random.default_rng(seed)
    report = {"record": "riskcheck", "seed": seed, "checks": []}
    ok = True

    def param_store():
        ps = ParamStore(4, 0, seed=seed)
        ps.embeddings.materialise(np.arange(g.vertex_count))
        return ps

    # one rng in order: a sampler appended here leaves the earlier checks as they were
    for sampler in (SamplerConfig(algorithm="p_sampling", retention=0.5),
                    SamplerConfig(algorithm="rw_induced", walk_length=2),
                    SamplerConfig(algorithm="rw_skipgram", walk_length=2, window=2)):
        ps = param_store()
        exact = exact_risk(g, None, ps, sampler, loss)
        est = estimate_risk(g, None, ps, sampler, loss, n, rng)
        se = max(est.std_error, 1e-12)
        risk_z = abs(est.mean - exact) / se
        rep = check_unbiasedness(g, ps, sampler, loss, n, rng)
        passed = bool(risk_z < 4.0 and rep.max_abs_z < 4.0)
        ok = ok and passed
        report["checks"].append({"sampler": sampler.algorithm, "exact_risk": exact,
                                 "mc_risk": est.mean, "risk_z": float(risk_z),
                                 "max_grad_z": rep.max_abs_z, "pass": passed})
    path = run.path("riskcheck.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=2)
    print(json.dumps(report))
    return 0 if ok else 1


GRAPH_REQUIRED = (("graph.edges", "graph.cache"),)
COMMANDS = {
    "ingest": Command(cmd_ingest, EDGE_LIST, required=(("graph.edges",),)),
    "sample": Command(cmd_sample, {**GRAPH, "sample.count": 10}, ("sampler", SamplerConfig),
                      GRAPH_REQUIRED),
    "train": Command(cmd_train, {**GRAPH, **LABELS, "train.trace_wallclock": False},
                     ("train", TrainConfig), GRAPH_REQUIRED),
    "eval": Command(cmd_eval, {**GRAPH, **LABELS, "eval.protocol": "two_stage",
                               "eval.fraction": 0.5, "eval.schemes": ("uniform_vertex",),
                               "eval.seeds": 5, "eval.prediction": "threshold"},
                    ("train", TrainConfig), GRAPH_REQUIRED + (("labels.path",),)),
    "simulate": Command(cmd_simulate, {"simulate.experiment": "risk_convergence",
                                       "simulate.sizes": (50.0, 100.0, 200.0),
                                       "simulate.replicates": 10, "simulate.delta": 25.0},
                        ("train", TrainConfig)),
    "riskcheck": Command(cmd_riskcheck, {**GRAPH, "riskcheck.samples": 100000}),
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
        return COMMANDS[args.command].run(prologue(args.command, cfg))
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
