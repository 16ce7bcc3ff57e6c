#!/usr/bin/env python3
"""relerm benchmark: one command, two workloads, inputs made from a seed.

    python3 benchmarks/run.py --workload train-skipgram --seed 1 --seconds 60 --trace 0

Runs from the root of a source checkout and imports `relerm` from its
`src/`. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
Any failed check makes the exit code 1. See benchmarks/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy loads: the benchmark
# is one process, and a fixed thread count keeps timings comparable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from statistics import fmean, median

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# `phases` and `spans` import relerm, so they load inside functions, after
# main() has put the checkout's src/ first on the path.

MIN_TIMED_ROUNDS = 2  # the shorter timed training is compared with its first run

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "train_draws_per_s": "1/s",
    "train_pairs_per_s": "1/s",
    "train_final_risk": "nats/draw",
    "save_s": "s",
    "eval_s": "s",
    "eval_macro_f1": "1",
    "riskcheck_s": "s",
    "mc_draws_per_s": "1/s",
    "graphex_edges_per_s": "1/s",
    "simulate_s": "s",
    "peak_rss_mb": "MiB",
}


def workloads(smoke: bool) -> dict:
    from relerm.samplers import SamplerConfig

    import inputs
    from phases import RiskcheckSpec, SimulateSpec, TrainSpec

    # the checked training learns (600 steps); each timed training repeats
    # its first 100 steps, which already touch every vertex, so the timed
    # rounds stay short enough that a run holds several of them
    skipgram = TrainSpec(
        sampler=SamplerConfig(algorithm="rw_skipgram", walk_length=80, window=10,
                              negative="unigram", negatives_per_vertex=5,
                              unigram_power=0.75),
        dim=128, steps=600, timed_steps=100, lr_start=0.5, lr_end=0.001, risk_draws=200,
        eval_features="trained")
    psample = TrainSpec(
        sampler=SamplerConfig(algorithm="p_sampling", retention=0.01, negative="induced"),
        dim=16, steps=600, timed_steps=600, lr_start=0.05, lr_end=0.001, risk_draws=2000,
        eval_features="planted")
    rc_full = RiskcheckSpec(
        psample_fixtures=("path3", "triangle", "cycle4", "star4", "path5", "rand8", "rand10"),
        walk_cases=(("triangle", 6), ("path5", 4), ("star4", 5), ("cycle4", 5)),
        unbiased_cases=(
            ("path3", SamplerConfig(algorithm="p_sampling", retention=0.5)),
            ("triangle", SamplerConfig(algorithm="p_sampling", retention=0.4)),
            ("triangle", SamplerConfig(algorithm="rw_induced", walk_length=3)),
            ("path5", SamplerConfig(algorithm="rw_induced", walk_length=3))),
        draws=10 ** 6, loop_draws=500)
    rc_light = replace(rc_full, psample_fixtures=("triangle", "rand8"),
                       walk_cases=(("cycle4", 5),), unbiased_cases=rc_full.unbiased_cases[:1],
                       draws=10 ** 5, loop_draws=300)
    sim_full = SimulateSpec(replicates=((100, 4), (400, 2)), risk_draws=100)
    sim_light = SimulateSpec(replicates=((100, 4),), risk_draws=100, seed=0)
    graph = inputs.PlantedSpec()
    table = {
        # the write path at the baseline configuration: step cost is pair
        # scoring arithmetic (~1,040 pairs per draw at d=128)
        "train-skipgram": Workload(graph, skipgram, rc_light, sim_light),
        # the read path: oracles, both estimators, graphex generation; a
        # short p-sampling training (step cost: induced_edges, induced_pairs
        # and has_edges on ~70 pairs per draw) supplies the train metrics
        "verify": Workload(graph, psample, rc_full, sim_full),
    }
    if smoke:
        small = inputs.PlantedSpec(vertices=1000, blocks=20)
        rc_smoke = replace(rc_light, draws=2 * 10 ** 4, loop_draws=100)
        sim_smoke = SimulateSpec(replicates=((40, 2),), risk_draws=20, seed=0)
        table = {name: replace(w, graph=small, riskcheck=rc_smoke, simulate=sim_smoke,
                               train=replace(w.train, steps=60, timed_steps=60,
                                             risk_draws=100))
                 for name, w in table.items()}
        table["train-skipgram"] = replace(
            table["train-skipgram"],
            train=replace(skipgram, dim=16, steps=150, timed_steps=30, lr_start=0.25,
                          risk_draws=100))
    return table


@dataclass(frozen=True)
class Workload:
    graph: object
    train: object
    riskcheck: object
    simulate: object


def checked_steps(steps: int) -> set:
    return {0, 1, steps // 2, steps - 1}


class Run:
    """Round 0 runs every phase once and checks it against the references;
    it is the warm-up and is not timed. Every timed round then runs every
    phase once more and must reproduce round 0 (or the first timed round,
    for the shorter timed training) bit for bit."""

    def __init__(self, wl, prep, inp, seed, workdir, ledger):
        self.wl, self.prep, self.inp, self.seed = wl, prep, inp, seed
        self.workdir, self.ledger = workdir, ledger
        self.baseline = {}
        self.timings = defaultdict(list)   # quantity -> calibrated seconds per round

    def _same(self, kind, fingerprint) -> None:
        if kind not in self.baseline:
            self.baseline[kind] = fingerprint
        else:
            self.ledger.check(fingerprint == self.baseline[kind],
                              f"{kind} output differs from its first run (same seed, workers=1)")

    def checked_round(self) -> None:
        import phases

        wl, prep, seed, ledger = self.wl, self.prep, self.seed, self.ledger
        spec = wl.train
        probe = phases.StepProbe(checked_steps(spec.steps), ledger)
        tr = phases.train_phase(prep, spec, spec.steps, seed, self.workdir, ledger, probe)
        if spec.timed_steps == spec.steps:
            self._same("train", tr.digest)
        cfg = phases.train_config(spec, seed, spec.steps)
        replayed = phases.replay_draws(prep, self.inp, cfg, ledger)
        ledger.check(replayed == probe.pairs,
                     "replayed draws differ from the draws train consumed")
        self.pairs = probe.pairs[:spec.timed_steps]
        risk = phases.final_risk(prep, spec, tr.params, ledger)
        self.features = tr.params if spec.eval_features == "trained" else prep.planted_params
        _, f1 = phases.eval_phase(prep, self.features, seed, ledger)
        phases.check_training(prep, spec, seed, probe, risk, f1, ledger)
        self._same("eval", f1)
        self.quality = {"train_final_risk": risk.mean, "eval_macro_f1": f1}

        rc = phases.riskcheck_phase(prep, wl.riskcheck, ledger)
        phases.check_riskcheck(prep, rc, ledger)
        self._same("riskcheck", rc.fingerprint())
        sim = phases.simulate_phase(wl.simulate, seed, ledger, check=True)
        self._same("simulate", sim.fingerprint)
        self.mc_draws, self.edges = sim.mc_draws, sim.edges

    def timed_round(self, timings) -> None:
        """Every phase once; records each timed quantity's seconds."""
        import phases

        wl, prep, seed, ledger = self.wl, self.prep, self.seed, self.ledger
        spec = wl.train
        probe = phases.StepProbe(set(), ledger, calibrate_every=spec.timed_steps // 4)
        tr = phases.train_phase(prep, spec, spec.timed_steps, seed, self.workdir, ledger,
                                probe)
        self._same("train", tr.digest)
        ledger.check(probe.pairs == self.pairs,
                     "timed training drew other pairs than the checked training")
        eval_s, f1 = phases.eval_phase(prep, self.features, seed, ledger)
        self._same("eval", f1)
        _, setup_s, _ = phases.setup(self.inp, spec.sampler.unigram_power, ledger)
        rc = phases.riskcheck_phase(prep, wl.riskcheck, ledger)
        self._same("riskcheck", rc.fingerprint())
        sim = phases.simulate_phase(wl.simulate, seed, ledger, check=False)
        self._same("simulate", sim.fingerprint)
        for quantity, seconds in (
                ("train", tr.train_s), ("save", tr.save_s), ("eval", eval_s),
                ("setup", setup_s), ("riskcheck", rc.seconds), ("graphex", sim.sample_s),
                ("mark", sim.mark_s), ("mc", sim.mc_s)):
            timings[quantity].append(seconds)

    def end_to_end(self) -> dict:
        # medians over the timed rounds of calibrated seconds
        t = {quantity: median(seconds) for quantity, seconds in self.timings.items()}
        return {
            "setup_s": t["setup"],
            "train_draws_per_s": self.wl.train.timed_steps / t["train"],
            "train_pairs_per_s": sum(self.pairs) / t["train"],
            "train_final_risk": self.quality["train_final_risk"],
            "save_s": t["save"],
            "eval_s": t["eval"],
            "eval_macro_f1": self.quality["eval_macro_f1"],
            "riskcheck_s": t["riskcheck"],
            "mc_draws_per_s": self.mc_draws / t["mc"],
            "graphex_edges_per_s": self.edges / t["graphex"],
            "simulate_s": t["graphex"] + t["mark"] + t["mc"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def run(name: str, seed: int, seconds: float, traced: bool, smoke: bool, out) -> int:
    import phases
    from spans import Tracer, layer_unit, per_layer_names

    wl = workloads(smoke)[name]
    ledger = phases.Ledger()
    workdir = os.path.join(HERE, ".work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    span_path = os.path.join(HERE, "out", f"spans-{name}-{seed}.jsonl")
    if traced:
        os.makedirs(os.path.dirname(span_path), exist_ok=True)
        if os.path.exists(span_path):
            os.remove(span_path)
    tau = wl.train.sampler.unigram_power
    layers, walls = [], {False: [], True: []}
    k = 0
    try:
        start = time.perf_counter()
        inp = phases.make_inputs(wl.graph, seed, workdir)
        prep, _, parsed = phases.setup(inp, tau, ledger)
        phases.check_setup(inp, parsed, prep, tau, ledger)
        del parsed
        rnd = Run(wl, prep, inp, seed, workdir, ledger)
        rnd.checked_round()

        # start another timed round only while it should end within --seconds
        while k < MIN_TIMED_ROUNDS or (
                time.perf_counter() - start + fmean(walls[False] + walls[True]) <= seconds):
            # traced runs alternate untraced and traced rounds
            tracer = Tracer() if traced and k % 2 == 1 else None
            if tracer:
                tracer.install()
            # a traced run reports no end-to-end metric, and its overhead is
            # traced minus untraced rounds, so none of its rounds calibrates
            ledger.calibrated = not traced
            t0 = time.perf_counter()
            try:
                rnd.timed_round(defaultdict(list) if tracer else rnd.timings)
            finally:
                ledger.calibrated = False
                if tracer:
                    tracer.uninstall()
            walls[tracer is not None].append(time.perf_counter() - t0)
            if tracer:
                layers.append(tracer.layer_metrics())
                tracer.write(span_path, f"round{k}")
            k += 1
    except Exception as exc:  # a raising program call is a failed operation
        ledger.failures.append(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    if traced and layers and not ledger.failures:
        for key in per_layer_names():
            if key == "trace.overhead_s":
                value = fmean(walls[True]) - fmean(walls[False])
            else:
                value = fmean(layer[key] for layer in layers)
            metrics[key] = {"value": value, "unit": layer_unit(key)}
    elif not traced and not ledger.failures:
        metrics = {key: {"value": value, "unit": END_TO_END[key]}
                   for key, value in rnd.end_to_end().items()}
    for failure in ledger.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    ok = not ledger.failures
    print(f"{name}: seed {seed}, {k} timed rounds, {ledger.attempted} operations",
          file=sys.stderr)
    out.write(json.dumps({"correct": ok,
                          "attempted": max(ledger.attempted, 1),
                          "failed": len(ledger.failures),
                          "metrics": metrics}) + "\n")
    out.flush()
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-skipgram", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for benchmarks/smoke.py only")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "relerm", "__init__.py")):
        print(f"benchmark: no relerm sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    return run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
               sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
