import hashlib
import json
import os
import re

import numpy as np
import pytest

from relerm.checkpoint import (export_embeddings, load_checkpoint,
                               save_checkpoint)
from relerm import checkpoint, cli, trainer
from relerm.cli import main, parse_config, ConfigError
from relerm.graph import from_edges
from relerm.losses import LossConfig, ParamStore, RowTable
from relerm.samplers import SamplerConfig
from relerm.trainer import TrainConfig, train
from conftest import category_map


# -- checkpoints --------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    params = ParamStore(3, 2, seed=5)
    params.embedding(0)
    params.embedding(7)
    params.category_embeddings.row(1)
    params.weights[:] = np.arange(6).reshape(3, 2)
    params.bias[:] = [0.5, -0.5]
    path = str(tmp_path / "c.bin")
    save_checkpoint(params, path)
    back = load_checkpoint(path)
    assert back.dim == 3 and back.label_dim == 2 and back.seed == 5
    assert back.embeddings.ids().tolist() == [0, 7]
    for v in (0, 7):
        assert np.array_equal(back.embedding(v), params.embedding(v))
    assert back.category_embeddings.ids().tolist() == [1]
    assert np.array_equal(back.category_embeddings.row(1),
                          params.category_embeddings.row(1))
    assert np.array_equal(back.weights, params.weights)
    assert np.array_equal(back.bias, params.bias)


def test_checkpoint_bytes_deterministic(tmp_path):
    def build():
        params = ParamStore(2, 1, seed=1)
        params.embedding(3)
        params.embedding(1)
        return params
    a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    save_checkpoint(build(), a)
    save_checkpoint(build(), b)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_checkpoint_rejects_truncated_and_padded_files(tmp_path):
    params = ParamStore(3, 2, seed=5)
    params.embedding(0)
    params.embedding(7)
    params.category_embeddings.row(1)
    path = tmp_path / "c.bin"
    save_checkpoint(params, str(path))
    data = path.read_bytes()
    # magic and header 48 bytes, embedding ids 2 * 8, rows 2 * 3 * 8, category
    # ids 8, rows 3 * 8, weights 3 * 2 * 8, bias 2 * 8
    assert len(data) == 208
    for cut, field in ((20, "header"), (48 + 10, "embedding ids"),
                       (64 + 47, "embedding rows"), (112 + 4, "category ids"),
                       (120 + 1, "category rows"), (208 - 30, "weights"),
                       (208 - 5, "bias")):
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match=field):
            load_checkpoint(str(path))
    path.write_bytes(data + b"\0")
    with pytest.raises(ValueError, match="1 trailing bytes after the checkpoint's bias"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_junk(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"JUNKxxxxxxxx")
    with pytest.raises(ValueError):
        load_checkpoint(str(p))


def test_export_embeddings(tmp_path):
    path = str(tmp_path / "emb.tsv")
    table = RowTable(2)
    table.put(np.array([2, 0]), np.array([[1.5, -2.0], [0.0, 0.25]]))
    export_embeddings(table, path)
    lines = open(path).read().splitlines()
    assert lines[0].split("\t")[0] == "0"
    assert lines[1] == "2\t1.5\t-2.0"



def special_table():
    """300 rows over more than one block of conversion, two of them the
    special values, and the bytes the per-element rule gives them."""
    special = [-0.0, 0.0, 5e-324, -2.5e-310, np.nextafter(2.2250738585072014e-308, 0),
               1e300, -1e300, 3.0, -1e16, 2.0 ** 53, 1e-5, 0.1, 1 / 3]
    rng = np.random.default_rng(0)
    data = rng.uniform(-1, 1, (300, len(special))) * 10.0 ** rng.integers(-320, 300, (300, 1))
    data[3] = special
    data[-1] = special[::-1]
    ids = np.arange(300) * 3 + 1
    table = RowTable(len(special))
    table.put(ids, data)
    want = "".join(str(i) + "\t" + "\t".join(repr(float(x)) for x in table.data[i]) + "\n"
                   for i in ids.tolist())
    return table, want.encode()


def test_export_embeddings_bytes_follow_per_element_repr(tmp_path):
    # the file's bytes are the per-element rule, repr(float(x)) of each
    # numpy value, for -0.0, subnormals, huge and integer-valued floats,
    # over more rows than one block of conversion
    table, want = special_table()
    path = str(tmp_path / "emb.tsv")
    export_embeddings(table, path)
    with open(path, "rb") as f:
        assert f.read() == want
    assert b"-0.0\t0.0\t5e-324\t" in want and b"\t1e+300\t" in want and b"\t3.0\t" in want


# -- the export's ranges ------------------------------------------------------

def even_bounds(n_rows, k):
    return [n_rows * j // k for j in range(k + 1)]


def export_ranges(table, bounds, path):
    checkpoint._export_ranges(table, table.ids(), bounds, str(path))
    return path.read_bytes()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n_rows", [0, 1, 255, 256, 257, 1001])
def test_export_ranges_match_one_range(n_rows, tmp_path):
    # 2, 3 and 4 even ranges, and cuts at the 256-row block edges and empty
    # ranges, write the bytes of one range
    rng = np.random.default_rng(n_rows)
    table = RowTable(3)
    ids = np.sort(rng.choice(5 * n_rows + 1, n_rows, replace=False))
    table.put(ids, rng.standard_normal((n_rows, 3)) * 10.0 ** rng.integers(-5, 5, (n_rows, 1)))
    one = export_ranges(table, [0, n_rows], tmp_path / "one.tsv")
    export_embeddings(table, str(tmp_path / "export.tsv"))
    assert (tmp_path / "export.tsv").read_bytes() == one
    assert one.count(b"\n") == n_rows
    cuts = [even_bounds(n_rows, k) for k in (2, 3, 4)] + [[0, 0, n_rows], [0, n_rows, n_rows]]
    if n_rows >= 257:
        cuts += [[0, 255, 256, 257, n_rows], [0, 256, 512, n_rows], [0, 1, n_rows]]
    for bounds in cuts:
        assert export_ranges(table, bounds, tmp_path / "split.tsv") == one, bounds
    assert sorted(os.listdir(tmp_path)) == ["export.tsv", "one.tsv", "split.tsv"]
    assert_no_child_left()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_export_ranges_keep_the_special_values(k, tmp_path):
    table, want = special_table()
    assert export_ranges(table, even_bounds(300, k), tmp_path / "emb.tsv") == want


def test_export_range_bounds(monkeypatch):
    # one range per CPU while each holds MIN_RANGE_VALUES values; one range
    # where os.fork is missing
    monkeypatch.setattr(checkpoint, "_cpus", lambda: 4)
    bounds, least = checkpoint._range_bounds, checkpoint.MIN_RANGE_VALUES
    assert bounds(0, 128) == [0, 0]
    assert bounds(2 * least // 128 - 1, 128) == [0, 2 * least // 128 - 1]
    assert bounds(9958, 128) == [0, 2489, 4979, 7468, 9958]
    assert bounds(10 ** 4, 16) == [0, 5000, 10000]
    for n_rows, dim in ((9958, 128), (10 ** 4, 16), (12345, 7), (3, least + 1), (10 ** 6, 1)):
        b = bounds(n_rows, dim)
        assert b[0] == 0 and b[-1] == n_rows and 2 <= len(b) <= 5
        assert all((hi - lo) * dim >= least for lo, hi in zip(b, b[1:]))
    monkeypatch.delattr(os, "fork")
    assert bounds(9958, 128) == [0, 9958]


def fail_in(monkeypatch, where):
    """Make the row writer raise in the children only, or in this process
    only."""
    parent, write_rows = os.getpid(), checkpoint._write_rows

    def write(f, table, ids):
        if (os.getpid() == parent) == (where == "parent"):
            raise RuntimeError(f"planted failure in the {where}")
        write_rows(f, table, ids)
    monkeypatch.setattr(checkpoint, "_write_rows", write)


def test_export_child_failure_raises_and_leaves_nothing(tmp_path, monkeypatch, capfd):
    fail_in(monkeypatch, "child")
    table, _ = special_table()
    with pytest.raises(OSError, match="rows 100 to 199 exited with status 1"):
        checkpoint._export_ranges(table, table.ids(), [0, 100, 200, 300],
                                  str(tmp_path / "emb.tsv"))
    assert_no_child_left()
    assert os.listdir(tmp_path) == ["emb.tsv"]
    assert "RuntimeError: planted failure in the child" in capfd.readouterr().err


def test_export_parent_failure_reaps_the_children(tmp_path, monkeypatch):
    fail_in(monkeypatch, "parent")
    table, _ = special_table()
    with pytest.raises(RuntimeError, match="planted failure in the parent"):
        checkpoint._export_ranges(table, table.ids(), [0, 100, 200, 300],
                                  str(tmp_path / "emb.tsv"))
    assert_no_child_left()
    assert os.listdir(tmp_path) == ["emb.tsv"]


@pytest.fixture
def split_export(monkeypatch):
    """Send every export through three ranges, however small its table;
    the list of the bounds each export used."""
    used, export = [], checkpoint._export_ranges

    def record(table, ids, bounds, path):
        used.append(bounds)
        export(table, ids, bounds, path)
    monkeypatch.setattr(checkpoint, "MIN_RANGE_VALUES", 1)
    monkeypatch.setattr(checkpoint, "_cpus", lambda: 3)
    monkeypatch.setattr(checkpoint, "_export_ranges", record)
    return used

# -- config parsing -----------------------------------------------------------

def test_parse_config_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# comment\nseed = 3\nsampler.retention = 0.2\n")
    cfg = parse_config(str(cfg_file), ["sampler.retention=0.4", "x=y"])
    assert cfg == {"seed": "3", "sampler.retention": "0.4", "x": "y"}
    with pytest.raises(ConfigError):
        parse_config(None, ["notkeyvalue"])
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ConfigError):
        parse_config(str(bad), [])


# -- CLI subcommands ----------------------------------------------------------

def write_path3(tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 2\n")
    return str(edges)


def test_cli_missing_seed_is_config_error(tmp_path, capsys):
    edges = write_path3(tmp_path)
    rc = main(["sample", "--set", f"graph.edges={edges}",
               "--set", f"output.dir={tmp_path}"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "config"
    assert any("seed" in v for v in err["violations"])


def test_cli_rejects_removed_train_keys(tmp_path, capsys):
    edges = write_path3(tmp_path)
    for key, value in (("train.workers", "2"), ("train.concurrent_updates", "true")):
        rc = main(["train", "--set", "seed=1", "--set", f"graph.edges={edges}",
                   "--set", f"{key}={value}", "--set", f"output.dir={tmp_path}"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["kind"] == "config"
        assert any(key in v for v in err["violations"])
    assert not (tmp_path / "checkpoint.bin").exists()


def test_cli_collects_multiple_violations(tmp_path, capsys):
    rc = main(["train", "--set", "sampler.algorithm=bogus",
               "--set", "train.steps=-5"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert len(err["violations"]) >= 3  # seed, graph, algorithm, steps


def test_cli_ingest_and_cache(tmp_path, capsys):
    edges = write_path3(tmp_path)
    rc = main(["ingest", "--set", "seed=1", "--set", f"graph.edges={edges}",
               "--set", f"output.dir={tmp_path}"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out.strip())
    assert rec["vertices"] == 3 and rec["edges"] == 2
    assert os.path.exists(rec["cache"])
    assert os.path.exists(rec["cache"] + ".ids.json")


def test_cli_sample_writes_records(tmp_path, capsys):
    edges = write_path3(tmp_path)
    rc = main(["sample", "--set", "seed=2", "--set", f"graph.edges={edges}",
               "--set", f"output.dir={tmp_path}", "--set", "sample.count=4",
               "--set", "sampler.algorithm=rw_induced",
               "--set", "sampler.walk_length=2"])
    assert rc == 0
    lines = open(tmp_path / "samples.jsonl").read().splitlines()
    header = json.loads(lines[0])
    assert header == {"record": "header", "seed": 2}
    assert len(lines) == 5
    for line in lines[1:]:
        rec = json.loads(line)
        assert rec["source"] == "rw_induced"


def test_cli_train_deterministic(tmp_path, capsys):
    edges = write_path3(tmp_path)
    outs = []
    for name in ("runA", "runB"):
        out = tmp_path / name
        rc = main(["train", "--set", "seed=3", "--set", f"graph.edges={edges}",
                   "--set", f"output.dir={out}", "--set", "train.steps=30",
                   "--set", "train.embedding_dim=4",
                   "--set", "sampler.retention=0.6"])
        assert rc == 0
        outs.append(out)
    for fname in ("checkpoint.bin", "trace.jsonl", "embeddings.tsv"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b, f"{fname} differs between identical runs"


# sha256 of outputs recorded when every initial row came from its own
# np.random.default_rng((seed, kind, key)); a faster initialiser must leave
# every byte as it was
GOLDEN_OUTPUTS = {
    "rw_skipgram/checkpoint.bin":
        "3e9e4080803e245dbe26e2de8231270722236292d7314337254b77142fcd2d6e",
    "rw_skipgram/embeddings.tsv":
        "7f1d2813cf14cc0fb3477de7751638fb16e420cc0f7777a23167f507d386fa48",
    "p_sampling/checkpoint.bin":
        "76a34423216ce54248f5cf00feebd2c0bd87750717fd31515961063094bd6da9",
    "p_sampling/embeddings.tsv":
        "e757a8ad6d45b68361d89473dc78891c9c1d0119cc96b85ef5edcb679a6e74f6",
    "category_rows":
        "c069e61a5330e9ec334209e2aeaa4af4660db8ed7f2dc61284597749d6d2e6f3",
    "category_embedding/checkpoint.bin":
        "59e87af6669c047bdd5aafc86327b662e613597c4fde5cf84f80a3df53883ab5",
}


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_cli_train_outputs_are_golden(tmp_path, capsys):
    # rw_skipgram with unigram negatives at d=16 on a ring of 30 with chords
    edges = tmp_path / "chords.txt"
    edges.write_text("".join(f"{i} {(i + 1) % 30}\n{i} {(7 * i + 3) % 30}\n" for i in range(30)))
    out = tmp_path / "out"
    rc = main(["train", "--set", "seed=11", "--set", f"graph.edges={edges}",
               "--set", f"output.dir={out}", "--set", "train.steps=40",
               "--set", "train.embedding_dim=16", "--set", "sampler.algorithm=rw_skipgram",
               "--set", "sampler.negative=unigram", "--set", "sampler.walk_length=6"])
    assert rc == 0
    for name in ("checkpoint.bin", "embeddings.tsv"):
        assert sha256_of(out / name) == GOLDEN_OUTPUTS[f"rw_skipgram/{name}"], name


def test_train_with_init_ids_outputs_are_golden(tmp_path):
    # p_sampling at d=8 from a store keyed by init_ids, some of them past
    # 2^32, with a seed of two 32-bit words
    seed = 2 ** 40 + 11
    g = from_edges(20, np.array([[i, (i + 1) % 20] for i in range(20)]
                                + [[i, (3 * i + 5) % 20] for i in range(0, 20, 2)]))
    init_ids = np.array([(2 ** 32 + 7 * i if i % 3 == 0 else 1000 - 13 * i) for i in range(20)])
    config = TrainConfig(sampler=SamplerConfig(algorithm="p_sampling", retention=0.4),
                         steps=30, embedding_dim=8, seed=seed)
    params, _ = train(g, None, None, config, ParamStore(8, 0, seed=seed, init_ids=init_ids))
    save_checkpoint(params, str(tmp_path / "checkpoint.bin"))
    export_embeddings(params.embeddings, str(tmp_path / "embeddings.tsv"))
    for name in ("checkpoint.bin", "embeddings.tsv"):
        assert sha256_of(tmp_path / name) == GOLDEN_OUTPUTS[f"p_sampling/{name}"], name


def test_cli_train_goldens_hold_through_split_export(split_export, tmp_path, capsys):
    test_cli_train_outputs_are_golden(tmp_path, capsys)
    assert split_export == [[0, 10, 20, 30]]


def test_init_ids_goldens_hold_through_split_export(split_export, tmp_path):
    test_train_with_init_ids_outputs_are_golden(tmp_path)
    assert split_export == [[0, 6, 13, 20]]


def test_category_embedding_checkpoint_is_golden(tmp_path):
    # rw_skipgram+unigram through the category loss, a fixed map of 7
    # categories over the 30-vertex ring with chords, 1-2 per vertex
    g = from_edges(30, np.array([[i, (i + 1) % 30] for i in range(30)]
                                + [[i, (7 * i + 3) % 30] for i in range(30)]))
    cats = category_map([[i % 7] + ([(3 * i + 1) % 7] if i % 3 else []) for i in range(30)], 7)
    config = TrainConfig(sampler=SamplerConfig(algorithm="rw_skipgram", negative="unigram",
                                               walk_length=6, window=3),
                         loss=LossConfig(mode="category_embedding"),
                         steps=30, embedding_dim=8, seed=17, eval_every=10)
    params, _ = train(g, None, cats, config)
    save_checkpoint(params, str(tmp_path / "checkpoint.bin"))
    assert sha256_of(tmp_path / "checkpoint.bin") \
        == GOLDEN_OUTPUTS["category_embedding/checkpoint.bin"]


def test_category_rows_are_golden():
    # a seed of three 32-bit words: the hashed entropy runs past its pool of 4
    rows = ParamStore(5, 0, seed=2 ** 70 + 3).category_embeddings.rows([9, 0, 4])
    assert hashlib.sha256(rows.tobytes()).hexdigest() == GOLDEN_OUTPUTS["category_rows"]


def test_cli_train_steps_zero_checkpoint_is_initialization(tmp_path, capsys):
    edges = write_path3(tmp_path)
    out = tmp_path / "zero"
    rc = main(["train", "--set", "seed=4", "--set", f"graph.edges={edges}",
               "--set", f"output.dir={out}", "--set", "train.steps=0",
               "--set", "train.embedding_dim=4"])
    assert rc == 0
    params = load_checkpoint(str(out / "checkpoint.bin"))
    fresh = ParamStore(4, 0, seed=4)
    for v in params.embeddings.ids().tolist():
        assert np.array_equal(params.embedding(v), fresh.embedding(v))


def test_cli_eval_two_stage(tmp_path, capsys):
    # small ring with alternating labels; just exercises the pipeline
    edges = tmp_path / "ring.txt"
    n = 12
    edges.write_text("".join(f"{i} {(i + 1) % n}\n" for i in range(n)))
    labels = tmp_path / "labels.txt"
    labels.write_text("".join(f"{i} {i % 2}\n" for i in range(n)))
    out = tmp_path / "eval"
    rc = main(["eval", "--set", "seed=5", "--set", f"graph.edges={edges}",
               "--set", f"labels.path={labels}", "--set", "labels.dim=2",
               "--set", f"output.dir={out}", "--set", "train.steps=50",
               "--set", "train.embedding_dim=4", "--set", "eval.seeds=2",
               "--set", "sampler.retention=0.5"])
    assert rc == 0
    lines = open(out / "results.csv").read().splitlines()
    assert lines[0] == "# seed=5"
    assert lines[1] == "protocol,sampler,test_scheme,macro_f1"
    proto, sampler, scheme, score = lines[2].split(",")
    assert proto == "two_stage" and scheme == "uniform_vertex"
    assert 0.0 <= float(score) <= 1.0


def test_cli_simulate_mecke(tmp_path, capsys):
    out = tmp_path / "sim"
    rc = main(["simulate", "--set", "seed=6", "--set", f"output.dir={out}",
               "--set", "simulate.experiment=mecke",
               "--set", "simulate.sizes=30", "--set", "simulate.replicates=3"])
    assert rc == 0
    lines = open(out / "simulate.jsonl").read().splitlines()
    assert json.loads(lines[0])["seed"] == 6
    recs = [json.loads(l) for l in lines[1:]]
    assert len(recs) == 3
    assert all(r["statistic"] == "edge_count" for r in recs)


# sha256 of simulate.jsonl from each experiment at small sizes, recorded
# when each size's graph came from its own sampling path; risk_convergence
# marks its vertices with noise 0.1
GOLDEN_SIMULATE = {
    "mecke": ("0902ceee7bae077f5de930cbd617469c65970cfe590b81eacce6f16880122455",
              ["--set", "simulate.replicates=3"]),
    "risk_convergence": ("340d9be2e193e27e928e4ac65a449616c760addf5c39e272834c5325a70a794c",
                         ["--set", "simulate.replicates=3"]),
    "stability": ("a1b965587a00327477eb585b7fa9e4cd9248d65c1dee2914b6641e7076daf288",
                  ["--set", "simulate.replicates=2", "--set", "train.steps=20",
                   "--set", "train.embedding_dim=4"]),
}


@pytest.mark.parametrize("experiment", list(GOLDEN_SIMULATE))
def test_cli_simulate_outputs_are_golden(tmp_path, capsys, experiment):
    golden, extra = GOLDEN_SIMULATE[experiment]
    out = tmp_path / "sim"
    rc = main(["simulate", "--set", "seed=19", "--set", f"output.dir={out}",
               "--set", f"simulate.experiment={experiment}",
               "--set", "simulate.sizes=30,60"] + extra)
    assert rc == 0
    assert sha256_of(out / "simulate.jsonl") == golden


def test_cli_riskcheck_builtin_fixture(tmp_path, capsys):
    out = tmp_path / "rc"
    rc = main(["riskcheck", "--set", "seed=7", "--set", f"output.dir={out}",
               "--set", "riskcheck.samples=20000"])
    assert rc == 0
    report = json.loads(open(out / "riskcheck.json").read())
    assert report["seed"] == 7
    assert [c["sampler"] for c in report["checks"]] == ["p_sampling", "rw_induced", "rw_skipgram"]
    for check in report["checks"]:
        assert check["pass"]
        assert check["risk_z"] < 4.0 and check["max_grad_z"] < 4.0
        assert check["max_grad_fd_error"] <= report["fd_tolerance"]


def test_cli_riskcheck_fails_a_gradient_that_is_not_the_derivative(tmp_path, capsys,
                                                                    monkeypatch):
    # 1.1 times the gradient is still unbiased for 1.1 times the risk, so
    # only the finite differences of the exact risk can catch it
    exact = trainer.gradient

    def scaled(*args, **kwargs):
        grad = exact(*args, **kwargs)
        grad.embeddings.data *= 1.1
        return grad
    monkeypatch.setattr(trainer, "gradient", scaled)
    out = tmp_path / "rc"
    rc = main(["riskcheck", "--set", "seed=7", "--set", f"output.dir={out}",
               "--set", "riskcheck.samples=20000"])
    assert rc == 1
    report = json.loads(open(out / "riskcheck.json").read())
    for check in report["checks"]:
        assert check["max_grad_z"] < 4.0
        assert check["max_grad_fd_error"] > report["fd_tolerance"] and not check["pass"]


def test_cli_runtime_error_exit_code(tmp_path, capsys):
    rc = main(["train", "--set", "seed=8",
               "--set", "graph.cache=/nonexistent/g.bin",
               "--set", f"output.dir={tmp_path}"])
    assert rc == 2  # caught at config validation: path does not exist


# -- config schema ------------------------------------------------------------

def write_ring_and_labels(tmp_path, n=12):
    edges = tmp_path / "ring.txt"
    edges.write_text("".join(f"{i} {(i + 1) % n}\n" for i in range(n)))
    labels = tmp_path / "labels.txt"
    labels.write_text("".join(f"{i} {i % 2}\n" for i in range(n)))
    return str(edges), str(labels)


def valid_args(command, tmp_path):
    """A minimal valid config of each subcommand, writing to tmp_path/out."""
    edges, labels = write_ring_and_labels(tmp_path)
    graph = ["--set", f"graph.edges={edges}"]
    extra = {
        "ingest": graph,
        "sample": graph,
        "train": graph,
        "eval": graph + ["--set", f"labels.path={labels}", "--set", "labels.dim=2"],
        "simulate": [],
        "riskcheck": [],
    }[command]
    return [command, "--set", "seed=1", "--set", f"output.dir={tmp_path / 'out'}"] + extra


def config_violations(capsys):
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "config"
    return err["violations"]


@pytest.mark.parametrize("command,typo", [
    ("ingest", "graph.edge"), ("sample", "sample.cout"), ("train", "train.step"),
    ("eval", "eval.seed"), ("simulate", "simulate.size"), ("riskcheck", "riskcheck.sample"),
])
def test_cli_rejects_unknown_key(tmp_path, capsys, command, typo):
    rc = main(valid_args(command, tmp_path) + ["--set", f"{typo}=5"])
    assert rc == 2
    violations = config_violations(capsys)
    assert len(violations) == 1 and repr(typo) in violations[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,setting,named", [
    ("train", "sampler.algorithm=bogus", "bogus"),
    ("simulate", "sampler.algorithm=bogus", "bogus"),
    ("simulate", "simulate.sizes=a,b", "simulate.sizes"),
    ("ingest", "graph.drop_self_loops=ture", "graph.drop_self_loops"),
    ("eval", "train.steps=-1", "steps"),
    ("eval", "eval.schemes=uniform_vertex,bogus", "bogus"),
    ("eval", "eval.prediction=bogus", "bogus"),
    ("riskcheck", "riskcheck.samples=0", "riskcheck.samples"),
    ("eval", "eval.fraction=1.5", "eval.fraction"),
    ("eval", "eval.seeds=0", "eval.seeds"),
    ("simulate", "simulate.sizes=100,-5", "simulate.sizes"),
    ("simulate", "simulate.replicates=-1", "simulate.replicates"),
    ("simulate", "simulate.delta=-60", "simulate.delta"),
    ("sample", "sample.count=-3", "sample.count"),
    ("riskcheck", "seed=-1", "seed"),
    ("sample", "seed=-1", "seed"),
    ("train", "seed=-1", "seed"),
    ("train", f"seed={2 ** 64}", str(2 ** 64)),
    ("train", "train.eval_samples=0", "eval_samples"),
    ("train", "train.eval_every=-1", "eval_every"),
    ("train", "loss.mode=category_embedding", "category_embedding"),
    ("eval", "loss.mode=category_embedding", "category_embedding"),
    ("simulate", "loss.mode=category_embedding", "category_embedding"),
])
def test_cli_bad_value_is_one_violation(tmp_path, capsys, monkeypatch, command, setting,
                                        named):
    def no_training(*args, **kwargs):
        raise AssertionError("training ran on a rejected config")
    monkeypatch.setattr(cli, "two_stage_eval", no_training)
    monkeypatch.setattr(cli, "train", no_training)
    rc = main(valid_args(command, tmp_path) + ["--set", setting])
    assert rc == 2
    violations = config_violations(capsys)
    assert len(violations) == 1 and named in violations[0]
    assert not (tmp_path / "out").exists()


def test_cli_riskcheck_rejects_graph_beyond_exact_oracle(tmp_path, capsys):
    # the exact p-sampling risk enumerates the subsets of at most 20 vertices
    ring30 = tmp_path / "ring30.txt"
    ring30.write_text("".join(f"{i} {(i + 1) % 30}\n" for i in range(30)))
    rc = main(valid_args("riskcheck", tmp_path) + ["--set", f"graph.edges={ring30}"])
    assert rc == 2
    violations = config_violations(capsys)
    assert len(violations) == 1 and "30" in violations[0] and "20" in violations[0]
    assert not (tmp_path / "out").exists()


def test_cli_train_defaults_are_the_dataclass_defaults(tmp_path, capsys, monkeypatch):
    edges, _ = write_ring_and_labels(tmp_path)
    seen = []

    def fake_train(graph, labels, cats, config, **kwargs):
        seen.append(config)
        return ParamStore(2, 0, seed=config.seed), [{"risk_mean": 0.0}]
    monkeypatch.setattr(cli, "train", fake_train)
    rc = main(["train", "--set", "seed=9", "--set", f"graph.edges={edges}",
               "--set", f"output.dir={tmp_path / 'out'}"])
    assert rc == 0
    assert seen == [TrainConfig(seed=9)]


def test_readme_cli_examples_use_accepted_keys():
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    commands = re.split(r"^relerm ", block.replace("\\\n", " "), flags=re.M)[1:]
    assert len(commands) >= 4
    for command in commands:
        name = command.split()[0]
        keys = re.findall(r"--set (\S+?)=", command)
        assert keys and set(keys) <= cli.accepted_keys(name), (name, keys)
