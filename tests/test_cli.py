import contextlib
import dataclasses
import gc
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cpmr
from cpmr import arrayfile
from cpmr import autodiff as ad
from cpmr.cli import main
from cpmr.errors import ConfigError
from cpmr.model import VARIANTS, ModelConfig
from cpmr.runconfig import RunConfig
from cpmr.training import TrainConfig


def write_raw_log(path, seed=0, n_users=7, n_items=7, n_days=14, per_day=5):
    rng = np.random.default_rng(seed)
    lines = []
    for day in range(n_days):
        for _ in range(per_day):
            lines.append(f"u{rng.integers(n_users)},i{rng.integers(n_items)},"
                         f"5.0,{day * 86400}")
    path.write_text("\n".join(lines) + "\n")


def write_config(path, data_path, out_dir, extra=()):
    """A small run config; each line of ``extra`` comes last, in place of its key's default."""
    lines = [f"data.path={data_path}",
             f"output.dir={out_dir}",
             "model.d=4", "model.s_days=3", "model.taylor_order=3",
             "train.lr=0.01", "train.n_tbptt=4", "train.n_neg=2",
             "train.max_epochs=2", "train.patience=5"]
    for line in extra:
        key = line.partition("=")[0].strip()
        lines = [kept for kept in lines if kept.partition("=")[0] != key] + [line]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture()
def workspace(tmp_path):
    raw = tmp_path / "raw.csv"
    write_raw_log(raw)
    out = tmp_path / "out"
    rc = main(["preprocess", "--input", str(raw), "--format", "amazon_csv",
               "--output", str(out), "--k-core", "2"])
    assert rc == 0
    cfg = tmp_path / "run.cfg"
    write_config(cfg, out / "dataset.bin", out)
    return tmp_path, out, cfg


def test_preprocess_emits_dataset_and_summary(workspace, capsys):
    tmp_path, out, _ = workspace
    assert (out / "dataset.bin").exists()


def test_preprocess_idempotent(workspace):
    tmp_path, out, _ = workspace
    first = (out / "dataset.bin").read_bytes()
    raw = tmp_path / "raw.csv"
    rc = main(["preprocess", "--input", str(raw), "--format", "amazon_csv",
               "--output", str(out), "--k-core", "2"])
    assert rc == 0
    assert (out / "dataset.bin").read_bytes() == first


def test_preprocess_missing_input(tmp_path, capsys):
    rc = main(["preprocess", "--input", str(tmp_path / "nope.csv"),
               "--format", "amazon_csv", "--output", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_preprocess_overfiltered(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("a,b,1.0,0\nc,d,1.0,86400\n")
    rc = main(["preprocess", "--input", str(raw), "--format", "amazon_csv",
               "--output", str(tmp_path), "--k-core", "5"])
    assert rc == 2


@pytest.mark.parametrize("row", [b"a,b\xff,1.0,0", b"a,b,1.0,inf", b"a,b,1.0,1e25"],
                         ids=["non-utf8", "inf-timestamp", "int64-overflow"])
def test_preprocess_malformed_line_exit_code(tmp_path, capsys, row):
    raw = tmp_path / "raw.csv"
    raw.write_bytes(b"c,d,1.0,0\n" + row + b"\n")
    rc = main(["preprocess", "--input", str(raw), "--format", "amazon_csv",
               "--output", str(tmp_path), "--k-core", "1"])
    assert rc == 2
    assert "line 2:" in capsys.readouterr().err


def test_preprocess_leaves_no_unclosed_file(workspace):
    tmp_path, out, _ = workspace
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with open(tmp_path / "raw.csv", "rb") as fh:
            assert cpmr.parse_interactions(fh, "amazon_csv")
            assert not fh.closed                # still the caller's handle
        assert main(["preprocess", "--input", str(tmp_path / "raw.csv"),
                     "--format", "amazon_csv", "--output", str(out), "--k-core", "2"]) == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_train_eval_round_trip(workspace, capsys):
    tmp_path, out, cfg = workspace
    rc = main(["train", "--config", str(cfg)])
    assert rc == 0
    assert (out / "checkpoint.bin").exists()
    assert (out / "train.log").exists()
    capsys.readouterr()

    rc = main(["eval", "--config", str(cfg), "--checkpoint",
               str(out / "checkpoint.bin"), "--split", "test"])
    assert rc == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    report = json.loads(line)
    assert 0.0 < report["mrr"] <= 1.0
    assert report["config"]["split"] == "test"
    # metrics file accumulates
    assert (out / "metrics.jsonl").read_text().count("\n") == 1


def test_eval_reproduces_training_validation_metric(workspace, capsys):
    """Checkpoint round trip: eval --split val equals the trainer's best
    validation MRR for the saved parameters."""
    tmp_path, out, cfg = workspace
    main(["train", "--config", str(cfg)])
    best = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    main(["eval", "--config", str(cfg), "--checkpoint",
          str(out / "checkpoint.bin"), "--split", "val"])
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["mrr"] == pytest.approx(best["best_val_mrr"], abs=1e-12)


def test_eval_tampered_checkpoint(workspace, capsys):
    tmp_path, out, cfg = workspace
    main(["train", "--config", str(cfg)])
    ck = out / "checkpoint.bin"
    raw = bytearray(ck.read_bytes())
    raw[:4] = b"XXXX"
    ck.write_bytes(bytes(raw))
    capsys.readouterr()
    rc = main(["eval", "--config", str(cfg), "--checkpoint", str(ck)])
    assert rc == 2


def test_sweep_writes_csv(workspace, capsys):
    tmp_path, out, cfg = workspace
    rc = main(["sweep", "--config", str(cfg), "--param", "s_days",
               "--values", "2,3"])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "s_days,mrr,recall_at_10"
    assert len(lines) == 3
    assert [json.loads(l)["s_days"] for l in
            capsys.readouterr().out.strip().splitlines()[-2:]] == [2, 3]


def test_sweep_n_tbptt(workspace):
    tmp_path, out, cfg = workspace
    rc = main(["sweep", "--config", str(cfg), "--param", "n_tbptt",
               "--values", "2"])
    assert rc == 0
    assert (out / "sweep.csv").read_text().startswith("n_tbptt,")


def test_sweep_seed(workspace):
    tmp_path, out, cfg = workspace
    assert main(["sweep", "--config", str(cfg), "--param", "seed", "--values", "0,1"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "seed,mrr,recall_at_10"
    assert [l.split(",")[0] for l in lines[1:]] == ["0", "1"]


def test_ablate_forwards_variant(workspace, capsys):
    tmp_path, out, cfg = workspace
    rc = main(["ablate", "--config", str(cfg), "--variant", "wo_fusion"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["config"]["variant"] == "wo_fusion"
    assert not [k for k in report["config"] if k.startswith("disable_")]


def test_ablate_ranks_with_the_run_filter(workspace, capsys):
    """With ``eval.filter_interacted=true`` the ablate report is filtered and
    equals what ``cpmr train`` and then ``cpmr eval`` give."""
    tmp_path, out, _ = workspace
    cfg = tmp_path / "filtered.cfg"
    write_config(cfg, out / "dataset.bin", out, extra=["eval.filter_interacted=true"])
    assert main(["ablate", "--config", str(cfg), "--variant", "full"]) == 0
    ablate = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert ablate["config"]["filter_interacted"] is True
    main(["train", "--config", str(cfg)])
    capsys.readouterr()
    mrr = {}
    for name in ("filtered.cfg", "run.cfg"):           # run.cfg leaves the filter off
        main(["eval", "--config", str(tmp_path / name), "--checkpoint",
              str(out / "checkpoint.bin")])
        mrr[name] = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["mrr"]
    assert mrr["filtered.cfg"] == ablate["mrr"] != mrr["run.cfg"]


def test_unknown_variant_exit_code(workspace, capsys):
    tmp_path, out, _ = workspace
    bad = tmp_path / "bad.cfg"
    write_config(bad, out / "dataset.bin", out, extra=["model.variant=bogus"])
    assert main(["train", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "'bogus'" in err and all(f"'{v}'" in err for v in VARIANTS)


def test_removed_disable_flag_is_an_unknown_field(workspace, capsys):
    tmp_path, out, _ = workspace
    bad = tmp_path / "bad.cfg"
    write_config(bad, out / "dataset.bin", out, extra=["model.disable_ctx=true"])
    assert main(["train", "--config", str(bad)]) == 2
    assert "unknown config field 'model.disable_ctx'" in capsys.readouterr().err


def test_eval_rejects_checkpoint_with_disable_flags(workspace, capsys):
    """A checkpoint whose provenance names the three flags that ``model.variant``
    replaced is refused, not evaluated under a guessed variant."""
    tmp_path, out, cfg = workspace
    assert main(["train", "--config", str(cfg)]) == 0
    ck = out / "checkpoint.bin"
    meta, params = ad.read_checkpoint(ck)
    del meta["model.variant"]
    meta.update(dict.fromkeys(("model.disable_ctx", "model.disable_his",
                               "model.disable_fusion"), False))
    ad.save_checkpoint(ck, params, meta)
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ck)]) == 2
    assert "model.disable_ctx=False" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "4294967295", "4294967296"])
def test_gradcheck_rejects_unusable_seed(seed, capsys):
    assert main(["gradcheck", "--seed", seed]) == 2
    assert f"got {seed}" in capsys.readouterr().err


def test_unknown_config_field_exit_code(workspace, capsys):
    tmp_path, out, _ = workspace
    bad = tmp_path / "bad.cfg"
    write_config(bad, out / "dataset.bin", out, extra=["model.dd=4"])
    rc = main(["train", "--config", str(bad)])
    assert rc == 2
    assert "model.dd" in capsys.readouterr().err


def test_missing_required_config_field(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("output.dir=.\n")
    rc = main(["train", "--config", str(cfg)])
    assert rc == 2


# -- run configuration parsing ------------------------------------------------


def test_runconfig_defaults_and_echo(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("data.path=ds.bin\n# comment\n\nmodel.d=8\ntrain.seed=3\n")
    run = RunConfig.from_file(cfg)
    assert run.model.d == 8
    assert run.model.s_days == 5                 # untouched default
    assert run.train.seed == 3
    echo = run.echo()
    assert "train.n_tbptt=20" in echo            # defaults echoed
    assert "model.d=8" in echo
    assert "eval.split=test" in echo


def test_readme_run_config_example_parses(tmp_path):
    """Each key=value line of README's run-config example is a key RunConfig
    knows, and its value comes back in the resolved echo."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    [example] = [b for b in re.findall(r"```\n(.*?)```", readme, re.S) if "data.path=" in b]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(example)
    echo = RunConfig.from_file(cfg).echo().splitlines()
    for line in example.splitlines():
        assert line in echo


def test_runconfig_bad_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("data.path=x\nnot a kv line\n")
    with pytest.raises(ConfigError, match="line|kv|key=value"):
        RunConfig.from_file(cfg)


def test_runconfig_bool_coercion(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("data.path=x\neval.filter_interacted=yes\n")
    assert RunConfig.from_file(cfg).eval_filter is True
    cfg.write_text("data.path=x\neval.filter_interacted=no\n")
    assert RunConfig.from_file(cfg).eval_filter is False
    cfg.write_text("data.path=x\neval.filter_interacted=maybe\n")
    with pytest.raises(ConfigError):
        RunConfig.from_file(cfg)


_MODEL_TRAIN_KEYS = sorted(f"{sec}.{f.name}" for sec, cls in (("model", ModelConfig),
                                                             ("train", TrainConfig))
                       for f in dataclasses.fields(cls))
_FUZZ_VALUES = st.one_of(
    st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "-0", "0", "-0.0",
                     "1e308", "-1e308", "1e999", "5e-324", "-1", "1", "0.5", "2", "true",
                     "no", "", " ", "abc", "1_000", "0x10", "1e3", *VARIANTS]),
    st.integers(-10**6, 10**6).map(str),
    st.floats().map(repr),
    st.booleans().map(str),
    st.text(max_size=6))


@given(st.dictionaries(st.sampled_from(_MODEL_TRAIN_KEYS), _FUZZ_VALUES, max_size=4))
@settings(max_examples=300, deadline=None)
def test_runconfig_fuzz_finite_or_config_error(values):
    """Any model.* / train.* values either build a config whose numbers are
    all finite and whose variant is one of VARIANTS, or raise ConfigError."""
    try:
        run = RunConfig({"data.path": "x", **values})
    except ConfigError:
        return
    assert run.model.variant in VARIANTS
    for cfg in (run.model, run.train):
        for f in dataclasses.fields(cfg):
            v = getattr(cfg, f.name)
            if f.name != "variant":
                assert isinstance(v, (int, float))
                assert math.isfinite(v), (f.name, v)


def test_bad_config_value_exit_code(workspace, capsys):
    tmp_path, out, _ = workspace
    bad = tmp_path / "bad.cfg"
    write_config(bad, out / "dataset.bin", out, extra=["model.d=abc"])
    rc = main(["train", "--config", str(bad)])
    assert rc == 2
    assert "'abc'" in capsys.readouterr().err


def test_config_key_set_twice_exit_code(workspace, capsys):
    """A run config that set a key twice used to keep the last value and exit 0."""
    tmp_path, out, _ = workspace
    bad = tmp_path / "bad.cfg"
    write_config(bad, out / "dataset.bin", out)              # model.d=4 on line 3 of 10
    with open(bad, "a", encoding="utf-8") as fh:
        fh.write("model.d=16\n model.d = 32\n")
    rc = main(["train", "--config", str(bad)])
    assert rc == 2
    assert f"{bad}:11: 'model.d' is set again (first on line 3)" in capsys.readouterr().err


def test_non_utf8_config_exit_code(tmp_path, capsys):
    """A run config that is not UTF-8 used to die with a raw UnicodeDecodeError (exit 1)."""
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"output.dir=.\ndata.path=x\xff\n")
    assert main(["train", "--config", str(bad)]) == 2
    assert f"{bad}:2: not UTF-8" in capsys.readouterr().err


_CONFIG_PIECES = st.one_of(st.binary(max_size=12),
                           st.sampled_from([b"data.path=x", b"model.d=", b"train.n_neg=3",
                                            b"eval.filter_interacted=", b"=", b"#", b" ",
                                            b"\n", b"\r", b"\r\n", b"\xff", b"\xc3\xa9",
                                            b"\xc3", b"\xef\xbb\xbf", b"\x00"]))


@given(st.lists(_CONFIG_PIECES, max_size=12).map(b"".join))
@settings(max_examples=300, deadline=None)
def test_runconfig_file_fuzz_parses_or_config_error(content):
    """Any bytes in a run config file either parse or raise ConfigError."""
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "wb") as fh:
            fh.write(content)
        try:
            RunConfig.from_file(path)
        except ConfigError:
            pass


@pytest.mark.parametrize("line, message", [
    ("model.d=100000000000000000000", "d=100000000000000000000 is too large"),
    ("model.d=1099511627776", "d=1099511627776 is too large"),
    # a day's (b, n_neg) int64 draws: b x 128 PiB, more than any machine maps
    (f"train.n_neg={2 ** 54}", "Unable to allocate"),
    # numpy cannot size the (b, n_neg) draws: "array is too big", a ValueError
    (f"train.n_neg={2 ** 61}", f"n_neg={2 ** 61} is too large"),
    (f"train.n_neg={2 ** 63 - 1}", f"n_neg={2 ** 63 - 1} is too large")],
    ids=["d-over-intp", "d-112-TiB", "n_neg-over-128-PiB", "n_neg-2**61", "n_neg-int64-max"])
def test_unallocatable_size_exit_code(workspace, capsys, line, message):
    """Sizes no machine can hold used to exit 1 with a traceback: a TypeError
    from ``np.sqrt`` of the d, numpy's ArrayMemoryError at the embeddings or
    at a day's negative draws, and numpy's ValueError for draws it cannot size."""
    tmp_path, out, _ = workspace
    bad = tmp_path / "bad.cfg"
    write_config(bad, out / "dataset.bin", out, extra=[line])
    assert main(["train", "--config", str(bad)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("n_users,n_items", [(6, 1), (1, 6)])
def test_train_rejects_a_log_with_one_user_or_one_item(tmp_path, capsys, n_users, n_items):
    """Such a log passes preprocess, but no negative exists beside the positive:
    ``_draw`` used to die with a raw ValueError (exit 1)."""
    raw = tmp_path / "raw.csv"
    raw.write_text("".join(f"u{e % n_users},i{e % n_items},5.0,{e % 12 * 86400}\n"
                           for e in range(5 * max(n_users, n_items))))
    out = tmp_path / "out"
    assert main(["preprocess", "--input", str(raw), "--format", "amazon_csv",
                 "--output", str(out)]) == 0
    cfg = tmp_path / "run.cfg"
    write_config(cfg, out / "dataset.bin", out)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"got {n_users} users and {n_items} items" in err
    assert not (out / "train.log").exists()           # rejected before any epoch


def test_train_rejects_an_empty_validation_split_before_any_epoch(tmp_path, capsys):
    """10 days of 10 events, then 50 on day 10: the 80% and 90% boundaries
    both fall past the last day start, so the split is (150, 150). Training
    used to run a whole epoch and write ``train.log`` before finding it."""
    raw = tmp_path / "raw.csv"
    rows = [(e % 10, e * 3 % 10, e // 10) for e in range(100)]
    rows += [(e % 10, e % 10, 10) for e in range(50)]
    raw.write_text("".join(f"u{u},i{i},5.0,{day * 86400}\n" for u, i, day in rows))
    out = tmp_path / "out"
    assert main(["preprocess", "--input", str(raw), "--format", "amazon_csv",
                 "--output", str(out)]) == 0
    assert cpmr.load_dataset(out / "dataset.bin").split == (150, 150)
    cfg = tmp_path / "run.cfg"
    write_config(cfg, out / "dataset.bin", out)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    assert "validation split is empty" in capsys.readouterr().err
    assert not (out / "train.log").exists()


def test_zero_day_unit_exit_code(workspace, capsys):
    """A dataset file whose day unit is 0.0 used to train a model whose states
    never evolve, and exit 0."""
    tmp_path, out, cfg = workspace
    path = out / "dataset.bin"
    meta, arrays = arrayfile.load(path, "dataset")
    meta["day_unit"] = 0.0
    arrayfile.save(path, "dataset", arrays, meta)
    assert main(["train", "--config", str(cfg)]) == 2
    assert "day unit 0.0" in capsys.readouterr().err
    assert not (out / "train.log").exists()


def test_days_off_the_unit_span_exit_code(workspace, capsys):
    """A dataset file whose days start past 0 used to train, its first day's
    states evolved from E for a gap no day of the log has."""
    tmp_path, out, cfg = workspace
    path = out / "dataset.bin"
    meta, arrays = arrayfile.load(path, "dataset")
    arrays["days"] += 5
    arrayfile.save(path, "dataset", arrays, meta)
    assert main(["train", "--config", str(cfg)]) == 2
    assert "days not from 0 to 1 / day unit" in capsys.readouterr().err
    assert not (out / "train.log").exists()


def test_malformed_dataset_record_exit_code(workspace, capsys):
    tmp_path, out, cfg = workspace
    path = out / "dataset.bin"
    ds = cpmr.load_dataset(path)
    ds.user_ids[3] = 999                        # out of range for 7 users
    cpmr.save_dataset(path, ds)
    rc = main(["train", "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(path) in err and "user ids" in err


@pytest.mark.parametrize("line", ["model.tau_max=0", "model.tau_max=-1", "train.lr=-1",
                                  "train.weight_decay=-0.1", "train.lr_decay_period=0",
                                  "seeds=0,1,2", "model.time_scale=1e9", "model.alpha0=5",
                                  "model.alpha0=0", "model.alpha0=1", "train.max_epochs=0",
                                  "eval.split=bogus", "model.time_scale=nan",
                                  "model.time_scale=inf", "model.tau_max=nan",
                                  "model.alpha0=nan", "train.lr=nan", "train.lr=inf",
                                  "train.weight_decay=nan", "train.lr_decay_factor=nan",
                                  "train.lr_decay_factor=-1", "train.seed=-1",
                                  "train.patience=-1", "model.taylor_order=171",
                                  "model.taylor_order=1000000"])
def test_config_out_of_range_exit_code(workspace, capsys, line):
    tmp_path, out, _ = workspace
    bad = tmp_path / "bad.cfg"
    write_config(bad, out / "dataset.bin", out, extra=[line])
    rc = main(["train", "--config", str(bad)])
    assert rc == 2
    assert line.partition("=")[0].rpartition(".")[2] in capsys.readouterr().err


def test_overflowing_weight_decay_exit_code(workspace, capsys):
    """weight_decay=1e308 overflows Adam's second moment, which used to
    leave most parameters frozen at exit 0; now the run stops, exit 3."""
    tmp_path, out, _ = workspace
    bad = tmp_path / "bad.cfg"
    write_config(bad, out / "dataset.bin", out, extra=["train.weight_decay=1e308"])
    with np.errstate(over="ignore"):            # numpy's overflow is the cause, not the point
        rc = main(["train", "--config", str(bad)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "second moment" in err and re.search(r"for '[\w.]+'", err)


@pytest.mark.parametrize("count", [2 ** 62, 2 ** 40])
@pytest.mark.parametrize("field", ["n_users", "n_items"])
def test_dataset_counts_past_its_interactions_exit_code(workspace, capsys, field, count):
    """A dataset file claiming more users or items than it has interactions:
    2**62 used to exit 1 with numpy's "array is too big", and 2**40 to ask
    numpy for 32 TiB before exiting 2. Ids are dense, so no real file does;
    the file is now rejected as it loads, before anything is sized."""
    import tracemalloc
    tmp_path, out, cfg = workspace
    path = out / "dataset.bin"
    meta, arrays = arrayfile.load(path, "dataset")
    meta[field] = count
    arrayfile.save(path, "dataset", arrays, meta)
    tracemalloc.start()
    try:
        rc = main(["train", "--config", str(cfg)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    err = capsys.readouterr().err
    assert str(path) in err and f"{count} {field[2:]}" in err and "interactions" in err
    assert peak < 2 ** 20 and not (out / "train.log").exists()


@pytest.mark.parametrize("which", [0, 1], ids=["i_val", "i_test"])
def test_dataset_split_inside_a_day_exit_code(workspace, capsys, which):
    """A dataset file whose validation or test split starts two events into
    a day used to train on all of that day's interactions, held-out ones
    among them, and exit 0. The file is now rejected as it loads, with the
    index named."""
    tmp_path, out, cfg = workspace
    path = out / "dataset.bin"
    meta, arrays = arrayfile.load(path, "dataset")
    days, k = arrays["days"], meta["split"][which]
    assert days[k - 1] < days[k] == days[k + 2]          # k starts a day of 3+ events
    meta["split"][which] = k + 2
    arrayfile.save(path, "dataset", arrays, meta)
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and f"split index {k + 2} inside day {days[k]}" in err
    assert not (out / "train.log").exists()


_RUN_KEYS = ["data.path", "output.dir", "eval.split", "eval.filter_interacted", *_MODEL_TRAIN_KEYS]
# int64's extremes and past them, non-finite and signed zeros, subnormals and
# the largest double, empty and blank, non-ASCII (digits among them). None
# passes validation and then sizes more than a few MiB on the tiny log.
_EDGE_VALUES = [str(2 ** 63 - 1), str(-2 ** 63), str(2 ** 63), str(-2 ** 63 - 1), str(2 ** 64),
                "1e400", "-1e400", "nan", "-nan", "inf", "-inf", "Infinity", "-0.0", "0", "-0",
                "5e-324", "-5e-324", "2.2250738585072014e-308", "1.7976931348623157e+308",
                "", "  ", "\u00e9", "\u221e", "\u0661", "\uff11", "1", "-1", "0.5", "true"]


@pytest.fixture(scope="module")
def tiny_log(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("edge")
    write_raw_log(tmp / "raw.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["preprocess", "--input", str(tmp / "raw.csv"), "--format", "amazon_csv",
                     "--output", str(tmp / "out"), "--k-core", "2"]) == 0
    return tmp


@given(st.sampled_from(_RUN_KEYS), st.sampled_from(_EDGE_VALUES))
@settings(max_examples=100, deadline=None)
def test_every_run_config_key_exits_0_2_or_3_never_1(tiny_log, key, value):
    """``cpmr train`` on the tiny log with one key set to an edge value exits
    0, 2 (rejected) or 3 (a numerical abort, as ``train.lr=1e30`` gives): never
    1, never a traceback. One epoch; a huge ``max_epochs`` runs at lr 0 with
    patience 0, so it stops after its second."""
    cfg = tiny_log / "edge.cfg"
    extra = ["train.max_epochs=1"]
    if key == "train.max_epochs":
        extra += ["train.patience=0", "train.lr=0"]
    write_config(cfg, tiny_log / "out" / "dataset.bin", tiny_log / "run", [*extra, f"{key}={value}"])
    err, cwd = io.StringIO(), os.getcwd()
    os.chdir(tiny_log)                             # a relative output.dir lands here
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                np.errstate(all="ignore"):
            rc = main(["train", "--config", str(cfg)])
    finally:
        os.chdir(cwd)
    assert rc in (0, 2, 3), (key, value, rc, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_eval_rejects_checkpoint_of_another_config(workspace, capsys):
    tmp_path, out, cfg = workspace
    assert main(["train", "--config", str(cfg)]) == 0
    other = tmp_path / "other.cfg"
    write_config(other, out / "dataset.bin", out,
                 extra=["model.s_days=9", "model.time_scale=40"])
    capsys.readouterr()
    rc = main(["eval", "--config", str(other), "--checkpoint", str(out / "checkpoint.bin")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "model.s_days=3" in err and "model.time_scale=1.0" in err


def test_eval_rejects_checkpoint_with_a_nan(workspace, capsys):
    tmp_path, out, cfg = workspace
    assert main(["train", "--config", str(cfg)]) == 0
    ck = out / "checkpoint.bin"
    meta, params = ad.read_checkpoint(ck)
    params["embed"][2, 1] = np.nan
    ad.save_checkpoint(ck, params, meta)
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ck)]) == 2
    assert "'embed' has non-finite values" in capsys.readouterr().err


def test_checkpoint_records_the_training_settings(workspace, capsys):
    tmp_path, out, cfg = workspace
    assert main(["train", "--config", str(cfg)]) == 0
    meta, _ = ad.read_checkpoint(out / "checkpoint.bin")
    train_keys = {f"train.{f.name}" for f in dataclasses.fields(TrainConfig)}
    assert train_keys <= meta.keys()
    assert meta["train.lr"] == 0.01 and meta["train.n_tbptt"] == 4
    assert meta["train.seed"] == 0 and meta["train.weight_decay"] == 1e-4
    # eval checks only the model and dataset keys: other training settings pass
    other = tmp_path / "other.cfg"
    write_config(other, out / "dataset.bin", out, extra=["train.lr=0.5", "train.n_neg=3"])
    capsys.readouterr()
    assert main(["eval", "--config", str(other), "--checkpoint",
                 str(out / "checkpoint.bin")]) == 0


@pytest.mark.skipif(not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2,
                    reason="counts threads in /proc/self/task on a multi-CPU Linux host")
def test_cpmr_threads_caps_blas():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cpmr.__file__)))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    env.update(CPMR_THREADS="1", PYTHONPATH=src)
    code = ("import os, cpmr, numpy as np; a = np.random.rand(800, 800); a @ a; "
            "print(len(os.listdir('/proc/self/task')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "1"


def test_sweep_non_integer_values_exit_code(workspace):
    tmp_path, out, cfg = workspace
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(cfg), "--param", "s_days", "--values", "2,x"])
    assert exc.value.code == 2


def test_sweep_empty_values_exit_code(workspace, capsys):
    """The library's check gives the CLI its exit 2; nothing is written."""
    tmp_path, out, cfg = workspace
    assert main(["sweep", "--config", str(cfg), "--param", "s_days", "--values", ","]) == 2
    assert "empty sweep value list" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()
