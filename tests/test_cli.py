import gc
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import cpmr
from cpmr.cli import main
from cpmr.errors import ConfigError
from cpmr.runconfig import RunConfig


def write_raw_log(path, seed=0, n_users=7, n_items=7, n_days=14, per_day=5):
    rng = np.random.default_rng(seed)
    lines = []
    for day in range(n_days):
        for _ in range(per_day):
            lines.append(f"u{rng.integers(n_users)},i{rng.integers(n_items)},"
                         f"5.0,{day * 86400}")
    path.write_text("\n".join(lines) + "\n")


def write_config(path, data_path, out_dir, extra=()):
    lines = [f"data.path={data_path}",
             f"output.dir={out_dir}",
             "model.d=4", "model.s_days=3", "model.taylor_order=3",
             "train.lr=0.01", "train.n_tbptt=4", "train.n_neg=2",
             "train.max_epochs=2", "train.patience=5",
             *extra]
    path.write_text("\n".join(lines) + "\n")


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


def test_ablate_forwards_variant(workspace, capsys):
    tmp_path, out, cfg = workspace
    rc = main(["ablate", "--config", str(cfg), "--variant", "wo_fusion"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["config"]["variant"] == "wo_fusion"
    assert report["config"]["disable_fusion"] is True


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


def test_runconfig_bad_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("data.path=x\nnot a kv line\n")
    with pytest.raises(ConfigError, match="line|kv|key=value"):
        RunConfig.from_file(cfg)


def test_runconfig_bool_coercion(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("data.path=x\nmodel.disable_fusion=true\n"
                   "eval.filter_interacted=no\n")
    run = RunConfig.from_file(cfg)
    assert run.model.disable_fusion is True
    assert run.eval_filter is False
    cfg.write_text("data.path=x\nmodel.disable_fusion=maybe\n")
    with pytest.raises(ConfigError):
        RunConfig.from_file(cfg)


def test_bad_config_value_exit_code(workspace, capsys):
    tmp_path, out, _ = workspace
    bad = tmp_path / "bad.cfg"
    write_config(bad, out / "dataset.bin", out, extra=["model.d=abc"])
    rc = main(["train", "--config", str(bad)])
    assert rc == 2
    assert "'abc'" in capsys.readouterr().err


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
                                  "eval.split=bogus"])
def test_config_out_of_range_exit_code(workspace, capsys, line):
    tmp_path, out, _ = workspace
    bad = tmp_path / "bad.cfg"
    write_config(bad, out / "dataset.bin", out, extra=[line])
    rc = main(["train", "--config", str(bad)])
    assert rc == 2
    assert line.partition("=")[0].rpartition(".")[2] in capsys.readouterr().err


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
