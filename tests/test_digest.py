"""``tools/digest.py`` hashes and compares training runs; these tests feed it
canned arrays and train nothing."""

import hashlib
import os
import sys
import types

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture()
def digest():
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    try:
        import digest
        yield digest
    finally:
        sys.path.remove(os.path.join(ROOT, "tools"))


def canned():
    """A run's arrays as ``digest.run`` returns them."""
    rng = np.random.default_rng(0)
    return {"param.alpha_his": rng.normal(size=(5, 1)), "param.embed": rng.normal(size=(5, 3)),
            "param.zero": np.zeros((2, 2)),
            "segment_losses": np.array([2.75, 2.5, 2.25]), "val_mrrs": np.array([0.1, 0.125]),
            "test": np.array([[0.12, 0.5], [0.13, 0.55]])}


def test_digest_hashes_names_parameters_then_metrics(digest):
    """The sha1 the script printed before it could save runs: each parameter's
    name and bytes in name order, then the segment losses, the validation
    MRRs and each test replay's MRR and Recall@10."""
    arrays = canned()
    h = hashlib.sha1()
    for name in ("alpha_his", "embed", "zero"):
        h.update(name.encode() + arrays["param." + name].tobytes())
    h.update(arrays["segment_losses"].tobytes())
    h.update(arrays["val_mrrs"].tobytes())
    for row in arrays["test"]:
        h.update(np.array([row[0], row[1]]).tobytes())
    assert digest.digest(arrays) == h.hexdigest()


def test_drift_of_equal_runs_is_zero(digest, tmp_path):
    digest.save(str(tmp_path), "burst-d32-full", canned())
    assert digest.drift(digest.load(str(tmp_path), "burst-d32-full"), canned()) == (0.0, 0.0, True)


def test_drift_reports_the_worst_tensor_and_loss_and_any_metric_that_moved(digest):
    ref, new = canned(), canned()
    scale = np.abs(ref["param.embed"]).max()
    new["param.embed"][2, 1] += 3e-12 * scale            # the worst tensor, relative to its max
    new["param.alpha_his"][0, 0] += 1e-15 * np.abs(ref["param.alpha_his"]).max()
    new["segment_losses"][1] *= 1.0 + 4e-15
    params, losses, equal = digest.drift(ref, new)
    assert params == pytest.approx(3e-12, rel=1e-3)
    assert losses == pytest.approx(4e-15, rel=1e-2)
    assert equal
    new["test"][1, 1] = np.nextafter(new["test"][1, 1], 1.0)    # one Recall@10, one ulp
    assert digest.drift(ref, new)[2] is False
    new = canned()
    new["param.zero"][1, 1] = 1e-300                             # a tensor whose max is 0
    assert digest.drift(ref, new) == (np.inf, 0.0, True)


def test_drift_refuses_runs_of_other_shapes(digest):
    ref, new = canned(), canned()
    del new["param.zero"]
    with pytest.raises(ValueError):
        digest.drift(ref, new)
    new = canned()
    new["val_mrrs"] = np.array([0.1])
    with pytest.raises(ValueError):
        digest.drift(ref, new)


RUNS = ["burst-d32-full", "longtail-d32-full", "stretch-d128-full", "longtail-d32-wo_ctx",
        "longtail-d32-wo_his", "longtail-d32-wo_fusion"]


def test_base_saves_revs_runs_in_a_worktree_and_prints_the_drift_against_them(
        digest, monkeypatch, capsys):
    """``--base REV`` runs a copy of the script with ``--save`` in a temporary
    ``git worktree`` of REV, removes the worktree, and prints each run's line
    with its drift against REV's run. Stubbed: no git, no training."""
    calls, runs = [], []

    def fake_run(cmd, cwd=None, **kwargs):
        calls.append(cmd)
        if cmd[:3] == ["git", "worktree", "add"]:
            os.makedirs(os.path.join(cmd[-2], "tools"))
        elif cmd[0] == sys.executable:                   # REV's runs, the same arrays
            assert os.path.isfile(cmd[1]) and cmd[2] == "--save"
            for name in RUNS:
                digest.save(cmd[3], name, canned())

    def trained(w, variant):
        runs.append(variant)
        arrays = canned()
        if variant == "wo_his":
            arrays["test"][0, 0] += 0.01
        return arrays

    monkeypatch.setattr(digest, "subprocess", types.SimpleNamespace(run=fake_run, DEVNULL=None))
    monkeypatch.setattr(digest, "run", trained)
    monkeypatch.setattr(digest.signal, "signal", lambda *args: None)
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert digest.main(["--base", "abc123"]) == 0
    add, script, remove, prune = calls
    tree = add[-2]
    assert add[-1] == "abc123" and script[1] == os.path.join(tree, "tools", "digest.py")
    assert remove[:4] == ["git", "worktree", "remove", "--force"] and remove[-1] == tree
    assert prune == ["git", "worktree", "prune"] and not os.path.exists(tree)
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 * len(runs) == 12
    assert out[0].startswith("burst-d32      full       " + digest.digest(canned()))
    drifts = out[1::2]
    assert drifts.count(" " * 26 + "parameter drift 0.00e+00, segment losses 0.00e+00, "
                        "MRR and Recall bit-equal") == 5
    assert drifts[runs.index("wo_his")].endswith("MRR and Recall DIFFER")


def test_base_and_against_exclude_each_other(digest, capsys):
    with pytest.raises(SystemExit) as exit_info:
        digest.main(["--base", "HEAD", "--against", "somewhere"])
    assert exit_info.value.code == 2
