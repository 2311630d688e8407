"""``tools/digest.py`` hashes and compares training runs; these tests feed it
canned arrays and train nothing."""

import hashlib
import os
import sys

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
