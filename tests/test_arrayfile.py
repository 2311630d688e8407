"""The dataset and checkpoint file format: rejection of bad files, fuzzing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpmr import autodiff as ad
from cpmr import arrayfile
from cpmr.data import RawEvent, canonicalize, load_dataset, save_dataset
from cpmr.errors import DataFormatError


def small_dataset():
    return canonicalize([RawEvent(f"u{j % 4}", f"i{(j * 3) % 5}", j * 86400)
                         for j in range(30)])


def test_old_text_dataset_rejected(tmp_path):
    p = tmp_path / "dataset.bin"
    p.write_text("cpmr-dataset v1\nn_users 1\nn_items 1\nday_unit 1.0\nsplit 0 0\n")
    with pytest.raises(DataFormatError, match="cpmr preprocess"):
        load_dataset(p)


def test_checkpoint_is_not_a_dataset(tmp_path):
    p = tmp_path / "checkpoint.bin"
    ad.save_checkpoint(p, {"a": np.zeros((1, 1))})
    with pytest.raises(DataFormatError, match="'checkpoint'"):
        load_dataset(p)


def test_checkpoint_keeps_metadata(tmp_path):
    p = tmp_path / "checkpoint.bin"
    ad.save_checkpoint(p, {"a": np.ones((2, 3))}, {"model.d": 3, "dataset.split": [1, 2]})
    meta, params = ad.read_checkpoint(p)
    assert meta == {"model.d": 3, "dataset.split": [1, 2]}
    np.testing.assert_array_equal(params["a"], np.ones((2, 3)))


def _set(d, key, value):
    d[key] = value


@pytest.mark.parametrize("corrupt", [
    pytest.param(lambda a, m: _set(a["user_ids"], 0, m["n_users"]), id="user-id-range"),
    pytest.param(lambda a, m: _set(a["item_ids"], 0, -1), id="item-id-negative"),
    pytest.param(lambda a, m: _set(a["days"], [0, -1], a["days"][[-1, 0]]), id="days-unsorted"),
    pytest.param(lambda a, m: _set(m["split"], 1, len(a["days"]) + 1), id="split-past-end"),
    pytest.param(lambda a, m: _set(a, "days", a["days"][:-1]), id="lengths-differ"),
    pytest.param(lambda a, m: _set(a, "days", a["days"].astype(np.int32)), id="dtype"),
    pytest.param(lambda a, m: a.pop("days"), id="array-missing"),
    pytest.param(lambda a, m: _set(m, "n_items", float(m["n_items"])), id="float-count"),
    pytest.param(lambda a, m: m.pop("split"), id="split-missing"),
    # 1 / span for a span of whole days; at 0.0 the states never evolve
    *[pytest.param(lambda a, m, v=v: _set(m, "day_unit", v), id=f"day-unit-{v}")
      for v in (0.0, -0.05, float("nan"), 1e9)],
])
def test_load_dataset_rejects_invalid_content(tmp_path, corrupt):
    p = tmp_path / "dataset.bin"
    save_dataset(p, small_dataset())
    meta, arrays = arrayfile.load(p, "dataset")
    corrupt(arrays, meta)
    arrayfile.save(p, "dataset", arrays, meta)
    with pytest.raises(DataFormatError, match="dataset"):
        load_dataset(p)


@pytest.mark.parametrize("days, day_unit", [([5, 6, 7, 8, 9], 0.25),
                                             ([0, 100, 200, 300, 400], 1.0)],
                         ids=["days-5-to-9", "days-0-to-400"])
def test_load_dataset_rejects_days_off_the_unit_span(tmp_path, days, day_unit):
    """``canonicalize`` writes days from 0 to 1 / day_unit, so that days *
    day_unit spans [0, 1]; a file whose days start elsewhere or run past
    that is rejected, and the same file with its days put back loads."""
    p = tmp_path / "dataset.bin"

    def save(days):
        arrays = {"user_ids": np.arange(5) % 2, "item_ids": np.arange(5) % 3,
                  "days": np.asarray(days, dtype="<i8")}
        arrayfile.save(p, "dataset", arrays,
                       {"n_users": 2, "n_items": 3, "day_unit": day_unit, "split": [3, 3]})
    save(days)
    with pytest.raises(DataFormatError, match="days not from 0 to 1 / day unit"):
        load_dataset(p)
    save(np.arange(5) if day_unit == 0.25 else [0, 0, 0, 1, 1])
    assert load_dataset(p).day_unit == day_unit


def _saved_bytes(tmp_path):
    ds_path, ck_path = tmp_path / "dataset.bin", tmp_path / "checkpoint.bin"
    save_dataset(ds_path, small_dataset())
    rng = np.random.default_rng(0)
    ad.save_checkpoint(ck_path, {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=(1, 2))},
                       {"model.d": 2, "dataset.split": [20, 25]})
    return ds_path.read_bytes(), ck_path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(which=st.sampled_from(["dataset", "checkpoint"]), data=st.data())
def test_corrupt_files_load_or_raise_data_format_error(tmp_path_factory, which, data):
    """Truncating a file or flipping any one byte of it gives a load that
    passes validation or a DataFormatError, never another exception."""
    tmp = tmp_path_factory.mktemp("fuzz")
    raw = _saved_bytes(tmp)[which == "checkpoint"]
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        pos = data.draw(st.integers(0, len(raw) - 1), label="position")
        raw = raw[:pos] + bytes([raw[pos] ^ data.draw(st.integers(1, 255), label="xor")]) \
            + raw[pos + 1:]
    path = tmp / "corrupt.bin"
    path.write_bytes(raw)
    try:
        if which == "dataset":
            load_dataset(path)
        else:
            ad.read_checkpoint(path)[1]
    except DataFormatError:
        pass
