"""Interaction-log ingestion: parsing, k-core filtering, canonicalization.

The canonical dataset keeps interactions as parallel numpy arrays sorted by
(day, user_id, item_id), with timestamps coarsened to day indices and
normalized into [0, 1] over the full span. Splits are placed on whole-day
boundaries so no day is shared between train/validation/test. On disk a
dataset is a cpmr array file (:mod:`cpmr.arrayfile`) holding those arrays,
the user and item counts, the day unit and the split.
"""

from __future__ import annotations

import io
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import arrayfile
from .errors import ConfigError, DataError, DataFormatError, DegenerateSpanError, ParseError

SECONDS_PER_DAY = 86400


@dataclass
class RawEvent:
    user_key: str
    item_key: str
    timestamp: int
    rating: float | None = None


@dataclass
class Dataset:
    """Chronological interaction log with dense ids and day-level splits.

    ``split`` holds two indices (i_val, i_test): train is [0, i_val),
    validation [i_val, i_test), test [i_test, n).
    """

    user_ids: np.ndarray
    item_ids: np.ndarray
    days: np.ndarray
    t_norm: np.ndarray
    n_users: int
    n_items: int
    day_unit: float
    split: tuple[int, int]

    def __len__(self):
        return len(self.user_ids)

    @property
    def n_days(self):
        return len(np.unique(self.days))

    def split_slice(self, name):
        i_val, i_test = self.split
        if name == "train":
            return slice(0, i_val)
        if name == "val":
            return slice(i_val, i_test)
        if name == "test":
            return slice(i_test, len(self))
        raise ConfigError(f"unknown split {name!r}")


def parse_interactions(source, fmt) -> list[RawEvent]:
    """Parse a byte or text stream of interaction records.

    amazon_csv: ``user,item,rating,epoch_seconds`` (comma separated)
    movielens_tab: ``user item rating epoch_seconds`` (tab separated)
    """
    if fmt == "amazon_csv":
        sep = ","
    elif fmt == "movielens_tab":
        sep = "\t"
    else:
        raise ConfigError(f"unknown input format {fmt!r}")
    if isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
        source = source.read()           # the caller's handle stays open and its own
    if isinstance(source, (bytes, bytearray)):
        try:
            source = io.StringIO(source.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: byte {source[exc.start]:#04x}",
                             source.count(b"\n", 0, exc.start) + 1) from exc
    events = []
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(sep)
        if len(parts) < 4:
            raise ParseError(f"expected 4 fields, got {len(parts)}: {line!r}", lineno)
        user, item, rating_s, ts_s = parts[0], parts[1], parts[2], parts[3]
        try:
            ts = int(float(ts_s))
            rating = float(rating_s) if rating_s != "" else None
        except (ValueError, OverflowError) as exc:     # OverflowError: int(inf)
            raise ParseError(f"bad numeric field: {line!r}", lineno) from exc
        if not 0 <= ts < 2 ** 63:
            raise ParseError(f"timestamp outside [0, 2^63): {line!r}", lineno)
        events.append(RawEvent(user, item, ts, rating))
    return events


def k_core_filter(events, k=5):
    """Iteratively drop users/items with fewer than k events until stable."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    kept = list(events)
    while True:
        users = Counter(e.user_key for e in kept)
        items = Counter(e.item_key for e in kept)
        filtered = [e for e in kept if users[e.user_key] >= k and items[e.item_key] >= k]
        if len(filtered) == len(kept):
            return kept
        kept = filtered


def canonicalize(events) -> Dataset:
    """Map keys to dense ids, coarsen timestamps to days, normalize, split.

    Ids are assigned by first appearance in the event list; interactions are
    sorted by (day, user_id, item_id); split boundaries land on the first
    day-start index at or past the 80% / 90% interaction quantiles.
    """
    if not events:
        raise DataError("cannot canonicalize an empty event list")
    user_map, item_map = {}, {}
    for e in events:
        user_map.setdefault(e.user_key, len(user_map))
        item_map.setdefault(e.item_key, len(item_map))
    users = np.array([user_map[e.user_key] for e in events], dtype=np.int64)
    items = np.array([item_map[e.item_key] for e in events], dtype=np.int64)
    days = np.array([e.timestamp // SECONDS_PER_DAY for e in events], dtype=np.int64)

    day_min, day_max = int(days.min()), int(days.max())
    if day_max == day_min:
        raise DegenerateSpanError("all events fall on a single day")
    span = day_max - day_min
    days = days - day_min

    order = np.lexsort((items, users, days))
    users, items, days = users[order], items[order], days[order]
    t_norm = days / float(span)
    day_unit = 1.0 / span

    n = len(users)
    day_starts = np.flatnonzero(np.r_[True, days[1:] != days[:-1]])
    i_val = _boundary(day_starts, 0.8 * n, n)
    i_test = _boundary(day_starts, 0.9 * n, n)
    return Dataset(users, items, days, t_norm, len(user_map), len(item_map),
                   day_unit, (int(i_val), int(i_test)))


def _boundary(day_starts, target, n):
    """Smallest day-start index covering at least ``target`` interactions."""
    pos = np.searchsorted(day_starts, target, side="left")
    if pos == len(day_starts):
        return n
    return int(day_starts[pos])


# ---------------------------------------------------------------------------
# dataset file: the four arrays and the counts in a cpmr array file

_ARRAYS = {"user_ids": "<i8", "item_ids": "<i8", "days": "<i8", "t_norm": "<f8"}


def save_dataset(path, ds: Dataset):
    arrays = {name: np.asarray(getattr(ds, name), dtype=dt) for name, dt in _ARRAYS.items()}
    arrayfile.save(path, "dataset", arrays,
                   {"n_users": int(ds.n_users), "n_items": int(ds.n_items),
                    "day_unit": float(ds.day_unit), "split": [int(i) for i in ds.split]})


def load_dataset(path) -> Dataset:
    """Read a dataset file, checking everything in it that can be wrong."""
    meta, arrays = arrayfile.load(path, "dataset")
    n = len(arrays.get("days", ()))
    layout = {k: (a.dtype.str, a.shape) for k, a in arrays.items()}
    if layout != {k: (dt, (n,)) for k, dt in _ARRAYS.items()}:
        raise DataFormatError(f"{path}: arrays {layout}, expected {n} each of {_ARRAYS}")
    u, i, days = arrays["user_ids"], arrays["item_ids"], arrays["days"]
    n_users, n_items, day_unit, split = map(meta.get, ("n_users", "n_items", "day_unit",
                                                       "split"))
    if not (isinstance(split, list) and [type(v) for v in (n_users, n_items, day_unit, *split)]
            == [int, int, float, int, int]):
        raise DataFormatError(f"{path}: dataset metadata of the wrong types: {meta}")
    wrong = [why for why, bad in (
        (f"split {split} outside [0, {n}]", not 0 <= split[0] <= split[1] <= n),
        (f"user ids outside [0, {n_users})", np.any((u < 0) | (u >= n_users))),
        (f"item ids outside [0, {n_items})", np.any((i < 0) | (i >= n_items))),
        ("days unsorted or negative", np.any(days[:1] < 0) or np.any(days[1:] < days[:-1])),
    ) if bad]
    if wrong:
        raise DataFormatError(f"{path}: invalid dataset: {'; '.join(wrong)}")
    return Dataset(u, i, days, arrays["t_norm"], n_users, n_items, day_unit, tuple(split))


def summarize(ds: Dataset) -> dict:
    """Counts in the shape of the usual dataset statistics table."""
    span = int(round(1.0 / ds.day_unit)) + 1
    return {
        "n_users": ds.n_users,
        "n_items": ds.n_items,
        "n_interactions": len(ds),
        "n_timestamps": ds.n_days,
        "span_days": span,
    }
