import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpmr.cli import main
from cpmr.data import (RawEvent, SECONDS_PER_DAY, canonicalize, k_core_filter,
                       load_dataset, parse_interactions, save_dataset)
from cpmr.errors import ConfigError, CpmrError, DegenerateSpanError, ParseError


def ev(u, i, day):
    return RawEvent(u, i, day * SECONDS_PER_DAY)


def test_parse_amazon_csv():
    events = parse_interactions(io.StringIO("A1,B00X,5.0,1404691200\n"), "amazon_csv")
    assert len(events) == 1
    e = events[0]
    assert (e.user_key, e.item_key, e.rating, e.timestamp) == ("A1", "B00X", 5.0, 1404691200)


def test_parse_movielens_tab():
    events = parse_interactions(io.StringIO("196\t242\t3\t881250949\n"), "movielens_tab")
    e = events[0]
    assert (e.user_key, e.item_key, e.rating, e.timestamp) == ("196", "242", 3.0, 881250949)


def test_parse_empty_stream():
    assert parse_interactions(io.StringIO(""), "amazon_csv") == []


def test_parse_preserves_order_and_bytes_input():
    raw = b"u1,i1,1.0,1000\nu2,i2,2.0,500\n"
    events = parse_interactions(raw, "amazon_csv")
    assert [e.user_key for e in events] == ["u1", "u2"]


def test_parse_malformed_record_reports_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_interactions(io.StringIO("u,i,1,5\nu,i\n"), "amazon_csv")


def test_parse_unknown_format():
    with pytest.raises(ConfigError):
        parse_interactions(io.StringIO(""), "netflix")


_JUNK_FIELDS = ["", "nan", "-nan", "inf", "-inf", "-1", "-0", "1e400", "1e19", "9" * 40,
                "9223372036854775807", "9223372036854775808", "0x1f", "1_000", " 7 ",
                "5.5e3", "\u00e9", "\x00", "1,5"]
_JUNK_BYTES = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00", b"\r", b"\n", b",", b"\t"]


@st.composite
def mutated_log(draw):
    """A few valid ``user,item,rating,ts`` lines, then mutated: fields replaced by
    junk, dropped or added, and raw bytes (bad UTF-8, NUL, separators) spliced in."""
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        fields = [f"u{draw(st.integers(0, 3))}", f"i{draw(st.integers(0, 3))}", "5.0",
                  str(draw(st.integers(0, 2 ** 40)))]
        for _ in range(draw(st.integers(0, 3))):
            k = draw(st.integers(0, len(fields)))
            op = draw(st.sampled_from(["replace", "drop", "add"]))
            if op == "replace" and k < len(fields):
                fields[k] = draw(st.sampled_from(_JUNK_FIELDS) | st.text(max_size=6))
            elif op == "drop" and fields:
                del fields[min(k, len(fields) - 1)]
            else:
                fields.insert(k, draw(st.sampled_from(_JUNK_FIELDS)))
        line = ",".join(fields).encode()
        for _ in range(draw(st.integers(0, 2))):
            at = draw(st.integers(0, len(line)))
            line = line[:at] + draw(st.sampled_from(_JUNK_BYTES)) + line[at:]
        lines.append(line)
    return b"\n".join(lines)


def parses_or_raises_typed(raw):
    """The events of ``raw``, or None when parsing raised a CpmrError."""
    try:
        events = parse_interactions(raw, "amazon_csv")
    except CpmrError:
        return None
    for e in events:
        assert isinstance(e.user_key, str) and isinstance(e.item_key, str)
        assert 0 <= e.timestamp < 2 ** 63
    return events


@given(st.binary(max_size=200) | mutated_log())
@settings(max_examples=400, deadline=None)
def test_parse_fuzz_events_or_typed_error(raw):
    parses_or_raises_typed(raw)


@given(st.binary(max_size=200) | mutated_log())
@settings(max_examples=60, deadline=None)
def test_preprocess_fuzz_exit_code(tmp_path_factory, raw):
    """Through the CLI, a log either preprocesses (exit 0) or exits 2; a log
    the parser rejects always exits 2."""
    out = tmp_path_factory.mktemp("fuzz")
    (out / "raw.csv").write_bytes(raw)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(["preprocess", "--input", str(out / "raw.csv"), "--format", "amazon_csv",
                   "--output", str(out), "--k-core", "1"])
    assert rc in (0, 2)
    if parses_or_raises_typed(raw) is None:
        assert rc == 2


def test_kcore_already_core():
    # 3 users x 5 shared items, every count is >= 5 after symmetrization:
    # each user has 5 events, each item has 3 -> items drop at k=5, so use
    # the stated construction: 5 users x 5 items grid
    events = [ev(f"u{a}", f"i{b}", a + b) for a in range(5) for b in range(5)]
    assert k_core_filter(events, 5) == events


def _kcore_oracle(events, k):
    kept = list(events)
    while True:
        changed = False
        for key in ("user_key", "item_key"):
            counts = {}
            for e in kept:
                counts[getattr(e, key)] = counts.get(getattr(e, key), 0) + 1
            nxt = [e for e in kept if counts[getattr(e, key)] >= k]
            if len(nxt) != len(kept):
                kept, changed = nxt, True
        if not changed:
            return kept


def test_kcore_cascade_matches_oracle():
    # one weak user whose removal drops an item below k, cascading
    events = [ev(f"u{a}", f"i{b}", a) for a in range(3) for b in range(3)]
    events += [ev("u3", "i0", 5), ev("u3", "i1", 6)]       # weak user
    events += [ev("u0", "i3", 7), ev("u1", "i3", 8)]       # weak item
    events += [ev(f"u{a}", f"i{b}", 9 + a + b) for a in range(3) for b in range(3)]
    assert len(events) == 22
    got = k_core_filter(events, 3)
    assert got == _kcore_oracle(events, 3)
    assert len(got) < len(events)


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 20)),
                max_size=40),
       st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_kcore_properties(triples, k):
    events = [ev(f"u{u}", f"i{i}", d) for u, i, d in triples]
    once = k_core_filter(events, k)
    # idempotent, subset, counts >= k
    assert k_core_filter(once, k) == once
    assert all(e in events for e in once)
    from collections import Counter
    users = Counter(e.user_key for e in once)
    items = Counter(e.item_key for e in once)
    assert all(c >= k for c in users.values())
    assert all(c >= k for c in items.values())


def test_canonicalize_two_point_normalization():
    events = [ev(f"u{j}", f"i{j}", 0) for j in range(3)]
    events += [ev(f"u{j}", f"i{j}", 100) for j in range(3)]
    ds = canonicalize(events)
    assert set(np.unique(ds.days * ds.day_unit)) == {0.0, 1.0}
    assert ds.day_unit == pytest.approx(0.01)


def test_canonicalize_degenerate_span():
    with pytest.raises(DegenerateSpanError):
        canonicalize([ev("u", "i", 7), ev("v", "j", 7)])


def test_canonicalize_dense_ids_first_appearance():
    events = [ev("zz", "b", 0), ev("aa", "a", 1), ev("zz", "a", 2)]
    ds = canonicalize(events)
    assert ds.user_ids[0] == 0 and ds.item_ids[0] == 0   # "zz"/"b" seen first
    assert ds.n_users == 2 and ds.n_items == 2


def test_split_boundaries_ten_distinct_days():
    events = [ev(f"u{j%3}", f"i{j%3}", j) for j in range(10)]
    ds = canonicalize(events)
    # 8 events strictly before the val boundary day, 9 before test
    assert ds.split == (8, 9)


def test_split_never_cuts_a_day():
    # 10 events, days [0]*8 + [1, 2]: 80% quantile falls inside day 0
    events = [ev(f"u{j}", f"i{j}", 0) for j in range(8)]
    events += [ev("u0", "i1", 1), ev("u1", "i0", 2)]
    ds = canonicalize(events)
    i_val, i_test = ds.split
    assert ds.days[i_val - 1] < ds.days[i_val]
    assert ds.days[i_test - 1] < ds.days[i_test]


def test_day_order_preserved():
    rng = np.random.default_rng(0)
    ts = rng.integers(0, 10**7, size=50)
    events = [RawEvent(f"u{j%5}", f"i{j%5}", int(t)) for j, t in enumerate(ts)]
    ds = canonicalize(events)
    assert np.all(np.diff(ds.days) >= 0)


def test_no_leakage_between_splits():
    events = [ev(f"u{j%4}", f"i{j%4}", j // 2) for j in range(40)]
    ds = canonicalize(events)
    i_val, i_test = ds.split
    assert ds.days[:i_val].max() < ds.days[i_val:i_test].min()
    assert ds.days[i_val:i_test].max() < ds.days[i_test:].min()


def test_dataset_file_round_trip(tmp_path):
    events = [ev(f"u{j%4}", f"i{(j * 3) % 5}", j) for j in range(30)]
    ds = canonicalize(events)
    p = tmp_path / "dataset.bin"
    save_dataset(p, ds)
    back = load_dataset(p)
    assert back.n_users == ds.n_users and back.n_items == ds.n_items
    assert back.split == ds.split and back.day_unit == ds.day_unit
    np.testing.assert_array_equal(back.user_ids, ds.user_ids)
    np.testing.assert_array_equal(back.item_ids, ds.item_ids)
    np.testing.assert_array_equal(back.days, ds.days)
    # rewrite is byte-identical
    p2 = tmp_path / "again.bin"
    save_dataset(p2, back)
    assert p.read_bytes() == p2.read_bytes()
