"""``tools/pairs.py`` summarizes paired benchmark runs; these tests feed it
canned result lines and run no benchmark."""

import json
import os
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


@pytest.fixture()
def pairs():
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    try:
        import pairs
        yield pairs
    finally:
        sys.path.remove(os.path.join(ROOT, "tools"))


def line(replay, rss=88.6, setup=0.011, epoch=0.82, correct=True, failed=0):
    """A run's last output line, as ``benchmarks/run.py`` prints it."""
    values = {"setup_s": setup, "train_epoch_s": epoch, "test_replay_s": replay,
              "peak_rss_mb": rss}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    return json.dumps({"correct": correct, "attempted": 90, "failed": failed,
                       "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}})


def test_last_json_reads_the_last_line_or_nothing(pairs):
    out = "progress\n" + line(0.2) + "\n"
    assert pairs.last_json(out)["metrics"]["test_replay_s"]["value"] == 0.2
    assert pairs.last_json("") is None
    assert pairs.last_json("Traceback (most recent call last):\n  boom") is None


def test_quartiles_interpolate_like_numpy_percentiles(pairs):
    import numpy as np
    values = [0.31, 0.2, 0.25, 0.4, 0.22, 0.27, 0.26, 0.3, 0.21, 0.29]
    assert pairs.quartiles(values) == pytest.approx(np.percentile(values, [25, 50, 75]))
    assert pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


@pytest.mark.parametrize("change, better, want", [
    # 9 of 10 pairs lower, median gap 0.015 over an interquartile range of ~0.005
    ([0.185 + 0.001 * i for i in range(9)] + [0.3], "lower", ("gain", 9)),
    # the same runs where higher is better: lost 9, and -8% is within the 25% bound
    ([0.185 + 0.001 * i for i in range(9)] + [0.3], "higher", ("no change", 1)),
    # 8 of 10 won is not enough
    ([0.185] * 8 + [0.3, 0.3], "lower", ("no change", 8)),
    # 30% worse than the base's median, over the 25% bound
    ([0.26] * 10, "lower", ("worse", 0)),
    # quartiles 0.13 and 0.28 around 0.22: a spread wider than the bound
    ([0.1] * 3 + [0.22] * 4 + [0.3] * 3, "lower", ("unresolved", 3)),
    # as wide a spread, but every run of the change is better than every run of the base
    ([0.01] * 3 + [0.1] * 4 + [0.15] * 3, "lower", ("gain", 10)),
    ([0.01] * 3 + [0.1] * 4 + [0.15] * 3, "higher", ("worse", 0)),
    ([0.21] * 3 + [0.3] * 4 + [0.4] * 3, "higher", ("gain", 10)),
    ([0.19] * 3 + [0.3] * 4 + [0.4] * 3, "higher", ("unresolved", 7)),
])
def test_verdict(pairs, change, better, want):
    base = [0.198, 0.2, 0.202, 0.199, 0.201, 0.2, 0.203, 0.197, 0.2, 0.2]
    assert pairs.verdict(base, change, 0.25, better) == want


def test_summary_of_canned_runs(pairs):
    """Medians, quartiles, pairs won and verdicts per metric; attempted and
    failed counts per side; and the runs that were not correct or gave no
    result, which leave their pair out of the medians."""
    base = [json.loads(line(0.2 + 0.001 * (i % 3))) for i in range(10)]
    change = [json.loads(line(0.18 + 0.001 * (i % 3), rss=88.6 * 1.1)) for i in range(10)]
    change[3] = json.loads(line(0.181, correct=False, failed=2))
    runs = {"burst-d32": list(zip(base, change)), "longtail-d32": [(base[0], None)]}
    out = pairs.summarize(SPEC, runs)
    assert out[0] == ("== burst-d32: 10 pairs; base attempted 900, failed 0; "
                      "change attempted 900, failed 2; change run 3: not correct")
    rows = {row.split()[0]: row for row in out[1:9:2]}
    assert list(rows) == [m["name"] for m in SPEC["end_to_end"]]
    assert rows["test_replay_s"].endswith("change won 10/10, bound 25%: gain")
    assert "0.201 [0.2, 0.2018] -> 0.181 [0.1803, 0.1818] s, -10.0%" in rows["test_replay_s"]
    assert rows["peak_rss_mb"].endswith("change won 0/10, bound 5%: worse")
    assert rows["setup_s"].endswith("change won 0/10, bound 25%: no change")
    assert out[2].startswith("      pairs (base, change): (0.011, 0.011), ")
    assert out[9:] == ["== longtail-d32: 1 pairs; base attempted 90, failed 0; "
                       "change attempted 0, failed 0; change run 0: no result"] + \
        [f"   {m['name']}: no complete pair" for m in SPEC["end_to_end"]]


def test_json_record_of_canned_runs_is_appended(pairs, tmp_path, monkeypatch):
    """``--json`` appends one record: revs, host, settings and, per workload
    and metric, both medians and quartiles, every pair, pairs won and the
    verdict, the numbers the report's lines print."""
    base = [json.loads(line(0.2 + 0.001 * (i % 3))) for i in range(10)]
    change = [json.loads(line(0.18 + 0.001 * (i % 3), rss=88.6 * 1.1)) for i in range(10)]
    runs = {"burst-d32": list(zip(base, change))}
    record = pairs.compare(SPEC, runs)["burst-d32"]
    assert record["pairs"] == 10 and record["change"] == {
        "attempted": 900, "failed": 0, "no_result": [], "not_correct": []}
    replay = record["metrics"]["test_replay_s"]
    assert replay["base_median"] == pytest.approx(0.201)
    assert replay["change_quartiles"] == pytest.approx([0.18, 0.18175])
    assert replay["pairs"][1] == [0.201, 0.181] and replay["won"] == 10
    assert replay["verdict"] == "gain" and record["metrics"]["peak_rss_mb"]["verdict"] == "worse"

    def bench(tree, name, seconds, seed):
        return (base if tree != pairs.ROOT else change)[0]

    def git(*args, cwd=None):                 # no worktree: HEAD is the base, tree unchanged
        return "ab" * 20 + "\n" if args[0] == "rev-parse" else ""
    monkeypatch.setattr(pairs, "bench", bench)
    monkeypatch.setattr(pairs, "harness_differs", lambda rev: False)
    monkeypatch.setattr(pairs, "git", git)
    monkeypatch.setattr(pairs, "subprocess", types.SimpleNamespace(run=lambda *a, **k: None,
                                                                   DEVNULL=None))
    monkeypatch.setattr(pairs.signal, "signal", lambda *a: None)
    path = tmp_path / "BENCH.json"
    path.write_text("[]")
    for _ in range(2):
        assert pairs.main(["--base", "HEAD", "--pairs", "2", "--workload", "burst-d32",
                           "--seconds", "5", "--json", str(path)]) == 0
    records = json.loads(path.read_text())
    assert len(records) == 2
    rec = records[0]
    assert rec["base"] == rec["change"] == "ab" * 20
    assert rec["host"]["nproc"] >= 1 and (rec["seed"], rec["seconds"], rec["pairs"]) == (0, 5, 2)
    metric = rec["workloads"]["burst-d32"]["metrics"]["test_replay_s"]
    assert metric["pairs"] == [[0.2, 0.18], [0.2, 0.18]] and metric["won"] == 2
