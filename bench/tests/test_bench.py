"""Tests of the benchmark's own logic.

    python3 -m pytest bench/tests -q
"""

import json
import signal
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _composition(items):
    return Counter((it[0], wl.item_d(it), it[-1] if it[0] in ("reduce", "isomorphic") else None) for it in items)


def test_same_seed_gives_same_inputs():
    for w in wl.WORKLOADS:
        assert wl.make_round(w, 5, 2) == wl.make_round(w, 5, 2)
        assert wl.make_round(w, 5, 2) != wl.make_round(w, 6, 2)
        assert wl.make_round(w, 5, 2) != wl.make_round(w, 5, 3)


def test_rounds_share_one_composition():
    for w in wl.WORKLOADS:
        assert _composition(wl.make_round(w, 1, 0)) == _composition(wl.make_round(w, 9, 4))


def test_workload_names_match_spec():
    assert [x["name"] for x in SPEC["workloads"]] == list(wl.WORKLOADS)


def test_percentile_and_sample_count():
    values = [float(v) for v in range(100, 0, -1)]
    assert run.percentile(values, 0.50) == 50.0
    assert run.percentile(values, 0.90) == 90.0
    assert run.beyond(values, 0.90) == 10
    assert run.percentile(values, 1.0) == 100.0
    assert run.percentile([7.0], 0.90) == 7.0
    # 110 samples leave 11 beyond p90; ties at the cut are not beyond it
    assert run.beyond(list(range(110)), 0.90) == 11
    assert run.beyond([1.0] * 20 + [2.0] * 5, 0.90) == 0
    with pytest.raises(ValueError):
        run.percentile([], 0.5)


def test_speed_scaling_on_synthetic_probes():
    speed = run.Speed()
    ref = run.PROBE_REF_S
    speed.at = [0.0, 1.0, 2.0, 3.0]
    speed.took = [ref, ref, 2 * ref, 2 * ref]
    # probes within the window of [2, 3], plus the one just before it
    assert speed.factor(2.0, 3.0) == pytest.approx(2.0)
    assert speed.scaled(1.0, 2.0, 3.0) == pytest.approx(0.5)
    assert speed.factor(0.0, 0.5) == pytest.approx(1.0)
    speed.pair_took = [3 * run.PAIR_REF_S, run.PAIR_REF_S, 2 * run.PAIR_REF_S]
    assert speed.pair_factor(0) == pytest.approx(2.0)
    assert speed.pair_factor(1) == pytest.approx(1.5)
    speed.sample_pair()
    speed.sample()
    assert speed.pair_took[-1] > 0 and speed.took[-1] > 0


def test_self_time_on_synthetic_spans():
    # item [0,10] > a [1,5] > b [2,3];  item > a [6,8];  item > c [8.5,9]
    names = ["item", "a", "b", "c"]
    name = [0, 1, 2, 1, 3]
    parent = [-1, 0, 1, 0, 0]
    start = [0.0, 1.0, 2.0, 6.0, 8.5]
    end = [10.0, 5.0, 3.0, 8.0, 9.0]
    agg = tracing.aggregate(names, name, parent, start, end)
    assert agg["item"] == {"calls": 1, "total_s": 10.0, "self_s": 10.0 - 4.0 - 2.0 - 0.5}
    assert agg["a"] == {"calls": 2, "total_s": 6.0, "self_s": 5.0}
    assert agg["b"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert agg["c"]["self_s"] == 0.5
    total_self = sum(rec["self_s"] for rec in agg.values())
    assert total_self == pytest.approx(agg["item"]["total_s"])


def test_tracer_links_parents_and_counts_only_when_enabled():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4 and len(tracer.start) == 0
    tracer.enabled = True
    assert outer(1) == 4
    assert list(tracer.parent) == [-1, 0]
    assert [tracer.names[i] for i in tracer.name] == ["outer", "inner"]
    assert tracer.children_count("outer", "inner") == 1


def _small_items(w):
    """A few cheap items of every kind the workload has."""
    picked, seen = [], Counter()
    for it in wl.make_round(w, 1, 0):
        d = wl.item_d(it)
        small = it[3] is False if it[0] == "reduce" else d <= 3
        if small and seen[it[0]] < 3:
            picked.append(it)
            seen[it[0]] += 1
    return picked


# the layer each workload exists to exercise must show work in its trace
MAIN_LAYER = {
    "classify": "analyzer.analyze.self_s",
    "verify": "modules.verify_relations.self_s",
    "intertwine": "linalg.intertwiner_space.self_s",
    "rewrite": "rewriter.normal_form.self_s",
}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload, monkeypatch, capsys):
    out_dir = run.OUT_DIR / "tests"
    monkeypatch.setattr(run, "OUT_DIR", out_dir)
    r = run.Run(workload, 1, [_small_items(workload)])
    metrics = run.measure_traced(r)
    assert not r.failed
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics[MAIN_LAYER[workload]]["value"] > 0
    assert metrics["rational.rat.calls"]["value"] > 0
    spans = (out_dir / f"spans-{workload}-seed1.jsonl").read_text().splitlines()
    names = json.loads(spans[0])["names"]
    first = json.loads(spans[1])
    assert names[first[0]] == "item" and first[1] == -1
    assert sum(1 for line in spans[1:] if names[json.loads(line)[0]] == "item") == len(r.items)
    # the wrappers are gone again
    assert not hasattr(wl.racah.build_R, "__wrapped__")
    assert not hasattr(wl.racah.Mat.__dict__["__mul__"], "__wrapped__")


def test_end_to_end_metrics_match_spec():
    r = run.Run("rewrite", 1, [_small_items("rewrite")])
    run.measure(r)
    metrics, lines = run.end_to_end(r, [0.2, 0.1, 0.3], [5.0, 4.0])
    assert [(k, v["unit"]) for k, v in metrics.items()] == [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert metrics["setup_s"]["value"] == 0.2
    assert metrics["parallel_items_per_s"]["value"] == 4.5
    assert any(line.startswith("item_p90_ms") and "beyond" in line for line in lines)


def test_failures_are_isolated_and_named(monkeypatch, capsys):
    items = _small_items("rewrite")[:3]
    real = wl.run_item

    def flaky(item):
        if item is items[0]:
            raise wl.racah.RewriteLimitError("too many steps")
        if item is items[1]:
            time.sleep(1.0)
        return real(item)

    monkeypatch.setattr(wl, "run_item", flaky)
    monkeypatch.setattr(wl, "ITEM_CAP_S", 0.2)
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        r = run.Run("rewrite", 4, [items])
        run.measure(r)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert r.failed == {0: "run", 1: "timeout"}
    assert list(r.durations) == [2]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert "workload=rewrite seed=4 round 0 item 0 stage=run" in err[0]
    assert "RewriteLimitError" in err[0]
    assert "stage=timeout" in err[1]


def test_check_rejects_a_wrong_output():
    item = next(it for it in wl.make_round("verify", 1, 0) if it[0] == "lmatrix")
    mats, _ = wl.run_item(item)
    with pytest.raises(wl.CheckFailed):
        wl.check_item(item, [mats[0], mats[1], mats[2].scale(2)])


def test_stored_digests_cover_the_default_run():
    stored = json.loads(run.DIGESTS.read_text())
    for w in wl.WORKLOADS:
        rounds = wl.n_rounds(w, SPEC["run_seconds"])
        assert [len(r) for r in stored[w]] == [len(wl.make_round(w, wl.DEFAULT_SEED, k)) for k in range(rounds)]
