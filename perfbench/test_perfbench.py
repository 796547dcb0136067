"""Tests of the benchmark's own logic: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import run
import scenarios
import spans
import tracer


def _span(sid, parent, name, start, end, **attrs):
    return [sid, parent, name, start, end, attrs]


def test_self_time_subtracts_union_of_overlapping_children():
    # A command span whose two worker-thread children overlap in [3, 5],
    # as under --threads 2; child 2 has a child of its own.
    tree = [
        _span(1, None, "cli.cmd", 0.0, 10.0),
        _span(2, 1, "layer.a", 1.0, 5.0),
        _span(3, 1, "layer.b", 3.0, 8.0),
        _span(4, 2, "layer.c", 2.0, 3.0),
    ]
    selfs = spans.self_times(tree)
    assert selfs[1] == pytest.approx(10.0 - 7.0)  # union [1, 8], not 4 + 5
    assert selfs[2] == pytest.approx(4.0 - 1.0)
    assert selfs[3] == pytest.approx(5.0)
    assert selfs[4] == pytest.approx(1.0)
    stats = spans.layer_stats(tree)
    assert stats["cli.cmd.self_s"] == pytest.approx(3.0)
    assert stats["layer.a.calls"] == 1


def test_union_length_merges_touching_and_clips():
    assert spans.union_length([(0, 1), (1, 2), (5, 6)]) == pytest.approx(3.0)
    assert spans.union_length([(0, 4), (1, 2)], 1.0, 3.0) == pytest.approx(2.0)
    assert spans.union_length([]) == 0.0


def test_reuse_ratio_counts_calls_at_seen_keys():
    assert spans.reuse_ratio(["0", "4", "0", "0", "8"]) == pytest.approx(2 / 5)
    assert spans.reuse_ratio([]) == 0.0
    # layer_stats orders calls by start time, not by the order spans closed
    tree = [
        _span(2, 1, "z", 2.0, 3.0, key="m:4"),
        _span(3, 1, "z", 4.0, 5.0, key="m:4"),
        _span(1, None, "z", 0.0, 1.0, key="m:0"),
    ]
    assert spans.layer_stats(tree)["z.reuse_ratio"] == pytest.approx(1 / 3)


def test_uncovered_share_uses_top_level_spans():
    tree = [
        _span(1, None, "process.import", 0.0, 1.0),
        _span(2, None, "cli.main", 1.0, 3.5),
        _span(3, 2, "cli.cmd", 1.5, 3.0),
    ]
    assert spans.uncovered_share(tree, 4.0) == pytest.approx(0.5 / 4.0)


def test_worker_thread_spans_attach_to_command_span():
    rec = tracer.Recorder()
    layer = rec.wrap(lambda x: x * 2, "layer.work")

    def command():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(layer, range(4)))

    assert rec.wrap(command, "cli.cmd", anchor=True)() == [0, 2, 4, 6]
    (cmd,) = [s for s in rec.spans if s[2] == "cli.cmd"]
    workers = [s for s in rec.spans if s[2] == "layer.work"]
    assert len(workers) == 4
    assert all(s[1] == cmd[0] for s in workers)
    assert rec.anchor is None


def test_result_size_and_allocation_peak_are_recorded():
    np = pytest.importorskip("numpy")
    rec = tracer.Recorder()
    build = rec.wrap(lambda n: (np.ones(n), np.zeros(n)), "lambda_transform.build_model")
    build(1 << 17)
    (span,) = rec.spans
    assert span[5]["bytes_held"] == 2 * 8 * (1 << 17)
    assert span[5]["peak_alloc_mb"] >= 2.0


@pytest.mark.parametrize("name", sorted(scenarios.WORKLOADS))
def test_same_seed_gives_byte_identical_configs(name):
    workload = scenarios.WORKLOADS[name]

    def texts(seed):
        stream = scenarios.request_stream(name, seed)
        return [scenarios.config_text(workload.config(next(stream))) for _ in range(12)]

    assert texts(7) == texts(7)
    assert texts(7) != texts(8)


def test_family_rank_oracle_flags_a_wrong_rank(tmp_path: Path):
    workload = scenarios.WORKLOADS["family"]
    cfg = workload.config(0)
    ks, delta_tau = scenarios.dense_lattice(cfg)
    rows = [
        [f"{k * delta_tau:.16e}", str(k), "0", "0", "0", "algebraic"] for k in ks
    ]
    rows[3][1] = str(ks[3] + 1)
    (tmp_path / "projection_family.csv").write_text(
        "\n".join(",".join(r) for r in [list(workload.header), *rows]) + "\n"
    )
    (tmp_path / "projection_family.meta.json").write_text(json.dumps({"config": cfg}))
    reference = [[scenarios.reference_cell(c) for c in r] for r in rows]
    problems = scenarios.check_outputs(workload, cfg, reference, tmp_path)
    assert problems == [f"rank {ks[3] + 1} at lattice index {ks[3]}"]


def test_metric_lists_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(scenarios.WORKLOADS)
