import pytest

import tracer


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]
    spans = [
        (2, 1, "a1", 2.0, 3.0),
        (1, 0, "a", 1.0, 4.0),
        (3, 0, "b", 5.0, 9.0),
        (0, None, "root", 0.0, 10.0),
    ]
    times = tracer.self_times(spans)
    assert times == {
        "root": [1, 10.0, 3.0],
        "a": [1, 3.0, 2.0],
        "a1": [1, 1.0, 1.0],
        "b": [1, 4.0, 4.0],
    }
    assert sum(row[2] for row in times.values()) == pytest.approx(10.0)


def test_self_time_aggregates_repeated_names():
    spans = [
        (1, 0, "leaf", 1.0, 2.0),
        (2, 0, "leaf", 3.0, 3.5),
        (0, None, "mid", 0.0, 4.0),
    ]
    times = tracer.self_times(spans)
    assert times["leaf"] == [2, 1.5, 1.5]
    assert times["mid"] == [1, 4.0, 2.5]


def test_layer_metrics_counts_and_ratios():
    spans = [
        (1, 0, "learner.retrain", 1.0, 3.0),
        (0, None, "cli.main", 0.0, 4.0),
    ]
    header = {
        "run_id": "r",
        "calls": [
            ["hvcore.bundle_sub", "learner.retrain", 5],
            ["hvcore.bundle_sub", "learner.cluster", 2],
            ["hvcore.bind", "encoder.encode_ngram", 7],
        ],
        "stats": {"lta.batches": 8, "lta.ambiguous": 2},
    }
    m = tracer.layer_metrics(header, spans)
    assert m["learner.retrain.s"] == 2.0
    assert m["learner.retrain.calls"] == 1
    assert m["learner.retrain.updates"] == 5
    assert m["hvcore.bundle_sub.calls"] == 7
    assert m["hvcore.bind.calls"] == 7
    assert m["hvcore.permute_drop.calls"] == 0
    assert m["cam.search_analog.s"] == 0.0
    assert m["lta.batches"] == 8
    assert m["lta.ambiguous_ratio"] == 0.25


def test_install_patches_every_holder_and_uninstall_restores(tmp_path):
    import hdcam.encoder
    import hdcam.hvcore
    from hdcam.hvcore import Rng

    original = hdcam.hvcore.bind
    t = tracer.Tracer()
    t.install()
    try:
        assert hdcam.encoder.bind is not original
        assert hdcam.encoder.bind is hdcam.hvcore.bind
        cfg = hdcam.encoder.EncodingConfig(scheme="ngram", n=3, dim=256)
        im = hdcam.encoder.build_item_memory(4, 256, Rng(1))
        with t.span("root"):
            hdcam.encoder.encode_ngram([0, 1, 2, 3, 1], 3, im, cfg)
    finally:
        t.uninstall()
    assert hdcam.encoder.bind is original and hdcam.hvcore.bind is original
    t.dump(tmp_path / "spans.jsonl")
    header, spans = tracer.load(tmp_path / "spans.jsonl")
    m = tracer.layer_metrics(header, spans)
    assert m["encoder.encode_ngram.calls"] == 1
    assert m["hvcore.bind.calls"] == 3 * 2  # 3 windows, n - 1 binds each
    assert m["hvcore.permute_shift.calls"] == 3 * 2
    assert m["hvcore.bundle_add.calls"] == 3
    assert {s[2] for s in spans} == {"root", "encoder.encode_ngram"}
