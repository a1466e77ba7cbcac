"""Cross-validation pipeline: datasets, folds, pooled scoring, grid sweeps."""

import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from evreg import config as config_module
from evreg import decode as decode_module
from evreg import experiment
from evreg import signal as signal_module
from evreg.config import OBJECTIVES, config_from_mapping
from evreg.data import save_events, save_series, synth_generate, SynthConfig
from evreg.decode import (
    decode_points,
    decode_points_batch,
    decode_regression,
    decode_seg_peaks,
    decode_seg_threshold,
)
from evreg.errors import InvalidConfig, InvalidEvents, IoError, TooFewSeries
from evreg.experiment import (
    GridResult,
    build_dataset,
    decode_outputs,
    encode_targets,
    fit,
    fold_splits,
    grid_search,
    run_cv,
)
from evreg.metric import edap
from evreg.model import predict
from evreg.targets import encode_regression
from evreg.types import INTERVAL, POINT, points_from_intervals


def make_config(objective="regression", **over):
    doc = {
        "objective": objective,
        "data": {"synth": {
            "num_series": 8, "length": 128,
            "mean_event_duration": 12, "mean_gap": 24, "noise_std": 0.4,
        }},
        "model": {"in_channels": 2, "hidden_channels": [4], "kernel_size": 3},
        "train": {"epochs": 2, "batch_size": 4},
        "decode": {"alpha": 4},
        "metric": {"tolerances": [1, 2, 5]},
        "folds": 4,
    }
    if not OBJECTIVES[objective].segmentation:
        doc["pdf"] = {"kind": "gaussian", "day_length_d": 64, "width_w": 17, "sigma": 2}
    doc.update(over)
    return config_from_mapping(doc)


class TestFoldSplits:
    def test_even_partition(self):
        ids = [f"s{i}" for i in range(8)]
        splits = fold_splits(ids, 4)
        assert len(splits) == 4
        val_sets = [set(val) for _, val in splits]
        assert all(len(v) == 2 for v in val_sets)
        assert set().union(*val_sets) == set(ids)
        for i, a in enumerate(val_sets):
            for b in val_sets[i + 1:]:
                assert not (a & b)
        for train, val in splits:
            assert sorted(train + val) == sorted(ids)

    def test_uneven_partition_front_loads(self):
        ids = [f"s{i}" for i in range(10)]
        sizes = [len(val) for _, val in fold_splits(ids, 4)]
        assert sizes == [3, 3, 2, 2]

    def test_val_blocks_are_contiguous_in_sorted_order(self):
        ids = ["d", "b", "a", "c", "f", "e"]
        splits = fold_splits(ids, 3)
        assert [val for _, val in splits] == [("a", "b"), ("c", "d"), ("e", "f")]

    def test_too_few_series(self):
        with pytest.raises(TooFewSeries):
            fold_splits(["a", "b", "c"], 4)

    def test_folds_lower_bound(self):
        with pytest.raises(InvalidConfig):
            fold_splits(["a", "b"], 1)

    @pytest.mark.parametrize("folds,message", [
        ("2", "folds: '2' is not an int"),
        (None, "folds: None is not an int"),
        (2.5, "folds: 2.5 is not an int"),
        (2.0, "folds: 2.0 is not an int"),
        (True, "folds=True, expected >= 2"),
        (1, "folds=1, expected >= 2"),
    ])
    def test_folds_must_be_an_int(self, folds, message):
        with pytest.raises(InvalidConfig) as err:
            fold_splits(["a", "b", "c"], folds)
        assert str(err.value) == message

    def test_numpy_int_folds(self):
        assert fold_splits(["a", "b"], np.int64(2)) == fold_splits(["a", "b"], 2)


class TestBuildDataset:
    def test_synth(self):
        config = make_config()
        series_list, truth = build_dataset(config)
        assert len(series_list) == 8
        assert {s.series_id for s in series_list} == set(truth)
        assert all(ev.kind == INTERVAL for ev in truth.values())

    def test_downsample_changes_resolution(self):
        config = make_config(downsample=4)
        series_list, _ = build_dataset(config)
        assert series_list[0].num_steps == 32
        assert len(series_list[0].channels) == 8  # 2 raw x mean/std/max/min

    def test_cpd_collapses_intervals_to_onsets(self):
        interval_truth = build_dataset(make_config())[1]
        point_truth = build_dataset(make_config("cpd"))[1]
        for sid, events in point_truth.items():
            assert events.kind == POINT
            onsets = [ev.onset for ev in interval_truth[sid].events]
            assert [ev.step for ev in events.events] == onsets

    def test_paths_round_trip(self, tmp_path):
        pairs = synth_generate(SynthConfig(
            num_series=3, length=128, mean_event_duration=12,
            mean_gap=24, noise_std=0.4,
        ))
        series_dir = tmp_path / "series"
        series_dir.mkdir()
        for series, _ in pairs:
            save_series(series_dir / f"{series.series_id}.csv", series)
        save_events(tmp_path / "events.csv", {e.series_id: e for _, e in pairs})
        config = make_config(data={"paths": {
            "series_dir": str(series_dir), "events": str(tmp_path / "events.csv"),
        }})
        series_list, truth = build_dataset(config)
        assert [s.series_id for s in series_list] == ["s000", "s001", "s002"]
        assert truth["s001"].events == pairs[1][1].events

    def test_missing_series_dir(self, tmp_path):
        config = make_config(data={"paths": {
            "series_dir": str(tmp_path / "nope"), "events": str(tmp_path / "e.csv"),
        }})
        with pytest.raises(IoError):
            build_dataset(config)

    def test_series_without_events(self, tmp_path):
        pairs = synth_generate(SynthConfig(
            num_series=2, length=128, mean_event_duration=12,
            mean_gap=24, noise_std=0.4,
        ))
        series_dir = tmp_path / "series"
        series_dir.mkdir()
        for series, _ in pairs:
            save_series(series_dir / f"{series.series_id}.csv", series)
        save_events(tmp_path / "events.csv", {"s000": pairs[0][1]})
        config = make_config(data={"paths": {
            "series_dir": str(series_dir), "events": str(tmp_path / "events.csv"),
        }})
        with pytest.raises(InvalidEvents):
            build_dataset(config)


class TestEncodeTargets:
    @pytest.fixture()
    def pair(self):
        config = make_config()
        series_list, truth = build_dataset(config)
        series = series_list[0]
        return config, series, truth[series.series_id]

    def test_regression_shapes(self, pair):
        config, series, events = pair
        x, y = encode_targets(series, events, config)
        assert x.shape == (2, 128)
        assert y.shape == (2, 128)
        assert y.dtype == np.float64

    def test_segmentation_integer_labels(self, pair):
        _, series, events = pair
        config = make_config("segmentation")
        _, y = encode_targets(series, events, config)
        assert y.shape == (128,)
        assert y.dtype == np.int64
        assert set(np.unique(y)) <= {0, 1}
        assert y.sum() > 0

    def test_cpd_single_channel(self, pair):
        _, series, events = pair
        config = make_config("cpd")
        _, y = encode_targets(series, points_from_intervals(events), config)
        assert y.shape == (1, 128)

    def test_sigma_override_narrows_regression_target(self, pair):
        config, series, events = pair
        _, y_default = encode_targets(series, events, config)
        _, y_narrow = encode_targets(series, events, config, sigma=1.0)
        assert not np.array_equal(y_default, y_narrow)
        # narrower pdf -> taller peak
        assert y_narrow.max() > y_default.max()

    def test_sigma_override_ignored_by_segmentation(self, pair):
        _, series, events = pair
        config = make_config("segmentation")
        _, y1 = encode_targets(series, events, config)
        _, y2 = encode_targets(series, events, config, sigma=6.0)
        assert np.array_equal(y1, y2)


class TestDecodeOutputs:
    @pytest.fixture()
    def fake_outputs(self):
        rng = np.random.default_rng(0)
        outputs = {}
        for i in range(3):
            y = np.abs(rng.normal(size=(2, 96))) * 0.2
            y[0, 20 + i] = 4.0
            y[1, 60 + i] = 4.0
            outputs[f"s{i:03d}"] = y
        return outputs

    def test_regression_dispatch(self, fake_outputs):
        config = make_config()
        decoded = decode_outputs(fake_outputs, config, config.decode)
        for sid, y in fake_outputs.items():
            assert decoded[sid] == decode_regression(y[0], y[1], config.decode)

    def test_cpd_dispatch(self, fake_outputs):
        config = make_config("cpd")
        decoded = decode_outputs(fake_outputs, config, config.decode)
        for sid, y in fake_outputs.items():
            assert decoded[sid] == decode_points(y[0], config.decode)
            assert decoded[sid].offsets == ()

    def test_segmentation_dispatch_both_methods(self):
        rng = np.random.default_rng(1)
        outputs = {}
        for i in range(3):
            p = np.clip(rng.normal(0.3, 0.1, size=96), 0.0, 1.0)
            p[30:50] = 0.9
            outputs[f"s{i:03d}"] = np.stack([1.0 - p, p])
        threshold = make_config("segmentation")
        peaks = make_config("segmentation_peaks")
        decoded_t = decode_outputs(outputs, threshold, threshold.decode)
        decoded_p = decode_outputs(outputs, peaks, peaks.decode)
        for sid, y in outputs.items():
            assert decoded_t[sid] == decode_seg_threshold(y[1], threshold.decode)
            assert decoded_p[sid] == decode_seg_peaks(y[1], peaks.decode)
        # the two records share the head, classes and targets; only the
        # threshold decoder reads mu
        assert (peaks.model, peaks.metric) == (threshold.model, threshold.metric)
        assert (peaks.spec.reads_mu, threshold.spec.reads_mu) == (False, True)
        series_list, truth = build_dataset(peaks)
        for series in series_list:
            events = truth[series.series_id]
            x_p, y_p = encode_targets(series, events, peaks)
            x_t, y_t = encode_targets(series, events, threshold)
            assert np.array_equal(x_p, x_t) and np.array_equal(y_p, y_t)

    @pytest.mark.parametrize("objective", list(OBJECTIVES))
    def test_no_decode_route_calls_find_peaks(self, monkeypatch, objective):
        # every decoder picks peak indices only; find_peaks also measures
        # prominence, which no decoder reads
        def refuse(*args, **kwargs):
            raise AssertionError("find_peaks called on the decode route")

        real = signal_module.find_peaks
        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("evreg"):
                for name, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, name, refuse)
        config = make_config(objective)
        outputs, _ = synthetic_outputs(config)
        decoded = decode_outputs(outputs, config, config.decode)
        assert sorted(decoded) == sorted(outputs)
        assert any(d.onsets for d in decoded.values())

    @pytest.mark.parametrize("objective", list(OBJECTIVES))
    def test_series_of_two_lengths_decode_as_alone(self, objective):
        # a peak route picks the series of each length in one call
        config = make_config(objective, decode={"alpha": 4, "sigma": 1.5})
        outputs, _ = synthetic_outputs(config)
        outputs = {
            sid: y[:, :97] if i % 2 else y for i, (sid, y) in enumerate(sorted(outputs.items()))
        }
        assert {y.shape[1] for y in outputs.values()} == {97, 128}
        decoded = decode_outputs(outputs, config, config.decode)
        assert list(decoded) == sorted(outputs)
        for sid, y in outputs.items():
            assert decoded[sid] == decode_outputs({sid: y}, config, config.decode)[sid]
        assert any(d.onsets for d in decoded.values())


def test_new_objective_is_one_table_entry(monkeypatch):
    # a cpd variant that always smooths before peak picking
    smoothed = replace(
        OBJECTIVES["cpd"],
        decode=lambda ys, params, _: [
            decode_points_batch([y[0] for y in ys], replace(params, sigma=2.0))
        ],
    )
    monkeypatch.setitem(OBJECTIVES, "cpd_smoothed", smoothed)
    config = make_config("cpd_smoothed")
    assert config.model.out_mode == "regression_1ch"
    assert config.metric.classes == ("point",)
    series_list, truth = build_dataset(config)
    assert all(ev.kind == POINT for ev in truth.values())
    _, y = encode_targets(series_list[0], truth[series_list[0].series_id], config)
    assert y.shape == (1, 128)
    decoded = decode_outputs({"s": y}, config, config.decode)
    assert decoded["s"] == decode_points(y[0], replace(config.decode, sigma=2.0))


def test_fit_moves_the_model_seed_by_fold_index():
    config = make_config()
    series_list, truth = build_dataset(config)
    pairs = [(s, truth[s.series_id]) for s in series_list]
    moved = fit(config, pairs, fold_index=3)
    reseeded = fit(replace(config, model=replace(config.model, seed=3)), pairs)
    assert moved.trace == reseeded.trace
    for name, tensor in moved.params.tensors.items():
        assert np.array_equal(tensor, reseeded.params.tensors[name])


def test_fit_encodes_each_epoch_once(monkeypatch):
    config = make_config(
        pdf={"kind": "gaussian", "day_length_d": 64, "width_w": 17, "sigma": 1},
        train={"epochs": 2, "batch_size": 4, "sigma_start": 2, "sigma_end": 1},
    )
    series_list, truth = build_dataset(config)
    pairs = [(s, truth[s.series_id]) for s in series_list]
    sigmas = []

    def counting_encode(events, num_steps, spec):
        sigmas.append(spec.sigma)
        return encode_regression(events, num_steps, spec)

    monkeypatch.setattr(config_module, "encode_regression", counting_encode)
    fit(config, pairs)
    # 8 series x 2 epochs; the first epoch is encoded at sigma_start only
    assert sigmas == [2.0] * 8 + [1.5] * 8


def test_fit_of_no_pairs_is_a_config_error():
    with pytest.raises(InvalidConfig, match="dataset is empty"):
        fit(make_config(), [])


@pytest.fixture(scope="module")
def small_cv():
    config = make_config()
    return config, run_cv(config)


class TestRunCv:
    def test_val_ids_partition_dataset(self, small_cv):
        config, result = small_cv
        all_ids = {s.series_id for s in build_dataset(config)[0]}
        seen = []
        for fold in result.folds:
            seen.extend(fold.val_ids)
        assert sorted(seen) == sorted(all_ids)
        assert len(seen) == len(set(seen))

    def test_outputs_cover_every_series(self, small_cv):
        config, result = small_cv
        assert set(result.outputs) == {s.series_id for s in build_dataset(config)[0]}
        for y in result.outputs.values():
            assert y.shape == (2, 128)
            assert np.all(np.isfinite(y))

    def test_trace_runs_full_schedule(self, small_cv):
        config, result = small_cv
        for fold in result.folds:
            assert len(fold.trace) == config.train.epochs
            assert 0 <= fold.best_epoch < config.train.epochs
            assert all(s.val_score is not None for s in fold.trace)

    def test_pooled_score_matches_decode_then_metric(self, small_cv):
        config, result = small_cv
        _, truth = build_dataset(config)
        decoded = decode_outputs(result.outputs, config, config.decode)
        assert decoded == result.predictions
        assert result.pooled_edap == edap(decoded, truth, config.metric)

    def test_fold_scores_match_restricted_metric(self, small_cv):
        config, result = small_cv
        _, truth = build_dataset(config)
        for fold in result.folds:
            decoded = decode_outputs(fold.outputs, config, config.decode)
            fold_truth = {sid: truth[sid] for sid in fold.val_ids}
            assert fold.edap == edap(decoded, fold_truth, config.metric)

    def test_truth_is_the_built_dataset(self, small_cv):
        config, result = small_cv
        assert result.truth == build_dataset(config)[1]

    def test_peaks_record_cv_and_grid(self):
        config = make_config("segmentation_peaks", train={"epochs": 1, "batch_size": 4})
        result = run_cv(config)
        for sid, y in result.outputs.items():
            assert result.predictions[sid] == decode_seg_peaks(y[1], config.decode)
        sweep = grid_search(result.outputs, result.truth, config.grid, config)
        assert len(sweep.table) == len(config.grid.sigma) == 5
        assert sweep.default_score == result.pooled_edap

    def test_deterministic_repeat(self, small_cv):
        config, result = small_cv
        again = run_cv(config)
        assert again.pooled_edap == result.pooled_edap
        for sid in result.outputs:
            assert np.array_equal(again.outputs[sid], result.outputs[sid])

    @pytest.mark.parametrize("jobs, workers", [(64, 4), (3, 3)])
    def test_workers_capped_at_fold_count(self, monkeypatch, jobs, workers):
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", SerialPool)
        config = make_config(train={"epochs": 1, "batch_size": 4})
        result = run_cv(config, jobs=jobs)
        assert started == [workers]
        assert result.pooled_edap == run_cv(config).pooled_edap

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, monkeypatch, jobs):
        def no_dataset(config):
            raise AssertionError("dataset built before jobs was checked")

        monkeypatch.setattr(experiment, "build_dataset", no_dataset)
        with pytest.raises(InvalidConfig, match=f"jobs={jobs}"):
            run_cv(make_config(), jobs=jobs)

    @pytest.mark.parametrize("jobs, message", [
        ("2", "jobs: '2' is not an int"),
        (None, "jobs: None is not an int"),
        (2.5, "jobs: 2.5 is not an int"),
        (np.array([1, 2]), "jobs: array([1, 2]) is not an int"),
        (True, "jobs: True is not an int"),
    ])
    def test_jobs_follows_the_int_rule(self, monkeypatch, jobs, message):
        def no_dataset(config):
            raise AssertionError("dataset built before jobs was checked")

        monkeypatch.setattr(experiment, "build_dataset", no_dataset)
        with pytest.raises(InvalidConfig) as err:
            run_cv(make_config(), jobs=jobs)
        assert str(err.value) == message

    def test_parallel_matches_serial(self, small_cv):
        config, result = small_cv
        parallel = run_cv(config, jobs=2)
        assert parallel.pooled_edap == result.pooled_edap
        for sid in result.outputs:
            assert np.array_equal(parallel.outputs[sid], result.outputs[sid])

    def test_channel_mismatch_rejected(self):
        config = make_config(model={
            "in_channels": 3, "hidden_channels": [4], "kernel_size": 3,
        })
        with pytest.raises(InvalidConfig, match="channels"):
            run_cv(config)

    def test_sigma_schedule_changes_training(self):
        base = make_config()
        scheduled = make_config(train={
            "epochs": 2, "batch_size": 4, "sigma_start": 2.0, "sigma_end": 1.0,
        })
        a = run_cv(base)
        b = run_cv(scheduled)
        assert not np.array_equal(
            a.outputs["s000"], b.outputs["s000"]
        )

    @pytest.mark.parametrize("objective", ["regression", "segmentation"])
    def test_batched_validation_matches_per_series_predict(self, monkeypatch, objective):
        # 130 steps are no multiple of 2**levels = 4, and 5 held-out series
        # no multiple of batch_size = 4
        config = make_config(
            objective,
            data={"synth": {
                "num_series": 10, "length": 130,
                "mean_event_duration": 12, "mean_gap": 24, "noise_std": 0.4,
            }},
            model={"in_channels": 2, "hidden_channels": [4, 6], "kernel_size": 3},
            folds=2,
        )
        epochs = []  # (parameters, outputs) of every validation pass
        real_fit, real_decode = experiment.fit, experiment.decode_outputs

        def spying_fit(config, pairs, fold_index, val_scorer):
            def scorer(params):
                epochs.append((params.copy(), None))
                return val_scorer(params)
            return real_fit(config, pairs, fold_index, scorer)

        def spying_decode(outputs, config, params):
            epochs[-1] = (epochs[-1][0], dict(outputs))
            return real_decode(outputs, config, params)

        monkeypatch.setattr(experiment, "fit", spying_fit)
        monkeypatch.setattr(experiment, "decode_outputs", spying_decode)
        series, truth = build_dataset(config)
        by_id = {s.series_id: (s, truth[s.series_id]) for s in series}
        train_ids, val_ids = fold_splits(list(by_id), config.folds)[1]
        assert len(val_ids) == 5
        fold = experiment._run_fold(
            (config, 1, [by_id[sid] for sid in train_ids], [by_id[sid] for sid in val_ids])
        )
        assert len(epochs) == config.train.epochs
        best = epochs[fold.best_epoch][1]
        assert all(fold.outputs[sid] is best[sid] for sid in val_ids)
        for params, outputs in epochs:
            assert list(outputs) == list(val_ids)
            for sid, got in outputs.items():
                want = predict(params, by_id[sid][0].as_array(), config.model)
                assert (got.shape, got.dtype) == (want.shape, want.dtype)
                assert got.tobytes() == want.tobytes()


@pytest.fixture
def score_cells(monkeypatch):
    """Make grid_search score each (mu, sigma) cell with score(mu, sigma).

    The decode route hands edap the cell it decoded, so the cell-selection
    tests run without model outputs or truth.
    """
    def install(score):
        monkeypatch.setattr(
            experiment, "_decode_at",
            lambda outputs, config, params, mus: [(mu, params.sigma) for mu in mus],
        )
        monkeypatch.setattr(experiment, "edap", lambda cell, truth, metric: score(*cell))
    return install


class TestGridSearch:
    def test_regression_sweeps_sigma_only(self, score_cells):
        config = make_config(grid={"mu": [0.2, 0.5], "sigma": ["none", 1, 10]})
        scores = {None: 0.3, 1.0: 0.5, 10.0: 0.9}
        score_cells(lambda mu, sigma: scores[sigma])
        result = grid_search({}, {}, config.grid, config)
        assert len(result.table) == 3
        assert all(mu == config.decode.mu for mu, _, _ in result.table)
        assert (result.best_mu, result.best_sigma) == (config.decode.mu, 10.0)
        assert result.best_score == 0.9
        # default cell is (decode.mu, decode.sigma) = (0.5, None)
        assert result.default_score == 0.3

    def test_segmentation_sweeps_full_product(self, score_cells):
        config = make_config("segmentation",
                             grid={"mu": [0.3, 0.5], "sigma": ["none", 1]})
        calls = []
        score_cells(lambda mu, sigma: calls.append((mu, sigma)) or 0.5)
        result = grid_search({}, {}, config.grid, config)
        assert len(result.table) == 4
        assert set(calls[:4]) == {(0.3, None), (0.3, 1.0), (0.5, None), (0.5, 1.0)}

    def test_default_grid_cell_counts(self, score_cells):
        seg = make_config("segmentation")
        reg = make_config()
        score_cells(lambda m, s: 0.0)
        seg_result = grid_search({}, {}, seg.grid, seg)
        reg_result = grid_search({}, {}, reg.grid, reg)
        assert len(seg_result.table) == 55
        assert len(reg_result.table) == 5

    def test_peaks_decoder_sweeps_sigma_only(self, score_cells):
        # decode_seg_peaks never reads mu, so one cell per sigma at decode.mu
        peaks = make_config("segmentation_peaks")
        calls = []
        score_cells(lambda mu, sigma: calls.append(mu) or 0.5)
        result = grid_search({}, {}, peaks.grid, peaks)
        assert len(result.table) == len(peaks.grid.sigma)
        assert set(calls) == {peaks.decode.mu}
        assert [sigma for _, sigma, _ in result.table] == list(peaks.grid.sigma)
        assert result.best_mu == peaks.decode.mu

    def test_tie_breaks_prefer_no_smoothing_then_small(self, score_cells):
        config = make_config("segmentation",
                             grid={"mu": [0.7, 0.3], "sigma": [10, "none", 1]})
        score_cells(lambda m, s: 1.0)
        result = grid_search({}, {}, config.grid, config)
        assert result.best_sigma is None
        assert result.best_mu == 0.3

    def test_tie_breaks_prefer_smaller_sigma(self, score_cells):
        config = make_config(grid={"mu": [0.5], "sigma": [10, 1]})
        score_cells(lambda m, s: 1.0)
        result = grid_search({}, {}, config.grid, config)
        assert result.best_sigma == 1.0

    def test_singleton_grid(self, score_cells):
        config = make_config(grid={"mu": [0.5], "sigma": ["none"]})
        score_cells(lambda m, s: 0.7)
        result = grid_search({}, {}, config.grid, config)
        assert result.table == ((0.5, None, 0.7),)

    def test_tuned_never_beats_default_on_real_outputs(self, small_cv):
        config, result = small_cv
        _, truth = build_dataset(config)
        tuned = grid_search(result.outputs, truth, config.grid, config)
        assert tuned.best_score >= tuned.default_score
        assert tuned.default_score == result.pooled_edap

    def test_tuned_on_probability_outputs_for_segmentation(self):
        # synthetic class-1 probabilities avoid a second training run
        config = make_config("segmentation",
                             grid={"mu": [0.3, 0.5, 0.7], "sigma": ["none", 1]})
        series_list, truth = build_dataset(config)
        rng = np.random.default_rng(2)
        outputs = {}
        for series in series_list:
            p = np.clip(rng.normal(0.2, 0.05, size=series.num_steps), 0.0, 1.0)
            for ev in truth[series.series_id].events:
                p[ev.onset: ev.offset + 1] = 0.85
            outputs[series.series_id] = np.stack([1.0 - p, p])
        tuned = grid_search(outputs, truth, config.grid, config)
        assert tuned.best_score >= tuned.default_score
        assert len(tuned.table) == 6


def grid_loop_oracle(outputs, truth, grid, config):
    """The per-cell grid loop: every cell decodes and scores every series anew."""
    reads_mu = config.spec.segmentation and config.objective != "segmentation_peaks"
    mus = grid.mu if reads_mu else (config.decode.mu,)
    cells = [(m, s) for m in mus for s in grid.sigma]
    default = (config.decode.mu, config.decode.sigma)
    scores = {}
    for mu, sigma in dict.fromkeys([*cells, default]):
        params = replace(config.decode, mu=mu, sigma=sigma)
        scores[mu, sigma] = edap(decode_outputs(outputs, config, params), truth, config.metric)
    table = tuple((mu, sigma, scores[mu, sigma]) for mu, sigma in cells)
    best = min(
        table, key=lambda row: (-row[2], (0, 0.0) if row[1] is None else (1, row[1]), row[0])
    )
    return GridResult(*best, default_score=scores[default], table=table)


def synthetic_outputs(config, seed=3):
    """Noisy stand-ins for the objective's model outputs, keyed by series id.

    Segmentation probabilities are multiples of 1/8, so unsmoothed samples
    sit exactly on several grid thresholds.
    """
    series_list, truth = build_dataset(config)
    rng = np.random.default_rng(seed)
    outputs = {}
    for series in series_list:
        events = truth[series.series_id]
        if config.spec.segmentation:
            p = rng.normal(0.25, 0.15, size=series.num_steps)
            for ev in events.events:
                p[ev.onset: ev.offset + 1] += 0.5
            p = np.round(np.clip(p, 0.0, 1.0) * 8) / 8
            outputs[series.series_id] = np.stack([1.0 - p, p])
        else:
            _, y = encode_targets(series, events, config)
            outputs[series.series_id] = y + rng.normal(0.0, 0.2, size=y.shape)
    return outputs, truth


SMALL_GRID = {"mu": [0.3, 0.5, 0.7], "sigma": ["none", 1, 3]}


@pytest.mark.parametrize("objective,over", [
    ("regression", {}),
    ("regression", {"decode": {"alpha": 4, "sigma": 1.5}, "grid": SMALL_GRID}),
    ("cpd", {"decode": {"alpha": 4, "sigma": 2}, "grid": SMALL_GRID}),
    ("segmentation", {}),
    # default cell (0.45, 1.5) lies outside the grid in both mu and sigma
    ("segmentation", {"decode": {"alpha": 4, "mu": 0.45, "sigma": 1.5}, "grid": SMALL_GRID}),
    # default mu outside the grid, default sigma (an int) inside it
    ("segmentation", {"decode": {"alpha": 4, "mu": 0.45, "sigma": 1}, "grid": SMALL_GRID}),
    ("segmentation", {"grid": {"mu": [0.5], "sigma": ["none", 2, 5]}}),
    ("segmentation_peaks", {"decode": {"alpha": 4, "sigma": 1.5}, "grid": SMALL_GRID}),
])
def test_grid_search_matches_per_cell_loop(objective, over):
    config = make_config(objective, **over)
    outputs, truth = synthetic_outputs(config)
    assert grid_search(outputs, truth, config.grid, config) == grid_loop_oracle(
        outputs, truth, config.grid, config
    )


def test_grid_decodes_through_the_record(monkeypatch):
    # a threshold entry whose decoder always smooths at sigma 3: the grid
    # must tune the decoder the record names, as decode_outputs runs it
    segmentation = OBJECTIVES["segmentation"]
    smoothed = replace(
        segmentation,
        decode=lambda ys, params, mus: segmentation.decode(
            ys, replace(params, sigma=3.0), mus
        ),
    )
    monkeypatch.setitem(OBJECTIVES, "segmentation_smoothed", smoothed)
    config = make_config("segmentation_smoothed")
    outputs, truth = synthetic_outputs(config)
    result = grid_search(outputs, truth, config.grid, config)
    assert result == grid_loop_oracle(outputs, truth, config.grid, config)
    default = decode_outputs(outputs, config, config.decode)
    assert result.default_score == edap(default, truth, config.metric)


@pytest.mark.parametrize("objective,over,cells", [
    ("regression", {}, 5),
    ("cpd", {}, 5),
    ("segmentation", {}, 55),
    ("segmentation_peaks", {}, 5),
])
def test_grid_without_outputs_scores_zero(objective, over, cells):
    config = make_config(objective, **over)
    _, truth = build_dataset(config)
    result = grid_search({}, truth, config.grid, config)
    assert len(result.table) == cells
    assert {score for _, _, score in result.table} == {0.0}
    assert result.default_score == 0.0


def test_threshold_grid_smooths_each_series_once_per_sigma(monkeypatch):
    config = make_config("segmentation")
    outputs, truth = synthetic_outputs(config)
    calls = Counter()
    smooth = decode_module.gaussian_smooth

    def counting_smooth(x, params):
        calls[np.asarray(x).tobytes(), params.sigma] += 1
        return smooth(x, params)

    monkeypatch.setattr(decode_module, "gaussian_smooth", counting_smooth)
    grid_search(outputs, truth, config.grid, config)
    assert len(calls) == len(outputs) * len(config.grid.sigma)
    assert set(calls.values()) == {1}
