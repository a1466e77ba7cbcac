"""Command-line driver: artifacts, determinism, exit codes."""

import struct
import sys
import warnings
from dataclasses import replace

import numpy as np
import yaml
import pytest

import evreg.experiment
import evreg.metric
from evreg.cli import main
from evreg.config import load_config
from evreg.data import load_events, load_series, save_events, save_series
from evreg.experiment import build_dataset, decode_outputs
from evreg.model import load_params, predict
from evreg.types import TimeSeries, points_from_intervals


def config_doc(**over):
    doc = {
        "objective": "regression",
        "data": {"synth": {
            "num_series": 8, "length": 128,
            "mean_event_duration": 12, "mean_gap": 24, "noise_std": 0.4,
        }},
        "pdf": {"kind": "gaussian", "day_length_d": 64, "width_w": 17, "sigma": 2},
        "model": {"in_channels": 2, "hidden_channels": [4], "kernel_size": 3},
        "train": {"epochs": 2, "batch_size": 4},
        "decode": {"alpha": 4},
        "metric": {"tolerances": [1, 2, 5]},
        "folds": 4,
    }
    doc.update(over)
    return doc


def write_config(path, **over):
    path.write_text(yaml.safe_dump(config_doc(**over)), encoding="utf-8")
    return str(path)


def synth_on_disk(root):
    """Write the synthetic dataset under root; returns its data section."""
    config = write_config(root / "synth.yaml")
    assert main(["synth", "--config", config, "--out", str(root)]) == 0
    return {"paths": {"series_dir": str(root / "series"), "events": str(root / "events.csv")}}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One train -> decode -> eval chain shared by the single-command tests."""
    root = tmp_path_factory.mktemp("pipeline")
    config = write_config(root / "config.yaml")
    out = root / "out"
    codes = {
        "train": main(["train", "--config", config, "--out", str(out)]),
        "decode": main([
            "decode", "--config", config, "--out", str(out),
            "--checkpoint", str(out / "model.ckpt"),
        ]),
        "eval": main([
            "eval", "--config", config, "--out", str(out),
            "--pred", str(out / "predictions.csv"),
        ]),
    }
    return config, out, codes


class TestSubcommands:
    def test_synth_writes_series_and_events(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.yaml")
        out = tmp_path / "out"
        assert main(["synth", "--config", config, "--out", str(out)]) == 0
        series = sorted(p.name for p in (out / "series").glob("*.csv"))
        assert series == [f"s{i:03d}.csv" for i in range(8)]
        assert (out / "events.csv").is_file()
        assert "wrote 8 series" in capsys.readouterr().out

    @pytest.mark.parametrize("objective,names", [
        ("regression", ["onset", "offset"]),
        ("cpd", ["point"]),
        ("segmentation", ["label"]),
        ("segmentation_peaks", ["label"]),
    ])
    def test_encode_target_channels(self, tmp_path, objective, names):
        over = {"objective": objective}
        config = write_config(tmp_path / "config.yaml", **over)
        out = tmp_path / "out"
        assert main(["encode", "--config", config, "--out", str(out)]) == 0
        target = load_series(out / "targets" / "s000.csv")
        assert list(target.channels) == names
        assert target.num_steps == 128

    def test_train_artifacts(self, pipeline):
        _, out, codes = pipeline
        assert codes["train"] == 0
        assert (out / "model.ckpt").is_file()
        lines = (out / "train_trace.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss,val_edap,grad_norm_mean,grad_norm_max,clip_rate,lr"
        assert len(lines) == 3  # header + 2 epochs
        epoch, loss, val, norm_mean, norm_max, clip_rate, lr = lines[1].split(",")
        assert epoch == "0"
        assert float(loss) > 0
        assert val == ""  # no validation split in plain training
        assert 0 < float(norm_mean) <= float(norm_max)
        assert 0 <= float(clip_rate) <= 1
        assert 0 < float(lr) <= 1e-3

    def test_train_applies_sigma_schedule(self, tmp_path):
        plain = write_config(tmp_path / "plain.yaml")
        scheduled = write_config(
            tmp_path / "scheduled.yaml",
            train={"epochs": 2, "batch_size": 4, "sigma_start": 2, "sigma_end": 1},
        )
        for name, config in [("plain", plain), ("scheduled", scheduled)]:
            assert main(["train", "--config", config, "--out", str(tmp_path / name)]) == 0
        ckpt = [(tmp_path / name / "model.ckpt").read_bytes() for name in ("plain", "scheduled")]
        assert ckpt[0] != ckpt[1]

    def test_decode_artifacts(self, pipeline):
        _, out, codes = pipeline
        assert codes["decode"] == 0
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "series_id,event,step,score"

    @pytest.mark.parametrize("objective", ["regression", "segmentation", "cpd"])
    def test_decode_writes_per_series_bytes(self, tmp_path, objective):
        # 10 series at batch_size 4: the last batched forward holds 2 series;
        # mu 0.45 is below the peak probability of a 2-epoch segmentation model
        data = config_doc()["data"]
        data["synth"]["num_series"] = 10
        pdf = None if objective == "segmentation" else config_doc()["pdf"]
        paths = {}
        for batch in (4, 3):
            paths[batch] = write_config(
                tmp_path / f"batch{batch}.yaml", objective=objective, data=data, pdf=pdf,
                train={"epochs": 2, "batch_size": batch}, decode={"alpha": 4, "mu": 0.45},
            )
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--config", paths[4], "--out", str(tmp_path)]) == 0
        for batch, path in paths.items():
            out = tmp_path / f"decode{batch}"
            args = ["--config", path, "--out", str(out), "--checkpoint", str(ckpt)]
            assert main(["decode", *args]) == 0

        # the route of one predict call per series
        config = load_config(paths[4])
        params = load_params(ckpt)
        series_list, _ = build_dataset(config)
        outputs = {s.series_id: predict(params, s.as_array(), config.model) for s in series_list}
        save_events(tmp_path / "expected.csv", decode_outputs(outputs, config, config.decode))
        expected = (tmp_path / "expected.csv").read_bytes()
        # detections, not only the header and a row per empty series
        assert any(not row.endswith(b",,,") for row in expected.splitlines()[1:])
        for batch in paths:
            assert (tmp_path / f"decode{batch}" / "predictions.csv").read_bytes() == expected

    def test_eval_artifacts(self, pipeline, capsys):
        _, out, codes = pipeline
        assert codes["eval"] == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "class,tolerance,ap"
        assert lines[-1].startswith("mean,all,")
        # 2 classes x 3 tolerances + header + mean
        assert len(lines) == 8

    def test_eval_with_explicit_truth(self, pipeline, tmp_path, capsys):
        synth_config, out, _ = pipeline
        config = write_config(tmp_path / "paths.yaml", data=synth_on_disk(tmp_path))
        truth_out = tmp_path / "truth"
        assert main(["synth", "--config", synth_config, "--out", str(truth_out)]) == 0
        capsys.readouterr()
        code = main([
            "eval", "--config", config, "--out", str(tmp_path),
            "--pred", str(out / "predictions.csv"),
            "--truth", str(truth_out / "events.csv"),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("edap ")
        reported = float(printed.split()[1])
        in_config_report = (out / "report.csv").read_text().splitlines()[-1]
        assert reported == float(in_config_report.split(",")[2])

    @pytest.mark.parametrize("objective", ["regression", "cpd"])
    def test_eval_truth_at_model_resolution(self, tmp_path, capsys, objective):
        # --truth names the events file and gets build_dataset's downsampling
        # and, for cpd, its collapse to onset points
        data = synth_on_disk(tmp_path)
        config = write_config(
            tmp_path / "config.yaml", objective=objective, data=data, downsample=2,
            model={"in_channels": 8, "hidden_channels": [4], "kernel_size": 3},
        )
        out = str(tmp_path / "o")
        assert main(["train", "--config", config, "--out", out]) == 0
        assert main(["decode", "--config", config, "--out", out,
                     "--checkpoint", str(tmp_path / "o" / "model.ckpt")]) == 0
        capsys.readouterr()
        scores = []
        for extra in ([], ["--truth", data["paths"]["events"]]):
            code = main(["eval", "--config", config, "--out", out,
                         "--pred", str(tmp_path / "o" / "predictions.csv"), *extra])
            assert code == 0
            scores.append(capsys.readouterr().out)
        assert scores[0].startswith("edap ") and scores[1] == scores[0]

    def test_cv_artifacts(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.yaml")
        out = tmp_path / "out"
        assert main(["cv", "--config", config, "--out", str(out)]) == 0
        for i in range(4):
            trace = (out / f"fold{i}_trace.csv").read_text().splitlines()
            assert trace[0] == "epoch,loss,val_edap,grad_norm_mean,grad_norm_max,clip_rate,lr"
            assert all(line.split(",")[2] != "" for line in trace[1:])
        report = (out / "cv_report.csv").read_text().splitlines()
        assert report[0] == "fold,edap"
        assert [line.split(",")[0] for line in report[1:]] == ["0", "1", "2", "3", "pooled"]
        assert (out / "cv_predictions.csv").is_file()
        assert (out / "report.csv").is_file()
        printed = capsys.readouterr().out
        assert "pooled edap " in printed
        pooled = float(report[-1].split(",")[1])
        assert float(printed.split()[-1]) == pooled

    def test_cv_scores_pooled_predictions_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(name, original):
            def count(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return count

        for scorer in ("edap_table", "edap_arrays"):
            original = getattr(evreg.metric, scorer)
            for name, module in list(sys.modules.items()):
                if name.startswith("evreg") and getattr(module, scorer, None) is original:
                    monkeypatch.setattr(module, scorer, counting(scorer, original))
        config = write_config(
            tmp_path / "config.yaml", folds=2, train={"epochs": 1, "batch_size": 4}
        )
        assert main(["cv", "--config", config, "--out", str(tmp_path / "out")]) == 0
        # one validation score of the decoded arrays per fold and epoch, then
        # the pooled table of the records
        assert calls == ["edap_arrays", "edap_arrays", "edap_table"]

    def test_cpd_cv_on_point_events(self, tmp_path):
        paths = synth_on_disk(tmp_path)["paths"]
        intervals = load_events(paths["events"])
        save_events(
            tmp_path / "points.csv",
            {sid: points_from_intervals(ev) for sid, ev in intervals.items()},
        )
        for name in ("events", "points"):
            config = write_config(
                tmp_path / f"{name}.yaml",
                objective="cpd",
                data={"paths": {**paths, "events": str(tmp_path / f"{name}.csv")}},
            )
            assert main(["cv", "--config", config, "--out", str(tmp_path / name)]) == 0
        # point truth at the onsets scores as interval truth collapsed to onsets
        for artifact in ("cv_report.csv", "cv_predictions.csv", "report.csv"):
            scored = (tmp_path / "points" / artifact).read_bytes()
            assert scored == (tmp_path / "events" / artifact).read_bytes()

    def test_grid_artifacts(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "config.yaml", grid={"mu": [0.5], "sigma": ["none", 1]}
        )
        out = tmp_path / "out"
        assert main(["grid", "--config", config, "--out", str(out)]) == 0
        table = (out / "grid_table.csv").read_text().splitlines()
        assert table[0] == "mu,sigma,edap"
        assert len(table) == 3
        assert table[1].split(",")[1] == "none"
        printed = capsys.readouterr().out
        assert printed.startswith("best mu ")
        assert "(default " in printed

    def test_grid_on_peaks_record(self, tmp_path, capsys):
        # the peak decoder never reads mu: one row per sigma
        config = write_config(
            tmp_path / "config.yaml", objective="segmentation_peaks", pdf=None,
            grid={"mu": [0.3, 0.5], "sigma": ["none", 1]},
        )
        out = tmp_path / "out"
        assert main(["grid", "--config", config, "--out", str(out)]) == 0
        table = (out / "grid_table.csv").read_text().splitlines()
        assert [row.split(",")[:2] for row in table[1:]] == [["0.5", "none"], ["0.5", "1"]]
        assert capsys.readouterr().out.startswith("best mu ")


class TestDeterminism:
    def test_cv_repeat_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path / "config.yaml")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["cv", "--config", config, "--out", str(out_a)]) == 0
        assert main(["cv", "--config", config, "--out", str(out_b)]) == 0
        for name in ["cv_predictions.csv", "cv_report.csv", "report.csv",
                     "fold0_trace.csv", "fold3_trace.csv"]:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize("command", ["cv", "grid"])
    def test_jobs_change_no_output_byte(self, tmp_path, capsys, command):
        config = write_config(tmp_path / "config.yaml", grid={"mu": [0.5], "sigma": ["none", 1]})
        written, printed = [], []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main([command, "--config", config, "--out", str(out), "--jobs", jobs]) == 0
            files = sorted(p for p in out.rglob("*") if p.is_file())
            written.append({p.relative_to(out): p.read_bytes() for p in files})
            printed.append(capsys.readouterr().out.replace(str(out), "<out>"))
        assert written[0] and written[0] == written[1]
        assert printed[0] == printed[1]

    def test_seed_flag_changes_data(self, tmp_path):
        config = write_config(tmp_path / "config.yaml")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--config", config, "--out", str(out_a), "--seed", "1"]) == 0
        assert main(["synth", "--config", config, "--out", str(out_b), "--seed", "2"]) == 0
        a = (out_a / "series" / "s000.csv").read_bytes()
        b = (out_b / "series" / "s000.csv").read_bytes()
        assert a != b

    def test_same_seed_flag_is_reproducible(self, tmp_path):
        config = write_config(tmp_path / "config.yaml")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--config", config, "--out", str(out_a), "--seed", "1"]) == 0
        assert main(["synth", "--config", config, "--out", str(out_b), "--seed", "1"]) == 0
        a = (out_a / "series" / "s000.csv").read_bytes()
        b = (out_b / "series" / "s000.csv").read_bytes()
        assert a == b


class TestOutputDirectory:
    def test_env_var_fallback(self, tmp_path, monkeypatch):
        config = write_config(tmp_path / "config.yaml")
        env_out = tmp_path / "from_env"
        monkeypatch.setenv("EVREG_OUT_DIR", str(env_out))
        assert main(["synth", "--config", config]) == 0
        assert (env_out / "events.csv").is_file()

    def test_default_directory(self, tmp_path, monkeypatch):
        config = write_config(tmp_path / "config.yaml")
        monkeypatch.delenv("EVREG_OUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--config", config]) == 0
        assert (tmp_path / "evreg_out" / "events.csv").is_file()

    def test_flag_beats_env_var(self, tmp_path, monkeypatch):
        config = write_config(tmp_path / "config.yaml")
        monkeypatch.setenv("EVREG_OUT_DIR", str(tmp_path / "ignored"))
        out = tmp_path / "flagged"
        assert main(["synth", "--config", config, "--out", str(out)]) == 0
        assert (out / "events.csv").is_file()
        assert not (tmp_path / "ignored").exists()


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["synth", "--config", str(tmp_path / "absent.yaml"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_yaml(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("objective: [unclosed\n")
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_config_key(self, tmp_path):
        config = write_config(tmp_path / "config.yaml", extra_knob=3)
        assert main(["synth", "--config", config, "--out", str(tmp_path / "o")]) == 2

    def test_synth_with_paths_data(self, tmp_path):
        config = write_config(
            tmp_path / "config.yaml",
            data={"paths": {"series_dir": "s", "events": "e.csv"}},
        )
        assert main(["synth", "--config", config, "--out", str(tmp_path / "o")]) == 2

    def test_missing_predictions_csv(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.yaml")
        code = main(["eval", "--config", config, "--out", str(tmp_path / "o"),
                     "--pred", str(tmp_path / "absent.csv")])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_out_below_a_regular_file(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.yaml")
        (tmp_path / "file").write_text("x")
        code = main(["synth", "--config", config, "--out", str(tmp_path / "file" / "o")])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_missing_series_directory(self, tmp_path):
        config = write_config(
            tmp_path / "config.yaml",
            data={"paths": {
                "series_dir": str(tmp_path / "nope"),
                "events": str(tmp_path / "e.csv"),
            }},
        )
        assert main(["encode", "--config", config, "--out", str(tmp_path / "o")]) == 3

    def test_decode_with_checkpoint_of_another_model(self, pipeline, tmp_path, capsys):
        _, out, _ = pipeline
        config = write_config(
            tmp_path / "config.yaml",
            model={"in_channels": 2, "hidden_channels": [6], "kernel_size": 3},
        )
        code = main(["decode", "--config", config, "--out", str(tmp_path / "o"),
                     "--checkpoint", str(out / "model.ckpt")])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_series_of_unequal_length(self, tmp_path, capsys, command):
        data = synth_on_disk(tmp_path)
        longer = TimeSeries.build("s005", {"a": np.zeros(160), "b": np.ones(160)})
        save_series(tmp_path / "series" / "s005.csv", longer)
        config = write_config(tmp_path / "config.yaml", data=data)
        assert main([command, "--config", config, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "input shape (2, 160)" in err

    @pytest.mark.parametrize("command", ["train", "cv"])
    @pytest.mark.parametrize("channels", [("b", "a"), ("z", "b"), ("a", "b", "c")],
                             ids=["reordered", "renamed", "extra"])
    def test_series_of_other_channels(self, tmp_path, capsys, command, channels):
        data = synth_on_disk(tmp_path)
        path = tmp_path / "series" / "s005.csv"
        values = load_series(path).as_array()
        odd = TimeSeries.build("s005", {c: values[i % 2] for i, c in enumerate(channels)})
        save_series(path, odd)
        config = write_config(tmp_path / "config.yaml", data=data)
        assert main([command, "--config", config, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "'s005'" in err and str(path) in err

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_model_of_another_channel_count(self, tmp_path, capsys, command):
        config = write_config(
            tmp_path / "config.yaml",
            model={"in_channels": 3, "hidden_channels": [4], "kernel_size": 3},
        )
        assert main([command, "--config", config, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error: model expects 3 input channels, dataset provides 2" in err

    @pytest.mark.parametrize("objective, cls", [("cpd", "offset"), ("regression", "label")])
    def test_metric_class_of_another_objective(self, tmp_path, capsys, objective, cls):
        config = write_config(
            tmp_path / "config.yaml",
            objective=objective,
            metric={"tolerances": [1, 2], "classes": [cls]},
        )
        assert main(["cv", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("keys,value,message", [
        (("model", "in_channels"), 0, "in_channels=0"),
        (("model", "hidden_channels"), [], "hidden_channels must be a nonempty list"),
        (("model", "kernel_size"), 4, "kernel_size=4"),
        (("model", "out_mode"), "regression_3ch", "out_mode='regression_3ch'"),
        (("model", "hidden_channels"), 4, "model.hidden_channels: expected a list"),
        (("train", "learning_rate"), -1e-3, "learning_rate must be finite and positive"),
        (("train", "learning_rate"), float("inf"), "learning_rate must be finite and positive"),
        (("data", "synth", "drift_std"), -1.0, "drift_std=-1.0"),
        (("data", "synth", "signal_shift"), float("inf"), "signal_shift must be finite"),
        (("data",), {"paths": {"series_dir": "", "events": "e.csv"}}, "needs series_dir"),
        (("pdf", "kind"), "box", "kind='box'"),
        (("pdf", "sigma"), 0, "gaussian kernel requires positive sigma"),
        (("pdf",), {"kind": "edap", "day_length_d": 64, "width_w": 17, "thresholds": [1, 9]},
         "clips the staircase"),
        (("decode", "min_height"), float("inf"), "min_height=inf"),
        (("pdf", "kind"), 5, "pdf.kind: expected a string"),
        # the peak decoder is objective segmentation_peaks, not a knob
        (("seg_method",), "peaks", "unknown top-level key 'seg_method'"),
        # YAML true is a bool, not the count 1
        (("decode", "alpha"), True, "decode.alpha: expected a number, got True"),
        # a kernel this wide would take gigabytes before it is folded
        (("decode", "sigma"), 1e8, "exceeds MAX_SMOOTHING_RADIUS"),
        (("grid",), {"sigma": [1.0, 1e8]}, "exceeds MAX_SMOOTHING_RADIUS"),
        # a field the kernel kind does not read
        (("pdf",), {"kind": "hard", "day_length_d": 64, "width_w": 17, "sigma": -1.0},
         "sigma=-1.0, expected None for kind 'hard'"),
        (("pdf", "thresholds"), [1, 2], "expected None for kind 'gaussian'"),
    ])
    def test_bad_config_value(self, tmp_path, capsys, keys, value, message):
        doc = config_doc()
        section = doc
        for key in keys[:-1]:
            section = section[key]
        section[keys[-1]] = value
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        assert main(["cv", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    def test_diverged_training(self, tmp_path, capsys):
        doc = config_doc()
        doc["data"]["synth"]["signal_shift"] = 1e200
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 4
        assert "numeric error" in capsys.readouterr().err

    def test_diverged_training_does_not_warn(self, tmp_path, capsys):
        # overflow is reported as the exit-4 numeric error, not as numpy warnings
        doc = config_doc()
        doc["data"]["synth"]["signal_shift"] = 1e200
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 4
        assert "numeric error" in capsys.readouterr().err

    def test_eval_truth_with_reversed_interval(self, pipeline, tmp_path, capsys):
        _, out, _ = pipeline
        config = write_config(tmp_path / "paths.yaml", data=synth_on_disk(tmp_path))
        truth = tmp_path / "reversed.csv"
        truth.write_text(
            "series_id,event,step,score\ns000,onset,2,\ns000,offset,5,\n"
            "s000,onset,17,\ns000,offset,11,\n"
        )
        code = main([
            "eval", "--config", config, "--out", str(tmp_path / "o"),
            "--pred", str(out / "predictions.csv"), "--truth", str(truth),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "data error" in err and "series 's000', line 4" in err

    @pytest.mark.parametrize("factor", [1, 2])
    def test_truth_past_series_end(self, tmp_path, capsys, factor):
        # checked at the raw length: downsampling would clip the offset
        data = synth_on_disk(tmp_path)
        events_path = data["paths"]["events"]
        truth = load_events(events_path)
        last = truth["s003"].events[-1]
        truth["s003"] = replace(truth["s003"], events=(
            *truth["s003"].events[:-1], replace(last, offset=5000)
        ))
        save_events(events_path, truth)
        config = write_config(
            tmp_path / "config.yaml", data=data, downsample=factor,
            model={"in_channels": 2 if factor == 1 else 8, "hidden_channels": [4], "kernel_size": 3},
        )
        assert main(["cv", "--config", config, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert f"series 's003' (file {events_path}): event [{last.onset}, 5000) outside [0, 128]" in err

    def test_decode_with_non_finite_checkpoint(self, pipeline, tmp_path, capsys):
        config, out, _ = pipeline
        blob = (out / "model.ckpt").read_bytes()
        last = list(load_params(out / "model.ckpt").tensors)[-1]
        checkpoint = tmp_path / "model.ckpt"
        checkpoint.write_bytes(blob[:-8] + struct.pack("<d", float("nan")))
        code = main(["decode", "--config", config, "--out", str(tmp_path / "o"),
                     "--checkpoint", str(checkpoint)])
        assert code == 3
        err = capsys.readouterr().err
        assert "data error" in err and f"tensor {last!r} holds NaN or Inf" in err

    def test_eval_truth_with_unsorted_points(self, pipeline, tmp_path, capsys):
        # a cpd config scores point truth, so the load check names the line
        _, out, _ = pipeline
        config = write_config(tmp_path / "cpd.yaml", objective="cpd", data=synth_on_disk(tmp_path))
        truth = tmp_path / "points.csv"
        truth.write_text(
            "series_id,event,step,score\ns000,point,9,\ns000,point,-4,\n"
            + "".join(f"s{i:03d},point,10,\n" for i in range(1, 8))
        )
        code = main([
            "eval", "--config", config, "--out", str(tmp_path / "o"),
            "--pred", str(out / "predictions.csv"), "--truth", str(truth),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "data error" in err and "series 's000', line 3" in err

    def test_eval_truth_with_synth_data(self, pipeline, tmp_path, capsys):
        # synthetic truth is generated, so there is no events file to replace
        config, out, _ = pipeline
        code = main([
            "eval", "--config", config, "--out", str(tmp_path / "o"),
            "--pred", str(out / "predictions.csv"), "--truth", str(out / "predictions.csv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "data.paths.events" in err

    @pytest.mark.parametrize("rows,line,fault", [
        ("s000,onset,2,0.5\ns000,onset,-5,0.5\n", 3, "step -5 is before step 0"),
        ("s000,onset,2,0.5\ns001,offset,4,nan\n", 3, "score nan is not finite"),
    ], ids=["negative-step", "nan-score"])
    def test_eval_predictions_out_of_range(self, pipeline, tmp_path, capsys, rows, line, fault):
        config, _, _ = pipeline
        pred = tmp_path / "predictions.csv"
        pred.write_text("series_id,event,step,score\n" + rows)
        code = main(["eval", "--config", config, "--out", str(tmp_path / "o"),
                     "--pred", str(pred)])
        assert code == 3
        err = capsys.readouterr().err
        assert "data error" in err and f"line {line}: {fault}" in err

    def test_grid_sigma_not_finite_fails_before_training(self, tmp_path, capsys, monkeypatch):
        original, trained = evreg.experiment.train, []

        def recording(*args, **kwargs):
            trained.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(evreg.experiment, "train", recording)
        config = write_config(
            tmp_path / "config.yaml", grid={"mu": [0.5], "sigma": [None, float("inf")]}
        )
        code = main(["grid", "--config", config, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error: grid sigma values must be finite" in capsys.readouterr().err
        assert trained == []

    @pytest.mark.parametrize("command", ["cv", "grid"])
    def test_jobs_below_one(self, tmp_path, capsys, command):
        config = write_config(tmp_path / "config.yaml")
        code = main([command, "--config", config, "--out", str(tmp_path / "o"), "--jobs", "0"])
        assert code == 2
        assert "config error: jobs=0, expected >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command,synth_seed,model_seed,flag", [
        ("synth", -1, 0, []),
        ("train", 0, -2, []),
        ("cv", 0, 0, ["--seed", "-3"]),
    ], ids=["synth-data-seed", "train-model-seed", "cv-seed-flag"])
    def test_negative_seed(self, tmp_path, capsys, command, synth_seed, model_seed, flag):
        doc = config_doc()
        doc["data"]["synth"]["seed"] = synth_seed
        doc["model"]["seed"] = model_seed
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o"), *flag])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "expected >= 0" in err
