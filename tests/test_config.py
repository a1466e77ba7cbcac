"""YAML experiment config: strict keys, coercions, derived defaults."""

import textwrap
from dataclasses import asdict, fields, is_dataclass, replace
from pathlib import Path

import pytest
import yaml

from evreg.config import (
    DEFAULT_GRID_MU,
    DEFAULT_GRID_SIGMA,
    ExperimentConfig,
    GridSpec,
    PathsSpec,
    config_from_mapping,
    load_config,
    override_seed,
)
from evreg.data import SynthConfig
from evreg.decode import DecodeParams
from evreg.errors import ConfigError, EmptyGrid, InvalidConfig
from evreg.metric import EdapConfig
from evreg.model import ModelConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def minimal_doc(**over):
    doc = {
        "objective": "regression",
        "data": {"synth": {
            "num_series": 8, "length": 256,
            "mean_event_duration": 16, "mean_gap": 32, "noise_std": 0.5,
        }},
        "pdf": {"kind": "gaussian", "day_length_d": 64, "width_w": 17, "sigma": 2},
        "model": {"in_channels": 8, "hidden_channels": [4, 8], "kernel_size": 3},
        "decode": {"alpha": 4},
        "metric": {"tolerances": [1, 2, 5]},
    }
    doc.update(over)
    return doc


class TestMappingConstruction:
    def test_minimal_document(self):
        config = config_from_mapping(minimal_doc())
        assert isinstance(config.data, SynthConfig)
        assert config.model.out_mode == "regression_2ch"
        assert config.folds == 4
        assert config.downsample == 1
        assert config.grid.mu == DEFAULT_GRID_MU
        assert config.grid.sigma == DEFAULT_GRID_SIGMA

    def test_out_mode_follows_objective(self):
        seg = config_from_mapping(minimal_doc(objective="segmentation", pdf=None) | {})
        assert seg.model.out_mode == "segmentation_2class"

    def test_cpd_gets_point_class_and_single_channel(self):
        config = config_from_mapping(minimal_doc(objective="cpd"))
        assert config.model.out_mode == "regression_1ch"
        assert config.metric.classes == ("point",)

    def test_explicit_out_mode_mismatch_rejected(self):
        doc = minimal_doc()
        doc["model"]["out_mode"] = "segmentation_2class"
        with pytest.raises(InvalidConfig):
            config_from_mapping(doc)

    def test_unknown_top_level_key(self):
        with pytest.raises(InvalidConfig, match="unknown top-level key"):
            config_from_mapping(minimal_doc(bogus=1))

    def test_unknown_section_key(self):
        doc = minimal_doc()
        doc["train"] = {"epochs": 2, "momentum": 0.9}
        with pytest.raises(InvalidConfig, match="momentum"):
            config_from_mapping(doc)

    def test_missing_required_section(self):
        doc = minimal_doc()
        del doc["metric"]
        with pytest.raises(InvalidConfig, match="metric"):
            config_from_mapping(doc)

    def test_data_requires_exactly_one_kind(self):
        doc = minimal_doc()
        doc["data"] = {"synth": doc["data"]["synth"], "paths": {"series_dir": "x", "events": "y"}}
        with pytest.raises(InvalidConfig):
            config_from_mapping(doc)
        doc["data"] = {}
        with pytest.raises(InvalidConfig):
            config_from_mapping(doc)

    def test_paths_dataset(self):
        doc = minimal_doc()
        doc["data"] = {"paths": {"series_dir": "series", "events": "events.csv"}}
        config = config_from_mapping(doc)
        assert isinstance(config.data, PathsSpec)
        assert config.data.events == "events.csv"

    def test_regression_without_pdf_rejected(self):
        doc = minimal_doc()
        del doc["pdf"]
        with pytest.raises(InvalidConfig, match="pdf"):
            config_from_mapping(doc)

    def test_segmentation_without_pdf_ok(self):
        doc = minimal_doc(objective="segmentation")
        del doc["pdf"]
        config = config_from_mapping(doc)
        assert config.pdf is None


class TestSchemaFromDataclasses:
    def test_every_field_is_a_top_level_key(self):
        config = config_from_mapping(minimal_doc())
        doc = {f.name: getattr(config, f.name) for f in fields(ExperimentConfig)}
        doc = {key: asdict(v) if is_dataclass(v) else v for key, v in doc.items()}
        doc["data"] = {"synth": doc["data"]}
        assert config_from_mapping(doc) == config

    @pytest.mark.parametrize("section, key", [("model", "in_channels"), ("data.synth", "length")])
    def test_missing_required_key_is_named(self, section, key):
        doc = minimal_doc()
        mapping = doc
        for part in section.split("."):
            mapping = mapping[part]
        del mapping[key]
        with pytest.raises(
            InvalidConfig, match=f"missing required key '{key}' in section '{section}'"
        ):
            config_from_mapping(doc)

    def test_none_string_pdf_is_no_pdf(self):
        doc = minimal_doc(objective="segmentation", pdf="none")
        assert config_from_mapping(doc).pdf is None

    def test_unknown_keys_of_mixed_types(self):
        with pytest.raises(InvalidConfig, match="unknown top-level key"):
            config_from_mapping(minimal_doc(bogus=1) | {1: 2})


def test_segmentation_doc_helper_drops_pdf():
    # minimal_doc(pdf=None) keeps a pdf key; rebuild without it instead
    doc = minimal_doc(objective="segmentation")
    del doc["pdf"]
    assert config_from_mapping(doc).objective == "segmentation"


class TestCoercion:
    def test_scientific_notation_strings(self):
        doc = minimal_doc(train={"learning_rate": "1e-3", "epochs": "2"})
        config = config_from_mapping(doc)
        assert config.train.learning_rate == 1e-3
        assert config.train.epochs == 2

    def test_none_strings_for_sigma(self):
        doc = minimal_doc(grid={"mu": [0.5], "sigma": ["none", 1, "10"]})
        doc["decode"]["sigma"] = "None"
        config = config_from_mapping(doc)
        assert config.grid.sigma == (None, 1.0, 10.0)
        assert config.decode.sigma is None

    def test_non_integer_count_rejected(self):
        with pytest.raises(InvalidConfig):
            config_from_mapping(minimal_doc(folds=4.5))

    @pytest.mark.parametrize(
        "seed", [9007199254740993, "9007199254740993"], ids=["number", "string"]
    )
    def test_large_int_loads_exactly(self, tmp_path, seed):
        # 2**53 + 1 is the first int a float cannot hold
        doc = minimal_doc()
        doc["model"]["seed"] = seed
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert load_config(path).model.seed == 9007199254740993

    @pytest.mark.parametrize("value, expected", [("20.0", 20), (20.0, 20), (" 7 ", 7)])
    def test_integral_values_load_as_ints(self, value, expected):
        epochs = config_from_mapping(minimal_doc(train={"epochs": value})).train.epochs
        assert epochs == expected and type(epochs) is int

    @pytest.mark.parametrize("value", [2.5, "2.5", "two"])
    def test_fractional_or_unreadable_counts_rejected(self, value):
        with pytest.raises(InvalidConfig, match=r"train\.epochs: "):
            config_from_mapping(minimal_doc(train={"epochs": value}))

    @pytest.mark.parametrize("section, key, value", [
        ("decode", "alpha", True),
        ("decode", "mu", False),
        ("decode", "sigma", True),
        ("train", "epochs", True),
        ("metric", "tolerances", [1, True]),
    ])
    def test_bools_are_not_numbers(self, section, key, value):
        # YAML true/false are Python bools, which int() and float() accept
        doc = minimal_doc()
        doc[section] = {**doc.get(section, {}), key: value}
        bad = value[-1] if isinstance(value, list) else value
        with pytest.raises(InvalidConfig, match=rf"{section}\.{key}: expected a number, got {bad}"):
            config_from_mapping(doc)

    def test_numeric_lists_become_tuples(self):
        config = config_from_mapping(minimal_doc())
        assert config.metric.tolerances == (1, 2, 5)
        assert config.model.hidden_channels == (4, 8)


class TestValidation:
    @pytest.mark.parametrize(
        "objective, classes",
        [("cpd", ["offset"]), ("regression", ["label"]), ("segmentation", ["onset", "point"])],
    )
    def test_metric_class_the_objective_cannot_score(self, objective, classes):
        doc = minimal_doc(objective=objective)
        doc["metric"]["classes"] = classes
        with pytest.raises(InvalidConfig, match=f"class {classes[-1]!r} undefined"):
            config_from_mapping(doc)

    @pytest.mark.parametrize("over, match", [
        ({"classes": ["onset", "onset"]}, "expected distinct class names"),
        ({"tolerances": [5, 5]}, "expected nonempty ascending distinct positive ints"),
    ], ids=["duplicate-class", "duplicate-tolerance"])
    def test_metric_spec_fault_is_invalid_config(self, over, match):
        doc = minimal_doc(objective="segmentation", pdf=None)
        doc["metric"] = {**doc["metric"], **over}
        with pytest.raises(InvalidConfig, match=f"section 'metric': .*{match}"):
            config_from_mapping(doc)

    def test_bad_objective(self):
        with pytest.raises(InvalidConfig):
            config_from_mapping(minimal_doc(objective="detection"))
        with pytest.raises(InvalidConfig):
            config_from_mapping(minimal_doc(objective=["regression"]))

    def test_folds_lower_bound(self):
        with pytest.raises(InvalidConfig):
            config_from_mapping(minimal_doc(folds=1))

    @pytest.mark.parametrize("over", [
        {"folds": float("inf")},
        {"train": {"epochs": float("inf")}},
        {"metric": {"tolerances": [float("inf")]}},
    ])
    def test_infinite_integer(self, over):
        with pytest.raises(InvalidConfig, match="cannot interpret"):
            config_from_mapping(minimal_doc(**over))

    def test_downsample_lower_bound(self):
        with pytest.raises(InvalidConfig):
            config_from_mapping(minimal_doc(downsample=0))

    @pytest.mark.parametrize("field, value", [
        ("folds", 2.5), ("folds", "4"), ("folds", True),
        ("downsample", 1.5), ("downsample", "4"), ("downsample", True),
    ])
    def test_counts_must_be_ints(self, field, value):
        config = load_config(CONFIGS / "cpd.yaml")
        with pytest.raises(InvalidConfig, match=f"{field}: .* is not an int"):
            replace(config, **{field: value})

    @pytest.mark.parametrize("args, match", [
        ((1, "x"), "series_dir: expected a string, got 1"),
        (("s", None), "events: expected a string, got None"),
        ((Path("s"), "e.csv"), "series_dir: expected a string"),
    ])
    def test_paths_must_be_strings(self, args, match):
        with pytest.raises(InvalidConfig, match=match):
            PathsSpec(*args)

    def test_bad_seg_method(self):
        # the decoder is the objective's record: segmentation_peaks, not a knob
        for method in ("threshold", "peaks", "argmax"):
            with pytest.raises(InvalidConfig, match="unknown top-level key 'seg_method'"):
                config_from_mapping(minimal_doc(objective="segmentation", seg_method=method))

    def test_grid_empty_candidates(self):
        with pytest.raises(EmptyGrid):
            GridSpec(mu=(), sigma=(None,))
        with pytest.raises(EmptyGrid):
            GridSpec(mu=(0.5,), sigma=())

    def test_grid_value_ranges(self):
        with pytest.raises(InvalidConfig):
            GridSpec(mu=(1.5,), sigma=(None,))
        with pytest.raises(InvalidConfig):
            GridSpec(mu=(0.5,), sigma=(0.0,))
        for bad in [
            dict(mu=("a",)),
            dict(sigma=("a",)),
            dict(mu=None),
            dict(sigma=5),
            dict(mu=(True,)),
            dict(sigma=(True,)),
            dict(mu=("0.5",)),
        ]:
            with pytest.raises(InvalidConfig, match="must be lists of numbers"):
                GridSpec(**bad)

    @pytest.mark.parametrize("value", [".inf", ".nan"])
    def test_grid_sigma_not_finite(self, tmp_path, value):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(minimal_doc()) + f"grid: {{sigma: [null, {value}]}}\n")
        with pytest.raises(InvalidConfig, match="grid sigma values must be finite"):
            load_config(path)

    def test_default_grid_shape(self):
        grid = GridSpec()
        assert len(grid.mu) == 11
        assert grid.mu[0] == 0.0 and grid.mu[-1] == 1.0
        assert grid.sigma == (None, 1.0, 10.0, 100.0, 1000.0)

    @pytest.mark.parametrize("over, match", [
        ({"objective": "segmentation"}, "objective 'segmentation'"),
        ({"pdf": {"kind": "hard", "day_length_d": 64, "width_w": 1}}, "pdf kind 'hard'"),
        ({"pdf": {"kind": "gaussian", "day_length_d": 64, "width_w": 17, "sigma": 2}},
         "width_w=17 clips the gaussian"),
    ], ids=["segmentation", "hard_pdf", "clipped_start"])
    def test_sigma_schedule_that_cannot_apply(self, over, match):
        doc = minimal_doc(train={"sigma_start": 4, "sigma_end": 1}, **over)
        with pytest.raises(InvalidConfig, match=match):
            config_from_mapping(doc)


class TestYamlLoading:
    def test_round_trip(self, tmp_path):
        text = textwrap.dedent("""
            objective: regression
            data:
              synth: {num_series: 8, length: 256, mean_event_duration: 16,
                      mean_gap: 32, noise_std: 0.5}
            pdf: {kind: gaussian, day_length_d: 64, width_w: 17, sigma: 2}
            model: {in_channels: 8, hidden_channels: [4, 8], kernel_size: 3}
            decode: {alpha: 4, sigma: null}
            metric: {tolerances: [1, 2, 5]}
        """)
        path = tmp_path / "config.yaml"
        path.write_text(text)
        config = load_config(path)
        assert config.decode.sigma is None

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(InvalidConfig, match="cannot read"):
            load_config(tmp_path / "absent.yaml")

    def test_malformed_yaml_reports_position(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("objective: [unclosed\nmodel: {")
        with pytest.raises(InvalidConfig, match="line"):
            load_config(path)

    def test_undecodable_file_is_config_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_bytes(b"objective: regression\nfolds: \xff\n")
        with pytest.raises(InvalidConfig, match="cannot read"):
            load_config(path)

    def test_int_past_the_digit_limit_is_malformed(self, tmp_path):
        # PyYAML's int constructor raises ValueError for more than 4300 digits
        text = (CONFIGS / "cpd.yaml").read_text()
        path = tmp_path / "huge_folds.yaml"
        path.write_text(text.replace("folds: 4\n", f"folds: {'9' * 5000}\n"))
        assert path.read_text() != text
        with pytest.raises(InvalidConfig, match="^malformed config "):
            load_config(path)

    def test_all_errors_are_config_errors(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("objective: regression\n")
        with pytest.raises(ConfigError):
            load_config(path)


class TestOverrideSeed:
    def test_moves_every_seed(self):
        config = config_from_mapping(minimal_doc())
        moved = override_seed(config, 42)
        assert moved.data.seed == 42
        assert moved.model.seed == 42

    def test_paths_data_untouched(self):
        doc = minimal_doc()
        doc["data"] = {"paths": {"series_dir": "s", "events": "e.csv"}}
        moved = override_seed(config_from_mapping(doc), 42)
        assert isinstance(moved.data, PathsSpec)
        assert moved.model.seed == 42


class TestProgrammaticConstruction:
    def test_direct_dataclass_validation(self):
        with pytest.raises(InvalidConfig):
            ExperimentConfig(
                objective="regression",
                data=SynthConfig(
                    num_series=4, length=128, mean_event_duration=8,
                    mean_gap=16, noise_std=0.1,
                ),
                model=ModelConfig(in_channels=2, hidden_channels=(4,)),
                decode=DecodeParams(alpha=2),
                metric=EdapConfig(tolerances=(1,)),
                pdf=None,  # regression needs a pdf
            )

    @pytest.mark.parametrize("field", ["data", "model", "decode", "metric", "train", "grid"])
    @pytest.mark.parametrize("value", [None, True, "x", {}], ids=["None", "True", "str", "dict"])
    def test_nested_records_are_checked(self, field, value):
        config = load_config(CONFIGS / "cpd.yaml")
        with pytest.raises(InvalidConfig, match=f"^{field}: expected .*, got "):
            replace(config, **{field: value})

    def test_nested_record_message(self):
        config = load_config(CONFIGS / "cpd.yaml")
        with pytest.raises(InvalidConfig) as err:
            replace(config, model=None)
        assert str(err.value) == "model: expected ModelConfig, got None"
        with pytest.raises(InvalidConfig) as err:
            replace(config, data=config.model)
        assert str(err.value).startswith("data: expected SynthConfig or PathsSpec, got ModelConfig(")
        with pytest.raises(InvalidConfig) as err:
            replace(config, pdf="gaussian")
        assert str(err.value) == "pdf: expected PdfSpec or None, got 'gaussian'"
