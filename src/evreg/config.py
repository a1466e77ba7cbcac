"""Experiment configuration: one YAML document mapped onto the dataclasses.

The document is a nested mapping with one section per pipeline stage.  Keys
are checked strictly (unknown keys are rejected rather than ignored) and
values are coerced to the annotated field types, so "1e-3" and 1.0e-3 both
work and sigma entries may be written as null or "none".
"""

from __future__ import annotations

import contextlib
import math
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, Callable, Mapping

from .data import SynthConfig
from .decode import (
    DecodeParams,
    decode_points_arrays,
    decode_regression_arrays,
    decode_seg_peaks_arrays,
    sweep_seg_threshold_arrays,
)
from .errors import EmptyGrid, InvalidConfig, InvalidEvents, InvalidSpec
from .metric import EdapConfig
from .model import ModelConfig, TrainConfig
from .signal import SmoothingParams, check_fields, expect, is_real, shown
from .targets import PdfSpec, encode_cpd, encode_regression, encode_segmentation
from .types import INTERVAL, POINT, EventSet


@dataclass(frozen=True)
class Objective:
    """Everything that differs between training objectives.

    out_mode is the model head and metric_classes the default metric classes.
    encode(events, num_steps, pdf) gives a TargetSeries.  decode(ys, params,
    mus) takes the outputs of every series to decode, in id order, and gives
    their detection arrays (types.checked_rows' layout, rows in that order,
    checked before they are read) at each mu in mus if reads_mu, else a
    one-item list of them.  Both resolve the encoder or decoder by its
    module-global name at call time, so rebinding it works.
    segmentation marks per-step label targets: no pdf, no sigma schedule.
    point_truth collapses intervals to onset points.
    """

    out_mode: str
    metric_classes: tuple[str, ...]
    encode: Callable
    decode: Callable
    segmentation: bool = False
    point_truth: bool = False
    reads_mu: bool = False


OBJECTIVES: dict[str, Objective] = {
    "regression": Objective(
        "regression_2ch", ("onset", "offset"),
        encode=lambda events, steps, pdf: encode_regression(events, steps, pdf),
        decode=lambda ys, params, _: [
            decode_regression_arrays([y[0] for y in ys], [y[1] for y in ys], params)
        ],
    ),
    "segmentation": Objective(
        "segmentation_2class", ("onset", "offset"), segmentation=True, reads_mu=True,
        encode=lambda events, steps, _: encode_segmentation(events, steps),
        decode=lambda ys, params, mus: sweep_seg_threshold_arrays([y[1] for y in ys], mus, params),
    ),
    "segmentation_peaks": Objective(
        "segmentation_2class", ("onset", "offset"), segmentation=True,
        encode=lambda events, steps, _: encode_segmentation(events, steps),
        decode=lambda ys, params, _: [decode_seg_peaks_arrays([y[1] for y in ys], params)],
    ),
    "cpd": Objective(
        "regression_1ch", ("point",), point_truth=True,
        encode=lambda events, steps, pdf: encode_cpd(events, steps, pdf),
        decode=lambda ys, params, _: [decode_points_arrays([y[0] for y in ys], params)],
    ),
}


def _objective(name: Any) -> Objective:
    ok = isinstance(name, str) and name in OBJECTIVES
    expect(ok, "objective", shown(name, repr), f"one of {tuple(OBJECTIVES)}", InvalidConfig)
    return OBJECTIVES[name]


DEFAULT_GRID_MU = tuple(i / 10.0 for i in range(11))
DEFAULT_GRID_SIGMA = (None, 1.0, 10.0, 100.0, 1000.0)


@dataclass(frozen=True)
class PathsSpec:
    """On-disk dataset: a directory of per-series CSVs plus one events CSV."""

    series_dir: str
    events: str

    def __post_init__(self):
        check_fields(self, InvalidConfig)
        if not self.series_dir or not self.events:
            raise InvalidConfig("paths dataset needs series_dir and events")


@dataclass(frozen=True)
class GridSpec:
    """Candidate decode thresholds and smoothing widths for tuning."""

    mu: tuple[float, ...] = DEFAULT_GRID_MU
    sigma: tuple[float | None, ...] = DEFAULT_GRID_SIGMA

    def __post_init__(self):
        try:
            mu, sigma = tuple(self.mu), tuple(self.sigma)
            numbers = all(map(is_real, mu)) and all(s is None or is_real(s) for s in sigma)
            if numbers:
                mu = tuple(float(m) for m in mu)
                sigma = tuple(None if s is None else float(s) for s in sigma)
        except (TypeError, ValueError, OverflowError):
            numbers = False
        if not numbers:
            raise InvalidConfig(
                f"grid mu and sigma must be lists of numbers, got {shown(self.mu, repr)} "
                f"and {shown(self.sigma, repr)}"
            )
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        if not self.mu or not self.sigma:
            raise EmptyGrid("grid needs at least one mu and one sigma candidate")
        if any(not 0.0 <= m <= 1.0 for m in self.mu):
            raise InvalidConfig(f"grid mu values must lie in [0, 1], got {self.mu}")
        if any(s is not None and not 0 < s < math.inf for s in self.sigma):
            raise InvalidConfig(
                f"grid sigma values must be finite and positive or None, got {self.sigma}"
            )
        for s in self.sigma:
            SmoothingParams(s)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs: data, targets, model, decoding, scoring."""

    objective: str
    data: SynthConfig | PathsSpec
    model: ModelConfig
    decode: DecodeParams
    metric: EdapConfig
    train: TrainConfig = field(default_factory=TrainConfig)
    pdf: PdfSpec | None = None
    grid: GridSpec = field(default_factory=GridSpec)
    folds: int = 4
    downsample: int = 1

    def __post_init__(self):
        check_fields(self, InvalidConfig)
        spec = _objective(self.objective)
        expect(self.folds >= 2, "folds", self.folds, ">= 2", InvalidConfig)
        expect(self.downsample >= 1, "downsample", self.downsample, ">= 1", InvalidConfig)
        if not spec.segmentation and self.pdf is None:
            raise InvalidConfig(f"objective {self.objective!r} needs a pdf section")
        ok = self.model.out_mode == spec.out_mode
        expected = f"{spec.out_mode!r} for objective {self.objective!r}"
        expect(ok, "model.out_mode", repr(self.model.out_mode), expected, InvalidConfig)
        if self.train.sigma_start is not None:
            kind = getattr(self.pdf, "kind", None)
            if spec.segmentation or kind != "gaussian":
                raise InvalidConfig(
                    f"train.sigma_start schedules a gaussian pdf's sigma, but objective "
                    f"{self.objective!r} does not encode with one (pdf kind {kind!r})"
                )
            try:
                replace(self.pdf, sigma=self.train.sigma_start)
            except InvalidSpec as exc:
                raise InvalidConfig(f"train.sigma_start={self.train.sigma_start}: {exc}") from None
        truth = EventSet("", POINT if spec.point_truth else INTERVAL)
        for cls in self.metric.classes:
            try:
                truth.by_class(cls)
            except InvalidEvents as exc:
                raise InvalidConfig(f"objective {self.objective!r}: {exc}") from None

    @property
    def spec(self) -> Objective:
        """The record of this config's objective."""
        return OBJECTIVES[self.objective]


# -- YAML loading -------------------------------------------------------------


def _is_none_string(value: Any) -> bool:
    return isinstance(value, str) and value.strip().lower() in ("none", "null")


def _coerce(value: Any, target: Any, where: str) -> Any:
    """Best-effort conversion of a YAML value to the annotated type.

    A dataclass-typed annotation is a nested section, built by _build_section.
    """
    if is_dataclass(target):
        return _build_section(target, value, where)
    origin = typing.get_origin(target)
    if origin is typing.Union or origin is types.UnionType:
        args = typing.get_args(target)
        if type(None) in args:
            if value is None or _is_none_string(value):
                return None
            rest = [a for a in args if a is not type(None)]
            if len(rest) == 1:
                return _coerce(value, rest[0], where)
        return value
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise InvalidConfig(f"{where}: expected a list, got {value!r}")
        args = typing.get_args(target)
        item = args[0] if args else Any
        return tuple(_coerce(v, item, where) for v in value)
    if target in (int, float) and isinstance(value, bool):
        raise InvalidConfig(f"{where}: expected a number, got {value!r}")
    try:
        if target is float:
            return float(value)
        if target is int:
            # an int, or a string int() reads, stays exact; float() rounds past 2**53
            if isinstance(value, str):
                with contextlib.suppress(ValueError):
                    value = int(value)
            if isinstance(value, int):
                return value
            as_float = float(value)
            if as_float != int(as_float):
                raise InvalidConfig(f"{where}: expected an integer, got {value!r}")
            return int(as_float)
        if target is str:
            if not isinstance(value, str):
                raise InvalidConfig(f"{where}: expected a string, got {value!r}")
            return value
    except (TypeError, ValueError, OverflowError):
        raise InvalidConfig(f"{where}: cannot interpret {value!r}") from None
    return value


def _build_section(cls, mapping: Mapping[str, Any], section: str):
    """Construct a config dataclass from a mapping with strict key checking.

    The dataclass fields are the schema: every key must be a field, and every
    field without a default must be present.  section is the dotted name of
    the mapping in the document, "" for the top level.
    """
    if not isinstance(mapping, Mapping):
        raise InvalidConfig(f"section {section!r} must be a mapping")
    where = f" in section {section!r}" if section else ""
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(mapping) - {f.name for f in fields(cls)}, key=str)
    if unknown:
        kind = "key" if section else "top-level key"
        raise InvalidConfig(f"unknown {kind} {unknown[0]!r}{where}")
    for f in fields(cls):
        if f.name not in mapping and f.default is MISSING and f.default_factory is MISSING:
            raise InvalidConfig(f"missing required key {f.name!r}{where}")
    kwargs = {
        key: _coerce(value, hints[key], f"{section}.{key}" if section else key)
        for key, value in mapping.items()
    }
    try:
        return cls(**kwargs)
    except (TypeError, InvalidSpec) as exc:
        raise InvalidConfig(f"section {section!r}: {exc}") from None


def _build_data(mapping: Mapping[str, Any]) -> SynthConfig | PathsSpec:
    if not isinstance(mapping, Mapping):
        raise InvalidConfig("section 'data' must be a mapping")
    keys = set(mapping)
    if keys == {"synth"}:
        return _build_section(SynthConfig, mapping["synth"], "data.synth")
    if keys == {"paths"}:
        return _build_section(PathsSpec, mapping["paths"], "data.paths")
    raise InvalidConfig(
        "section 'data' must contain exactly one of 'synth' or 'paths'"
    )


def config_from_mapping(doc: Mapping[str, Any]) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed YAML document.

    Convenience derivations: the model's out_mode and the metric classes
    default to the ones the objective's record holds.  data is the one union
    field, so its kind ('synth' or 'paths') is resolved here.
    """
    if not isinstance(doc, Mapping):
        raise InvalidConfig("config document must be a mapping")
    doc = dict(doc)
    spec = _objective(doc.get("objective"))
    derived_defaults = {
        "model": {"out_mode": spec.out_mode},
        "metric": {"classes": spec.metric_classes},
    }
    for key, derived in derived_defaults.items():
        if isinstance(doc.get(key), Mapping):
            doc[key] = {**derived, **doc[key]}
    if "data" in doc:
        doc["data"] = _build_data(doc["data"])
    return _build_section(ExperimentConfig, doc, "")


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a YAML experiment config.

    Every failure mode here is a configuration error: an unreadable file,
    malformed YAML, unknown keys, or invalid values.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConfig(f"cannot read config {path}: {exc}") from exc
    import yaml  # here, not at module scope: only config files need PyYAML

    try:
        # PyYAML's int constructor raises ValueError past Python's 4300-digit limit
        doc = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError) as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise InvalidConfig(f"malformed config {path}{where}") from exc
    return config_from_mapping(doc)


def override_seed(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    """Re-seed an experiment: the data and model seeds both move."""
    data = config.data
    if isinstance(data, SynthConfig):
        data = replace(data, seed=seed)
    return replace(config, data=data, model=replace(config.model, seed=seed))
