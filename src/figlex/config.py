"""Run configuration: the SGNS training parameters, the run's settings and
the ``key = value`` config file that sets them.

Every config key is a field of `RunConfig` or `TrainParams`, and every key
can be overridden by a command-line flag of the same name.  This module
needs only the standard library, so the CLI can parse its arguments and
`report` can run without loading numpy.
"""

from __future__ import annotations

import math
from dataclasses import Field, dataclass, field, fields
from pathlib import Path


@dataclass
class TrainParams:
    dim: int = 100
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    min_count: int = 5
    initial_lr: float = 0.025
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        for name in ("window", "negatives", "min_count", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.initial_lr < math.inf:
            raise ValueError("initial_lr must be positive and finite")


@dataclass
class RunConfig:
    corpus: str = field(default="", metadata={"help": "corpus JSONL path"})
    lexicon: str = field(default="", metadata={"help": "lexicon JSONL path"})
    vad_lexicon: str = field(default="", metadata={"help": "VAD ratings CSV path"})
    out: str = field(default="", metadata={"help": "output directory"})
    seed: int = 0
    groups: tuple[str, str] | None = field(
        default=None, metadata={"help": "comma-separated pair of group labels"})
    min_count: int = 50
    literality_threshold: float = 0.25
    rbo_depth: int = 100
    n_splits: int = 500
    baseline_n: int = 100
    train: TrainParams = field(default_factory=TrainParams)

    def out_path(self, name: str) -> Path:
        if not self.out:
            # Path("") is the working directory, which no run writes into unasked
            raise ValueError("out must be configured")
        return Path(self.out) / name


# Every config key with the field it sets, in flag order: the RunConfig
# fields, then the TrainParams fields but `seed` (the run's seed), each
# prefixed `train_` where a RunConfig field has its name.  A key's type is
# its field's default's; `groups` is a comma-separated string.
_RUN_KEYS = {f.name: f for f in fields(RunConfig) if f.name != "train"}
_CONFIG_KEYS = {**_RUN_KEYS, **{("train_" if f.name in _RUN_KEYS else "") + f.name: f
                               for f in fields(TrainParams) if f.name != "seed"}}


def _key_type(f: Field) -> type:
    return str if f.default is None else type(f.default)


def parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in values:
                raise ValueError(f"config line {lineno}: key {key!r} set twice")
            values[key] = value.strip()
    return values


def build_config(file_values: dict[str, str], overrides: dict[str, object]) -> RunConfig:
    merged: dict[str, object] = dict(file_values)
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value

    run_kwargs: dict[str, object] = {}
    train_kwargs: dict[str, object] = {}
    for key, value in merged.items():
        f = _CONFIG_KEYS.get(key)
        if f is None:
            raise ValueError(f"unknown config key {key!r}")
        kind = _key_type(f)
        if kind is not str:
            try:
                value = kind(value)
            except ValueError:
                expected = "an integer" if kind is int else "a number"
                raise ValueError(f"{key}: expected {expected}, got {value!r}") from None
        if kind is float and not math.isfinite(value):  # type: ignore[arg-type]
            raise ValueError(f"{key} must be finite, not {value}")
        if key == "groups":
            value = tuple(p.strip() for p in value.split(",") if p.strip())
            if len(value) != 2:
                raise ValueError("groups must name exactly two labels")
            if value[0] == value[1]:
                raise ValueError(f"groups must name two different labels, not {value[0]!r} twice")
        (run_kwargs if key in _RUN_KEYS else train_kwargs)[f.name] = value
    config = RunConfig(**run_kwargs)  # type: ignore[arg-type]
    config.train = TrainParams(seed=config.seed, **train_kwargs)  # type: ignore[arg-type]

    if config.seed < 0:
        raise ValueError("seed must be nonnegative")
    if config.min_count < 0:
        raise ValueError("min_count must be nonnegative (0 disables pruning)")
    if config.rbo_depth <= 0:
        raise ValueError("rbo_depth must be positive")
    if config.n_splits < 2:
        # each group's baseline spread needs at least two splits
        raise ValueError("n_splits must be at least 2")
    if config.literality_threshold <= 0:
        raise ValueError("literality_threshold must be positive")
    if config.baseline_n < 2:
        # the affect stage compares samples and needs two observations of each
        raise ValueError("baseline_n must be at least 2")
    return config
