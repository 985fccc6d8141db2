"""Pipeline orchestration: prepare, analyze, and report subcommands.

Configuration is a line-oriented ``key = value`` file; every key can be
overridden by a command-line flag of the same name.  All outputs are plain
CSV/JSON data files, reproducible byte-for-byte from (inputs, config,
seed).  With the FIGLEX_THREADS environment variable at 2 or more, analyze
trains its two per-group embedding spaces in two processes; outputs are the
same for every value.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .affect import (
    DIMENSIONS,
    compare_vad,
    literal_baseline,
    load_vad_lexicon,
    save_vad_models,
    score_definitions,
    train_vad_models,
    usage_vad_series,
)
from .corpus import balance_groups, load_corpus, save_corpus
from .embeddings import (
    EmbeddingSpace,
    TrainParams,
    load_vectors,
    nearest_neighbors,
    save_vectors,
    sentence_embedding,
    train_sgns,
)
from .lexicon import filter_literal, idiom_token, load_lexicon, prune_variants, save_lexicon
from .matcher import build_matcher, count_usages, rewrite_with_idiom_tokens
from .stats import (
    divergence_gap_test,
    gscore_definition,
    gscore_surface,
    kde,
    log_odds_dirichlet,
    sim_rbo,
    spearman,
)

NEIGHBORS_PER_IDIOM = 10


def thread_cap() -> int:
    """Process limit from FIGLEX_THREADS (default 1); at 2 or more, analyze
    trains its two per-group embedding spaces in two processes.

    Raises ValueError when the variable is set to a non-integer.
    """
    raw = os.environ.get("FIGLEX_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"FIGLEX_THREADS must be an integer, got {raw!r}") from None


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class RunConfig:
    corpus: str = ""
    lexicon: str = ""
    vad_lexicon: str = ""
    out: str = ""
    seed: int = 0
    groups: tuple[str, str] | None = None
    min_count: int = 50
    literality_threshold: float = 0.25
    rbo_depth: int = 100
    n_splits: int = 500
    baseline_n: int = 100
    train: TrainParams = field(default_factory=TrainParams)

    def out_path(self, name: str) -> Path:
        return Path(self.out) / name


# Every config key with its value type and flag help, in flag order.  Keys
# that are not RunConfig fields go to TrainParams, renamed by _TRAIN_RENAME.
_CONFIG_KEYS: dict[str, tuple[type, str | None]] = {
    "corpus": (str, "corpus JSONL path"),
    "lexicon": (str, "lexicon JSONL path"),
    "vad_lexicon": (str, "VAD ratings CSV path"),
    "out": (str, "output directory"),
    "seed": (int, None),
    "groups": (str, "comma-separated pair of group labels"),
    "min_count": (int, None),
    "literality_threshold": (float, None),
    "rbo_depth": (int, None),
    "n_splits": (int, None),
    "baseline_n": (int, None),
    "dim": (int, None),
    "window": (int, None),
    "negatives": (int, None),
    "epochs": (int, None),
    "train_min_count": (int, None),
    "initial_lr": (float, None),
}
_TRAIN_RENAME = {"train_min_count": "min_count"}


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
            values[key.strip()] = value.strip()
    return values


def build_config(file_values: dict[str, str], overrides: dict[str, object]) -> RunConfig:
    merged: dict[str, object] = dict(file_values)
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value

    config = RunConfig()
    train_kwargs: dict[str, object] = {}
    for key, value in merged.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        kind = _CONFIG_KEYS[key][0]
        if kind is not str:
            value = kind(value)
        if not hasattr(config, key):
            train_kwargs[_TRAIN_RENAME.get(key, key)] = value
        elif key == "groups":
            if isinstance(value, str):
                parts = tuple(p.strip() for p in value.split(",") if p.strip())
            else:
                parts = tuple(value)  # type: ignore[arg-type]
            if len(parts) != 2:
                raise ValueError("groups must name exactly two labels")
            config.groups = parts  # type: ignore[assignment]
        else:
            setattr(config, key, value)
    config.train = TrainParams(seed=config.seed, **train_kwargs)  # type: ignore[arg-type]

    if config.min_count < 0:
        raise ValueError("min_count must be nonnegative (0 disables pruning)")
    for key in ("rbo_depth", "n_splits"):
        if getattr(config, key) <= 0:
            raise ValueError(f"{key} must be positive")
    if config.literality_threshold <= 0:
        raise ValueError("literality_threshold must be positive")
    if config.baseline_n < 0:
        raise ValueError("baseline_n must be nonnegative")
    return config


def _write_json(path: Path, payload: object) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _num(value: float | None) -> float | str:
    if value is None:
        return ""
    return float(value)


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------

def cmd_prepare(config: RunConfig) -> None:
    """Load inputs, balance groups, expand/match/prune the lexicon, train the
    combined embedding space, apply the literality filter, and write the
    prepared artifacts.

    Nothing is written unless every stage succeeds.
    """
    stage = "load"
    try:
        if not config.corpus or not config.lexicon or not config.out:
            raise ValueError("corpus, lexicon and out must be configured")
        corpus = load_corpus(config.corpus, group_labels=config.groups)
        lexicon = load_lexicon(config.lexicon)
        if len(lexicon) == 0:
            raise ValueError("lexicon is empty")

        stage = "balance"
        balanced = balance_groups(corpus, config.seed)

        stage = "count"
        matcher = build_matcher(lexicon)
        counts = count_usages(matcher, balanced)

        stage = "prune"
        pruned = prune_variants(lexicon, counts, config.min_count)
        del counts  # unused from here on: free it, streams included, before training

        stage = "embed"
        pruned_matcher = build_matcher(pruned)
        space = train_sgns(
            [rewrite_with_idiom_tokens(pruned_matcher, list(p.tokens)) for p in balanced.posts],
            config.train,
        )

        stage = "literality"
        filtered, literality_rows = filter_literal(pruned, space, config.literality_threshold)
        if len(filtered) == 0:
            raise ValueError("literality filter removed every entry")

        stage = "recount"
        final_matcher = build_matcher(filtered)
        final_counts = count_usages(final_matcher, balanced)

        stage = "write"
        out = Path(config.out)
        out.mkdir(parents=True, exist_ok=True)
        save_corpus(balanced, str(config.out_path("corpus_balanced.jsonl")))
        save_lexicon(filtered, str(config.out_path("lexicon_filtered.jsonl")))
        groups = final_counts.groups
        _write_csv(config.out_path("counts_idioms.csv"), ["canonical", "group", "count"],
                   ([c, g, final_counts.idiom_counts[c][g]]
                    for c in sorted(final_counts.idiom_counts) for g in groups))
        _write_csv(config.out_path("counts_tokens.csv"), ["token", "group", "count"],
                   ([t, g, final_counts.token_counts[t][g]]
                    for t in sorted(final_counts.token_counts) for g in groups))
        save_vectors(space, str(config.out_path("vectors_combined.txt")))
        _write_csv(config.out_path("literality_report.csv"),
                   ["canonical", "literality", "status", "note"],
                   ([key, _num(score), status, note]
                    for key, score, status, note in sorted(literality_rows)))
        totals = balanced.totals()
        _write_json(
            config.out_path("prepare_meta.json"),
            {
                "seed": config.seed,
                "min_count": config.min_count,
                "literality_threshold": config.literality_threshold,
                "group_labels": list(balanced.group_labels),
                "balanced_totals": totals,
                "entries_after_prune": len(pruned),
                "entries_after_literality": len(filtered),
                "train": {k: v for k, v in asdict(config.train).items() if k != "seed"},
            },
        )
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, exc) from exc


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _require_artifact(config: RunConfig, name: str) -> Path:
    path = config.out_path(name)
    if not path.exists():
        raise FileNotFoundError(f"missing artifact {path}; run prepare first")
    return path


def cmd_analyze(config: RunConfig) -> None:
    """Run every analysis over the prepared artifacts and emit the report
    data files.

    Stages run in order; on failure, completed outputs are retained and a
    failure marker names the broken stage.  The failure marker and report
    files of an earlier run are removed first: they would no longer
    describe the artifacts beside them.
    """
    warnings: list[str] = []
    for name in ("failure.json", "report.json", "report.csv"):
        config.out_path(name).unlink(missing_ok=True)
    stage = "load"
    try:
        corpus = load_corpus(str(_require_artifact(config, "corpus_balanced.jsonl")))
        lexicon = load_lexicon(str(_require_artifact(config, "lexicon_filtered.jsonl")))
        space = load_vectors(str(_require_artifact(config, "vectors_combined.txt")))
        if not config.vad_lexicon:
            raise ValueError("vad_lexicon must be configured for analyze")
        vad = load_vad_lexicon(config.vad_lexicon)

        group_a, group_b = sorted(corpus.group_labels)

        stage = "divergence"
        matcher = build_matcher(lexicon)
        counts = count_usages(matcher, corpus)
        divergence = divergence_gap_test(corpus, counts, config.n_splits, config.seed)
        _write_json(
            config.out_path("divergence.json"),
            {
                "cross_jsd": divergence.cross_jsd,
                "baseline_mean": divergence.baseline_mean,
                "baseline_std": divergence.baseline_std,
                "baseline_max": divergence.baseline_max,
                "n_splits": divergence.n_splits,
                "p_empirical": divergence.p_value,
                "z_normal_fit": divergence.z,
                "log_base": 2,
            },
        )

        stage = "gscore"
        table = log_odds_dirichlet(
            counts.tokens_for(group_a), counts.tokens_for(group_b), counts.combined_tokens()
        )
        _write_csv(config.out_path("gscore_tokens.csv"), ["token", "delta", "sigma", "z"],
                   ([token, _num(rec.delta), _num(rec.sigma), _num(rec.z)]
                    for token, rec in sorted(table.records.items())))

        idiom_rows = []
        for canonical in lexicon.canonicals():
            entry = lexicon.get(canonical)
            tok = idiom_token(canonical)
            gi = table.z(tok) if tok in table else None
            try:
                gs = gscore_surface(entry, table)
            except ValueError:
                gs = None
            try:
                gd = gscore_definition(entry, table)
            except ValueError:
                gd = None
            idiom_rows.append(
                {
                    "canonical": canonical,
                    "gscore": gi,
                    "gscore_surface": gs,
                    "gscore_definition": gd,
                    f"count_{group_a}": counts.idiom_counts[canonical][group_a],
                    f"count_{group_b}": counts.idiom_counts[canonical][group_b],
                }
            )
        idiom_rows.sort(key=lambda r: r["canonical"])
        _write_csv(config.out_path("gscore_idioms.csv"),
                   ["canonical", "gscore", "gscore_surface", "gscore_definition",
                    f"count_{group_a}", f"count_{group_b}"],
                   ([row["canonical"], _num(row["gscore"]),
                     _num(row["gscore_surface"]), _num(row["gscore_definition"]),
                     row[f"count_{group_a}"], row[f"count_{group_b}"]] for row in idiom_rows))

        paired_s = [(r["gscore"], r["gscore_surface"]) for r in idiom_rows
                    if r["gscore"] is not None and r["gscore_surface"] is not None]
        paired_d = [(r["gscore"], r["gscore_definition"]) for r in idiom_rows
                    if r["gscore"] is not None and r["gscore_definition"] is not None]
        rho_s = spearman([p[0] for p in paired_s], [p[1] for p in paired_s])
        rho_d = spearman([p[0] for p in paired_d], [p[1] for p in paired_d])
        _write_json(
            config.out_path("spearman.json"),
            {
                "surface": {"rho": rho_s.statistic, "p_value": rho_s.p_value, "n": rho_s.n_a},
                "definition": {"rho": rho_d.statistic, "p_value": rho_d.p_value, "n": rho_d.n_a},
            },
        )

        stage = "affect"
        models = train_vad_models(space, vad)
        save_vad_models(models, str(config.out_path("vad_models.json")))

        def embedder(tokens):
            return sentence_embedding(space, tokens)

        scores = score_definitions(lexicon, embedder, models)
        _write_csv(config.out_path("vad_scores.csv"), ["canonical", *DIMENSIONS],
                   ([canonical, *map(_num, values)]
                    for canonical, values in sorted(scores.values.items())))

        series_a = usage_vad_series(counts, scores, group_a)
        series_b = usage_vad_series(counts, scores, group_b)
        comparison = compare_vad(series_a, series_b)
        _write_comparison_csv(config.out_path("vad_comparison.csv"), comparison, group_a, group_b)

        kde_rows = []
        for series_set in (series_a, series_b):
            for series in series_set:
                try:
                    curve = kde(series.values)
                except ValueError as exc:
                    warnings.append(f"kde skipped for {series.dimension}/{series.group}: {exc}")
                    continue
                for x, density in zip(curve.x, curve.density):
                    kde_rows.append([series.dimension, series.group, _num(x), _num(density)])
        _write_csv(config.out_path("kde_curves.csv"), ["dimension", "group", "x", "density"],
                   kde_rows)

        literal = literal_baseline(
            corpus, counts, embedder, models, config.baseline_n, config.seed
        )
        literal_cmp = compare_vad(literal[group_a], literal[group_b])
        _write_comparison_csv(
            config.out_path("literal_baseline.csv"), literal_cmp, group_a, group_b
        )

        stage = "embeddings"
        seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(config.seed).spawn(2)]
        # each group's streams as count_usages rewrote them: nothing is matched again
        jobs = {g: ([stream for stream, post in zip(counts.streams, corpus.posts)
                     if post.group == g], replace(config.train, seed=s))
                for g, s in zip((group_a, group_b), seeds)}
        del counts  # only its streams, now in jobs, are used from here on
        spaces: dict[str, EmbeddingSpace] = {}
        if thread_cap() >= 2:
            # Group b trains in a worker while group a trains here; each space
            # has its own seed, so the vectors are the serial ones.  fork lets
            # the worker inherit numpy and scipy instead of importing them
            # again.  Serial runs never import the pool modules.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            fork = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=1, mp_context=fork) as pool:
                future_b = pool.submit(train_sgns, *jobs[group_b])
                spaces[group_a] = train_sgns(*jobs[group_a])
                spaces[group_b] = future_b.result()
        for group in (group_a, group_b):
            if group not in spaces:
                spaces[group] = train_sgns(*jobs[group])
            save_vectors(spaces[group], str(config.out_path(f"vectors_{group}.txt")))

        depth = config.rbo_depth
        rbo_rows = []
        neighbor_rows = []
        for canonical in lexicon.canonicals():
            tok = idiom_token(canonical)
            if any(tok not in spaces[g] or len(spaces[g].vocab) - 1 < depth
                   for g in (group_a, group_b)):
                continue
            lists = {}
            for g in (group_a, group_b):
                ranked = nearest_neighbors(spaces[g], tok, depth)
                lists[g] = [t for t, _ in ranked.neighbors]
                for rank, (t, cos) in enumerate(ranked.neighbors[:NEIGHBORS_PER_IDIOM], start=1):
                    neighbor_rows.append([canonical, g, rank, t, cos])
            rbo_rows.append([canonical, sim_rbo(lists[group_a], lists[group_b], depth)])
        rbo_rows.sort(key=lambda r: (r[1], r[0]))
        _write_csv(config.out_path("simrbo.csv"), ["canonical", "simrbo"],
                   ([canonical, _num(value)] for canonical, value in rbo_rows))
        _write_csv(config.out_path("neighbors.csv"),
                   ["canonical", "group", "rank", "token", "cosine"],
                   ([canonical, g, rank, t, _num(cos)]
                    for canonical, g, rank, t, cos in sorted(neighbor_rows)))
        if not rbo_rows:
            warnings.append(
                f"no idiom token present in both group vocabularies with {depth} neighbors"
            )

        stage = "figures"
        fig_rows = []
        for row in idiom_rows:
            total = row[f"count_{group_a}"] + row[f"count_{group_b}"]
            if total > 0 and row["gscore"] is not None:
                fig_rows.append([row["canonical"], _num(math.log10(total)), _num(row["gscore"])])
        _write_csv(config.out_path("fig_gscore_vs_count.csv"),
                   ["canonical", "log10_count", "gscore"], fig_rows)

        _write_json(
            config.out_path("run_meta.json"),
            {
                "seed": config.seed,
                "group_labels": [group_a, group_b],
                "positive_group": group_a,
                "thresholds": {
                    "min_count": config.min_count,
                    "literality_threshold": config.literality_threshold,
                    "rbo_depth": config.rbo_depth,
                    "n_splits": config.n_splits,
                    "baseline_n": config.baseline_n,
                },
                "jsd_log_base": 2,
                "divergence_p": "empirical (r+1)/(n+1) over pooled within-group splits; "
                                "z from a normal fit to the same baseline",
                "significance_stars": {"*": "p<.01", "**": "p<.001"},
                "warnings": warnings,
            },
        )
    except StageError:
        raise
    except Exception as exc:
        err = StageError(stage, exc)
        out = Path(config.out)
        if out.is_dir():
            _write_json(config.out_path("failure.json"), {"stage": stage, "error": str(exc)})
        raise err from exc


def _write_comparison_csv(path: Path, comparison, group_a: str, group_b: str) -> None:
    _write_csv(path, ["dimension", f"mean_{group_a}", f"mean_{group_b}",
                      "cohens_d", "p_value", "stars", f"n_{group_a}", f"n_{group_b}"],
               ([row.dimension, _num(row.mean_a), _num(row.mean_b), _num(row.cohens_d),
                 _num(row.p_value), row.stars, row.n_a, row.n_b] for row in comparison))


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _maybe_float(text: str) -> float | int | str | None:
    if text == "":
        return None
    try:
        as_int = int(text)
        return as_int
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def build_report(config: RunConfig) -> dict:
    """Assemble the consolidated report document from analyze artifacts;
    refuse them if the last analyze run failed (they would mix two runs)."""
    failure = config.out_path("failure.json")
    if failure.exists():
        failed = json.loads(failure.read_text("utf-8")).get("stage")
        raise ValueError(f"analyze failed at stage {failed!r} ({failure}); rerun analyze")
    meta = json.loads(_require_artifact(config, "run_meta.json").read_text("utf-8"))
    divergence = json.loads(_require_artifact(config, "divergence.json").read_text("utf-8"))
    spearman_doc = json.loads(_require_artifact(config, "spearman.json").read_text("utf-8"))

    def rows(name: str) -> list[dict]:
        return [
            {k: _maybe_float(v) for k, v in row.items()}
            for row in _read_csv(_require_artifact(config, name))
        ]

    kde_rows = rows("kde_curves.csv")
    curves: dict[tuple[str, str], dict] = {}
    for row in kde_rows:
        key = (str(row["dimension"]), str(row["group"]))
        curve = curves.setdefault(
            key, {"dimension": key[0], "group": key[1], "x": [], "density": []}
        )
        curve["x"].append(row["x"])
        curve["density"].append(row["density"])

    return {
        "metadata": meta,
        "divergence": divergence,
        "spearman": spearman_doc,
        "gscore_idioms": rows("gscore_idioms.csv"),
        "vad_comparison": rows("vad_comparison.csv"),
        "literal_baseline": rows("literal_baseline.csv"),
        "simrbo": rows("simrbo.csv"),
        "figures": {
            "gscore_vs_count": rows("fig_gscore_vs_count.csv"),
            "kde": [curves[k] for k in sorted(curves)],
        },
    }


def flatten_report(doc: object, prefix: str = "") -> list[tuple[str, str]]:
    """Depth-first (path, json-scalar) rows; shared by the CSV export and
    the cross-format equality tests."""
    rows: list[tuple[str, str]] = []
    if isinstance(doc, dict):
        for key in sorted(doc):
            rows.extend(flatten_report(doc[key], f"{prefix}{key}."))
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            rows.extend(flatten_report(item, f"{prefix}{i}."))
    else:
        rows.append((prefix.rstrip("."), json.dumps(doc)))
    return rows


def cmd_report(config: RunConfig, format: str) -> None:
    """Write the consolidated bundle as report.json or report.csv."""
    stage = "report"
    try:
        if format not in ("csv", "json"):
            raise ValueError(f"unknown format {format!r}")
        doc = build_report(config)
        if format == "json":
            _write_json(config.out_path("report.json"), doc)
        else:
            _write_csv(config.out_path("report.csv"), ["path", "value"], flatten_report(doc))
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, exc) from exc


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a 'key = value' config file")
    for key, (kind, help_text) in _CONFIG_KEYS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=kind, help=help_text)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {k: getattr(args, k, None) for k in _CONFIG_KEYS}
    return build_config(file_values, overrides)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="figlex",
        description="Contrast two author groups' idiomatic language usage.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("prepare", "build the filtered lexicon, counts, and combined embeddings"),
        ("analyze", "run all group-contrast analyses over prepared artifacts"),
        ("report", "export the consolidated report bundle"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_common_flags(p)
        if name == "report":
            p.add_argument("--format", choices=("csv", "json"), required=True)

    args = parser.parse_args(argv)
    try:
        thread_cap()
        config = _config_from_args(args)
    except (OSError, ValueError) as exc:  # config and usage problems
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "prepare":
            cmd_prepare(config)
        elif args.command == "analyze":
            cmd_analyze(config)
        else:
            cmd_report(config, args.format)
    except StageError as exc:
        print(f"error in {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
