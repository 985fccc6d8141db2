"""Pipeline orchestration: prepare, analyze, and report subcommands.

Configuration is a line-oriented ``key = value`` file (see `figlex.config`);
every key can be overridden by a command-line flag of the same name.  Each
subcommand imports the library modules it runs when it is called, so
argument parsing, ``--help`` and ``report`` load only this module and
`figlex.config`.  No command loads numpy.  All outputs are plain CSV/JSON
data files, reproducible byte-for-byte from (inputs, config, seed).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Iterable, Sequence

from .config import _CONFIG_KEYS, RunConfig, _key_type, build_config, parse_config_file

NEIGHBORS_PER_IDIOM = 10
# The files that describe one analyze run of the prepared artifacts beside
# them.  prepare and analyze remove them before they write anything, so
# report never reads a run of other artifacts.
_ANALYZE_RECORDS = ("run_meta.json", "failure.json", "report.json", "report.csv")


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause


def _write_json(path: Path, payload: object) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
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


def _prepared_settings(config: RunConfig) -> dict[str, object]:
    """The settings that `prepare_meta.json` records, which `analyze` shares."""
    return {"seed": config.seed, "min_count": config.min_count,
            "literality_threshold": config.literality_threshold,
            "train": {k: v for k, v in asdict(config.train).items() if k != "seed"}}


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------

def cmd_prepare(config: RunConfig) -> None:
    """Load inputs, balance groups, expand/match/prune the lexicon, train the
    combined embedding space, apply the literality filter, and write the
    prepared artifacts.

    Nothing is written unless every stage succeeds.
    """
    from .corpus import balance_groups, load_corpus
    from .embeddings import save_vectors, train_sgns
    from .lexicon import filter_literal, load_lexicon, prune_variants, save_lexicon
    from .matcher import build_matcher, count_usages, recount, save_streams

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

        # the smaller lexicons' counts are derived from this one: only a post
        # that selected a dropped surface form is matched again
        stage = "prune"
        pruned = prune_variants(lexicon, counts, config.min_count)
        pruned_matcher = build_matcher(pruned)
        counts = recount(counts, matcher, pruned_matcher, balanced)

        stage = "embed"
        space = train_sgns(counts.streams, config.train)

        stage = "literality"
        filtered, literality_rows = filter_literal(pruned, space, config.literality_threshold)
        if len(filtered) == 0:
            raise ValueError("literality filter removed every entry")

        stage = "recount"
        final_counts = recount(counts, pruned_matcher, build_matcher(filtered), balanced)

        stage = "write"
        out = Path(config.out)
        out.mkdir(parents=True, exist_ok=True)
        for name in _ANALYZE_RECORDS:
            config.out_path(name).unlink(missing_ok=True)
        save_streams(final_counts, str(config.out_path("streams_balanced.tsv")))
        save_lexicon(filtered, str(config.out_path("lexicon_filtered.jsonl")))
        groups = final_counts.groups
        _write_csv(config.out_path("counts_idioms.csv"), ["canonical", "group", "count"],
                   ([c, g, final_counts.idiom_counts[c][g]]
                    for c in sorted(final_counts.idiom_counts) for g in groups))
        tokens = {g: final_counts.tokens_for(g) for g in groups}
        _write_csv(config.out_path("counts_tokens.csv"), ["token", "group", "count"],
                   ([t, g, tokens[g][t]]
                    for t in sorted(set().union(*tokens.values())) for g in groups))
        save_vectors(space, str(config.out_path("vectors_combined.txt")))
        _write_csv(config.out_path("literality_report.csv"),
                   ["canonical", "literality", "status", "note"],
                   ([key, _num(score), status, note]
                    for key, score, status, note in sorted(literality_rows)))
        _write_json(
            config.out_path("prepare_meta.json"),
            {
                **_prepared_settings(config),
                "group_labels": list(balanced.group_labels),
                "balanced_totals": final_counts.totals(),
                "entries_after_prune": len(pruned),
                "entries_after_literality": len(filtered),
            },
        )
    except Exception as exc:
        raise StageError(stage, exc) from exc


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _require_artifact(config: RunConfig, name: str, writer: str) -> Path:
    path = config.out_path(name)
    if not path.exists():
        raise FileNotFoundError(f"missing artifact {path}; run {writer} first")
    return path


def cmd_analyze(config: RunConfig) -> None:
    """Run every analysis over the prepared artifacts and emit the report
    data files.

    Stages run in order; on failure, completed outputs are retained and a
    failure marker names the broken stage.  The failure marker and report
    files of an earlier run are removed first: they would no longer
    describe the artifacts beside them.
    """
    from ._kernels import seed_words
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
    from .embeddings import load_vectors, save_vectors, train_sgns
    from .lexicon import load_lexicon
    from .matcher import load_streams
    from .stats import (
        divergence_gap_test,
        idiom_scores,
        kde,
        log_odds_dirichlet,
        neighborhood_overlap,
        spearman,
    )

    warnings: list[str] = []
    stage = "load"
    try:
        for name in _ANALYZE_RECORDS:
            config.out_path(name).unlink(missing_ok=True)
        # refuse artifacts that prepare made with other settings
        meta = _require_artifact(config, "prepare_meta.json", "prepare")
        prepared = json.loads(meta.read_text("utf-8"))
        prepared["groups"] = sorted(prepared["group_labels"])
        for key, value in {**_prepared_settings(config),
                           "groups": sorted(config.groups or prepared["groups"])}.items():
            if prepared.get(key) != value:
                raise ValueError(f"{key} is {value!r} here but {prepared.get(key)!r} in "
                                 f"{meta.name}; run prepare with this config first")
        lexicon = load_lexicon(str(_require_artifact(config, "lexicon_filtered.jsonl", "prepare")))
        # the posts as prepare matched them, in the order of their rows
        streams = _require_artifact(config, "streams_balanced.tsv", "prepare")
        try:
            counts = load_streams(str(streams), prepared["group_labels"], lexicon)
        except ValueError as exc:
            raise ValueError(f"{streams.name}: {exc}") from None
        if counts.totals() != prepared["balanced_totals"]:
            raise ValueError(f"{streams.name} holds {counts.totals()} posts and tokens per "
                             f"group but {meta.name} records {prepared['balanced_totals']}")
        space = load_vectors(str(_require_artifact(config, "vectors_combined.txt", "prepare")))
        if not config.vad_lexicon:
            raise ValueError("vad_lexicon must be configured for analyze")
        vad = load_vad_lexicon(config.vad_lexicon)

        group_a, group_b = sorted(counts.groups)

        stage = "divergence"
        divergence = divergence_gap_test(counts, config.n_splits, config.seed)
        _write_json(
            config.out_path("divergence.json"),
            {
                "cross_jsd": divergence.cross_jsd,
                "baseline_mean": divergence.baseline_mean,
                "baseline_std": divergence.baseline_std,
                "baseline_max": divergence.baseline_max,
                "n_splits": divergence.n_splits,
                "p_empirical": divergence.p_value,
                "z_normal_fit": divergence.z if math.isfinite(divergence.z) else None,
                "log_base": 2,
            },
        )
        if not math.isfinite(divergence.z):
            warnings.append(f"divergence z is {divergence.z} (the split baseline has no spread); "
                            "z_normal_fit is null")

        stage = "gscore"
        tokens_a, tokens_b = counts.tokens_for(group_a), counts.tokens_for(group_b)
        table = log_odds_dirichlet(tokens_a, tokens_b, tokens_a + tokens_b)
        _write_csv(config.out_path("gscore_tokens.csv"), ["token", "delta", "sigma", "z"],
                   ([token, _num(rec.delta), _num(rec.sigma), _num(rec.z)]
                    for token, rec in sorted(table.items())))

        idiom_rows = idiom_scores(lexicon, table)
        usage = counts.idiom_counts
        _write_csv(config.out_path("gscore_idioms.csv"),
                   ["canonical", "gscore", "gscore_surface", "gscore_definition",
                    f"count_{group_a}", f"count_{group_b}"],
                   ([c, *map(_num, zs), usage[c][group_a], usage[c][group_b]]
                    for c, *zs in idiom_rows))
        rho = {}
        for name, column in (("surface", 2), ("definition", 3)):
            paired = [r for r in idiom_rows if r[1] is not None and r[column] is not None]
            test = spearman([r[1] for r in paired], [r[column] for r in paired])
            rho[name] = {"rho": test.statistic, "p_value": test.p_value, "n": test.n_a}
        _write_json(config.out_path("spearman.json"), rho)

        del table, tokens_a, tokens_b  # not read again: free them before the affect peak
        stage = "affect"
        models = train_vad_models(space, vad)
        save_vad_models(models, str(config.out_path("vad_models.json")))
        scores = score_definitions(lexicon, space, models)
        _write_csv(config.out_path("vad_scores.csv"), ["canonical", *DIMENSIONS],
                   ([canonical, *map(_num, values)]
                    for canonical, values in sorted(scores.items())))

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

        literal = literal_baseline(counts, space, models, config.baseline_n, config.seed)
        literal_cmp = compare_vad(literal[group_a], literal[group_b])
        _write_comparison_csv(
            config.out_path("literal_baseline.csv"), literal_cmp, group_a, group_b
        )

        # Each group space trains on its streams as prepare rewrote them,
        # with its own child seed; the sorted labels take the seeds in order.
        stage = "embeddings"
        seeds = [seed_words(config.seed, (k,))[0] & 0xFFFFFFFF for k in range(2)]
        spaces = {g: train_sgns(counts.streams_for(g), replace(config.train, seed=s))
                  for g, s in zip((group_a, group_b), seeds)}
        for group, space in spaces.items():
            save_vectors(space, str(config.out_path(f"vectors_{group}.txt")))

        overlaps = neighborhood_overlap(spaces, lexicon.canonicals(), config.rbo_depth)
        _write_csv(config.out_path("simrbo.csv"), ["canonical", "simrbo"],
                   ([o.canonical, _num(o.simrbo)]
                    for o in sorted(overlaps, key=lambda o: (o.simrbo, o.canonical))))
        neighbor_rows = sorted(
            (o.canonical, g, rank, t, cos)
            for o in overlaps for g, ranked in o.neighbors.items()
            for rank, (t, cos) in enumerate(ranked[:NEIGHBORS_PER_IDIOM], start=1))
        _write_csv(config.out_path("neighbors.csv"),
                   ["canonical", "group", "rank", "token", "cosine"],
                   ([canonical, g, rank, t, _num(cos)]
                    for canonical, g, rank, t, cos in neighbor_rows))
        if not overlaps:
            warnings.append(f"no idiom token present in both group vocabularies "
                            f"with {config.rbo_depth} neighbors")

        stage = "figures"
        _write_csv(config.out_path("fig_gscore_vs_count.csv"),
                   ["canonical", "log10_count", "gscore"],
                   ([c, _num(math.log10(n)), _num(z)] for c, z, *_ in idiom_rows
                    if z is not None and (n := sum(usage[c].values())) > 0))

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
                "vad_fits": {dim: {"n_iter": m.n_iter, "mean_log_likelihood": m.ll_history[-1],
                                   "grad_max_norm": m.grad_norm}
                             for dim, m in models.items()},
                "warnings": warnings,
            },
        )
    except Exception as exc:
        if config.out and Path(config.out).is_dir():
            _write_json(config.out_path("failure.json"), {"stage": stage, "error": str(exc)})
        raise StageError(stage, exc) from exc


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


# Columns of label text: a label such as "01" or "1_0" is not a number.
_LABEL_COLUMNS = frozenset({"canonical", "dimension", "group", "stars"})


def _cell(column: str, text: str) -> float | int | str | None:
    """A CSV cell as a report value: empty is null, a label column keeps its
    text, and any other cell becomes an int or a float where it parses as one."""
    if text == "":
        return None
    if column in _LABEL_COLUMNS:
        return text
    try:
        return int(text)
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

    def doc(name: str) -> dict:
        return json.loads(_require_artifact(config, name, "analyze").read_text("utf-8"))

    def rows(name: str) -> list[dict]:
        return [
            {k: _cell(k, v) for k, v in row.items()}
            for row in _read_csv(_require_artifact(config, name, "analyze"))
        ]

    meta = doc("run_meta.json")  # analyze writes it last

    kde_rows = rows("kde_curves.csv")
    curves: dict[tuple[str, str], dict] = {}
    for row in kde_rows:
        key = (row["dimension"], row["group"])
        curve = curves.setdefault(
            key, {"dimension": key[0], "group": key[1], "x": [], "density": []}
        )
        curve["x"].append(row["x"])
        curve["density"].append(row["density"])

    return {
        "metadata": meta,
        "divergence": doc("divergence.json"),
        "spearman": doc("spearman.json"),
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
    except Exception as exc:
        raise StageError(stage, exc) from exc


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a 'key = value' config file")
    for key, f in _CONFIG_KEYS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=_key_type(f),
                            help=f.metadata.get("help"))


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {k: getattr(args, k, None) for k in _CONFIG_KEYS}
    return build_config(file_values, overrides)


def main(argv: list[str] | None = None) -> int:
    # allow_abbrev=False: a flag is its whole key, as in the config file
    parser = argparse.ArgumentParser(
        prog="figlex",
        description="Contrast two author groups' idiomatic language usage.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("prepare", "build the filtered lexicon, counts, and combined embeddings"),
        ("analyze", "run all group-contrast analyses over prepared artifacts"),
        ("report", "export the consolidated report bundle"),
    ):
        p = sub.add_parser(name, help=doc, allow_abbrev=False)
        _add_common_flags(p)
        if name == "report":
            p.add_argument("--format", choices=("csv", "json"), required=True)

    args = parser.parse_args(argv)
    try:
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
