import csv
import json
import math
import re
import shutil
import threading
import time
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

import figlex.affect
import figlex.cli
import figlex.embeddings
import figlex.matcher
import figlex.stats
from figlex.cli import (
    RunConfig,
    StageError,
    build_config,
    build_report,
    cmd_analyze,
    cmd_prepare,
    cmd_report,
    flatten_report,
    main,
    parse_config_file,
)
from figlex.corpus import balance_groups, load_corpus
from figlex.embeddings import save_vectors, setup_sgns, train_sgns
from figlex.lexicon import load_lexicon
from figlex.matcher import build_matcher, count_usages

from conftest import DATA_DIR, run_python, write_jsonl


TINY_LEXICON = [
    {"canonical": "over the moon", "definition": "to be extremely happy"},
    {"canonical": "pick a fight", "definition": "to start an argument",
     "verb_index": 0},
]

TINY_CORPUS = [
    {"author_id": "m1", "group": "M", "text": "he picked a fight"},
    {"author_id": "m2", "group": "M", "text": "a fight broke out"},
    {"author_id": "m3", "group": "M", "text": "we saw the moon"},
    {"author_id": "f1", "group": "F", "text": "she was over the moon"},
    {"author_id": "f2", "group": "F", "text": "over the moon again"},
    {"author_id": "f3", "group": "F", "text": "picking a fight"},
]


def tiny_overrides(tmp_path, **extra):
    corpus = write_jsonl(tmp_path / "corpus.jsonl", TINY_CORPUS)
    lexicon = write_jsonl(tmp_path / "lexicon.jsonl", TINY_LEXICON)
    overrides = {
        "corpus": str(corpus),
        "lexicon": str(lexicon),
        "out": str(tmp_path / "out"),
        "seed": 5,
        "min_count": 0,
        "literality_threshold": 1.0,
        "dim": 8,
        "window": 2,
        "epochs": 2,
        "train_min_count": 1,
    }
    overrides.update(extra)
    return overrides


def flags(overrides):
    """`overrides` as command-line flags."""
    return [arg for key, value in overrides.items()
            for arg in (f"--{key.replace('_', '-')}", str(value))]


MEDIUM_LEXICON = TINY_LEXICON + [
    {"canonical": "sit on the fence", "definition": "to avoid taking sides",
     "verb_index": 0},
]


def medium_inputs(tmp_path, skewed=True, seed=0):
    """Generated two-group corpus with enough posts for every analyze stage."""
    rng = np.random.default_rng(seed)
    pools = {
        "sports": ["game", "team", "score", "win", "match", "coach"],
        "family": ["family", "friend", "baby", "party", "gift", "dinner"],
        "feel": ["happy", "sad", "angry", "calm", "proud", "tired",
                 "extremely", "argument", "start", "avoid", "taking", "sides"],
    }
    # surface/function words in ordinary use, so idiom constituents keep
    # their own table entries after spans are rewritten
    common = ["the", "a", "on", "it", "was", "moon", "fight", "fence",
              "sit", "pick", "over"]
    idioms = ["pick a fight", "over the moon", "sit on the fence"]
    records = []
    for group in ("M", "F"):
        if skewed:
            weights = [0.60, 0.15, 0.25] if group == "M" else [0.15, 0.60, 0.25]
        else:
            weights = [0.375, 0.375, 0.25]
        for i in range(120):
            topic = list(pools)[int(rng.integers(0, 3))]
            words = [
                pools[topic][int(rng.integers(0, len(pools[topic])))]
                if rng.random() < 0.7
                else common[int(rng.integers(0, len(common)))]
                for _ in range(10)
            ]
            if rng.random() < 0.55:
                idiom = idioms[int(rng.choice(3, p=weights))]
                at = int(rng.integers(0, len(words) + 1))
                words = words[:at] + idiom.split() + words[at:]
            records.append({"author_id": f"{group}{i}", "group": group,
                            "text": " ".join(words)})
    corpus = write_jsonl(tmp_path / "corpus.jsonl", records)
    lexicon = write_jsonl(tmp_path / "lexicon.jsonl", MEDIUM_LEXICON)
    vad_rows = ["word,valence,arousal,dominance"]
    for w in pools["feel"] + pools["sports"] + pools["family"]:
        v, a, d = rng.uniform(0.15, 0.85, size=3)
        vad_rows.append(f"{w},{v:.3f},{a:.3f},{d:.3f}")
    vad = tmp_path / "vad.csv"
    vad.write_text("\n".join(vad_rows) + "\n")
    return {
        "corpus": str(corpus),
        "lexicon": str(lexicon),
        "vad_lexicon": str(vad),
        "out": str(tmp_path / "out"),
        "seed": 3,
        "min_count": 0,
        "literality_threshold": 1.0,
        "rbo_depth": 5,
        "n_splits": 40,
        "baseline_n": 5,
        "dim": 8,
        "window": 3,
        "epochs": 2,
        "train_min_count": 1,
    }


# Every config key, a non-default value of it as text, and the field it sets
KEY_VALUES = [
    ("corpus", "c.jsonl", "corpus", "c.jsonl"),
    ("lexicon", "l.jsonl", "lexicon", "l.jsonl"),
    ("vad_lexicon", "v.csv", "vad_lexicon", "v.csv"),
    ("out", "o", "out", "o"),
    ("seed", "7", "seed", 7),
    ("groups", "M,F", "groups", ("M", "F")),
    ("min_count", "3", "min_count", 3),
    ("literality_threshold", "0.5", "literality_threshold", 0.5),
    ("rbo_depth", "7", "rbo_depth", 7),
    ("n_splits", "9", "n_splits", 9),
    ("baseline_n", "4", "baseline_n", 4),
    ("dim", "16", "train.dim", 16),
    ("window", "3", "train.window", 3),
    ("negatives", "2", "train.negatives", 2),
    ("epochs", "2", "train.epochs", 2),
    ("train_min_count", "2", "train.min_count", 2),
    ("initial_lr", "0.05", "train.initial_lr", 0.05),
]
HELP_TEXTS = ("corpus JSONL path", "lexicon JSONL path", "VAD ratings CSV path",
              "output directory", "comma-separated pair of group labels")


class TestConfig:
    def test_file_and_overrides(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("# comment\nseed = 7\nmin_count = 10\ncorpus = a.jsonl\n")
        values = parse_config_file(str(conf))
        config = build_config(values, {"seed": 9, "out": "o"})
        assert config.seed == 9          # flag wins
        assert config.min_count == 10    # file value survives
        assert config.train.seed == 9

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config key"):
            build_config({"bogus": "1"}, {})

    def test_groups_parsing(self):
        config = build_config({"groups": "M, F"}, {})
        assert config.groups == ("M", "F")
        with pytest.raises(ValueError, match="two labels"):
            build_config({"groups": "M"}, {})

    @pytest.mark.parametrize("key", ["initial_lr", "literality_threshold"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_float_exits_two(self, tmp_path, capsys, key, value):
        overrides = tiny_overrides(tmp_path)
        conf = tmp_path / "run.conf"
        conf.write_text(f"{key} = {value}\n")
        argv = ["prepare", "--corpus", overrides["corpus"], "--lexicon", overrides["lexicon"],
                "--out", overrides["out"]]
        for extra in (["--" + key.replace("_", "-"), value], ["--config", str(conf)]):
            assert main(argv + extra) == 2
            assert f"{key} must be finite" in capsys.readouterr().err
        assert not Path(overrides["out"]).exists()

    def test_bad_line_reports_number(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("seed = 1\nnot a pair\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_config_file(str(conf))

    @pytest.mark.parametrize("key, text, attr, value", KEY_VALUES,
                             ids=[row[0] for row in KEY_VALUES])
    def test_key_sets_its_field(self, tmp_path, monkeypatch, key, text, attr, value):
        assert attrgetter(attr)(RunConfig()) != value
        seen = []
        monkeypatch.setattr(figlex.cli, "cmd_prepare", seen.append)
        conf = tmp_path / "run.conf"
        conf.write_text(f"{key} = {text}\n")
        assert main(["prepare", "--config", str(conf)]) == 0
        assert main(["prepare", "--" + key.replace("_", "-"), text]) == 0
        assert [attrgetter(attr)(config) for config in seen] == [value, value]

    def test_help_lists_every_key(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["prepare", "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        flags = re.findall(r"^  (--[a-z-]+)", out, re.MULTILINE)
        assert flags == ["--config"] + ["--" + row[0].replace("_", "-") for row in KEY_VALUES]
        for text in HELP_TEXTS:
            assert text in out

    @pytest.mark.parametrize("key, value, expected", [("seed", "abc", "an integer"),
                                                      ("dim", "1.5", "an integer"),
                                                      ("initial_lr", "fast", "a number")])
    def test_config_file_type_error_names_the_key(self, tmp_path, capsys, key, value, expected):
        conf = tmp_path / "run.conf"
        conf.write_text(f"{key} = {value}\n")
        assert main(["prepare", "--config", str(conf), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {key}: expected {expected}, got {value!r}\n"
        assert not (tmp_path / "out").exists()


class TestPrepare:
    def test_golden_counts_from_hand_trace(self, tmp_path):
        config = build_config({}, tiny_overrides(tmp_path))
        cmd_prepare(config)
        out = Path(config.out)
        got = (out / "counts_idioms.csv").read_text().splitlines()
        assert got == [
            "canonical,group,count",
            "over the moon,M,0",
            "over the moon,F,2",
            "pick a fight,M,1",
            "pick a fight,F,1",
        ]
        with open(out / "counts_tokens.csv", newline="") as fh:
            token_rows = {
                (r["token"], r["group"]): int(r["count"])
                for r in csv.DictReader(fh)
            }
        # "picked a fight" and "picking a fight" are rewritten, so "fight"
        # survives only in "a fight broke out"
        assert token_rows[("fight", "M")] == 1
        assert token_rows[("fight", "F")] == 0
        assert token_rows[("__idiom__over_the_moon", "F")] == 2
        assert token_rows[("__idiom__pick_a_fight", "M")] == 1

        lexicon_lines = (out / "lexicon_filtered.jsonl").read_text().splitlines()
        assert len(lexicon_lines) == 2
        report = (out / "literality_report.csv").read_text()
        assert "kept" in report

    def test_missing_corpus_no_partial_outputs(self, tmp_path):
        overrides = tiny_overrides(tmp_path)
        overrides["corpus"] = str(tmp_path / "nope.jsonl")
        config = build_config({}, overrides)
        with pytest.raises(StageError, match="stage load"):
            cmd_prepare(config)
        assert not Path(config.out).exists()

    def test_deterministic_outputs(self, tmp_path):
        overrides = tiny_overrides(tmp_path)
        config = build_config({}, overrides)
        cmd_prepare(config)
        first = {p.name: p.read_bytes() for p in Path(config.out).iterdir()}
        cmd_prepare(config)
        second = {p.name: p.read_bytes() for p in Path(config.out).iterdir()}
        assert first == second


class TestAnalyze:
    def test_requires_prepare_artifacts(self, tmp_path):
        overrides = medium_inputs(tmp_path)
        config = build_config({}, overrides)
        with pytest.raises(StageError, match="run prepare first"):
            cmd_analyze(config)

    def test_full_run_planted_signal(self, tmp_path):
        config = build_config({}, medium_inputs(tmp_path, skewed=True))
        cmd_prepare(config)
        cmd_analyze(config)
        out = Path(config.out)

        divergence = json.loads((out / "divergence.json").read_text())
        assert divergence["cross_jsd"] > divergence["baseline_mean"]["M"]
        assert divergence["z_normal_fit"] > 2

        with open(out / "gscore_idioms.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_name = {r["canonical"]: r for r in rows}
        # planted: M prefers "pick a fight"; positive scores favor F
        assert float(by_name["pick a fight"]["gscore"]) < 0
        assert float(by_name["over the moon"]["gscore"]) > 0

        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["positive_group"] == "F"
        assert meta["jsd_log_base"] == 2
        for name in ("vad_comparison.csv", "literal_baseline.csv", "simrbo.csv",
                     "kde_curves.csv", "vectors_M.txt", "vectors_F.txt",
                     "fig_gscore_vs_count.csv", "spearman.json"):
            assert (out / name).exists()

    def test_exchangeable_groups_no_signal(self, tmp_path):
        config = build_config({}, medium_inputs(tmp_path, skewed=False, seed=11))
        cmd_prepare(config)
        cmd_analyze(config)
        out = Path(config.out)
        divergence = json.loads((out / "divergence.json").read_text())
        assert abs(divergence["z_normal_fit"]) < 3
        with open(out / "vad_comparison.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            assert abs(float(row["cohens_d"])) < 0.25

    def test_failure_marker_names_stage(self, tmp_path):
        overrides = medium_inputs(tmp_path)
        config = build_config({}, overrides)
        cmd_prepare(config)
        vad_lexicon = config.vad_lexicon
        config.vad_lexicon = str(tmp_path / "missing.csv")
        with pytest.raises(StageError):
            cmd_analyze(config)
        marker = json.loads((Path(config.out) / "failure.json").read_text())
        assert marker["stage"] == "load"
        # a later successful run clears the stale marker
        config.vad_lexicon = vad_lexicon
        cmd_analyze(config)
        assert not (Path(config.out) / "failure.json").exists()

    @pytest.mark.parametrize("stage, name", [("divergence", "divergence_gap_test"),
                                             ("gscore", "log_odds_dirichlet"),
                                             ("affect", "train_vad_models")])
    def test_stage_failure_names_the_stage(self, tmp_path, monkeypatch, stage, name):
        config = build_config({}, medium_inputs(tmp_path))
        cmd_prepare(config)

        def failing(*args):
            raise ValueError("planted failure")

        # patched where it is defined: cmd_analyze imports it from there when it runs
        monkeypatch.setattr(figlex.affect if stage == "affect" else figlex.stats, name, failing)
        with pytest.raises(StageError) as info:
            cmd_analyze(config)
        assert info.value.stage == stage
        marker = json.loads((Path(config.out) / "failure.json").read_text())
        assert marker == {"stage": stage, "error": "planted failure"}

    def test_fewer_than_three_scored_pairs_fail_at_gscore(self, tmp_path):
        overrides = medium_inputs(tmp_path)
        write_jsonl(Path(overrides["lexicon"]), TINY_LEXICON)  # two idioms, two pairs
        config = build_config({}, overrides)
        cmd_prepare(config)
        with pytest.raises(StageError) as info:
            cmd_analyze(config)
        assert info.value.stage == "gscore"
        assert isinstance(info.value.cause, ValueError)
        assert str(info.value.cause) == "need at least 3 observations"
        assert config.out_path("gscore_idioms.csv").exists()

    def test_failed_run_removes_earlier_reports(self, tmp_path):
        config = build_config({}, medium_inputs(tmp_path))
        cmd_prepare(config)
        cmd_analyze(config)
        cmd_report(config, "json")
        cmd_report(config, "csv")
        config.vad_lexicon = str(tmp_path / "missing.csv")
        with pytest.raises(StageError):
            cmd_analyze(config)
        for name in ("report.json", "report.csv"):
            assert not (Path(config.out) / name).exists()


def _counting_find_matches(monkeypatch):
    """Count the calls of `figlex.matcher.find_matches` from here on."""
    calls = []
    find_matches = figlex.matcher.find_matches

    def counting(matcher, tokens):
        calls.append(None)
        return find_matches(matcher, tokens)

    monkeypatch.setattr(figlex.matcher, "find_matches", counting)
    return calls


def balanced_posts(config):
    """The balanced corpus that `prepare` builds from `config`'s inputs."""
    return balance_groups(load_corpus(config.corpus, group_labels=config.groups), config.seed)


class TestMatchOnce:
    """prepare matches each balanced post once and derives the pruned and
    filtered lexicons' counts from that match; analyze reads the streams
    prepare wrote and matches nothing."""

    def fixture_config(self, tmp_path):
        overrides = {"corpus": str(DATA_DIR / "corpus_fixture.jsonl"),
                     "lexicon": str(DATA_DIR / "lexicon_fixture.jsonl"),
                     "vad_lexicon": str(DATA_DIR / "vad_fixture.csv"),
                     "out": str(tmp_path / "out"), "n_splits": 20}
        return build_config(parse_config_file(str(DATA_DIR / "fixture.conf")), overrides)

    def test_prepare_matches_each_post_once_and_each_rematched_post_again(self, tmp_path,
                                                                          monkeypatch):
        config = self.fixture_config(tmp_path)
        calls = _counting_find_matches(monkeypatch)
        cmd_prepare(config)
        posts = len(config.out_path("streams_balanced.tsv").read_text().splitlines())
        assert posts == len(balanced_posts(config)) == 1192
        # the prune step rematches 37 posts and the literality step 109
        assert len(calls) == 1192 + 37 + 109

    def test_analyze_matches_no_post(self, tmp_path, monkeypatch):
        config = self.fixture_config(tmp_path)
        cmd_prepare(config)
        calls = _counting_find_matches(monkeypatch)
        cmd_analyze(config)
        assert calls == []
        assert config.out_path("run_meta.json").exists()

    def test_prepare_writes_exactly_the_prepared_artifacts(self, tmp_path):
        # the streams file is the one record of the balanced posts
        config = self.fixture_config(tmp_path)
        cmd_prepare(config)
        assert {p.name for p in Path(config.out).iterdir()} == {
            "streams_balanced.tsv", "lexicon_filtered.jsonl", "counts_idioms.csv",
            "counts_tokens.csv", "vectors_combined.txt", "literality_report.csv",
            "prepare_meta.json"}

    def test_analyze_loads_no_corpus_module(self, tmp_path):
        overrides = medium_inputs(tmp_path)
        assert main(["prepare", *flags(overrides)]) == 0
        loaded = _modules_loaded_by("analyze", *flags(overrides))
        assert "figlex.matcher" in loaded
        assert "figlex.corpus" not in loaded


def _one_more_token(rows):
    """`rows` with one more token counted in the first row with an idiom,
    which its stream still fits."""
    i = next(i for i, row in enumerate(rows) if "__idiom__" in row)
    g, n, stream = rows[i].split("\t")
    return rows[:i] + [f"{g}\t{int(n) + 1}\t{stream}"] + rows[i + 1:]


class TestStreamsFile:
    """analyze refuses a streams file that prepare cannot have written."""

    @pytest.fixture(scope="class")
    def prepared(self, tmp_path_factory):
        overrides = medium_inputs(tmp_path_factory.mktemp("streams"))
        cmd_prepare(build_config({}, overrides))
        return overrides

    def test_rows_hold_each_balanced_post_in_order(self, prepared):
        out = Path(prepared["out"])
        labels = json.loads((out / "prepare_meta.json").read_text())["group_labels"]
        corpus = balanced_posts(build_config({}, prepared))
        counts = count_usages(build_matcher(load_lexicon(str(out / "lexicon_filtered.jsonl"))),
                              corpus)
        rows = [line.split("\t") for line in
                (out / "streams_balanced.tsv").read_text().splitlines()]
        assert [(labels[int(g)], int(n), stream.split(" ")) for g, n, stream in rows] == [
            (post.group, post.token_count, list(s)) for post, s in zip(corpus.posts,
                                                                      counts.streams)]

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows[:-1], "posts and tokens per group but prepare_meta.json records"),
        (_one_more_token, "posts and tokens per group but prepare_meta.json records"),
        (lambda rows: rows[:2] + ["0\t3\ta __idiom__no_such_idiom b"] + rows[3:],
         "line 3: idiom token '__idiom__no_such_idiom' is not in the lexicon"),
        (lambda rows: rows[:4] + ["0\t3"] + rows[5:],
         "line 5: expected '<group index>\\t<token count>\\t<stream>'"),
        (lambda rows: rows[:1] + ["2" + rows[1][1:]] + rows[2:],
         "line 2: group index 2 is not 0 or 1"),
        (lambda rows: rows[:6] + ["1\t2\ta b c"] + rows[7:],
         "line 7: a stream of 3 tokens cannot come from a post of 2 tokens"),
    ], ids=["post_totals", "token_totals", "unknown_idiom", "malformed", "group_index",
            "token_count"])
    def test_refused_at_load_with_a_failure_record(self, prepared, tmp_path, capsys, edit,
                                                   message):
        out = shutil.copytree(prepared["out"], tmp_path / "out")
        path = out / "streams_balanced.tsv"
        path.write_text("".join(row + "\n" for row in edit(path.read_text().splitlines())))
        capsys.readouterr()
        assert main(["analyze", *flags({**prepared, "out": str(out)})]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error in stage load: streams_balanced.tsv")
        assert message in err
        assert json.loads((out / "failure.json").read_text())["stage"] == "load"
        assert not (out / "divergence.json").exists()


def _strict_json_files(out):
    """Every JSON file in `out` by name, parsed with NaN and Infinity refused."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return {p.name: json.loads(p.read_text(), parse_constant=refuse)
            for p in Path(out).glob("*.json")}


class TestStrictJson:
    """Every JSON file a run writes is standard JSON: no NaN or Infinity."""

    def test_normal_run(self, analyzed):
        cmd_report(analyzed, "json")
        docs = _strict_json_files(analyzed.out)
        assert {"divergence.json", "report.json", "run_meta.json"} <= set(docs)
        assert math.isfinite(docs["divergence.json"]["z_normal_fit"])
        assert not any("z_normal_fit" in w for w in docs["run_meta.json"]["warnings"])

    @pytest.mark.parametrize("z", [math.inf, -math.inf], ids=["inf", "-inf"])
    def test_infinite_z_is_null_with_a_warning(self, tmp_path, monkeypatch, z):
        jsonschema = pytest.importorskip("jsonschema")
        from importlib import resources

        config = build_config({}, medium_inputs(tmp_path))
        cmd_prepare(config)
        divergence_gap_test = figlex.stats.divergence_gap_test
        monkeypatch.setattr(figlex.stats, "divergence_gap_test",
                            lambda *args: replace(divergence_gap_test(*args), z=z))
        cmd_analyze(config)
        cmd_report(config, "json")
        docs = _strict_json_files(config.out)
        assert {"divergence.json", "prepare_meta.json", "report.json", "run_meta.json",
                "spearman.json", "vad_models.json"} == set(docs)
        assert docs["divergence.json"]["z_normal_fit"] is None
        assert docs["report.json"]["divergence"]["z_normal_fit"] is None
        assert f"divergence z is {z} (the split baseline has no spread); z_normal_fit is null" \
            in docs["run_meta.json"]["warnings"]
        schema = json.loads(
            resources.files("figlex").joinpath("data/report_schema.json").read_text()
        )
        jsonschema.validate(docs["report.json"], schema)


def _child_seeds(config):
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(config.seed).spawn(2)]


class TestGroupEmbeddings:
    def test_group_spaces_write_the_serial_bytes(self, tmp_path):
        config = build_config({}, medium_inputs(tmp_path))
        cmd_prepare(config)
        cmd_analyze(config)
        corpus = balanced_posts(config)
        lexicon = load_lexicon(str(config.out_path("lexicon_filtered.jsonl")))
        counts = count_usages(build_matcher(lexicon), corpus)
        # the sorted labels train on the child seeds in order
        for group, seed in zip(sorted(corpus.group_labels), _child_seeds(config)):
            params = replace(config.train, seed=seed)
            serial = tmp_path / f"serial_{group}.txt"
            save_vectors(train_sgns(counts.streams_for(group), params), str(serial))
            assert config.out_path(f"vectors_{group}.txt").read_bytes() == serial.read_bytes()

    @pytest.mark.parametrize("group_index", [0, 1], ids=["group_a", "group_b"])
    def test_training_failure_names_embeddings_stage(self, tmp_path, monkeypatch, group_index):
        config = build_config({}, medium_inputs(tmp_path))
        cmd_prepare(config)
        # the sorted labels get the child seeds in order
        bad_seed = _child_seeds(config)[group_index]

        def failing_on_bad_seed(sentences, params):
            if params.seed == bad_seed:
                raise ValueError("planted failure")
            return setup_sgns(sentences, params)

        # cmd_analyze sets both spaces up with setup_sgns, then trains them
        monkeypatch.setattr(figlex.embeddings, "setup_sgns", failing_on_bad_seed)
        with pytest.raises(StageError) as info:
            cmd_analyze(config)
        assert info.value.stage == "embeddings"
        assert isinstance(info.value.cause, ValueError)
        assert "planted failure" in str(info.value.cause)
        marker = json.loads((Path(config.out) / "failure.json").read_text())
        assert marker["stage"] == "embeddings"
        # the stages before embeddings finished and keep their files
        for name in ("divergence.json", "gscore_tokens.csv", "vad_models.json",
                     "literal_baseline.csv"):
            assert config.out_path(name).exists()

    def test_a_failed_run_leaves_no_training_thread(self, tmp_path, monkeypatch):
        config = build_config({}, medium_inputs(tmp_path))
        cmd_prepare(config)
        threads = threading.active_count()

        def slow_setup(sentences, params):
            run = setup_sgns(sentences, params)
            return lambda: (time.sleep(0.2), run())[1]

        def failing(*args):
            raise ValueError("planted failure")

        # training outlasts the failed stage unless cmd_analyze waits for it
        monkeypatch.setattr(figlex.embeddings, "setup_sgns", slow_setup)
        monkeypatch.setattr(figlex.stats, "divergence_gap_test", failing)
        with pytest.raises(StageError) as info:
            cmd_analyze(config)
        assert info.value.stage == "divergence"
        assert threading.active_count() == threads

    def test_one_allowed_cpu_writes_the_same_bytes(self, tmp_path):
        # the shipped fixture's analyze in a child restricted to one CPU, where
        # the kernel thread runs unpinned, and in an unrestricted child
        root = DATA_DIR.parents[1]

        def fixture_run(command, out, *pin):
            proc = run_python("-c", "import os, sys\n" + "".join(pin) +
                              "from figlex.cli import main\n"
                              "sys.exit(main(sys.argv[1:]))",
                              command, "--config", "tests/data/fixture.conf", "--out", str(out),
                              cwd=root)
            assert proc.returncode == 0, proc.stderr

        fixture_run("prepare", tmp_path / "prepared")
        digests = {}
        for name, pin in (("one_cpu", "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"),
                          ("any_cpu", "")):
            out = shutil.copytree(tmp_path / "prepared", tmp_path / name)
            fixture_run("analyze", out, pin)
            digests[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert len(digests["one_cpu"]) == 22
        assert digests["one_cpu"] == digests["any_cpu"]


class TestPreparedProvenance:
    def test_refuses_another_runs_artifacts_and_accepts_a_new_split_count(self, tmp_path,
                                                                          capsys):
        overrides = medium_inputs(tmp_path)
        out = Path(overrides["out"])
        assert main(["prepare", *flags(overrides)]) == 0
        capsys.readouterr()
        reseeded = {**overrides, "seed": 999, "min_count": 7, "dim": 50}
        assert main(["analyze", *flags(reseeded)]) == 1
        assert ("stage load: seed is 999 here but 3 in prepare_meta.json"
                in capsys.readouterr().err)
        assert json.loads((out / "failure.json").read_text())["stage"] == "load"
        # n_splits is analyze's own setting
        assert main(["analyze", *flags({**overrides, "n_splits": 41})]) == 0
        assert json.loads((out / "divergence.json").read_text())["n_splits"] == 41

    def test_a_vector_file_with_a_nonfinite_value_fails_at_load(self, tmp_path, capsys):
        # without the loader's check it would fail in the affect stage
        overrides = medium_inputs(tmp_path)
        assert main(["prepare", *flags(overrides)]) == 0
        vectors = Path(overrides["out"]) / "vectors_combined.txt"
        header, first, *rest = vectors.read_text().splitlines(keepends=True)
        token, _, *values = first.split()
        vectors.write_text(header + " ".join([token, "nan", *values]) + "\n" + "".join(rest))
        capsys.readouterr()
        assert main(["analyze", *flags(overrides)]) == 1
        assert "stage load: row 2: values must be finite" in capsys.readouterr().err
        assert json.loads((Path(overrides["out"]) / "failure.json").read_text())["stage"] == "load"

    @pytest.mark.parametrize("key, value, named", [
        ("min_count", 1, "min_count"),
        ("literality_threshold", 0.5, "literality_threshold"),
        ("dim", 16, "train"),
        ("train_min_count", 2, "train"),
        ("initial_lr", 0.05, "train"),
        ("groups", "M,X", "groups"),
    ])
    def test_each_prepared_setting_must_match(self, tmp_path, key, value, named):
        cmd_prepare(build_config({}, tiny_overrides(tmp_path)))
        with pytest.raises(StageError, match=f"stage load: {named} is ") as info:
            cmd_analyze(build_config({}, tiny_overrides(tmp_path, **{key: value})))
        assert info.value.stage == "load"

    def test_groups_match_in_either_order(self, tmp_path):
        overrides = medium_inputs(tmp_path)
        cmd_prepare(build_config({}, {**overrides, "groups": "M,F"}))
        cmd_analyze(build_config({}, {**overrides, "groups": "F,M"}))
        assert (Path(overrides["out"]) / "run_meta.json").exists()


class TestGroupOrder:
    def test_reversed_groups_keep_every_analyze_byte(self, tmp_path):
        # `groups` declares the labels' order, which the per-group seeds do
        # not follow: the divergence stage takes them in the corpus's order
        # and the embeddings stage in sorted order
        written = {}
        for groups in ("M,F", "F,M"):
            out = tmp_path / groups.replace(",", "")
            overrides = {**parse_config_file(str(DATA_DIR / "fixture.conf")), "groups": groups,
                         "out": str(out)}
            for name in ("corpus", "lexicon", "vad_lexicon"):
                overrides[name] = str(DATA_DIR.parent.parent / overrides[name])
            config = build_config({}, overrides)
            cmd_prepare(config)
            prepared = {p.name for p in out.iterdir()}
            cmd_analyze(config)
            written[groups] = {p.name: p.read_bytes() for p in out.iterdir()
                               if p.name not in prepared}
        assert "simrbo.csv" in written["M,F"] and "divergence.json" in written["M,F"]
        assert written["M,F"] == written["F,M"]


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("report")
    config = build_config({}, medium_inputs(tmp_path))
    cmd_prepare(config)
    cmd_analyze(config)
    return config


class TestFitDiagnostics:
    def test_run_meta_records_each_fit_and_repeats(self, analyzed, tmp_path):
        from figlex.affect import load_vad_lexicon, train_vad_models
        from figlex.embeddings import load_vectors

        out = Path(analyzed.out)
        first = json.loads((out / "run_meta.json").read_text())["vad_fits"]
        again = shutil.copytree(out, tmp_path / "again")
        cmd_analyze(replace(analyzed, out=str(again)))
        assert json.loads((again / "run_meta.json").read_text())["vad_fits"] == first
        models = train_vad_models(load_vectors(str(out / "vectors_combined.txt")),
                                  load_vad_lexicon(analyzed.vad_lexicon))
        assert set(first) == set(models)
        for dim, model in models.items():
            assert first[dim] == {"n_iter": model.n_iter,
                                  "mean_log_likelihood": model.ll_history[-1],
                                  "grad_max_norm": model.grad_norm}
            assert 0 <= first[dim]["grad_max_norm"] < 1e-6


class TestReport:

    def test_json_validates_against_schema(self, analyzed):
        jsonschema = pytest.importorskip("jsonschema")
        from importlib import resources

        cmd_report(analyzed, "json")
        doc = json.loads((Path(analyzed.out) / "report.json").read_text())
        schema = json.loads(
            resources.files("figlex").joinpath("data/report_schema.json").read_text()
        )
        jsonschema.validate(doc, schema)

    def test_csv_and_json_numerically_identical(self, analyzed):
        cmd_report(analyzed, "json")
        cmd_report(analyzed, "csv")
        doc = json.loads((Path(analyzed.out) / "report.json").read_text())
        expected = flatten_report(doc)
        with open(Path(analyzed.out) / "report.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [(p, v) for p, v in expected] == [tuple(r) for r in rows]

    def test_number_like_group_labels_keep_their_text(self, tmp_path):
        # int("01") is 1 and int("1_0") is 10; the labels must reach the report as written
        overrides = medium_inputs(tmp_path)
        labels = {"M": "01", "F": "1_0"}
        corpus = Path(overrides["corpus"])
        records = [json.loads(line) for line in corpus.read_text().splitlines()]
        write_jsonl(corpus, [{**r, "group": labels[r["group"]]} for r in records])
        config = build_config({}, overrides)
        cmd_prepare(config)
        cmd_analyze(config)
        cmd_report(config, "json")
        cmd_report(config, "csv")
        doc = json.loads(config.out_path("report.json").read_text())
        with open(config.out_path("report.csv"), newline="") as fh:
            csv_groups = {json.loads(value) for path, value in list(csv.reader(fh))[1:]
                          if re.fullmatch(r"figures\.kde\.\d+\.group", path)}
        assert set(doc["metadata"]["group_labels"]) == set(labels.values())
        assert {curve["group"] for curve in doc["figures"]["kde"]} == set(labels.values())
        assert csv_groups == set(labels.values())

    def test_unknown_format_rejected(self, analyzed):
        with pytest.raises(StageError, match="unknown format"):
            cmd_report(analyzed, "yaml")

    def test_refuses_failed_run(self, tmp_path, capsys):
        config = build_config({}, medium_inputs(tmp_path))
        cmd_prepare(config)
        cmd_analyze(config)
        # a later analyze run fails and leaves the earlier run's artifacts
        config.vad_lexicon = str(tmp_path / "missing.csv")
        with pytest.raises(StageError):
            cmd_analyze(config)
        with pytest.raises(StageError, match="stage report: analyze failed at stage 'load'"):
            cmd_report(config, "json")
        for fmt in ("json", "csv"):
            assert main(["report", "--out", config.out, "--format", fmt]) == 1
            assert "'load'" in capsys.readouterr().err
            assert not (Path(config.out) / f"report.{fmt}").exists()

    def test_after_prepare_only_names_analyze(self, tmp_path):
        config = build_config({}, tiny_overrides(tmp_path))
        cmd_prepare(config)
        with pytest.raises(StageError, match=r"run_meta\.json; run analyze first"):
            cmd_report(config, "json")

    def test_refuses_after_a_new_prepare(self, tmp_path, capsys):
        overrides = medium_inputs(tmp_path)
        config = build_config({}, overrides)
        cmd_prepare(config)
        cmd_analyze(config)
        cmd_report(config, "json")
        cmd_report(config, "csv")
        config.out_path("failure.json").write_text("{}\n")  # as a failed analyze leaves it
        records = ("run_meta.json", "failure.json", "report.json", "report.csv")
        # a prepare that fails before its write stage removes nothing
        with pytest.raises(StageError, match="stage load"):
            cmd_prepare(build_config({}, {**overrides, "corpus": str(tmp_path / "nope.jsonl")}))
        assert all(config.out_path(name).exists() for name in records)

        reseeded = build_config({}, {**overrides, "seed": 4})
        cmd_prepare(reseeded)
        assert not any(config.out_path(name).exists() for name in records)
        for fmt in ("json", "csv"):
            assert main(["report", "--out", config.out, "--format", fmt]) == 1
            assert "run analyze first" in capsys.readouterr().err
        cmd_analyze(reseeded)
        cmd_report(reseeded, "json")
        report = json.loads(config.out_path("report.json").read_text())
        assert report["metadata"]["seed"] == 4

    def test_build_report_shape(self, analyzed):
        doc = build_report(analyzed)
        assert set(doc) == {"metadata", "divergence", "spearman", "gscore_idioms",
                            "vad_comparison", "literal_baseline", "simrbo", "figures"}


# Runs the CLI's main() on argv and prints the modules it loaded.
_LOADED_MODULES = """
import json, sys
from figlex.cli import main
try:
    code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
except SystemExit as exc:  # --help
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _modules_loaded_by(*argv):
    proc = run_python("-c", _LOADED_MODULES, *argv)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["code"] == 0, proc.stderr
    # every module by its full name and by its top-level package
    return set(doc["modules"]) | {m.split(".")[0] for m in doc["modules"]}


class TestColdStart:
    # every command runs in one process, and scipy and numpy are test
    # oracles only: every draw comes from `_kernels.Pcg64` and every float64
    # stage runs in `_kernels.c` or plain Python
    UNLOADED = {"scipy", "multiprocessing", "concurrent", "numpy"}

    def test_import_neither_builds_nor_loads_the_kernel(self, tmp_path, monkeypatch):
        # `figlex.cli` loads no ctypes, but `_kernels` imports it, so the check
        # is on the library
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        proc = run_python("-c", "import figlex.cli, figlex._kernels as k, sys; "
                                "print(k._lib is None, '_kernels' in open('/proc/self/maps').read())")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "False"]
        assert not (tmp_path / "cache").exists()

    def test_no_command_loads_scipy_or_a_process_pool(self, tmp_path):
        assert not self.UNLOADED & _modules_loaded_by()
        overrides = medium_inputs(tmp_path)
        for command in ("prepare", "analyze"):
            loaded = _modules_loaded_by(command, *flags(overrides))
            assert not self.UNLOADED & loaded
        loaded = _modules_loaded_by("report", "--out", overrides["out"], "--format", "json")
        assert not self.UNLOADED & loaded
        assert (Path(overrides["out"]) / "report.json").exists()

    def test_import_help_and_report_load_only_cli_and_config(self, analyzed):
        for argv in ((), ("--help",), ("report", "--out", analyzed.out, "--format", "json")):
            loaded = _modules_loaded_by(*argv)
            assert "numpy" not in loaded, argv
            assert {m for m in loaded if m.split(".")[0] == "figlex"} \
                == {"figlex", "figlex.cli", "figlex.config"}, argv

    def test_prepare_and_its_modules_load_no_numpy(self, tmp_path):
        assert "numpy" not in _modules_loaded_by("prepare", *flags(medium_inputs(tmp_path)))
        proc = run_python("-c", "import sys, figlex.corpus, figlex.lexicon, figlex.matcher, "
                                "figlex.embeddings, figlex._kernels; print('numpy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

    def test_prepare_loads_neither_affect_nor_stats(self, tmp_path):
        loaded = _modules_loaded_by("prepare", *flags(tiny_overrides(tmp_path)))
        assert "figlex.matcher" in loaded
        assert not {"figlex.affect", "figlex.stats"} & loaded


class TestEmptyVectorFile:
    def test_dim_zero_stops_analyze_at_load(self, tmp_path, capsys):
        # every token kept but no values: once, analyze fitted intercept-only
        # models, gave every idiom one score and stopped at stage affect
        overrides = medium_inputs(tmp_path)
        assert main(["prepare", *flags(overrides)]) == 0
        path = Path(overrides["out"]) / "vectors_combined.txt"
        lines = path.read_text().splitlines()
        path.write_text(f"{len(lines) - 1} 0\n"
                        + "".join(line.split()[0] + "\n" for line in lines[1:]))
        assert main(["analyze", *flags(overrides)]) == 1
        assert "stage load: bad header" in capsys.readouterr().err
        failure = json.loads((Path(overrides["out"]) / "failure.json").read_text())
        assert failure["stage"] == "load"
        assert not (Path(overrides["out"]) / "vad_scores.csv").exists()


class TestPortableBytes:
    def test_divergence_json_keeps_its_bytes_at_numpy_baseline_simd(self, tmp_path, monkeypatch):
        # the divergence and its baseline run in C, so numpy's SIMD level
        # cannot move them
        monkeypatch.delenv("NPY_ENABLE_CPU_FEATURES", raising=False)

        def fixture_run(command, out, **variables):
            proc = run_python("-m", "figlex.cli", command, "--config", "tests/data/fixture.conf",
                              "--out", str(out), cwd=DATA_DIR.parents[1], **variables)
            assert proc.returncode == 0, proc.stderr

        fixture_run("prepare", tmp_path / "prepared")
        written = {}
        for name, variables in (("native", {}), ("x86_v2", {"NPY_ENABLE_CPU_FEATURES": "X86_V2"})):
            out = shutil.copytree(tmp_path / "prepared", tmp_path / name)
            fixture_run("analyze", out, **variables)
            written[name] = (out / "divergence.json").read_bytes()
        assert written["native"] == written["x86_v2"]


class TestMainEntry:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert "prepare" in capsys.readouterr().out

    def test_bad_format_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["report", "--out", str(tmp_path), "--format", "yaml"])
        assert exit_info.value.code == 2

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        # `train` and the training seed are fields but not keys
        for key in ("no_such_key", "train", "train_seed"):
            conf.write_text(f"seed = 1\n{key} = 3\n")
            assert main(["prepare", "--config", str(conf)]) == 2
            assert f"unknown config key {key!r}" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            main(["prepare", "--no-such-key", "3"])
        assert exit_info.value.code == 2

    def test_flag_prefixes_are_refused(self, monkeypatch, capsys):
        prepared = []
        monkeypatch.setattr(figlex.cli, "cmd_prepare", prepared.append)
        # each an unambiguous prefix of one key's flag
        for flag, value in (("--train", "3"), ("--lit", "0.4"), ("--rbo", "5")):
            with pytest.raises(SystemExit) as exit_info:
                main(["prepare", flag, value])
            assert exit_info.value.code == 2
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert prepared == []
        assert main(["prepare", "--train-min-count", "3", "--literality-threshold", "0.4"]) == 0
        assert prepared[0].train.min_count == 3
        assert prepared[0].literality_threshold == 0.4

    def test_baseline_n_below_two_exits_two(self, tmp_path, capsys):
        # 1 would pass the divergence and gscore stages, then fail at affect
        assert main(["analyze", "--out", str(tmp_path), "--baseline-n", "1"]) == 2
        assert "baseline_n" in capsys.readouterr().err

    def test_n_splits_below_two_exits_two(self, tmp_path, capsys):
        # 1 would pass the load stage, then fail at divergence
        assert main(["analyze", "--out", str(tmp_path), "--n-splits", "1"]) == 2
        assert "n_splits" in capsys.readouterr().err

    def test_equal_group_labels_exit_two(self, tmp_path, capsys):
        # two equal labels would fail only when prepare loads the corpus
        assert main(["prepare", "--out", str(tmp_path), "--groups", "M,M"]) == 2
        assert "'M' twice" in capsys.readouterr().err

    def test_empty_out_touches_nothing_in_the_working_directory(
        self, analyzed, tmp_path, monkeypatch, capsys
    ):
        # a finished run's artifacts plus planted reports: with out unset,
        # report would overwrite these and analyze would delete them
        for path in Path(analyzed.out).iterdir():
            if path.name not in ("report.json", "report.csv", "failure.json"):
                (tmp_path / path.name).write_bytes(path.read_bytes())
        for name in ("report.json", "report.csv"):
            (tmp_path / name).write_text("planted\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        monkeypatch.chdir(tmp_path)
        for argv, stage in ((["report", "--format", "json"], "report"),
                            (["report", "--format", "csv"], "report"),
                            (["analyze", "--vad-lexicon", analyzed.vad_lexicon], "load"),
                            (["prepare", "--corpus", analyzed.corpus,
                              "--lexicon", analyzed.lexicon], "load")):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert f"stage {stage}" in err and "out" in err
            assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_negative_seed_exits_two_before_any_file(self, tmp_path, capsys):
        overrides = tiny_overrides(tmp_path, seed=-1)
        assert main(["prepare", *flags(overrides)]) == 2
        assert "seed must be nonnegative" in capsys.readouterr().err
        assert not Path(overrides["out"]).exists()

    def test_duplicate_config_key_exits_two_naming_its_line(self, tmp_path, capsys):
        overrides = tiny_overrides(tmp_path)
        lines = [f"{key} = {value}" for key, value in overrides.items()]
        conf = tmp_path / "run.conf"
        conf.write_text("\n".join([*lines, "# the last one used to win", "seed = 6"]) + "\n")
        assert main(["prepare", "--config", str(conf)]) == 2
        err = capsys.readouterr().err
        assert f"config line {len(lines) + 2}: key 'seed' set twice" in err
        assert not Path(overrides["out"]).exists()

    def test_stage_error_exit_one(self, tmp_path, capsys):
        code = main([
            "prepare",
            "--corpus", str(tmp_path / "missing.jsonl"),
            "--lexicon", str(tmp_path / "missing_too.jsonl"),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert "stage load" in capsys.readouterr().err

    def test_prepare_via_flags(self, tmp_path):
        overrides = tiny_overrides(tmp_path)
        assert main(["prepare", *flags(overrides)]) == 0
        assert (Path(overrides["out"]) / "counts_idioms.csv").exists()
