import csv
import functools
import json
import multiprocessing
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import figlex.cli
import figlex.matcher
from figlex.cli import (
    StageError,
    build_config,
    build_report,
    cmd_analyze,
    cmd_prepare,
    cmd_report,
    flatten_report,
    main,
    parse_config_file,
    thread_cap,
)
from figlex.corpus import load_corpus
from figlex.embeddings import train_sgns

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

    def test_bad_line_reports_number(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("seed = 1\nnot a pair\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_config_file(str(conf))

    def test_thread_cap(self, monkeypatch):
        monkeypatch.delenv("FIGLEX_THREADS", raising=False)
        assert thread_cap() == 1
        monkeypatch.setenv("FIGLEX_THREADS", "4")
        assert thread_cap() == 4
        monkeypatch.setenv("FIGLEX_THREADS", "junk")
        with pytest.raises(ValueError, match="FIGLEX_THREADS"):
            thread_cap()


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


class TestMatchOnce:
    def test_analyze_matches_each_post_once(self, tmp_path, monkeypatch):
        """count_usages is where analyze matches posts; the SGNS spaces train
        on the streams it rewrote instead of matching every post again."""
        overrides = {"corpus": str(DATA_DIR / "corpus_fixture.jsonl"),
                     "lexicon": str(DATA_DIR / "lexicon_fixture.jsonl"),
                     "vad_lexicon": str(DATA_DIR / "vad_fixture.csv"),
                     "out": str(tmp_path / "out"), "n_splits": 20}
        config = build_config(parse_config_file(str(DATA_DIR / "fixture.conf")), overrides)
        cmd_prepare(config)
        calls = []
        find_matches = figlex.matcher.find_matches

        def counting(matcher, tokens):
            calls.append(None)
            return find_matches(matcher, tokens)

        monkeypatch.setattr(figlex.matcher, "find_matches", counting)
        monkeypatch.setenv("FIGLEX_THREADS", "1")
        cmd_analyze(config)
        corpus = load_corpus(str(config.out_path("corpus_balanced.jsonl")))
        assert len(calls) == len(corpus)


def _train_sgns_failing_on(bad_seed, sentences, params):
    """train_sgns that fails for one seed and says which process it ran in."""
    if params.seed == bad_seed:
        in_worker = multiprocessing.parent_process() is not None
        raise ValueError(f"planted failure (in worker: {in_worker})")
    return train_sgns(sentences, params)


def _files(out):
    return {p.name: p.read_bytes() for p in Path(out).iterdir()}


class TestParallelEmbeddings:
    def test_two_processes_write_the_serial_bytes(self, tmp_path, monkeypatch):
        parallel = build_config({}, medium_inputs(tmp_path))
        cmd_prepare(parallel)
        serial = replace(parallel, out=str(tmp_path / "serial"))
        shutil.copytree(parallel.out, serial.out)
        for config, threads in ((serial, "1"), (parallel, "2")):
            monkeypatch.setenv("FIGLEX_THREADS", threads)
            cmd_analyze(config)
            cmd_report(config, "json")
            cmd_report(config, "csv")
        assert {"vectors_F.txt", "vectors_M.txt", "report.csv"} <= set(_files(parallel.out))
        assert _files(parallel.out) == _files(serial.out)

    def test_worker_failure_names_embeddings_stage(self, tmp_path, monkeypatch):
        config = build_config({}, medium_inputs(tmp_path))
        cmd_prepare(config)
        # group b is the second label in sorted order and gets the second child seed
        seed_b = int(np.random.SeedSequence(config.seed).spawn(2)[1].generate_state(1)[0])
        monkeypatch.setattr(figlex.cli, "train_sgns",
                            functools.partial(_train_sgns_failing_on, seed_b))
        monkeypatch.setenv("FIGLEX_THREADS", "2")
        with pytest.raises(StageError) as info:
            cmd_analyze(config)
        assert info.value.stage == "embeddings"
        assert isinstance(info.value.cause, ValueError)
        assert "planted failure (in worker: True)" in str(info.value.cause)
        marker = json.loads((Path(config.out) / "failure.json").read_text())
        assert marker["stage"] == "embeddings"
        assert multiprocessing.active_children() == []


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("report")
    config = build_config({}, medium_inputs(tmp_path))
    cmd_prepare(config)
    cmd_analyze(config)
    return config


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

    def test_build_report_shape(self, analyzed):
        doc = build_report(analyzed)
        assert set(doc) == {"metadata", "divergence", "spearman", "gscore_idioms",
                            "vad_comparison", "literal_baseline", "simrbo", "figures"}


# Runs the CLI's main() on argv and prints the top-level packages it loaded.
_LOADED_PACKAGES = """
import json, sys
from figlex.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps({"code": code, "packages": sorted({m.split(".")[0] for m in sys.modules})}))
"""


def _packages_loaded_by(*argv):
    proc = run_python("-c", _LOADED_PACKAGES, *argv)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["code"] == 0, proc.stderr
    return set(doc["packages"])


class TestColdStart:
    def test_prepare_and_report_never_load_scipy(self, tmp_path):
        assert "scipy" not in _packages_loaded_by()
        overrides = medium_inputs(tmp_path)
        argv = ["prepare"]
        for key, value in overrides.items():
            argv.extend([f"--{key.replace('_', '-')}", str(value)])
        assert "scipy" not in _packages_loaded_by(*argv)
        cmd_analyze(build_config({}, overrides))
        loaded = _packages_loaded_by("report", "--out", overrides["out"], "--format", "json")
        assert "scipy" not in loaded
        assert (Path(overrides["out"]) / "report.json").exists()


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
        conf.write_text("seed = 1\nno_such_key = 3\n")
        assert main(["prepare", "--config", str(conf)]) == 2
        assert "no_such_key" in capsys.readouterr().err

    def test_bad_thread_cap_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FIGLEX_THREADS", "junk")
        assert main(["report", "--out", str(tmp_path), "--format", "json"]) == 2
        assert "FIGLEX_THREADS" in capsys.readouterr().err

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
        argv = ["prepare"]
        for key, value in overrides.items():
            argv.extend([f"--{key.replace('_', '-')}", str(value)])
        assert main(argv) == 0
        assert (Path(overrides["out"]) / "counts_idioms.csv").exists()
