"""Acceptance suite: one numbered criterion per test, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s` to see
them).  Expected values come from independent oracles computed here:
direct formula evaluations, exhaustive enumeration, finite differences,
and brute-force prefix intersections.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

import figlex
from figlex.affect import (
    _beta_data,
    _log_likelihood,
    _log_likelihood_grad,
    _matrix,
    fit_beta_regression,
    predict_beta,
)
from figlex.corpus import Corpus, Post
from figlex.embeddings import TrainParams, cosine, train_sgns
from figlex.lexicon import IdiomEntry, expand_entry, idiom_token, load_lexicon, prune_variants
from figlex.matcher import GroupCounts, build_matcher, count_usages
from figlex.stats import (
    cohens_d,
    divergence_gap_test,
    jsd,
    log_odds_dirichlet,
    sim_rbo,
    spearman,
    wilcoxon_ranksum,
)
from figlex.text import read_records

REPO_ROOT = Path(__file__).parent.parent
DATA_DIR = Path(__file__).parent / "data"


def criterion(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:02d} {status} - {name}{suffix}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


# ---------------------------------------------------------------------------
# 1. Jensen-Shannon divergence against a direct two-term KL oracle
# ---------------------------------------------------------------------------

def kl_base2(p, q):
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0:
            total += pi * math.log2(pi / qi)
    return total


def test_criterion_01_jsd_oracle():
    rng = np.random.default_rng(101)
    worst = 0.0
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 21))
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        m = 0.5 * (p + q)
        oracle = 0.5 * kl_base2(p, m) + 0.5 * kl_base2(q, m)
        got = jsd(p, q)
        worst = max(worst, abs(got - oracle))
        ok &= abs(got - oracle) <= 1e-12
        ok &= 0.0 <= got <= 1.0
        ok &= abs(got - jsd(q, p)) <= 1e-15
    criterion(1, "jsd matches two-term KL oracle, bounded and symmetric",
              ok, f"worst abs diff {worst:.2e}")


# ---------------------------------------------------------------------------
# 2. log-odds with Dirichlet prior against a hand-formula oracle
# ---------------------------------------------------------------------------

def oracle_log_odds(ya, na, yb, nb, aw, a0):
    delta = math.log((ya + aw) / (na + a0 - ya - aw)) - math.log(
        (yb + aw) / (nb + a0 - yb - aw)
    )
    sigma = math.sqrt(1.0 / (ya + aw) + 1.0 / (yb + aw))
    return delta, sigma, delta / sigma


def test_criterion_02_log_odds_oracle():
    rng = np.random.default_rng(202)
    ok = True
    worst = 0.0
    for _ in range(100):
        vocab = [f"t{k}" for k in range(int(rng.integers(2, 7)))]
        counts_a = {t: int(rng.integers(0, 25)) for t in vocab}
        counts_b = {t: int(rng.integers(0, 25)) for t in vocab}
        prior = {t: float(rng.uniform(0.1, 2.0)) for t in vocab}
        table = log_odds_dirichlet(counts_a, counts_b, prior)
        swapped = log_odds_dirichlet(counts_b, counts_a, prior)
        na, nb, a0 = sum(counts_a.values()), sum(counts_b.values()), sum(prior.values())
        for t in vocab:
            delta, sigma, z = oracle_log_odds(counts_a[t], na, counts_b[t], nb,
                                              prior[t], a0)
            rec = table[t]
            for got, want in ((rec.delta, delta), (rec.sigma, sigma), (rec.z, z)):
                worst = max(worst, abs(got - want))
                ok &= abs(got - want) <= 1e-10
            ok &= swapped[t].delta == -rec.delta
            ok &= swapped[t].z == -rec.z
    criterion(2, "log-odds delta/sigma/z match hand formula; swap antisymmetry exact",
              ok, f"worst abs diff {worst:.2e}")


def test_criterion_02_worked_example():
    # y_a=5, n_a=10, y_b=1, n_b=10, alpha_w=0.1, alpha_0=1.0
    #   delta = ln(5.1 / 5.9) - ln(1.1 / 9.9) = 2.0515128
    #   sigma = sqrt(1/5.1 + 1/1.1)           = 1.0512703
    #   z     = delta / sigma                  = 1.9514607
    table = log_odds_dirichlet({"w": 5, "rest": 5}, {"w": 1, "rest": 9},
                               {"w": 0.1, "rest": 0.9})
    rec = table["w"]
    ok = (abs(rec.delta - 2.051513) < 5e-7) and (abs(rec.z - 1.951461) < 5e-7)
    criterion(
        2, "worked example delta=2.051513, z=1.951461 to 6 decimals", ok,
        f"got delta={rec.delta:.7f}, z={rec.z:.7f}; "
        "expected delta=2.051513, z=1.951461",
    )


# ---------------------------------------------------------------------------
# 3. rank-weighted prefix overlap against brute force
# ---------------------------------------------------------------------------

def test_criterion_03_sim_rbo():
    items = [f"w{k}" for k in range(25)]
    ok = sim_rbo(items, list(items), depth=25) == 1.0
    ok &= sim_rbo([f"a{k}" for k in range(10)], [f"b{k}" for k in range(10)], 10) == 0.0
    ok &= abs(sim_rbo(["a", "b", "c"], ["a", "c", "b"], 3) - 0.833333) <= 1e-6
    ok &= abs(sim_rbo(["a", "b", "c"], ["a", "c", "b"], 3) - (1 + 0.5 + 1) / 3) <= 1e-9

    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        depth = int(rng.integers(1, 21))
        pool = [f"w{k}" for k in range(depth + int(rng.integers(0, 8)))]
        a = list(rng.permutation(pool))
        b = list(rng.permutation(pool))
        brute = sum(len(set(a[:k]) & set(b[:k])) / k for k in range(1, depth + 1)) / depth
        got = sim_rbo(a, b, depth)
        worst = max(worst, abs(got - brute))
        ok &= abs(got - brute) <= 1e-12
    criterion(3, "ranked-overlap identical/disjoint/hand cases + brute-force oracle",
              ok, f"worst abs diff {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. Wilcoxon rank-sum: exact case, and normal-vs-exact agreement claim
# ---------------------------------------------------------------------------

def test_criterion_04_exact_small_case():
    result = wilcoxon_ranksum([1, 2], [3, 4])
    ok = abs(result.p_value - 1 / 3) < 1e-12
    criterion(4, "x=[1,2] vs y=[3,4] exact two-sided p = 1/3", ok,
              f"got {result.p_value}")


def test_criterion_04_normal_within_002_of_exact():
    worst = (0.0, None)
    for n in range(2, 13):
        for nx in range(1, n):
            ranks = list(range(1, n + 1))
            dist = Counter(sum(c) for c in combinations(ranks, nx))
            total = sum(dist.values())
            mu = nx * (n + 1) / 2.0
            for w in sorted(dist):
                d = abs(w - mu)
                p_exact = sum(v for k, v in dist.items() if abs(k - mu) >= d - 1e-9) / total
                # realize rank sum w: use ranks themselves as the (no-tie) data
                combo = next(c for c in combinations(ranks, nx) if sum(c) == w)
                y = [r for r in ranks if r not in combo]
                p_norm = wilcoxon_ranksum(list(combo), y, method="normal").p_value
                diff = abs(p_exact - p_norm)
                if diff > worst[0]:
                    worst = (diff, (nx, n - nx, w, p_exact, p_norm))
    ok = worst[0] <= 0.02
    criterion(
        4, "normal-approximation p within 0.02 of enumeration for all no-tie "
           "splits with n_x+n_y <= 12", ok,
        f"worst |diff| {worst[0]:.3f} at (n_x, n_y, W, exact, normal) = {worst[1]}; "
        f"no continuity-corrected normal approximation attains 0.02 at these sizes",
    )


# ---------------------------------------------------------------------------
# 5. beta regression: recovery, gradient oracle, monotone ascent, open interval
# ---------------------------------------------------------------------------

def test_criterion_05_beta_regression():
    rng = np.random.default_rng(505)
    beta = np.array([0.3, -0.8, 0.5, 1.1])
    X = rng.normal(size=(5000, 3))
    mu = expit(beta[0] + X @ beta[1:])
    y = rng.beta(mu * 50.0, (1 - mu) * 50.0)
    model = fit_beta_regression(X, y)
    recovery_err = float(np.max(np.abs(model.coefficients - beta)))
    ok = recovery_err < 0.05

    data = _beta_data(_matrix(X[:300]), np.clip(y[:300], 1e-4, 1 - 1e-4))
    h = 1e-5
    worst_rel = 0.0
    for _ in range(10):
        params = np.concatenate([rng.normal(scale=0.5, size=4), [rng.uniform(0.5, 3.5)]])
        grad = _log_likelihood_grad(params, *data)
        fd = np.zeros_like(params)
        for i in range(len(params)):
            e = np.zeros_like(params)
            e[i] = h
            fd[i] = (_log_likelihood(params + e, *data)
                     - _log_likelihood(params - e, *data)) / (2 * h)
        rel = float(np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8)))
        worst_rel = max(worst_rel, rel)
    ok &= worst_rel < 1e-4

    ok &= bool(np.all(np.diff(model.ll_history) >= 0))

    extremes = [np.full(3, v) for v in (-50.0, -5.0, 0.0, 5.0, 50.0)]
    preds = [predict_beta(model, f) for f in extremes]
    ok &= all(0.0 < p < 1.0 for p in preds)
    criterion(5, "beta regression recovery/gradient-oracle/monotone/open-interval",
              ok, f"recovery max err {recovery_err:.4f}, worst grad rel err {worst_rel:.2e}")


# ---------------------------------------------------------------------------
# 6. hand-computed correlation and effect-size fixtures
# ---------------------------------------------------------------------------

def test_criterion_06_spearman_and_cohens_d():
    rho = spearman([1, 2, 3, 4], [1, 3, 2, 4]).statistic
    d = cohens_d([1, 2, 3], [2, 3, 4])
    ok = abs(rho - 0.8) <= 1e-12 and abs(d - (-1.0)) <= 1e-12
    criterion(6, "spearman rho=0.8 and cohen's d=-1 exact to 1e-12",
              ok, f"rho={rho!r}, d={d!r}")


# ---------------------------------------------------------------------------
# 7. variant expansion goldens and the pruning boundary
# ---------------------------------------------------------------------------

def test_criterion_07_expansion_and_pruning():
    fight = IdiomEntry(canonical=("pick", "a", "fight"), definition=("x",), verb_index=0)
    got = set(expand_entry(fight))
    ok = got == {(v, "a", "fight") for v in ("pick", "picks", "picked", "picking")}

    pride = IdiomEntry(canonical=("swallow", "one's", "pride"), definition=("x",),
                       verb_index=0, slot_index=1, slot_kind="possessive")
    forms = set(expand_entry(pride))
    for pron in ("my", "your", "his", "her", "its", "our", "their"):
        for verb in ("swallow", "swallows", "swallowed", "swallowing"):
            ok &= (verb, pron, "pride") in forms

    from figlex.lexicon import Lexicon

    lexicon = Lexicon()
    entry = IdiomEntry(canonical=("pick", "a", "fight"), definition=("x",), verb_index=0)
    entry.variants = expand_entry(entry)
    lexicon.entries[entry.key] = entry
    counts = GroupCounts(
        groups=("A", "B"),
        variant_counts={
            ("picked", "a", "fight"): 50,
            ("picking", "a", "fight"): 51,
            ("pick", "a", "fight"): 500,
        },
    )
    pruned = prune_variants(lexicon, counts, min_count=50)
    kept = set(pruned.get("pick a fight").variants)
    ok &= ("picked", "a", "fight") not in kept
    ok &= ("picking", "a", "fight") in kept
    criterion(7, "expansion goldens and pruning boundary (50 removed, 51 kept)", ok)


# ---------------------------------------------------------------------------
# 8. planted-signal end to end
# ---------------------------------------------------------------------------

def planted_corpus(seed=808):
    rng = np.random.default_rng(seed)
    idioms = ["hit the road", "cut the mustard", "spill the beans",
              "raise the bar", "clear the air", "break the ice"]
    vocab = ["work", "plan", "team", "day", "idea", "city", "note", "talk",
             "walk", "the", "a", "to", "and", "good", "long", "late"]
    posts = []
    for group in ("A", "B"):
        for i in range(500):
            words = [vocab[j] for j in rng.integers(0, len(vocab), size=12)]
            for k, idiom in enumerate(idioms):
                # planted idiom is 5x more frequent in group A
                if k == 0:
                    p = 0.50 if group == "A" else 0.10
                else:
                    p = 0.20
                if rng.random() < p:
                    at = int(rng.integers(0, len(words) + 1))
                    words = words[:at] + idiom.split() + words[at:]
            posts.append(Post(author_id=f"{group}{i}", group=group, tokens=tuple(words)))
    return Corpus(posts=tuple(posts), group_labels=("A", "B")), idioms


def test_criterion_08_planted_signal_end_to_end(tmp_path):
    start = time.monotonic()
    corpus, idioms = planted_corpus()
    from conftest import write_jsonl

    lex_path = write_jsonl(tmp_path / "lex.jsonl", [
        {"canonical": c, "definition": "x y z"} for c in idioms
    ])
    lexicon = load_lexicon(str(lex_path))
    matcher = build_matcher(lexicon)
    counts = count_usages(matcher, corpus)
    tokens_a, tokens_b = counts.tokens_for("A"), counts.tokens_for("B")
    table = log_odds_dirichlet(tokens_a, tokens_b, tokens_a + tokens_b)
    z = table[idiom_token(idioms[0])].z

    result = divergence_gap_test(counts, n_splits=500, seed=9)
    pooled_max = max(result.baseline_max.values())
    elapsed = time.monotonic() - start

    ok = z > 2
    ok &= result.cross_jsd > pooled_max
    ok &= result.p_value <= 1 / 501
    ok &= elapsed < 60
    criterion(8, "planted idiom: z favors planted group, cross JSD above the "
                 "500-split baseline maximum", ok,
              f"z={z:.2f}, cross={result.cross_jsd:.4f}, baseline max={pooled_max:.4f}, "
              f"p={result.p_value:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. embedding training properties
# ---------------------------------------------------------------------------

def shared_context_corpus(n_sent, seed):
    rng = np.random.default_rng(seed)
    ctx_a = ["red", "blue", "green", "cold"]
    ctx_b = ["dog", "cat", "bird", "fish"]
    posts = []
    for i in range(n_sent):
        if i % 3 < 2:
            word, pool = ["aa", "bb"][i % 2], ctx_a
        else:
            word, pool = "cc", ctx_b
        picks = [pool[j] for j in rng.integers(0, len(pool), size=4)]
        tokens = tuple(picks[:2] + [word] + picks[2:])
        posts.append(Post(author_id=f"a{i}", group="A", tokens=tokens))
    return Corpus(posts=tuple(posts), group_labels=("A", "B"))


def test_criterion_09_embedding_properties():
    corpus = shared_context_corpus(300, seed=1)
    params = TrainParams(dim=24, window=2, min_count=1, epochs=3, seed=77)
    one = train_sgns([p.tokens for p in corpus.posts], params)
    two = train_sgns([p.tokens for p in corpus.posts], params)
    bitwise = one.data == two.data and one.vocab == two.vocab

    # the fixture's first ~100 KB of post text, measured on the raw records
    fixture = str(DATA_DIR / "corpus_fixture.jsonl")
    full = figlex.load_corpus(fixture)
    acc, posts = 0, []
    for (_, rec), p in zip(read_records(fixture, ("text",)), full.posts):
        acc += len(rec["text"]) + 1
        posts.append(p)
        if acc >= 100_000:
            break
    space = train_sgns([p.tokens for p in posts], TrainParams(seed=11))
    monotone = bool(np.all(np.diff(space.epoch_losses) <= 0))

    wins = 0
    corpus_small = shared_context_corpus(150, seed=5)
    for seed in range(100):
        sp = train_sgns([p.tokens for p in corpus_small.posts],
                        TrainParams(dim=12, window=2, min_count=1, epochs=3, seed=seed))
        if cosine(sp.vector("aa"), sp.vector("bb")) > cosine(sp.vector("aa"),
                                                             sp.vector("cc")):
            wins += 1

    ok = bitwise and monotone and wins >= 95
    criterion(9, "bitwise determinism, non-increasing epoch loss on 100KB, "
                 "shared-context wins >= 95/100", ok,
              f"bitwise={bitwise}, monotone={monotone}, wins={wins}/100")


# ---------------------------------------------------------------------------
# 10. byte-identical pipeline runs on the shipped fixture
# ---------------------------------------------------------------------------

def run_pipeline(out_dir: Path, hash_seed: str) -> float:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    # the child imports the checked-out sources, as the test process does
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    start = time.monotonic()
    for command in (
        ["prepare"],
        ["analyze"],
        ["report", "--format", "json"],
        ["report", "--format", "csv"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "figlex.cli", *command,
             "--config", "tests/data/fixture.conf", "--out", str(out_dir)],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, f"{command}: {proc.stderr}"
    return time.monotonic() - start


def digest_tree(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


@pytest.fixture(scope="module")
def fixture_pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline_a")
    elapsed = run_pipeline(out, hash_seed="1")
    return out, elapsed


def test_criterion_10_pipeline_determinism(fixture_pipeline, tmp_path):
    out_a, elapsed = fixture_pipeline
    out_b = tmp_path / "pipeline_b"
    out_b.mkdir()
    run_pipeline(out_b, hash_seed="2")
    digests_a = digest_tree(out_a)
    digests_b = digest_tree(out_b)
    identical = digests_a == digests_b
    ok = identical and elapsed < 120
    mismatched = sorted(k for k in digests_a if digests_a.get(k) != digests_b.get(k))
    criterion(10, "prepare+analyze+report byte-identical across runs, < 120 s",
              ok, f"elapsed {elapsed:.1f}s"
                  + (f", mismatched: {mismatched}" if mismatched else ""))


def test_fixture_shows_planted_signals(fixture_pipeline):
    """Shipped-fixture sanity: planted skews surface in the reports."""
    import csv

    out, _ = fixture_pipeline
    with open(out / "gscore_idioms.csv", newline="") as fh:
        rows = {r["canonical"]: r for r in csv.DictReader(fh)}
    assert float(rows["over the moon"]["gscore"]) > 0       # F-leaning idiom
    assert float(rows["pick a fight"]["gscore"]) < 0        # M-leaning idiom

    with open(out / "literality_report.csv", newline="") as fh:
        literality = {r["canonical"]: r["status"] for r in csv.DictReader(fh)}
    assert literality["wooden spoon"] == "removed"

    with open(out / "simrbo.csv", newline="") as fh:
        rbo_rows = list(csv.DictReader(fh))
    bottom = [r["canonical"] for r in rbo_rows[:2]]
    assert "under fire" in bottom  # context-shifted idiom ranks lowest

    divergence = json.loads((out / "divergence.json").read_text())
    assert divergence["cross_jsd"] > max(divergence["baseline_max"].values())
