"""Group-labelled corpora: loading and balancing.

A corpus is an ordered collection of posts, each tagged with one of two
group labels.  Balancing takes an explicit seed and is a pure function of
(input, seed).  The divergence test's random half splits of a group's
posts run in `_kernels.c`; `stats.split_baseline` calls them.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from .text import read_records, tokenize


@dataclass(frozen=True)
class Post:
    """One document by one author, already tokenized."""

    author_id: str
    group: str
    tokens: tuple[str, ...]

    @property
    def token_count(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class Corpus:
    """Immutable ordered post collection over exactly two group labels."""

    posts: tuple[Post, ...]
    group_labels: tuple[str, str]

    def __len__(self) -> int:
        return len(self.posts)

    def token_totals(self) -> dict[str, int]:
        """Each group's token count."""
        out = dict.fromkeys(self.group_labels, 0)
        for p in self.posts:
            out[p.group] += p.token_count
        return out


def load_corpus(path: str, group_labels: tuple[str, str] | None = None) -> Corpus:
    """Read a corpus from a JSON-lines file.

    Each record (see `read_records`) has the string keys ``author_id``,
    ``group`` and ``text``; other keys are ignored, and a post keeps only
    the tokens of its text.  When `group_labels` is omitted the two labels
    are inferred from the file in first-seen order; a third distinct label
    is an error either way.
    """
    posts: list[Post] = []
    seen_labels: list[str] = []
    declared = tuple(group_labels) if group_labels is not None else None
    if declared is not None and (len(declared) != 2 or declared[0] == declared[1]):
        raise ValueError(f"group_labels must be two distinct labels, got {declared!r}")

    for lineno, rec in read_records(path, ("author_id", "group", "text")):
        group = rec["group"]
        if declared is not None:
            if group not in declared:
                raise ValueError(f"line {lineno}: unknown group {group}")
        elif group not in seen_labels:
            seen_labels.append(group)
            if len(seen_labels) > 2:
                raise ValueError(f"line {lineno}: unknown group {group}")
        posts.append(Post(rec["author_id"], group, tuple(tokenize(rec["text"]))))

    if declared is None:
        if len(seen_labels) < 2:
            raise ValueError(
                f"corpus declares {len(seen_labels)} group label(s); pass group_labels explicitly"
            )
        declared = (seen_labels[0], seen_labels[1])
    return Corpus(posts=tuple(posts), group_labels=declared)


def balance_groups(corpus: Corpus, seed: int) -> Corpus:
    """Downsample whole posts from the larger-token group.

    Posts are removed in random order until the larger group's token total
    no longer exceeds the smaller's, so the residual imbalance is bounded
    by the last removed post's length.  Posts are never truncated and the
    smaller group is never touched.  The removal order is
    ``numpy.random.default_rng(seed).permutation`` of the larger group's
    posts, drawn by `_kernels.Pcg64`.
    """
    totals = corpus.token_totals()
    a, b = corpus.group_labels
    for g in (a, b):
        if not any(p.group == g for p in corpus.posts):
            raise ValueError(f"group {g!r} has no posts")
    if totals[a] == totals[b]:
        return corpus

    larger, smaller = (a, b) if totals[a] > totals[b] else (b, a)
    larger_idx = [i for i, p in enumerate(corpus.posts) if p.group == larger]
    order = _kernels.Pcg64(seed).permutation(len(larger_idx))

    diff = totals[larger] - totals[smaller]
    removed: set[int] = set()
    for j in order:
        if diff <= 0:
            break
        i = larger_idx[j]
        removed.add(i)
        diff -= corpus.posts[i].token_count
    return Corpus(
        posts=tuple(p for i, p in enumerate(corpus.posts) if i not in removed),
        group_labels=corpus.group_labels,
    )

