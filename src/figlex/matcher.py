"""Multi-pattern idiom matching over token streams.

Every surface variant in the lexicon is a pattern of one or more tokens.
Matching is leftmost-longest and non-overlapping: at each position the
longest pattern that starts there wins and the scan resumes after it.
This makes usage counts and stream rewriting well defined.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .corpus import Corpus, Post
from .lexicon import Lexicon, idiom_token


@dataclass(frozen=True)
class Match:
    canonical: str
    start: int
    end: int  # exclusive
    surface: tuple[str, ...]


class Matcher:
    """Immutable table mapping surface token sequences to canonicals.

    Patterns are indexed by their first token: ``_lengths`` maps it to the
    distinct lengths of the patterns that start with it, longest first.
    """

    def __init__(self, patterns: dict[tuple[str, ...], str]):
        self.patterns = dict(patterns)
        lengths: dict[str, set[int]] = {}
        for tokens in self.patterns:
            if not tokens:
                raise ValueError("a pattern must hold at least one token")
            lengths.setdefault(tokens[0], set()).add(len(tokens))
        self._lengths = {tok: sorted(ls, reverse=True) for tok, ls in lengths.items()}

    def __len__(self) -> int:
        return len(self.patterns)


def build_matcher(lexicon: Lexicon) -> Matcher:
    patterns: dict[tuple[str, ...], str] = {}
    for entry in lexicon:
        for tokens in entry.variants:
            owner = patterns.get(tokens)
            if owner is not None and owner != entry.key:
                raise ValueError(
                    f"surface form {' '.join(tokens)!r} collides between "
                    f"{owner!r} and {entry.key!r}"
                )
            patterns[tokens] = entry.key
    return Matcher(patterns)


def find_matches(matcher: Matcher, tokens: Sequence[str]) -> list[Match]:
    """Leftmost-longest, non-overlapping matches in token order.

    At each position the patterns starting with its token are tried
    longest first, among those that end inside the stream; the first hit
    is selected and the scan jumps past it, otherwise it moves on by one.
    """
    patterns = matcher.patterns
    n = len(tokens)
    selected: list[Match] = []
    i = 0
    while i < n:
        for length in matcher._lengths.get(tokens[i], ()):
            if i + length <= n:
                surface = tuple(tokens[i : i + length])
                canonical = patterns.get(surface)
                if canonical is not None:
                    selected.append(Match(canonical, i, i + length, surface))
                    i += length
                    break
        else:
            i += 1
    return selected


def _apply_rewrite(tokens: Sequence[str], matches: list[Match]) -> list[str]:
    out: list[str] = []
    pos = 0
    for m in matches:
        out.extend(tokens[pos : m.start])
        out.append(idiom_token(m.canonical))
        pos = m.end
    out.extend(tokens[pos:])
    return out


def rewrite_with_idiom_tokens(matcher: Matcher, tokens: Sequence[str]) -> list[str]:
    """Replace each matched span with the idiom's reserved single token.

    Idempotent: idiom tokens contain underscores, which the tokenizer never
    emits, so rewritten output cannot match again.
    """
    return _apply_rewrite(tokens, find_matches(matcher, tokens))


@dataclass
class GroupCounts:
    """What matching found in a corpus, split by group.

    ``streams[i]`` is ``posts[i]`` with each matched span replaced by its
    idiom token (`rewrite_with_idiom_tokens`), or ``posts[i].tokens``
    itself when nothing matched; token tallies are counted from these
    streams on request, so a matched span counts once as its idiom token.
    ``idiom_counts`` accumulates over all surface variants of an entry, and
    ``variant_counts`` holds one total per surface form, over both groups.
    Each matched span is also recorded by where it sits, in two int64
    arrays: ``span_posts[k]`` indexes ``posts`` and ``span_idioms[k]``
    indexes the key order of ``idiom_counts``.
    """

    groups: tuple[str, str]
    idiom_counts: dict[str, dict[str, int]] = field(default_factory=dict)
    variant_counts: dict[tuple[str, ...], int] = field(default_factory=dict)
    posts: tuple[Post, ...] = ()
    streams: list[Sequence[str]] = field(default_factory=list)
    span_posts: array = field(default_factory=lambda: array("q"))
    span_idioms: array = field(default_factory=lambda: array("q"))

    def tokens_for(self, group: str) -> Counter[str]:
        """Token tallies over `group`'s rewritten streams."""
        return Counter(t for stream in self.streams_for(group) for t in stream)

    def streams_for(self, group: str) -> list[Sequence[str]]:
        """The rewritten streams of `group`'s posts, in corpus order."""
        return [s for s, post in zip(self.streams, self.posts) if post.group == group]


def count_usages(matcher: Matcher, corpus: Corpus) -> GroupCounts:
    """Match every post once: idiom and surface counts, spans and streams."""
    groups = corpus.group_labels
    counts = GroupCounts(groups=groups, posts=corpus.posts)
    column = {c: j for j, c in enumerate(dict.fromkeys(matcher.patterns.values()))}
    for canonical in column:
        counts.idiom_counts[canonical] = {g: 0 for g in groups}

    span_posts, span_idioms = counts.span_posts, counts.span_idioms
    for i, post in enumerate(corpus.posts):
        matches = find_matches(matcher, post.tokens)
        for m in matches:
            counts.idiom_counts[m.canonical][post.group] += 1
            counts.variant_counts[m.surface] = counts.variant_counts.get(m.surface, 0) + 1
            span_posts.append(i)
            span_idioms.append(column[m.canonical])
        counts.streams.append(_apply_rewrite(post.tokens, matches) if matches else post.tokens)
    return counts
