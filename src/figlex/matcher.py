"""Multi-pattern idiom matching over token streams.

A token-level Aho-Corasick automaton indexes every surface variant in the
lexicon.  Scans report leftmost-longest, non-overlapping matches, which
makes usage counts and stream rewriting well defined.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, Post, TokenSeq
from .lexicon import Lexicon, idiom_token


@dataclass(frozen=True)
class Match:
    canonical: str
    start: int
    end: int  # exclusive
    surface: tuple[str, ...]


class Matcher:
    """Immutable automaton mapping surface token sequences to canonicals."""

    def __init__(self, patterns: dict[tuple[str, ...], str]):
        self.patterns = dict(patterns)
        # trie with BFS failure links; outputs stored as (length, canonical)
        self._goto: list[dict[str, int]] = [{}]
        self._fail: list[int] = [0]
        self._out: list[list[tuple[int, str]]] = [[]]
        for tokens, canonical in self.patterns.items():
            node = 0
            for tok in tokens:
                nxt = self._goto[node].get(tok)
                if nxt is None:
                    nxt = len(self._goto)
                    self._goto[node][tok] = nxt
                    self._goto.append({})
                    self._fail.append(0)
                    self._out.append([])
                node = nxt
            self._out[node].append((len(tokens), canonical))
        queue = deque()
        for child in self._goto[0].values():
            queue.append(child)
        while queue:
            node = queue.popleft()
            for tok, child in self._goto[node].items():
                queue.append(child)
                f = self._fail[node]
                while f and tok not in self._goto[f]:
                    f = self._fail[f]
                self._fail[child] = self._goto[f].get(tok, 0)
                if self._fail[child] == child:
                    self._fail[child] = 0
                self._out[child] = self._out[child] + self._out[self._fail[child]]

    def __len__(self) -> int:
        return len(self.patterns)

    def scan(self, tokens: TokenSeq) -> list[tuple[int, int, str]]:
        """Every pattern occurrence as (start, end, canonical), including
        overlapping ones."""
        spans: list[tuple[int, int, str]] = []
        node = 0
        for i, tok in enumerate(tokens):
            while node and tok not in self._goto[node]:
                node = self._fail[node]
            node = self._goto[node].get(tok, 0)
            for length, canonical in self._out[node]:
                spans.append((i + 1 - length, i + 1, canonical))
        return spans


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


def find_matches(matcher: Matcher, tokens: TokenSeq) -> list[Match]:
    """Leftmost-longest, non-overlapping matches in token order.

    Only the selected spans become a `Match`.  No two candidates share both
    start and length (patterns are keyed by their tokens), so the order is
    total.
    """
    candidates = sorted(matcher.scan(tokens), key=lambda c: (c[0], c[0] - c[1]))
    selected: list[Match] = []
    cursor = 0
    for start, end, canonical in candidates:
        if start >= cursor:
            selected.append(Match(canonical, start, end, tuple(tokens[start:end])))
            cursor = end
    return selected


def _apply_rewrite(tokens: TokenSeq, matches: list[Match]) -> TokenSeq:
    out: TokenSeq = []
    pos = 0
    for m in matches:
        out.extend(tokens[pos : m.start])
        out.append(idiom_token(m.canonical))
        pos = m.end
    out.extend(tokens[pos:])
    return out


def rewrite_with_idiom_tokens(matcher: Matcher, tokens: TokenSeq) -> TokenSeq:
    """Replace each matched span with the idiom's reserved single token.

    Idempotent: idiom tokens contain underscores, which the tokenizer never
    emits, so rewritten output cannot match again.
    """
    return _apply_rewrite(tokens, find_matches(matcher, tokens))


@dataclass
class GroupCounts:
    """Occurrence counts split by group, over idiom-rewritten streams.

    ``streams[i]`` is ``posts[i]`` with each matched span replaced by its
    idiom token (`rewrite_with_idiom_tokens`), and ``token_counts`` counts
    exactly these streams, so a matched span counts once as its idiom token.
    ``idiom_counts`` accumulates over all surface variants of an entry.
    Each matched span is also recorded by where it sits: ``span_posts[k]``
    indexes ``posts`` and ``span_idioms[k]`` indexes the key order of
    ``idiom_counts``.
    """

    groups: tuple[str, str]
    idiom_counts: dict[str, dict[str, int]] = field(default_factory=dict)
    variant_counts: dict[tuple[str, ...], dict[str, int]] = field(default_factory=dict)
    token_counts: dict[str, dict[str, int]] = field(default_factory=dict)
    group_totals: dict[str, int] = field(default_factory=dict)
    posts: tuple[Post, ...] = ()
    streams: list[TokenSeq] = field(default_factory=list)
    span_posts: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    span_idioms: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))

    def variant_total(self, tokens: tuple[str, ...]) -> int:
        return sum(self.variant_counts.get(tokens, {}).values())

    def tokens_for(self, group: str) -> dict[str, int]:
        return {t: c[group] for t, c in self.token_counts.items() if c[group] > 0}

    def combined_tokens(self) -> dict[str, int]:
        return {t: sum(c.values()) for t, c in self.token_counts.items()}

    def check_corpus(self, corpus: Corpus) -> None:
        """Reject a corpus other than the one these counts were taken over."""
        if self.posts != corpus.posts:
            raise ValueError("counts were not computed over this corpus")


def count_usages(matcher: Matcher, corpus: Corpus) -> GroupCounts:
    """Count idiom and token usage per group over the whole corpus."""
    groups = corpus.group_labels
    counts = GroupCounts(groups=groups, group_totals={g: 0 for g in groups}, posts=corpus.posts)
    column = {c: j for j, c in enumerate(dict.fromkeys(matcher.patterns.values()))}
    for canonical in column:
        counts.idiom_counts[canonical] = {g: 0 for g in groups}

    span_posts: list[int] = []
    span_idioms: list[int] = []
    for i, post in enumerate(corpus.posts):
        g = post.group
        tokens = list(post.tokens)
        matches = find_matches(matcher, tokens)
        for m in matches:
            counts.idiom_counts[m.canonical][g] += 1
            counts.variant_counts.setdefault(m.surface, {gr: 0 for gr in groups})[g] += 1
            span_posts.append(i)
            span_idioms.append(column[m.canonical])
        stream = _apply_rewrite(tokens, matches)
        counts.streams.append(stream)
        for tok in stream:
            counts.token_counts.setdefault(tok, {gr: 0 for gr in groups})[g] += 1
            counts.group_totals[g] += 1
    counts.span_posts = np.array(span_posts, dtype=np.intp)
    counts.span_idioms = np.array(span_idioms, dtype=np.intp)
    return counts

