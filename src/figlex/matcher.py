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
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .lexicon import Lexicon, idiom_token

if TYPE_CHECKING:  # pragma: no cover
    from .corpus import Corpus


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

    Post i belongs to ``groups[post_groups[i]]`` and has ``token_counts[i]``
    tokens.  ``streams[i]`` is its tokens with each matched span replaced by
    its idiom token (`rewrite_with_idiom_tokens`), or its tokens themselves
    when nothing matched; token tallies are counted from these streams on
    request, so a matched span counts once as its idiom token.
    ``idiom_counts`` accumulates over all surface variants of an entry, and
    ``variant_counts`` holds one total per surface form, over both groups.
    Each matched span is an int64 index into the key order of
    ``idiom_counts`` (``span_idioms``) and of ``variant_counts``
    (``span_variants``), stored in one run per post, like CSR rows: post i's
    are ``span_idioms[span_starts[i]:span_starts[i + 1]]``, in token order.
    A streams file (`save_streams`) records no surface forms, so the counts
    `load_streams` reads leave ``variant_counts`` and ``span_variants`` empty.
    """

    groups: tuple[str, str]
    idiom_counts: dict[str, dict[str, int]] = field(default_factory=dict)
    variant_counts: dict[tuple[str, ...], int] = field(default_factory=dict)
    post_groups: array = field(default_factory=lambda: array("q"))
    token_counts: array = field(default_factory=lambda: array("q"))
    streams: list[Sequence[str]] = field(default_factory=list)
    span_starts: array = field(default_factory=lambda: array("q", [0]))
    span_idioms: array = field(default_factory=lambda: array("q"))
    span_variants: array = field(default_factory=lambda: array("q"))

    def posts_of(self, group: str) -> list[int]:
        """The indices of `group`'s posts, in corpus order."""
        k = self.groups.index(group) if group in self.groups else -1
        return [i for i, g in enumerate(self.post_groups) if g == k]

    def tokens_for(self, group: str) -> Counter[str]:
        """Token tallies over `group`'s rewritten streams."""
        return Counter(t for stream in self.streams_for(group) for t in stream)

    def streams_for(self, group: str) -> list[Sequence[str]]:
        """The rewritten streams of `group`'s posts, in corpus order."""
        return [self.streams[i] for i in self.posts_of(group)]

    def totals(self) -> dict[str, dict[str, int]]:
        """Per-group post and token counts."""
        out = {g: {"posts": 0, "tokens": 0} for g in self.groups}
        for k, n in zip(self.post_groups, self.token_counts):
            out[self.groups[k]]["posts"] += 1
            out[self.groups[k]]["tokens"] += n
        return out


class _Pick(NamedTuple):
    """A selected span's canonical and surface form, without its position."""

    canonical: str
    surface: tuple[str, ...]


_Spans = Sequence["Match | _Pick"]  # a post's selected spans, in token order


def _tally(matcher: Matcher, corpus: Corpus,
           reuse: Callable[[int], tuple[Sequence[str], _Spans] | None] | None) -> GroupCounts:
    """The counts of `matcher` over `corpus`: post i takes the stream and
    spans ``reuse(i)`` gives, or is matched when it gives None or there is
    no `reuse`."""
    groups = corpus.group_labels
    index = {g: k for k, g in enumerate(groups)}
    counts = GroupCounts(groups=groups)
    column = {c: j for j, c in enumerate(dict.fromkeys(matcher.patterns.values()))}
    idiom_counts = counts.idiom_counts = {c: {g: 0 for g in groups} for c in column}
    starts, idioms, variants = counts.span_starts, counts.span_idioms, counts.span_variants
    variant: dict[tuple[str, ...], int] = {}
    for i, post in enumerate(corpus.posts):
        reused = reuse(i) if reuse else None
        if reused is None:
            matches = find_matches(matcher, post.tokens)
            stream = _apply_rewrite(post.tokens, matches) if matches else post.tokens
        else:
            stream, matches = reused
        for m in matches:
            idiom_counts[m.canonical][post.group] += 1
            idioms.append(column[m.canonical])
            variants.append(variant.setdefault(m.surface, len(variant)))
        starts.append(len(idioms))
        counts.streams.append(stream)
    counts.post_groups = array("q", [index[post.group] for post in corpus.posts])
    counts.token_counts = array("q", [len(post.tokens) for post in corpus.posts])
    uses = Counter(counts.span_variants)
    counts.variant_counts = {surface: uses[v] for surface, v in variant.items()}
    return counts


def count_usages(matcher: Matcher, corpus: Corpus) -> GroupCounts:
    """Match every post once: idiom and surface counts, spans and streams."""
    return _tally(matcher, corpus, None)


def recount(counts: GroupCounts, before: Matcher, after: Matcher, corpus: Corpus) -> GroupCounts:
    """``count_usages(after, corpus)``, derived from ``counts``, which is
    ``count_usages(before, corpus)``, for an `after` that keeps some of
    `before`'s patterns.

    A post keeps its stream and spans unless one of its spans has a surface
    form that `after` dropped; only those posts are matched again.  This is
    exact for leftmost-longest matching: when every span of a post
    survives, `after` selects the same span at each position the scan
    visits, because a longer pattern of `after` there would have been
    `before`'s selection, and where `before` matched nothing, neither does
    `after`.
    """
    if not after.patterns.items() <= before.patterns.items():
        raise ValueError("recount needs a matcher whose patterns are a subset of the first")
    if len(counts.streams) != len(corpus.posts) or \
            len(counts.span_variants) != len(counts.span_idioms):
        raise ValueError("counts must hold the spans and surface forms of every post")
    picks = [_Pick(before.patterns[s], s) for s in counts.variant_counts]
    alive = [pick.surface in after.patterns for pick in picks]
    starts, variants = counts.span_starts, counts.span_variants

    def reuse(i: int) -> tuple[Sequence[str], _Spans] | None:
        a, b = starts[i], starts[i + 1]
        if a == b:
            return counts.streams[i], ()
        if not all(alive[v] for v in variants[a:b]):
            return None
        return counts.streams[i], [picks[v] for v in variants[a:b]]

    return _tally(after, corpus, reuse)


def save_streams(counts: GroupCounts, path: str) -> None:
    """Write one tab-separated line per post, in corpus order: its index
    into ``counts.groups``, its token count and its rewritten stream,
    space-joined.  Tokens hold no whitespace (see `tokenize`)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{g}\t{n}\t{' '.join(stream)}\n" for g, n, stream
                      in zip(counts.post_groups, counts.token_counts, counts.streams))


def load_streams(path: str, labels: Sequence[str], lexicon: Lexicon) -> GroupCounts:
    """The counts of `lexicon`'s idioms over a streams file.

    The file is one `save_streams` wrote from counts over `lexicon`, whose
    group indices point into `labels`.  The result equals those counts but
    for the surface forms, which the file does not record, and its
    ``groups``, which take the labels in the order the rows first show
    them.  A line that is not three tab-separated fields, a group index
    other than 0 or 1, an idiom token that is not one of `lexicon`'s, or a
    stream that its token count cannot have given is an error that names
    its line.
    """
    if len(labels) != 2 or labels[0] == labels[1]:
        raise ValueError(f"group labels must be two distinct labels, got {labels!r}")
    columns = [entry.key for entry in lexicon if entry.variants]
    column = {idiom_token(c): j for j, c in enumerate(columns)}
    usage = [[0, 0] for _ in columns]  # per column, by the file's group index
    counts = GroupCounts(groups=(labels[0], labels[1]))
    post_groups, idioms, starts = counts.post_groups, counts.span_idioms, counts.span_starts
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                g, n, text = line.rstrip("\n").split("\t")
                g, n = int(g), int(n)
            except ValueError:
                raise ValueError(f"line {lineno}: expected '<group index>\\t<token count>"
                                 f"\\t<stream>'") from None
            if g not in (0, 1):
                raise ValueError(f"line {lineno}: group index {g} is not 0 or 1")
            stream = text.split(" ") if text else []
            if "" in stream:
                raise ValueError(f"line {lineno}: the stream holds an empty token")
            if "_" in text:  # only idiom tokens hold an underscore
                for token in stream:
                    if "_" in token:
                        j = column.get(token)
                        if j is None:
                            raise ValueError(f"line {lineno}: idiom token {token!r} is not "
                                             f"in the lexicon")
                        idioms.append(j)
                        usage[j][g] += 1
            # a span of k tokens leaves one; without spans the stream is the post
            if len(stream) > n or (len(stream) < n and starts[-1] == len(idioms)):
                raise ValueError(f"line {lineno}: a stream of {len(stream)} tokens cannot "
                                 f"come from a post of {n} tokens")
            starts.append(len(idioms))
            post_groups.append(g)
            counts.token_counts.append(n)
            counts.streams.append(stream)
    order = list(dict.fromkeys(post_groups))
    order += [k for k in (0, 1) if k not in order]
    if order == [1, 0]:
        counts.groups = (labels[1], labels[0])
        counts.post_groups = array("q", [1 - g for g in post_groups])
    counts.idiom_counts = {c: {counts.groups[0]: used[order[0]], counts.groups[1]: used[order[1]]}
                           for c, used in zip(columns, usage)}
    return counts
