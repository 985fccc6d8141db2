"""Tokenization and the JSON-lines record reader that the corpus and
lexicon loaders share.

`analyze` reads posts as the token streams `prepare` wrote, so it loads
this module for the lexicon only and never `figlex.corpus`.
"""

from __future__ import annotations

import json
import re
from typing import Iterator, Sequence

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
# Runs of word characters (underscores excluded), optionally joined by
# internal apostrophes so "don't" and "one's" survive as single tokens.
_TOKEN_RE = re.compile(r"[^\W_]+(?:'[^\W_]+)*")


def tokenize(text: str) -> list[str]:
    """Lowercase `text` and split it into tokens.

    URLs are stripped before splitting; punctuation separates tokens except
    for apostrophes inside a word.  Idempotent on its own space-joined
    output.
    """
    cleaned = _URL_RE.sub(" ", text)
    cleaned = cleaned.replace("’", "'")
    return _TOKEN_RE.findall(cleaned.lower())


def read_records(path: str, required: Sequence[str]) -> Iterator[tuple[int, dict]]:
    """Yield (line number, record) for each line of a JSON-lines file but
    blank lines and '#' lines.  A line that is not a JSON object, or lacks
    one of the `required` keys as a string, is an error that names its
    line."""
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {lineno}: malformed JSON ({exc.msg})") from exc
            if not isinstance(rec, dict):
                raise ValueError(f"line {lineno}: expected a JSON object")
            for key in required:
                if not isinstance(rec.get(key), str):
                    raise ValueError(f"line {lineno}: missing or non-string key {key!r}")
            yield lineno, rec
