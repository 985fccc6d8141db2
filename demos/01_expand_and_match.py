"""Expanding idioms into surface variants and matching them in text.

Walks the first pipeline step: declare canonical forms with their
variation axes, expand them, then scan token streams for occurrences and
rewrite matched spans into single idiom tokens.
"""

from figlex import (
    IdiomEntry,
    Lexicon,
    build_matcher,
    expand_entry,
    find_matches,
    inflect_verb,
    rewrite_with_idiom_tokens,
    tokenize,
)

print("== verb inflection ==")
for lemma in ("pick", "throw", "be", "carry"):
    print(f"  {lemma:>6} -> {sorted(inflect_verb(lemma))}")

print("\n== variant expansion ==")
lexicon = Lexicon()
for canonical, definition, verb_index, slot_index in [
    ("pick a fight", "to start an angry argument", 0, None),
    ("swallow one's pride", "to accept something humiliating", 0, 1),
    ("over the moon", "to be extremely happy", None, None),
]:
    entry = IdiomEntry(
        canonical=tuple(tokenize(canonical)),
        definition=tuple(tokenize(definition)),
        verb_index=verb_index,
        slot_index=slot_index,
        slot_kind="possessive" if slot_index is not None else None,
    )
    entry.variants = expand_entry(entry)
    forms = [" ".join(f) for f in entry.variants]
    lexicon.entries[entry.key] = entry
    print(f"  {canonical!r}: {len(forms)} surface forms, e.g. {forms[:4]}")

print("\n== matching and rewriting ==")
matcher = build_matcher(lexicon)
text = "She swallowed her pride, he picked a fight, and now I'm over the moon."
tokens = tokenize(text)
print(f"  text:    {text}")
for m in find_matches(matcher, tokens):
    print(f"  match:   {m.canonical!r} at tokens [{m.start}, {m.end})"
          f" via {' '.join(m.surface)!r}")
print(f"  rewrite: {rewrite_with_idiom_tokens(matcher, tokens)}")
