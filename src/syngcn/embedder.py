"""Per-word input representations.

Each word is the concatenation of a trainable word embedding, a frozen
pretrained word embedding, a POS-tag embedding and a lemma embedding that is
active only on the row of the predicate the instance is built for; total
width 2*d_w + d_pos + d_l. An instance's rows are one ``numerics.embed`` op,
which gathers the four lookups into one array.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .conll import Lexicon, Sentence, UNK
from .errors import FormatError

logger = logging.getLogger(__name__)


@dataclass
class LoadReport:
    file_tokens: int
    vocab_size: int        # real words only, reserved ids excluded
    covered: int           # vocab words that got a vector
    duplicates: int

    @property
    def hit_rate(self) -> float:
        return self.covered / self.vocab_size if self.vocab_size else 0.0


def load_pretrained(path, lexicon: Lexicon, dim: int
                    ) -> tuple[np.ndarray, LoadReport]:
    """Read a text embedding file into a [word-vocab x dim] frozen table.

    One line per token: the token then its ``dim`` values, whitespace-
    separated. Each vocabulary word is lowercased and looked up among the
    file tokens as written, so a file token with a capital letter never
    matches; words with no vector get a zero row, as do the reserved PAD/UNK
    ids. On duplicate tokens the last occurrence wins. A line with another
    count of values, or a non-finite value, is a ``FormatError``.
    """
    vectors: dict[str, np.ndarray] = {}
    duplicates = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                parts = raw.decode("utf-8").split()
            except UnicodeDecodeError:
                raise FormatError(f"{path}:{lineno}: not UTF-8 text") from None
            if not parts:
                continue
            token, values = parts[0], parts[1:]
            if len(values) != dim:
                raise FormatError(f"{path}:{lineno}: embedding of dim "
                                  f"{len(values)}, expected {dim}")
            if token in vectors:
                duplicates += 1
                logger.warning("%s:%d: duplicate token %r, keeping last",
                               path, lineno, token)
            try:
                vectors[token] = np.array(values, dtype=np.float64)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: non-numeric embedding "
                                  f"value") from None
            if not np.isfinite(vectors[token]).all():
                raise FormatError(f"{path}:{lineno}: non-finite embedding "
                                  f"value")
    vocab = lexicon.size("word")
    table = np.zeros((vocab, dim), dtype=np.float64)
    covered = 0
    reserved = 2  # PAD, UNK
    for i in range(reserved, vocab):
        vec = vectors.get(lexicon.string("word", i).lower())
        if vec is not None:
            table[i] = vec
            covered += 1
    report = LoadReport(file_tokens=len(vectors), vocab_size=vocab - reserved,
                        covered=covered, duplicates=duplicates)
    logger.info("pretrained embeddings: %d/%d vocabulary words covered "
                "(hit rate %.3f)", covered, report.vocab_size, report.hit_rate)
    return table, report


def tables_layout(lexicon: Lexicon, d_w: int, d_pos: int, d_l: int
                  ) -> nm.Layout:
    return [("embed.word", (lexicon.size("word"), d_w)),
            ("embed.pos", (lexicon.size("pos"), d_pos)),
            ("embed.lemma", (lexicon.size("lemma"), d_l))]


@dataclass
class EmbeddingTables:
    """The four lookup tables; only the pretrained word table is frozen."""

    word: nm.Tensor
    pos: nm.Tensor
    lemma: nm.Tensor
    word_pretrained: nm.Tensor


def embedding_tables(tensors, lexicon: Lexicon,
                     pretrained: np.ndarray | None = None) -> EmbeddingTables:
    """The tables of ``tables_layout``, from a store, and the frozen table,
    shaped like ``embed.word``: ``pretrained`` checked and cast, or zeros."""
    word = tensors["embed.word"]
    if pretrained is None:
        pretrained = np.zeros(word.shape, word.dtype)
    if pretrained.shape != word.shape:
        raise FormatError(f"pretrained table shape {pretrained.shape} != "
                          f"{word.shape}")
    # checked before the cast, which would overflow to inf (and warn)
    outside = ~(np.abs(pretrained) <= np.finfo(word.dtype).max).all(axis=1)
    if outside.any():
        bad = lexicon.string("word", int(np.argmax(outside)))
        raise FormatError(f"pretrained vector of {bad!r} has a value "
                          f"outside the {word.dtype.name} range")
    return EmbeddingTables(word, tensors["embed.pos"], tensors["embed.lemma"],
                           nm.Tensor(pretrained, dtype=word.dtype,
                                     name="embed.word_pretrained"))


def init_tables(tables: EmbeddingTables, rng: np.random.Generator) -> None:
    """Uniform [-0.01, 0.01] trainable tables, drawn word, POS, lemma."""
    for t in (tables.word, tables.pos, tables.lemma):
        nm.fill_uniform(t.data, 0.01, rng)


def embed_sentence(sentence: Sentence, predicate_index: int,
                   tables: EmbeddingTables, lexicon: Lexicon,
                   word_unk_mask: np.ndarray | None = None) -> nm.Tensor:
    """Build the [n x width] input matrix for one predicate instance, as one
    ``nm.embed`` op.

    ``predicate_index`` is 0-based. ``word_unk_mask`` (training only) marks
    rows whose trainable-word lookup is replaced by UNK; the frozen table
    always sees the true words.
    """
    form_ids = np.array([lexicon.lookup("word", t.form) for t in sentence.tokens],
                        dtype=np.intp)
    pos_ids = [lexicon.lookup("pos", t.pos) for t in sentence.tokens]
    trainable_ids = form_ids.copy()
    if word_unk_mask is not None:
        trainable_ids[word_unk_mask] = lexicon.lookup("word", UNK)

    lemma_id = lexicon.lookup("lemma", sentence.tokens[predicate_index].lemma)
    return nm.embed([(tables.word, trainable_ids),
                     (tables.word_pretrained, form_ids),
                     (tables.pos, pos_ids)], tables.lemma, lemma_id,
                    predicate_index)
