"""Per-word input representations.

Each word is the concatenation of a trainable word embedding, a frozen
pretrained word embedding, a POS-tag embedding and a lemma embedding that is
active only on the row of the predicate the instance is built for; total
width 2*d_w + d_pos + d_l.
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


def load_pretrained(path, lexicon: Lexicon, expected_dim: int | None = None
                    ) -> tuple[np.ndarray, LoadReport]:
    """Read a text embedding file into a [word-vocab x d] frozen table.

    One line per token: the token then its values, whitespace-separated.
    Vocabulary words are matched against lowercased file tokens; words with
    no vector get a zero row, as do the reserved PAD/UNK ids. On duplicate
    tokens the last occurrence wins.
    """
    vectors: dict[str, np.ndarray] = {}
    dim = expected_dim
    duplicates = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split()
            if not parts:
                continue
            token, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
            if len(values) != dim:
                raise FormatError(f"{path}:{lineno}: embedding of dim "
                                  f"{len(values)}, expected {dim}")
            if token in vectors:
                duplicates += 1
                logger.warning("%s:%d: duplicate token %r, keeping last",
                               path, lineno, token)
            vectors[token] = np.array(values, dtype=np.float64)
    if dim is None:
        dim = expected_dim or 0
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


class EmbeddingTables:
    """The four lookup tables; only the pretrained word table is frozen."""

    def __init__(self, lexicon: Lexicon, d_w: int, d_pos: int, d_l: int,
                 rng: np.random.Generator, dtype=np.float32,
                 pretrained: np.ndarray | None = None):
        self.d_w, self.d_pos, self.d_l = d_w, d_pos, d_l
        self.dtype = np.dtype(dtype)

        def table(name, rows, cols):
            data = rng.uniform(-0.01, 0.01, size=(rows, cols))
            return nm.parameter(name, data, dtype=self.dtype)

        self.word = table("embed.word", lexicon.size("word"), d_w)
        self.pos = table("embed.pos", lexicon.size("pos"), d_pos)
        self.lemma = table("embed.lemma", lexicon.size("lemma"), d_l)
        if pretrained is None:
            pretrained = np.zeros((lexicon.size("word"), d_w))
        if pretrained.shape != (lexicon.size("word"), d_w):
            raise FormatError(f"pretrained table shape {pretrained.shape} != "
                              f"({lexicon.size('word')}, {d_w})")
        self.word_pretrained = nm.Tensor(pretrained, dtype=self.dtype,
                                         name="embed.word_pretrained")

    @property
    def width(self) -> int:
        return 2 * self.d_w + self.d_pos + self.d_l

    def parameters(self) -> dict[str, nm.Tensor]:
        return {t.name: t for t in
                (self.word, self.word_pretrained, self.pos, self.lemma)}


def embed_sentence(sentence: Sentence, predicate_index: int,
                   tables: EmbeddingTables, lexicon: Lexicon,
                   word_unk_mask: np.ndarray | None = None) -> nm.Tensor:
    """Build the [n x width] input matrix for one predicate instance.

    ``predicate_index`` is 0-based. ``word_unk_mask`` (training only) marks
    rows whose trainable-word lookup is replaced by UNK; the frozen table
    always sees the true words.
    """
    n = len(sentence)
    form_ids = np.array([lexicon.lookup("word", t.form) for t in sentence.tokens],
                        dtype=np.intp)
    pos_ids = [lexicon.lookup("pos", t.pos) for t in sentence.tokens]
    trainable_ids = form_ids.copy()
    if word_unk_mask is not None:
        trainable_ids[word_unk_mask] = lexicon.lookup("word", UNK)

    x_re = nm.rows(tables.word, trainable_ids)
    x_pe = nm.rows(tables.word_pretrained, form_ids)
    x_pos = nm.rows(tables.pos, pos_ids)

    lemma_id = lexicon.lookup("lemma", sentence.tokens[predicate_index].lemma)
    lemma_vec = nm.rows(tables.lemma, [lemma_id])           # [1 x d_l]
    onehot = np.zeros((n, 1), dtype=tables.dtype)
    onehot[predicate_index, 0] = 1.0
    x_le = nm.matmul(nm.constant(onehot, dtype=tables.dtype), lemma_vec)

    return nm.concat([x_re, x_pe, x_pos, x_le], axis=1)
