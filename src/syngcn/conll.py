"""CoNLL-2009 reading/writing, vocabularies, and tree repair.

Column layout (tab-separated, blank line between sentences):
ID FORM LEMMA PLEMMA POS PPOS FEAT PFEAT HEAD PHEAD DEPREL PDEPREL
FILLPRED PRED APRED1..APREDn. Predicted syntax columns (PPOS/PHEAD/PDEPREL)
are preferred over the gold ones by default; FEAT/PFEAT are carried verbatim
and never interpreted.
"""

from __future__ import annotations

import collections
import logging
from dataclasses import dataclass, field

from .errors import FormatError, ParseError

logger = logging.getLogger(__name__)

NULL_ROLE = "_"
PAD = "<pad>"
UNK = "<unk>"

LEXICON_MAGIC = "SYNGCNLEX1"

_NUM_FIXED_COLS = 14


@dataclass
class Token:
    index: int           # 1-based position in the sentence
    form: str
    lemma: str
    pos: str
    head: int            # 1-based head index, 0 = root
    deprel: str
    is_predicate: bool
    sense: str = ""


@dataclass
class Sentence:
    tokens: list[Token]
    predicates: list[int]        # 1-based token indices, in column order
    roles: list[list[str]]       # [num_predicates][num_tokens], "_" = NULL
    raw_rows: list[list[str]] = field(default_factory=list, repr=False)

    def __len__(self) -> int:
        return len(self.tokens)


def _repair_tree(heads: list[int], where: str) -> list[int]:
    """Force ``heads`` into a single-rooted tree, reattaching offenders to root.

    Cycles are broken by sending the smallest-index member of each cycle to
    the root; a forest (several head-0 tokens) is left as-is apart from a
    warning, since every token is already reachable from the virtual root.
    """
    n = len(heads)
    heads = list(heads)
    roots = [i for i, h in enumerate(heads) if h == 0]
    if len(roots) > 1:
        logger.warning("%s: %d root attachments (expected 1)", where, len(roots))
    for start in range(n):
        # walk up; a chain longer than n tokens means we are in a cycle
        seen = set()
        node = start
        while heads[node] != 0:
            if node in seen:
                cycle_min = min(seen)
                logger.warning("%s: head cycle at token %d, reattached to root",
                               where, cycle_min + 1)
                heads[cycle_min] = 0
                break
            seen.add(node)
            node = heads[node] - 1
    return heads


def parse_conll(stream, use_gold_syntax: bool = False) -> list[Sentence]:
    """Parse a CoNLL-2009 stream (iterable of lines or a file object)."""
    sentences: list[Sentence] = []
    rows: list[list[str]] = []
    start_line = 1
    for lineno, line in enumerate(stream, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            if rows:
                sentences.append(_rows_to_sentence(rows, start_line, use_gold_syntax))
                rows = []
            start_line = lineno + 1
            continue
        cols = line.split("\t")
        if len(cols) < _NUM_FIXED_COLS:
            raise ParseError(f"line {lineno}: expected >= {_NUM_FIXED_COLS} "
                             f"columns, got {len(cols)}")
        rows.append(cols)
    if rows:
        sentences.append(_rows_to_sentence(rows, start_line, use_gold_syntax))
    return sentences


def parse_conll_file(path, use_gold_syntax: bool = False) -> list[Sentence]:
    """``parse_conll`` of the file at ``path``; a ``ParseError`` names it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return parse_conll(fh, use_gold_syntax=use_gold_syntax)
        except UnicodeDecodeError:
            raise ParseError(f"{path}: not UTF-8 text") from None
        except ParseError as err:
            raise ParseError(f"{path}: {err}") from None


def _pick(pred_col: str, gold_col: str, use_gold: bool) -> str:
    if use_gold:
        return gold_col if gold_col != "_" else pred_col
    return pred_col if pred_col != "_" else gold_col


def _rows_to_sentence(rows: list[list[str]], start_line: int,
                      use_gold_syntax: bool) -> Sentence:
    n = len(rows)
    apred_count = len(rows[0]) - _NUM_FIXED_COLS
    tokens: list[Token] = []
    predicates: list[int] = []
    heads: list[int] = []
    for offset, cols in enumerate(rows):
        lineno = start_line + offset
        if len(cols) - _NUM_FIXED_COLS != apred_count:
            raise ParseError(f"line {lineno}: ragged APRED columns "
                             f"({len(cols) - _NUM_FIXED_COLS} vs {apred_count})")
        head_col = _pick(cols[9], cols[8], use_gold_syntax)
        try:
            head = int(head_col)
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer HEAD {head_col!r}") from None
        if not 0 <= head <= n:
            raise ParseError(f"line {lineno}: HEAD {head} out of range")
        heads.append(head)
        is_pred = cols[12] == "Y"
        if is_pred:
            predicates.append(offset + 1)
        tokens.append(Token(
            index=offset + 1,
            form=cols[1],
            lemma=cols[2],
            pos=_pick(cols[5], cols[4], use_gold_syntax),
            head=head,
            deprel=_pick(cols[11], cols[10], use_gold_syntax),
            is_predicate=is_pred,
            sense=cols[13] if cols[13] != "_" else "",
        ))
    if apred_count != len(predicates):
        raise ParseError(f"line {start_line}: {apred_count} APRED columns for "
                         f"{len(predicates)} predicates")
    heads = _repair_tree(heads, f"sentence at line {start_line}")
    for tok, head in zip(tokens, heads):
        tok.head = head
    roles = [[rows[i][_NUM_FIXED_COLS + p] for i in range(n)]
             for p in range(len(predicates))]
    return Sentence(tokens=tokens, predicates=predicates, roles=roles,
                    raw_rows=[list(c) for c in rows])


def write_conll(sentences: list[Sentence], predictions=None) -> str:
    """Render sentences back to CoNLL-2009 text.

    ``predictions`` (a ``PredictionSet``-like mapping, or None) replaces the
    APRED cells; with None the input roles are written back, which
    round-trips the original file byte for byte.
    """
    from .errors import ContractError

    chunks: list[str] = []
    for sent_id, sent in enumerate(sentences):
        for i, cols in enumerate(sent.raw_rows):
            cols = list(cols)
            for p in range(len(sent.predicates)):
                if predictions is None:
                    role = sent.roles[p][i]
                else:
                    role = predictions.role_string(sent_id, p, i)
                    if role is None:
                        raise ContractError(
                            f"missing prediction for sentence {sent_id}, "
                            f"predicate {p}")
                cols[_NUM_FIXED_COLS + p] = role
            chunks.append("\t".join(cols))
            chunks.append("\n")
        chunks.append("\n")
    return "".join(chunks)


def write_conll_file(path, sentences, predictions=None) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(write_conll(sentences, predictions))


# ---------------------------------------------------------------------------
# lexicon
# ---------------------------------------------------------------------------

class _Inventory:
    """One string<->id table with counts and optional reserved entries."""

    def __init__(self, reserved: list[str], unk: str | None):
        self.strings: list[str] = list(reserved)
        self.ids: dict[str, int] = {s: i for i, s in enumerate(reserved)}
        self.counts: list[int] = [0] * len(reserved)
        self.unk_id = self.ids[unk] if unk is not None else None

    def intern(self, s: str) -> int:
        if s in self.ids:
            i = self.ids[s]
            self.counts[i] += 1
            return i
        i = len(self.strings)
        self.strings.append(s)
        self.ids[s] = i
        self.counts.append(1)
        return i

    def lookup(self, s: str) -> int:
        i = self.ids.get(s)
        if i is None:
            if self.unk_id is None:
                raise KeyError(s)
            return self.unk_id
        return i

    def __len__(self) -> int:
        return len(self.strings)


class Lexicon:
    """Bidirectional string<->id maps for every symbol kind the model uses.

    Kinds: ``word``, ``lemma``, ``pos``, ``deprel``, ``role`` and ``plemma``
    (the output-side predicate-lemma vocabulary). Ids are dense, assigned in
    first-appearance order, and stable across save/load. Words below the
    ``min_freq`` cutoff are not interned and resolve to UNK at lookup time.
    The role inventory always contains NULL at id 0; the deprel inventory
    reserves an UNK relation at id 0 for unseen test-time relations.
    """

    KINDS = ("word", "lemma", "pos", "deprel", "role", "plemma")

    def __init__(self):
        self._inv = {
            "word": _Inventory([PAD, UNK], UNK),
            "lemma": _Inventory([PAD, UNK], UNK),
            "pos": _Inventory([PAD, UNK], UNK),
            "deprel": _Inventory([UNK], UNK),
            "role": _Inventory([NULL_ROLE], None),
            "plemma": _Inventory([UNK], UNK),
        }

    def lookup(self, kind: str, s: str) -> int:
        return self._inv[kind].lookup(s)

    def string(self, kind: str, i: int) -> str:
        return self._inv[kind].strings[i]

    def size(self, kind: str) -> int:
        return len(self._inv[kind])

    def count(self, kind: str, i: int) -> int:
        return self._inv[kind].counts[i]

    def strings(self, kind: str) -> list[str]:
        return list(self._inv[kind].strings)

    @property
    def num_deprels(self) -> int:
        return self.size("deprel")

    def has(self, kind: str, s: str) -> bool:
        return s in self._inv[kind].ids

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(LEXICON_MAGIC + "\n")
            for kind in self.KINDS:
                inv = self._inv[kind]
                for i, s in enumerate(inv.strings):
                    fh.write(f"{kind}\t{i}\t{s}\t{inv.counts[i]}\n")

    @classmethod
    def load(cls, path) -> "Lexicon":
        lex = cls()
        with open(path, "rb") as fh:
            if fh.readline().rstrip(b"\r\n") != LEXICON_MAGIC.encode():
                raise FormatError(f"{path}: not a {LEXICON_MAGIC} lexicon")
            for lineno, raw in enumerate(fh, start=2):
                try:
                    line = raw.decode("utf-8").rstrip("\r\n")
                except UnicodeDecodeError:
                    raise FormatError(f"{path}:{lineno}: not UTF-8 text") from None
                if not line:
                    continue
                try:
                    kind, i, s, count = line.split("\t")
                    i, count = int(i), int(count)
                except ValueError:
                    raise FormatError(f"{path}:{lineno}: bad lexicon line") from None
                if i < 0:
                    raise FormatError(f"{path}:{lineno}: negative id {i}")
                if count < 0:
                    raise FormatError(f"{path}:{lineno}: negative count {count}")
                inv = lex._inv.get(kind)
                if inv is None:
                    raise FormatError(f"{path}:{lineno}: unknown kind {kind!r}")
                if i < len(inv.strings):
                    if inv.strings[i] != s:
                        raise FormatError(f"{path}:{lineno}: reserved id clash")
                    inv.counts[i] = count
                elif i == len(inv.strings):
                    if s in inv.ids:
                        raise FormatError(f"{path}:{lineno}: {kind} {s!r} "
                                          f"already has id {inv.ids[s]}")
                    inv.strings.append(s)
                    inv.ids[s] = i
                    inv.counts.append(count)
                else:
                    raise FormatError(f"{path}:{lineno}: non-dense id {i}")
        return lex


def build_lexicon(sentences: list[Sentence], min_freq: int = 1) -> Lexicon:
    """Collect vocabularies from (training) sentences.

    Words occurring fewer than ``min_freq`` times are left out and resolve to
    UNK later; every other inventory is unfiltered. Predicate lemmas feed the
    separate output-lemma inventory used by the role scorer.
    """
    lex = Lexicon()
    word_counts: collections.Counter[str] = collections.Counter()
    for sent in sentences:
        for tok in sent.tokens:
            word_counts[tok.form] += 1
            lex._inv["lemma"].intern(tok.lemma)
            lex._inv["pos"].intern(tok.pos)
            lex._inv["deprel"].intern(tok.deprel)
            if tok.is_predicate:
                lex._inv["plemma"].intern(tok.lemma)
        for role_row in sent.roles:
            for role in role_row:
                if role != NULL_ROLE:
                    lex._inv["role"].intern(role)
    for sent in sentences:
        for tok in sent.tokens:
            if word_counts[tok.form] >= min_freq:
                lex._inv["word"].intern(tok.form)
    return lex
