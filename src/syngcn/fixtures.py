"""Deterministic desk-scale corpora.

The licensed CoNLL-2009 datasets cannot be redistributed, so the tests,
demos and CLI walkthroughs run on synthetic corpora built here: a small
overfittable treebank, a long-range corpus whose role evidence sits far away
in the sentence but one dependency hop from the predicate, and a
many-relation corpus for label-space checks. All generators are pure
functions of their arguments; no randomness.
"""

from __future__ import annotations

from pathlib import Path

from .conll import parse_conll

_DETS = ["the", "a"]
_NOUNS = ["cat", "dog", "bird", "fish", "farmer", "baker", "pilot", "robot",
          "child", "teacher", "horse", "crow", "tiger", "otter", "goose",
          "mouse", "diver", "clerk", "guard", "rider", "smith", "scout",
          "poet", "judge"]
_VERBS = ["chases", "feeds", "watches", "paints", "greets", "lifts",
          "pushes", "draws", "follows", "carries", "guides", "warns",
          "trains", "calls"]
_ADVERBS = ["quickly", "slowly", "quietly", "eagerly", "gladly", "calmly"]

_FILLERS = ["fuzz", "blip", "crank", "snarl", "plonk", "whir", "zig", "dreg"]
_PAIRS = [("miller", "sailor"), ("tailor", "weaver"), ("swimmer", "golfer"),
          ("singer", "dancer"), ("hunter", "skater"), ("keeper", "trader"),
          ("farmer", "potter"), ("fisher", "banker")]


def _verb_lemma(verb: str) -> str:
    return verb[:-1] if verb.endswith("s") else verb


def _row(idx: int, form: str, lemma: str, pos: str, head: int, deprel: str,
         sense: str | None, apreds: list[str]) -> str:
    fillpred = "Y" if sense else "_"
    cols = [str(idx), form, lemma, lemma, pos, pos, "_", "_", str(head),
            str(head), deprel, deprel, fillpred, sense or "_"] + apreds
    return "\t".join(cols)


def _sentence(rows: list[str]) -> str:
    return "\n".join(rows) + "\n\n"


def overfit_corpus(num_sentences: int = 20) -> str:
    """A 20-sentence treebank with roles A0/A1 decided by syntactic position.

    Three sentence shapes cycle: subject-verb-object with or without an
    adverb, and a coordination with two predicates sharing the subject.
    """
    out = []
    for i in range(num_sentences):
        det1, det2, det3 = _DETS[i % 2], _DETS[(i + 1) % 2], _DETS[i % 2]
        n1 = _NOUNS[(2 * i) % len(_NOUNS)]
        n2 = _NOUNS[(2 * i + 5) % len(_NOUNS)]
        n3 = _NOUNS[(2 * i + 9) % len(_NOUNS)]
        v1 = _VERBS[i % len(_VERBS)]
        v2 = _VERBS[(i + 3) % len(_VERBS)]
        adv = _ADVERBS[(i // 3) % len(_ADVERBS)]
        shape = i % 3
        if shape == 0:
            # det n1 v det n2 adv
            sense = _verb_lemma(v1) + ".01"
            rows = [
                _row(1, det1, det1, "DT", 2, "NMOD", None, ["_"]),
                _row(2, n1, n1, "NN", 3, "SBJ", None, ["A0"]),
                _row(3, v1, _verb_lemma(v1), "VB", 0, "ROOT", sense, ["_"]),
                _row(4, det2, det2, "DT", 5, "NMOD", None, ["_"]),
                _row(5, n2, n2, "NN", 3, "OBJ", None, ["A1"]),
                _row(6, adv, adv, "RB", 3, "ADV", None, ["_"]),
            ]
        elif shape == 1:
            # det n1 v det n2
            sense = _verb_lemma(v1) + ".01"
            rows = [
                _row(1, det1, det1, "DT", 2, "NMOD", None, ["_"]),
                _row(2, n1, n1, "NN", 3, "SBJ", None, ["A0"]),
                _row(3, v1, _verb_lemma(v1), "VB", 0, "ROOT", sense, ["_"]),
                _row(4, det2, det2, "DT", 5, "NMOD", None, ["_"]),
                _row(5, n2, n2, "NN", 3, "OBJ", None, ["A1"]),
            ]
        else:
            # det n1 v1 det n2 and v2 det n3  (two predicates)
            s1 = _verb_lemma(v1) + ".01"
            s2 = _verb_lemma(v2) + ".01"
            rows = [
                _row(1, det1, det1, "DT", 2, "NMOD", None, ["_", "_"]),
                _row(2, n1, n1, "NN", 3, "SBJ", None, ["A0", "A0"]),
                _row(3, v1, _verb_lemma(v1), "VB", 0, "ROOT", s1, ["_", "_"]),
                _row(4, det2, det2, "DT", 5, "NMOD", None, ["_", "_"]),
                _row(5, n2, n2, "NN", 3, "OBJ", None, ["A1", "_"]),
                _row(6, "and", "and", "CC", 3, "COORD", None, ["_", "_"]),
                _row(7, v2, _verb_lemma(v2), "VB", 6, "CONJ", s2, ["_", "_"]),
                _row(8, det3, det3, "DT", 9, "NMOD", None, ["_", "_"]),
                _row(9, n3, n3, "NN", 7, "OBJ", None, ["_", "A1"]),
            ]
        out.append(_sentence(rows))
    return "".join(out)


def structural_corpus(num_fillers: int = 5) -> str:
    """Role evidence 1 dependency hop but many tokens away from the predicate.

    Each sentence is [marker, fillers..., subject, verb, object]; the marker
    (alpha/beta), attached to the verb as COMP from num_fillers+2 tokens
    away, decides whether the subject is A0 or A1. Every subject/object pair
    occurs with both markers and the fillers do not depend on the marker, so
    the marker is the only usable signal. The fillers hang off the marker
    itself, keeping COMP the single one-hop channel into the predicate (the
    fillers' sequence states are marker-tinted, so giving them verb edges
    would open side channels).
    """
    out = []
    sense = "signal.01"
    for pair_idx, (n1, n2) in enumerate(_PAIRS):
        for marker in ("alpha", "beta"):
            role = "A0" if marker == "alpha" else "A1"
            verb_pos = num_fillers + 3
            rows = [_row(1, marker, marker, "NN", verb_pos, "COMP", None, ["_"])]
            for j in range(num_fillers):
                f = _FILLERS[(pair_idx + j) % len(_FILLERS)]
                rows.append(_row(2 + j, f, f, "NN", 1, "FILL", None, ["_"]))
            rows.append(_row(num_fillers + 2, n1, n1, "NN", verb_pos, "SBJ",
                             None, [role]))
            rows.append(_row(verb_pos, "signals", "signal", "VB", 0, "ROOT",
                             sense, ["_"]))
            rows.append(_row(verb_pos + 1, n2, n2, "NN", verb_pos, "OBJ",
                             None, ["_"]))
            out.append(_sentence(rows))
    return "".join(out)


def many_relation_corpus() -> str:
    """Chain trees of 11 tokens with 47 distinct relation names in play.

    ROOT (on the chain heads) counts as one of them; with the reserved UNK
    relation the resulting lexicon has 48 relation types.
    """
    tokens_per_sentence = 11
    rels = [f"REL{r:02d}" for r in range(46)]
    num_sentences = -(-len(rels) // (tokens_per_sentence - 1))
    out = []
    cursor = 0
    for s in range(num_sentences):
        rows = []
        for i in range(1, tokens_per_sentence + 1):
            form = f"w{(s * tokens_per_sentence + i) % 23:02d}"
            if i == 1:
                rows.append(_row(1, form, form, "NN", 0, "ROOT", None, []))
            else:
                rows.append(_row(i, form, form, "NN", i - 1,
                                 rels[cursor % len(rels)], None, []))
                cursor += 1
        out.append(_sentence(rows))
    return "".join(out)


def figure_sentence() -> str:
    """Sequa makes and repairs jet engines, with one flagged predicate."""
    rows = [
        _row(1, "Sequa", "sequa", "NNP", 2, "SBJ", None, ["A0"]),
        _row(2, "makes", "make", "VBZ", 0, "ROOT", "make.01", ["_"]),
        _row(3, "and", "and", "CC", 2, "COORD", None, ["_"]),
        _row(4, "repairs", "repair", "VBZ", 3, "CONJ", None, ["_"]),
        _row(5, "jet", "jet", "NN", 6, "NMOD", None, ["_"]),
        _row(6, "engines", "engine", "NNS", 2, "OBJ", None, ["A1"]),
    ]
    return _sentence(rows)


def tiny_embeddings(d: int = 4) -> str:
    """A small pretrained-embedding file covering part of the overfit vocab."""
    lines = []
    for i, word in enumerate(_NOUNS[:8] + _VERBS[:4]):
        values = [((i + 1) * (j + 1)) % 7 * 0.1 - 0.3 for j in range(d)]
        lines.append(word + " " + " ".join(f"{v:.2f}" for v in values))
    return "\n".join(lines) + "\n"


def structural_embeddings(d: int = 16) -> str:
    """Frozen vectors for the long-range corpus, one per word.

    Near-orthogonal unit-scale codes (fixed internal seed) stand in for real
    pretrained embeddings: they make word identity available at full
    strength from the first step, so training measures how fast each encoder
    routes it, not how fast it can grow embeddings from scratch. The two
    role-deciding markers get double-scale vectors so the routed signal is
    unmistakable.
    """
    import numpy as np

    words = ["alpha", "beta", "signals"] + _FILLERS + \
        sorted({n for pair in _PAIRS for n in pair})
    rng = np.random.default_rng(99)
    lines = []
    for word in words:
        vec = rng.uniform(-0.5, 0.5, size=d)
        if word in ("alpha", "beta"):
            vec = vec * 2.0
        lines.append(word + " " + " ".join(f"{v:.4f}" for v in vec))
    return "\n".join(lines) + "\n"


def gradcheck_model(seed: int = 7):
    """A full tiny model (1 BiLSTM layer, width 4, 1 GCN layer, 3 roles) in
    float64, plus its single 3-token training instance."""
    import numpy as np

    from .conll import build_lexicon
    from .trainer import SrlModel, TrainConfig, make_instances

    text = _sentence([
        _row(1, "birds", "bird", "NN", 2, "SBJ", None, ["A0"]),
        _row(2, "sing", "sing", "VB", 0, "ROOT", "sing.01", ["_"]),
        _row(3, "songs", "song", "NN", 2, "OBJ", None, ["A1"]),
    ])
    sentences = parse_conll(text.splitlines(keepends=True))
    lexicon = build_lexicon(sentences)
    config = TrainConfig(d_w=2, d_pos=2, d_l=2, d_h=4, d_r=3, d_l_out=3,
                         lstm_layers=1, gcn_layers=1, edge_dropout=0.0,
                         unk_replace_rate=0.0, dtype="float64", seed=seed)
    model = SrlModel(config, lexicon, np.random.default_rng(seed))
    instance = make_instances(sentences, lexicon)[0]
    return model, instance


def write_all(directory) -> dict[str, Path]:
    """Materialize the bundled corpora as files (for the CLI and demos)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = {
        "overfit.conll": overfit_corpus(),
        "structural.conll": structural_corpus(),
        "figure.conll": figure_sentence(),
        "embeddings.txt": tiny_embeddings(),
        "structural_embeddings.txt": structural_embeddings(),
    }
    paths = {}
    for name, text in files.items():
        path = directory / name
        path.write_text(text, encoding="utf-8", newline="")
        paths[name] = path
    return paths
