"""Seeded synthetic inputs for the benchmark workloads.

Each generator is a pure function of ``(seed, n)``: the same arguments give
byte-identical files.  Words are lowercase consonant-vowel strings of two or
three syllables.  No such string spells a label of the default normalization
registry (the only consonant-vowel labels, ``DU`` and ``PA``, have one
syllable), and none is an analyzer surface of the ``[restore]`` section, so
the gloss tokenizer always reads them as lemmas and the expected baseline
translation can be written down here without importing igtpivot.

Usage: python3 perfbench/gen.py --workload pivot --seed 1 --size smoke --out DIR
"""

from __future__ import annotations

import argparse
import itertools
import os
import random

CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"
SYLLABLES = [c + v for c in CONSONANTS for v in VOWELS]

# Analyzer tags of the default table's [analyzer] section, written out here so
# that the inputs stay the same when a later change edits the table.
AGREEMENT = ("A3sg", "A3sg", "A3pl", "A1sg", "A2sg", "A1pl", "A2pl")
POSSESSIVE = ("Pnon", "Pnon", "Pnon", "P1sg", "P2sg", "P3sg", "P1pl", "P2pl", "P3pl")
CASE = ("Nom", "Acc", "Dat", "Gen", "Loc", "Abl", "Ins")
TENSE = ("Past", "Narr", "Prog1", "Prog2", "Aor", "Fut", "Pres", "Cond", "Imp", "Opt")
VOICE = ("Neg", "Pass", "Caus", "Abil", "Reflex")
DROPPED_POS = ("Noun", "Verb", "Adj", "Adv", "Prop")
# Tags no table section knows.  They are upper case, so the gloss tokenizer
# classifies them as labels and the baseline strips them like known ones.
UNKNOWN_TAGS = ("DIM", "EMPH", "DUP", "QUES", "AUG", "HON")

OOV_SHARE = 0.15
UNKNOWN_TAG_SHARE = 0.03
VOCAB = 3000

# Items per workload at full size (a pass takes a few seconds) and at the
# smoke size used for quick checks.
SIZES = {"pivot": 5000, "corpus": 3000}
SMOKE = 40

# Command parameters shared by the CLI runs and the traced compositions.
ITERATIONS = 5
DICT_THRESHOLD = 0.1
LANG = "tur"


def words(rng: random.Random, k: int) -> list[str]:
    """``k`` distinct words of two or three syllables."""
    n2 = len(SYLLABLES) ** 2
    out = []
    for index in rng.sample(range(n2 + len(SYLLABLES) ** 3), k):
        n_syllables = 2 if index < n2 else 3
        if index >= n2:
            index -= n2
        parts = []
        for _ in range(n_syllables):
            index, rest = divmod(index, len(SYLLABLES))
            parts.append(SYLLABLES[rest])
        out.append("".join(parts))
    return out


class Zipf:
    """Draws items with probability proportional to 1/rank."""

    def __init__(self, items: list[str]) -> None:
        self.items = items
        self.cum = list(itertools.accumulate(1.0 / rank for rank in range(1, len(items) + 1)))

    def draw(self, rng: random.Random, k: int = 1) -> list[str]:
        return rng.choices(self.items, cum_weights=self.cum, k=k)


def _lines(rows) -> str:
    return "".join(row + "\n" for row in rows)


def _capitalize(sentence: str) -> str:
    return sentence[:1].upper() + sentence[1:]


def pivot(seed: int, n: int) -> dict:
    """``n`` analyzer lines of 4-14 tokens, a dictionary for 85% of the root
    mass, and the baseline translation the pipeline must produce."""
    rng = random.Random(f"pivot/{seed}")
    vocab = words(rng, 2 * VOCAB + VOCAB // 3)
    roots, targets, oov = vocab[:VOCAB], vocab[VOCAB : 2 * VOCAB], vocab[2 * VOCAB :]
    translation = dict(zip(roots, targets))
    known, unknown = Zipf(roots), Zipf(oov)

    def tags(template) -> list[str]:
        nonlocal n_unknown
        out = []
        for choices in template:
            if rng.random() < UNKNOWN_TAG_SHARE:
                out.append(rng.choice(UNKNOWN_TAGS))
                n_unknown += 1
            else:
                out.append(rng.choice(choices))
        return out

    lines, expected = [], []
    n_oov = n_unknown = 0
    for _ in range(n):
        n_tokens = rng.randint(4, 14)
        analyzed, translated = [], []
        for i in range(n_tokens):
            if rng.random() < OOV_SHARE:
                root = unknown.draw(rng)[0]
                n_oov += 1
                translated.append(root)
            else:
                root = known.draw(rng)[0]
                translated.append(translation[root])
            if rng.random() < 0.6:
                template = [AGREEMENT, POSSESSIVE, CASE]
            else:
                template = [TENSE, AGREEMENT]
                if rng.random() < 0.3:
                    template.insert(0, VOICE)
            if rng.random() < 0.2:
                template.insert(0, DROPPED_POS)
            word = "+".join([root] + tags(template))
            if i < n_tokens - 1 and rng.random() < 0.05:
                word += ","
                translated.append(",")
            analyzed.append(word)
        end = "." if rng.random() < 0.8 else "?"
        analyzed[-1] += end
        translated.append(end)
        lines.append(" ".join(analyzed))
        expected.append(_capitalize(" ".join(translated)))
    dictionary = [
        f"{root}\t{translation[root]}\t{round(rng.uniform(0.2, 1.0), 6)!r}"
        for root in sorted(roots)
    ]
    return {
        "files": {"analyzed.txt": _lines(lines), "dict.tsv": _lines(dictionary)},
        "expect": {
            "output": _lines(expected),
            "n_sentences": n,
            "oov_lemmas": n_oov,
            "unknown_labels": n_unknown,
        },
    }


def _parallel(seed: int, n: int) -> dict[str, str]:
    """``n`` sentence pairs of 4-16 tokens over Zipf source and target
    vocabularies; about 70% of source tokens have their translation on the
    target side."""
    rng = random.Random(f"align/{seed}")
    vocab = words(rng, 2 * VOCAB)
    sources, targets = vocab[:VOCAB], vocab[VOCAB:]
    translation = dict(zip(sources, targets))
    src_zipf, tgt_zipf = Zipf(sources), Zipf(targets)
    src_lines, tgt_lines = [], []
    for _ in range(n):
        src = src_zipf.draw(rng, rng.randint(4, 16))
        n_tgt = rng.randint(4, 16)
        tgt = [translation[f] for f in src if rng.random() < 0.7][:n_tgt]
        tgt += tgt_zipf.draw(rng, n_tgt - len(tgt))
        rng.shuffle(tgt)
        src_lines.append(" ".join(src))
        tgt_lines.append(" ".join(tgt))
    return {"src.txt": _lines(src_lines), "tgt.txt": _lines(tgt_lines)}


NOUN_FEATURES = ("3.SG", "3.SG", "3.PL", "1.SG", "2.PL")
NOUN_CASES = ("NOM", "ACC", "DAT", "GEN", "LOC", "ABL")
VERB_TENSES = ("PST", "PRS", "FUT", "PROG")


def corpus(seed: int, n: int) -> dict:
    """``n`` four-line IGT blocks, ``n`` parallel sentence pairs for the
    aligner, and hypothesis, reference and annotation files with one row
    per record."""
    rng = random.Random(f"corpus/{seed}")
    vocab = words(rng, 2 * VOCAB)
    roots, targets = vocab[:VOCAB], vocab[VOCAB:]
    translation = dict(zip(roots, targets))
    root_zipf = Zipf(roots)
    blocks, multi_src, multi_tgt, hyps, refs, anns = [], [], [], [], [], []
    for index in range(n):
        surface, gloss_src, gloss_tgt, lemmas = [], [], [], []
        nouns, verbs = [], []
        for root in root_zipf.draw(rng, rng.randint(3, 10)):
            target = translation[root]
            if rng.random() < 0.6:
                features = rng.choice(NOUN_FEATURES)
                labels = f".{features}.{rng.choice(NOUN_CASES)}"
                nouns.append(target)
            else:
                features = rng.choice(NOUN_FEATURES)
                tense = rng.choice(VERB_TENSES)
                labels = f"-{tense}.{features}"
                verbs.append((target, features, tense))
            surface.append(root + rng.choice(SYLLABLES))
            gloss_src.append(root + labels)
            gloss_tgt.append(target + labels)
            lemmas.append(target)
        blocks.append(
            "\n".join(
                [
                    " ".join(surface) + ".",
                    " ".join(gloss_src) + ".",
                    " ".join(gloss_tgt) + ".",
                    _capitalize(" ".join(lemmas)) + ".",
                ]
            )
        )
        multi_src.append(f"{LANG} " + " ".join(gloss_tgt) + " .")
        multi_tgt.append(_capitalize(" ".join(lemmas)) + ".")
        ref = lemmas + ["."]
        hyp = []
        for token in ref:
            roll = rng.random()
            if roll < 0.1:
                continue
            hyp.append(rng.choice(targets) if roll < 0.2 else token)
        refs.append(" ".join(ref))
        hyps.append(" ".join(hyp))
        fields = [f"s{index + 1:05d}"]
        if nouns:
            fields.append("nouns=" + ",".join(nouns[:2]))
        if verbs:
            verb, features, tense = verbs[0]
            fields += [f"verbs={verb}", f"subj={features}"]
            if tense != "PROG":
                fields.append(f"tense={tense}")
        anns.append("\t".join(fields))
    return {
        "files": {
            "blocks.txt": "\n\n".join(blocks) + "\n",
            **_parallel(seed, n),
            "hyp.txt": _lines(hyps),
            "ref.txt": _lines(refs),
            "ann.tsv": _lines(anns),
        },
        "expect": {
            "n_records": n,
            "src": _lines(multi_src),
            "tgt": _lines(multi_tgt),
        },
    }


GENERATORS = {"pivot": pivot, "corpus": corpus}


def write(inputs: dict, directory: str) -> dict[str, str]:
    """Write the generated files; return their paths by file name."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, text in inputs["files"].items():
        paths[name] = os.path.join(directory, name)
        with open(paths[name], "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", required=True, help="directory for the files")
    args = parser.parse_args()
    n = SIZES[args.workload] if args.size == "full" else SMOKE
    for path in write(GENERATORS[args.workload](args.seed, n), args.out).values():
        print(path)


if __name__ == "__main__":
    main()
