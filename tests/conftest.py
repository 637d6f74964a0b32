import pathlib

import pytest

from sill.parser import parse_program

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

CORPUS_FILES = sorted(CORPUS.glob("*.sill"))


@pytest.fixture(scope="session")
def corpus():
    """Parsed corpus programs keyed by stem."""
    return {p.stem: parse_program(p.read_text()) for p in CORPUS_FILES}


@pytest.fixture(scope="session")
def queue_env(corpus):
    return corpus["queue"].types


@pytest.fixture(scope="session")
def auction_env(corpus):
    return corpus["auction"].types


def mutate(src: str, edits) -> str:
    """src with its tokens edited by (op, i, j) triples, op one of "del",
    "dup" and "swap" (indexes taken modulo the length), joined by spaces."""
    from sill.parser import tokenize
    toks = [t.text for t in tokenize(src)][:-1]
    for op, i, j in edits:
        i, j = i % len(toks), j % len(toks)
        if op == "del":
            del toks[i]
        elif op == "dup":
            toks.insert(i, toks[i])
        else:
            toks[i], toks[j] = toks[j], toks[i]
    return " ".join(toks)
