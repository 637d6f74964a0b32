import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from sill.parser import (
    parse_program, parse_type, tokenize, ParseError, _KEYWORDS,
)
from sill.printer import format_type, format_program
from sill.types import (
    One, Tensor, Lolli, IChoice, EChoice, UpSL, DownSL, UpLL, DownLL,
    ValIn, ValOut, Ref, SHARED, LINEAR,
)

from conftest import CORPUS_FILES, mutate


def test_parse_type_precedence():
    # lolli binds loosest, then tensor, then the prefixes
    t = parse_type("1 * 1 -o 1")
    assert t == Lolli(Tensor(One(), One()), One())
    t = parse_type("!int. 1 * 1")
    assert t == Tensor(ValOut("int", One()), One())
    t = parse_type("up_s &{a: down_s queue}")
    assert t == UpSL(EChoice((("a", DownSL(Ref("queue"))),)))


def test_parse_type_right_assoc_lolli():
    assert parse_type("1 -o 1 -o 1") == Lolli(One(), Lolli(One(), One()))


def test_parse_type_parens():
    assert parse_type("(1 -o 1) * 1") == Tensor(Lolli(One(), One()), One())


def test_parse_type_choices_and_values():
    t = parse_type("+{a: ?int. 1, b: !id. 1}")
    assert t == IChoice((("a", ValIn("int", One())),
                         ("b", ValOut("id", One()))))


def test_parse_type_linear_shifts():
    assert parse_type("up_l down_l 1") == UpLL(DownLL(One()))


def test_modality_assignment():
    prog = parse_program("type s = up_s 1\ntype l = ?int. 1\n")
    assert prog.types.lookup("s").modality == SHARED
    assert prog.types.lookup("l").modality == LINEAR


def test_parse_errors_carry_line():
    with pytest.raises(ParseError) as e:
        parse_program("type t = \n+{}")
    assert "line" in str(e.value)
    with pytest.raises(ParseError):
        parse_type("1 *")
    with pytest.raises(ParseError):
        parse_type("&{a 1}")


def test_parse_proc_and_system():
    src = (
        "type cell = !int. 1\n"
        "proc P : () |- c: cell = put c 1; close c\n"
        "system { main P(); }\n"
    )
    prog = parse_program(src)
    assert "P" in prog.procs
    assert prog.system.main == ("P", ())


def test_corpus_parses():
    for p in CORPUS_FILES:
        parse_program(p.read_text())


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_format_parse_fixed_point(path):
    prog = parse_program(path.read_text())
    once = format_program(prog)
    again = format_program(parse_program(once))
    assert once == again


def test_format_type_round_trip():
    for src in ("1", "1 * 1 -o 1", "+{a: 1, b: ?int. 1}",
                "up_s &{a: down_s q}", "up_l ?id. down_l 1",
                "(1 -o 1) * 1"):
        t = parse_type(src)
        assert parse_type(format_type(t)) == t


def _front_end(src: str) -> str:
    """SHA-256 of src's tokens (kind, text, line) or lexing error, of
    parse_program's result or parse error, and of the formatted program."""
    h = hashlib.sha256()
    try:
        h.update(repr([(t.kind, t.text, t.line) for t in tokenize(src)])
                 .encode())
    except ParseError as e:
        h.update(f"ParseError: {e}".encode())
    h.update(b"\0")
    try:
        prog = parse_program(src)
    except ParseError as e:
        h.update(f"ParseError: {e}".encode())
    else:
        h.update(repr(prog).encode() + b"\0" + format_program(prog).encode())
    return h.hexdigest()


def _front_end_pin(path, variants=80):
    """(the file's digest, how many of its token-mutated variants parse,
    SHA-256 over the variants' digests in order)."""
    src = path.read_text()
    rng = random.Random(f"front end {path.stem}")
    h, parsed = hashlib.sha256(), 0
    for _ in range(variants):
        edits = [(rng.choice(("del", "dup", "swap")), rng.randrange(10**6),
                  rng.randrange(10**6)) for _ in range(rng.randint(1, 3))]
        text = mutate(src, edits)
        h.update(_front_end(text).encode())
        try:
            parse_program(text)
            parsed += 1
        except ParseError:
            pass
    return _front_end(src), parsed, h.hexdigest()


# file -> (SHA-256 of the file's front end, how many of its 80 variants
# parse, SHA-256 over the variants' digests)
FRONT_END = {
    "auction": (
        "f29c92ed91e8f09555023201ccc0b9fc6985cc2d542b2d925bde82261bce02a3",
        3, "13b369dceaaff605b771b7b0838a89462a96f18d8370744713067c916e0c9a94"),
    "basics": (
        "df9f2ade02a74da5b01b9d13b9e2157d2098df231c21786fd2fb4846be1897e1",
        2, "4c2eb44c8d54525148c7f316b3aa70373c9a9b0bc70bdd6aa2cebccf5b9e4c1e"),
    "dd": (
        "404856a1158fc18ff38170f5642ee1b5e86efe0c014981798a66a4cb6bad8039",
        3, "162c54597ee44b34032ad557d7148001d81739f32a5d1f9d39399b1ddef835e1"),
    "handoff": (
        "a4ad0ad7f67605f2e0696905071443ae6724a28e1e2c648e905f7d61b62ebe1b",
        3, "c4e7b64ef19645dd71e74750ca5b9f1d559236e65d7b97287d0af725c98d2382"),
    "ignore": (
        "a15dbaa635c0d93e074cc8c6355a60e021d543afc53f06330a29fa0918f6d8ee",
        2, "00eed367435b9f6f61cd47e116e9f5b9b8efafb4b09810d0d9d0058339e77e45"),
    "queue": (
        "655e392deae64aa73f970b8a0c7c4002fc01fb4b82206f2c48a71543c3628dc1",
        1, "4c79bace9992846ef77e50c8ececb57f1e8b3487990832d788a2a0ec1592d8ff"),
    "stuck": (
        "0ce4be6932ad8da564aaf8cfcb5e108621e12e35f06883af66d2545c1f944820",
        2, "0c30aee2137ee707d32e1d0789fc9e4f483167da4fe9bded60f6b828717322ec"),
}


def test_front_end_pinned():
    # 7 corpus files and 560 token-mutated variants of them
    assert {p.stem: _front_end_pin(p) for p in CORPUS_FILES} == FRONT_END


# the lexer as it was before the one-pattern rewrite, a character at a
# time, and its keywords and symbols
REFERENCE_KEYWORDS = {
    "type", "proc", "system", "main", "sh",
    "fwd", "close", "wait", "send", "recv", "case", "spawn",
    "acquire", "accept", "release", "detach", "put", "get",
    "up_s", "down_s", "up_l", "down_l",
}
REFERENCE_SYMBOLS = ("|-", "-o", "<-", "=>", "{", "}", "(", ")", ":", ";",
                     ",", ".", "=", "|", "*", "+", "&", "?", "!")


def reference_tokenize(src: str) -> list[tuple[str, str, int]]:
    toks = []
    i, line = 0, 1
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            continue
        if src.startswith("//", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            word = src[i:j]
            toks.append(("kw" if word in REFERENCE_KEYWORDS else "ident",
                         word, line))
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(("num", src[i:j], line))
            i = j
            continue
        for sym in REFERENCE_SYMBOLS:
            if src.startswith(sym, i):
                toks.append((sym, sym, line))
                i += len(sym)
                break
        else:
            raise ParseError(f"line {line}: unexpected character {ch!r}")
    toks.append(("eof", "", line))
    return toks


def _lexed(lex, src):
    try:
        return [tuple(t) for t in lex(src)]
    except ParseError as e:
        return str(e)


# every symbol and keyword, ASCII letters and digits, blanks, line breaks
# and comments, characters that only str.isalpha or str.isdigit accept
# ("é", "ß", "٣", "²") or neither ("½"), and a few that start no token;
# each group is drawn as often as each other
_PIECES = (REFERENCE_SYMBOLS, sorted(REFERENCE_KEYWORDS),
           "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ",
           "0123456789_", (" ", "\t", "\r", "\n", "//"),
           ("é", "ß", "٣", "²", "½", "-", "/", "<", "#"))


def test_keywords_match_reference():
    assert _KEYWORDS == REFERENCE_KEYWORDS


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.lists(st.one_of(*map(st.sampled_from, _PIECES)), max_size=40)
       .map("".join))
def test_tokenize_matches_reference(src):
    assert _lexed(tokenize, src) == _lexed(reference_tokenize, src)
