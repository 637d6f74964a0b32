import hashlib
import random
from dataclasses import replace
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from sill.parser import (
    parse_program, parse_type, tokenize, ParseError, Program, SystemDecl,
    SYNTAX, _KEYWORDS,
)
from sill.printer import format_type, format_program
from sill.procast import (
    CaseRecv, Param, ProcDef, ProcSignature, SendLabel, Spawn,
    FIELDS, NAME, BINDER, CONT,
)
from sill.types import (
    One, Tensor, Lolli, IChoice, EChoice, UpSL, DownSL, UpLL, DownLL,
    ValIn, ValOut, Ref, TypeDef, TypeDefEnv, TypeError_, unfold,
    SHARED, LINEAR,
)

from conftest import CORPUS, CORPUS_FILES, mutate


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
    # a word spelt like the end of input is no end of input
    with pytest.raises(ParseError, match="^line 2: expected 'eof', got 'eof'$"):
        parse_type("1\neof")


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


# the parser as it was before it read token texts: a named tuple per token
# from reference_tokenize, read through peek/next/expect/at, and the
# modalities set by dataclasses.replace
class RefToken(NamedTuple):
    kind: str
    text: str
    line: int


REF_WORDS = {word: cls for cls, word in SYNTAX.items()}
REF_SHAPE = {cls: cls.__match_args__ for cls in SYNTAX}
REF_BOUND = {cls for cls in SYNTAX if "binder" in REF_SHAPE[cls]}
REF_PREFIXED = {cls: ([f for f, role in FIELDS[cls] if role is NAME],
                      "cont" in REF_SHAPE[cls])
                for cls in SYNTAX if cls in FIELDS and cls not in REF_BOUND}


class _RefP:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, text=None):
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise ParseError(f"line {t.line}: expected {want!r}, got {t.text!r}")
        return self.next()

    def at(self, kind, text=None):
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def ident(self):
        return self.expect("ident").text

    def many(self, item, sep):
        items = [item()]
        while self.at(sep):
            self.next()
            items.append(item())
        return items

    def type_(self):
        left = self.type_tensor()
        if self.at("-o"):
            self.next()
            return Lolli(left, self.type_())
        return left

    def type_tensor(self):
        left = self.type_prefix()
        if self.at("*"):
            self.next()
            return Tensor(left, self.type_tensor())
        return left

    def type_prefix(self):
        t = self.next()
        cls = REF_WORDS.get(t.text)
        match REF_SHAPE.get(cls):
            case ("cont",):
                return cls(self.type_prefix())
            case ("base", "cont"):
                base = self.ident()
                self.expect(".")
                return cls(base, self.type_prefix())
            case ("branches",):
                self.expect("{")
                branches = self.many(self.branch, ",")
                self.expect("}")
                return cls(tuple(branches))
        if t.kind == "num" and t.text == "1":
            return One()
        if t.kind == "ident":
            return Ref(t.text)
        if t.kind == "(":
            ty = self.type_()
            self.expect(")")
            return ty
        raise ParseError(f"line {t.line}: expected a type, got {t.text!r}")

    def branch(self):
        label = self.ident()
        self.expect(":")
        return label, self.type_()

    def proc_body(self):
        spine = []
        while True:
            t = self.next()
            cls = REF_WORDS.get(t.text) if t.kind == "kw" else None
            if cls in REF_PREFIXED:
                names, continues = REF_PREFIXED[cls]
                vals = [self.value() if f == "value" else self.ident()
                        for f in names]
                if not continues:
                    p = cls(*vals)
                    break
                head = cls, vals
            elif t.kind == "kw" and t.text == "case":
                on = self.ident()
                self.expect("{")
                branches = self.many(self.case_arm, "|")
                self.expect("}")
                p = CaseRecv(on, tuple(branches))
                break
            elif t.kind == "ident" and self.at("."):
                self.next()
                head = SendLabel, [t.text, self.ident()]
            elif t.kind == "ident":
                self.expect("<-")
                head = self.binding(t.text)
            else:
                raise ParseError(
                    f"line {t.line}: expected a process, got {t.text!r}")
            self.expect(";")
            spine.append(head)
        for cls, vals in reversed(spine):
            p = cls(*vals, p)
        return p

    def value(self):
        v = self.next()
        if v.kind not in ("ident", "num"):
            raise ParseError(
                f"line {v.line}: expected a value, got {v.text!r}")
        return v.text

    def binding(self, name):
        verb = self.peek()
        if verb.kind != "kw":
            raise ParseError(
                f"line {verb.line}: expected an action, got {verb.text!r}")
        self.next()
        if verb.text == "spawn":
            proc, args = self.call()
            return Spawn, [proc, name, args]
        cls = REF_WORDS.get(verb.text)
        if cls not in REF_BOUND:
            raise ParseError(f"line {verb.line}: unknown action {verb.text!r}")
        subject = self.ident()
        return cls, [name if role is BINDER else subject
                     for _, role in FIELDS[cls] if role is not CONT]

    def case_arm(self):
        label = self.ident()
        self.expect("=>")
        return label, self.proc_body()

    def typedef(self):
        self.expect("kw", "type")
        name = self.ident()
        self.expect("=")
        return TypeDef(name, LINEAR, self.type_())

    def procdef(self):
        self.expect("kw", "proc")
        name = self.ident()
        self.expect(":")
        self.expect("(")
        params = [] if self.at(")") else self.many(self.param, ",")
        self.expect(")")
        self.expect("|-")
        offer = self.ident()
        self.expect(":")
        offer_ty = self.type_()
        self.expect("=")
        body = self.proc_body()
        return ProcDef(name, offer, offer_ty, False, tuple(params), body)

    def param(self):
        shared = False
        if self.at("kw", "sh"):
            self.next()
            shared = True
        chan = self.ident()
        self.expect(":")
        return Param(chan, self.type_(), shared)

    def system(self):
        self.expect("kw", "system")
        self.expect("{")
        spawns = []
        main = None
        while not self.at("}"):
            if self.at("kw", "main"):
                t = self.next()
                if main is not None:
                    raise ParseError(f"line {t.line}: duplicate main")
                main = self.call()
            else:
                binder = self.ident()
                self.expect("<-")
                self.expect("kw", "spawn")
                spawns.append((binder, *self.call()))
            self.expect(";")
        self.expect("}")
        if main is None:
            raise ParseError("system block has no main process")
        return SystemDecl(tuple(spawns), main)

    def call(self):
        proc = self.ident()
        self.expect("(")
        args = [] if self.at(")") else self.many(self.ident, ",")
        self.expect(")")
        return proc, tuple(args)


def _ref_shared(env, t):
    try:
        return isinstance(unfold(env, t), UpSL)
    except (KeyError, TypeError_):
        return False


def reference_parse(src: str) -> Program:
    p = _RefP([RefToken(*t) for t in reference_tokenize(src)])
    typedefs, procdefs, system = [], [], None
    while not p.at("eof"):
        if p.at("kw", "type"):
            typedefs.append(p.typedef())
        elif p.at("kw", "proc"):
            procdefs.append(p.procdef())
        elif p.at("kw", "system"):
            if system is not None:
                raise ParseError(
                    f"line {p.peek().line}: duplicate system block")
            system = p.system()
        else:
            t = p.peek()
            raise ParseError(
                f"line {t.line}: expected a declaration, got {t.text!r}")
    env = TypeDefEnv(tuple(typedefs))
    env = TypeDefEnv(tuple(
        replace(d, modality=SHARED if _ref_shared(env, Ref(d.name)) else LINEAR)
        for d in typedefs))
    sig = ProcSignature(tuple(
        replace(d, offer_shared=_ref_shared(env, d.offer_ty))
        for d in procdefs))
    return Program(env, sig, system)


def _parsed(parse, src):
    try:
        return repr(parse(src))
    except ParseError as e:
        return f"ParseError: {e}"


def _wide_source(rng, batches, cells, clients):
    """The generated wide program of the benchmark: Main spawns batches
    of cells and clients of the corpus queue, then waits for them."""
    src = (CORPUS / "queue.sill").read_text()
    spawn = [f"c{i} <- spawn Cell();" for i in range(cells)]
    drain = [f"v{i} <- get c{i}; wait c{i};" for i in range(cells)]
    starts = [f"b{i} <- spawn Batch();" for i in range(batches)]
    starts += [f"k{j} <- spawn {rng.choice(('Writer', 'Reader'))}(q);"
               for j in range(clients)]
    waits = [f"wait b{i};" for i in range(batches)]
    waits += [f"wait k{j};" for j in range(clients)]
    return "\n".join([
        src[:src.index("proc Main")],
        "type cell = !int. 1",
        "proc Cell : () |- c: cell = put c 1; close c",
        "proc Batch : () |- b: 1 =\n    " + "\n    ".join(spawn + drain)
        + "\n    close b",
        "proc Main : (sh q: shared_queue) |- x: 1 =\n    "
        + "\n    ".join(starts + waits) + "\n    close x",
        "system {\n    q <- spawn QueueProv();\n    main Main(q);\n}",
        "",
    ])


def _dress(src: str, rng: random.Random) -> str:
    """src with its lines kept: some end in \\r\\n, some carry a comment of
    non-ASCII text, one may be deleted, doubled or swapped with another,
    and the whole may be cut short, which mostly errs at its end."""
    lines = src.split("\n")
    if rng.random() < 0.5:
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        match rng.choice(("del", "dup", "swap")):
            case "del":
                del lines[i]
            case "dup":
                lines.insert(i, lines[i])
            case "swap":
                lines[i], lines[j] = lines[j], lines[i]
    text = "".join(
        line + (" // é½ — Γ² ٣" if rng.random() < 0.2 else "")
        + ("\r\n" if rng.random() < 0.5 else "\n") for line in lines)
    if rng.random() < 0.5:
        text = text[:rng.randrange(len(text) + 1)]
    return text


# generated declarations: types of every connective, nested and in
# parentheses, and bodies of every action, values and case arms among them
_TYPES = st.recursive(
    st.sampled_from(("1", "t0", "t1", "(1)")),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(("up_s", "down_s", "up_l", "down_l",
                                   "?int.", "!int.")), inner).map(" ".join),
        st.tuples(inner, st.sampled_from(("*", "-o")), inner)
        .map(" ".join),
        inner.map("({})".format),
        st.tuples(st.sampled_from("+&"),
                  st.lists(st.tuples(st.sampled_from(("a", "b")), inner),
                           min_size=1, max_size=3))
        .map(lambda c: c[0] + "{" + ", ".join(f"{l}: {t}" for l, t in c[1])
             + "}")),
    max_leaves=6)
_STEPS = st.sampled_from((
    "x <- recv c;", "send c x;", "put c 5;", "put c _v;", "put c wait;",
    "v <- get c;", "wait c;", "c.a;", "x <- acquire c;", "x <- accept c;",
    "x <- release c;", "x <- detach c;", "x <- spawn P(c, d);",
    "x <- spawn P();"))
_LAST = st.sampled_from(("close c", "fwd c d",
                         "case c { a => close c | b => wait c; close c }"))
_DECLS = st.lists(st.one_of(
    st.tuples(st.sampled_from(("t0", "t1")), _TYPES)
    .map(lambda d: f"type {d[0]} = {d[1]}"),
    st.tuples(_TYPES, _TYPES, st.lists(_STEPS, max_size=4), _LAST)
    .map(lambda d: f"proc P : (c: {d[0]}, sh d: t1) |- c: {d[1]} = "
         + " ".join(d[2]) + " " + d[3]),
    st.just("system { d <- spawn P(); main P(d); }")),
    min_size=1, max_size=4).map("\n".join)

_EDITS = st.lists(st.tuples(st.sampled_from(("del", "dup", "swap")),
                            st.integers(0, 10**6), st.integers(0, 10**6)),
                  max_size=3)
_SOURCES = st.one_of(
    # token-mutated corpus files and generated declarations, joined on one
    # line
    st.builds(lambda p, edits: mutate(p.read_text(), edits),
              st.sampled_from(CORPUS_FILES), _EDITS),
    st.builds(mutate, _DECLS, _EDITS),
    # corpus files and wide programs, dressed with their lines kept
    st.builds(lambda p, seed: _dress(p.read_text(), random.Random(seed)),
              st.sampled_from(CORPUS_FILES), st.integers(0, 2**32)),
    st.builds(lambda shape, seed: _dress(
                  _wide_source(random.Random(seed), *shape),
                  random.Random(seed)),
              st.tuples(st.integers(1, 3), st.integers(1, 4),
                        st.integers(0, 4)), st.integers(0, 2**32)),
    # runs of symbols, keywords, words, blanks and odd characters
    st.lists(st.one_of(*map(st.sampled_from, _PIECES)), max_size=40)
    .map("".join),
)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_SOURCES)
def test_parse_matches_reference(src):
    assert _parsed(parse_program, src) == _parsed(reference_parse, src)


@pytest.mark.parametrize("src", [
    "system { } #", "type t = 1 ½", "type t = +{a: 1}\n" + "-",
    "proc P : (c: +{a: 1}) |- x: 1 =\n" + "case c { a => " * 1200
    + "wait c; close x" + " }" * 1200 + "\n//\n#",
], ids=["no_main", "half", "minus", "deep"])
def test_lexing_errors_come_first(src):
    # a character that starts no token ends the parse before any rule
    # reads a token, as it did when the whole source was lexed first
    with pytest.raises(ParseError) as e:
        parse_program(src)
    with pytest.raises(ParseError) as ref:
        reference_tokenize(src)
    assert str(e.value) == str(ref.value)
    assert "unexpected character" in str(e.value)


@pytest.mark.parametrize("src, message", [
    ("system { main P(); main P(); }", "line 1: duplicate main"),
    ("system {\n d <- spawn P(); }", "system block has no main process"),
    ("system { main P(); }\nsystem { main P(); }",
     "line 2: duplicate system block"),
    ("proc P : (sh : 1) |- c: 1 = close c", "line 1: expected 'ident', got ':'"),
    ("proc P : () |- c: 1 = put c type; close c",
     "line 1: expected a value, got 'type'"),
    ("proc P : () |- c: 1 =\r\n x <- up_s c; close c",
     "line 2: unknown action 'up_s'"),
    ("type t = up_s\n// é\n", "line 3: expected a type, got ''"),
    ("proc P : () |- c: 1 = put c ²x; close c",
     "line 1: expected ';', got 'x'"),
], ids=["main", "no_main", "system", "sh", "value", "action", "eof", "split"])
def test_errors_match_reference(src, message):
    assert _parsed(reference_parse, src) == f"ParseError: {message}"
    assert _parsed(parse_program, src) == f"ParseError: {message}"
