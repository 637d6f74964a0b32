"""Surface syntax: lexer and recursive-descent parser.

A source file is a sequence of ``type`` definitions, ``proc`` definitions,
and at most one ``system`` block naming the initial configuration.

Type grammar, loosest first::

    T ::= T -o T | T * T
        | up_s T | down_s T | up_l T | down_l T | ?base. T | !base. T
        | 1 | Name | +{l: T, ...} | &{l: T, ...} | (T)

Process bodies are semicolon-sequenced actions; see ``proc_body`` for the
full list. Comments run from ``//`` to end of line.

``SYNTAX`` spells every action and type connective that has a keyword or
a marker; the parser reads, and the printer writes, each one through it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, TypeVar

from .types import (
    One, Tensor, Lolli, IChoice, EChoice, UpSL, DownSL, UpLL, DownLL,
    ValIn, ValOut, Ref, SessionType, TypeDef, TypeDefEnv,
    SHARED, LINEAR, unfold, TypeError_, type_names,
)
from .procast import (
    Fwd, Spawn, Close, Wait, SendChan, RecvChan, SendLabel, CaseRecv,
    Acquire, Accept, Release, Detach, SendVal, RecvVal,
    ProcessTerm, Param, ProcDef, ProcSignature, FIELDS, NAME, BINDER, CONT,
)


T = TypeVar("T")


class ParseError(Exception):
    pass


# --------------------------------------------------------------------------- #
# Surface syntax
# --------------------------------------------------------------------------- #

# generic constructor -> its keyword or marker. The fields give the shape:
# an action with a binder reads "binder <- word subject", any other
# "word name ..."; a type with a base reads "word base. T", one with
# branches "word{l: T, ...}", one with only a continuation "word T".
SYNTAX = {
    Fwd: "fwd", Close: "close", Wait: "wait", SendChan: "send",
    SendVal: "put", RecvChan: "recv", RecvVal: "get",
    Acquire: "acquire", Accept: "accept", Release: "release",
    Detach: "detach",
    UpSL: "up_s", DownSL: "down_s", UpLL: "up_l", DownLL: "down_l",
    ValIn: "?", ValOut: "!", IChoice: "+", EChoice: "&",
}
_WORDS = {word: cls for cls, word in SYNTAX.items()}
# constructor -> its field names
_SHAPE = {cls: cls.__match_args__ for cls in SYNTAX}
# the actions written "binder <- word subject"; an action written "word
# name ..." -> the fields it reads, and whether a continuation follows
_BOUND = {cls for cls in SYNTAX if "binder" in _SHAPE[cls]}
_PREFIXED = {cls: ([f for f, role in FIELDS[cls] if role is NAME],
                   "cont" in _SHAPE[cls])
             for cls in SYNTAX if cls in FIELDS and cls not in _BOUND}

# the words and symbols of the declarations, case, spawn and the infix
# connectives, and those of the table; two-character symbols first
_KEYWORDS = {"type", "proc", "system", "main", "sh", "case", "spawn",
             *(w for w in SYNTAX.values() if w.isidentifier())}
_SYMBOLS = ("|-", "-o", "<-", "=>", *"{}():;,.=|*",
            *(w for w in SYNTAX.values() if not w.isidentifier()))

# a newline, blanks or a comment, a run of word characters, a symbol, or
# any other character
_TOKEN = re.compile(r"(\n)|[ \t\r]+|//[^\n]*|(\w+)|(%s)|(.)"
                    % "|".join(map(re.escape, _SYMBOLS)))


# --------------------------------------------------------------------------- #
# Lexer
# --------------------------------------------------------------------------- #

class Token(NamedTuple):
    kind: str  # "ident", "num", "kw", "eof" or the symbol itself
    text: str
    line: int


# builds a Token from a (kind, text, line) tuple in C, where Token(...)
# runs the named tuple's Python-level __new__
_new = tuple.__new__


def _word(word: str, line: int) -> Token:
    return _new(Token, ("kw" if word in _KEYWORDS else "ident", word, line))


def tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    line = 1
    for nl, word, sym, other in _TOKEN.findall(src):
        if word:
            if word[0].isalpha() or word[0] == "_":
                toks.append(_word(word, line))
                continue
            if word.isdigit():
                toks.append(_new(Token, ("num", word, line)))
                continue
            # digits run into a letter, or a word character that starts
            # neither: split as str.isdigit and str.isalpha see it, which
            # \d and [^\W\d] do not match exactly (say on "²" or "½")
            n = next(i for i, c in enumerate(word) if not c.isdigit())
            other = word[n]
            if n and (other.isalpha() or other == "_"):
                toks += [_new(Token, ("num", word[:n], line)),
                         _word(word[n:], line)]
                continue
        elif sym:
            toks.append(_new(Token, (sym, sym, line)))
            continue
        elif nl:
            line += 1
            continue
        if other:
            raise ParseError(f"line {line}: unexpected character {other!r}")
    toks.append(_new(Token, ("eof", "", line)))
    return toks


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class SystemDecl:
    spawns: tuple[tuple[str, str, tuple[str, ...]], ...]
    main: tuple[str, tuple[str, ...]]


@dataclass(frozen=True)
class Program:
    types: TypeDefEnv
    procs: ProcSignature
    system: SystemDecl | None


class _P:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise ParseError(f"line {t.line}: expected {want!r}, got {t.text!r}")
        return self.next()

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def ident(self) -> str:
        return self.expect("ident").text

    def many(self, item: Callable[[], T], sep: str) -> list[T]:
        """One item or more, separated by sep."""
        items = [item()]
        while self.at(sep):
            self.next()
            items.append(item())
        return items

    # -- types -------------------------------------------------------------- #

    def type_(self) -> SessionType:
        left = self.type_tensor()
        if self.at("-o"):
            self.next()
            return Lolli(left, self.type_())
        return left

    def type_tensor(self) -> SessionType:
        left = self.type_prefix()
        if self.at("*"):
            self.next()
            return Tensor(left, self.type_tensor())
        return left

    def type_prefix(self) -> SessionType:
        t = self.next()
        cls = _WORDS.get(t.text)
        match _SHAPE.get(cls):
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

    def branch(self) -> tuple[str, SessionType]:
        label = self.ident()
        self.expect(":")
        return label, self.type_()

    # -- processes ---------------------------------------------------------- #

    def proc_body(self) -> ProcessTerm:
        """Actions up to one with no continuation, read in a loop along
        the continuation spine; only case arms recurse."""
        spine: list[tuple[type, list]] = []
        while True:
            t = self.next()
            cls = _WORDS.get(t.text) if t.kind == "kw" else None
            if cls in _PREFIXED:
                names, continues = _PREFIXED[cls]
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

    def value(self) -> str:
        v = self.next()
        if v.kind not in ("ident", "num"):
            raise ParseError(
                f"line {v.line}: expected a value, got {v.text!r}")
        return v.text

    def binding(self, name: str) -> tuple[type, list]:
        """The action after ``name <-`` and its fields before the
        continuation."""
        verb = self.peek()
        if verb.kind != "kw":
            raise ParseError(
                f"line {verb.line}: expected an action, got {verb.text!r}")
        self.next()
        if verb.text == "spawn":
            proc, args = self.call()
            return Spawn, [proc, name, args]
        cls = _WORDS.get(verb.text)
        if cls not in _BOUND:
            raise ParseError(f"line {verb.line}: unknown action {verb.text!r}")
        subject = self.ident()
        return cls, [name if role is BINDER else subject
                     for _, role in FIELDS[cls] if role is not CONT]

    def case_arm(self) -> tuple[str, ProcessTerm]:
        label = self.ident()
        self.expect("=>")
        return label, self.proc_body()

    # -- declarations ------------------------------------------------------- #

    def typedef(self) -> TypeDef:
        self.expect("kw", "type")
        name = self.ident()
        self.expect("=")
        # modality assigned structurally once the whole file is parsed
        return TypeDef(name, LINEAR, self.type_())

    def procdef(self) -> ProcDef:
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

    def param(self) -> Param:
        shared = False
        if self.at("kw", "sh"):
            self.next()
            shared = True
        chan = self.ident()
        self.expect(":")
        return Param(chan, self.type_(), shared)

    def system(self) -> SystemDecl:
        self.expect("kw", "system")
        self.expect("{")
        spawns: list[tuple[str, str, tuple[str, ...]]] = []
        main: tuple[str, tuple[str, ...]] | None = None
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

    def call(self) -> tuple[str, tuple[str, ...]]:
        proc = self.ident()
        self.expect("(")
        args = [] if self.at(")") else self.many(self.ident, ",")
        self.expect(")")
        return proc, tuple(args)


def _shared(env: TypeDefEnv, t: SessionType) -> bool:
    """The surface syntax carries no modality keyword: a type is shared
    exactly when it unfolds to an up-shift, and linear when it does not
    resolve."""
    try:
        return isinstance(unfold(env, t), UpSL)
    except (KeyError, TypeError_):
        return False


def parse_program(src: str) -> Program:
    p = _P(tokenize(src))
    typedefs: list[TypeDef] = []
    procdefs: list[ProcDef] = []
    system: SystemDecl | None = None
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
        replace(d, modality=SHARED if _shared(env, Ref(d.name)) else LINEAR)
        for d in typedefs))
    sig = ProcSignature(tuple(
        replace(d, offer_shared=_shared(env, d.offer_ty)) for d in procdefs))
    return Program(env, sig, system)


def parse_type(src: str, env: TypeDefEnv | None = None) -> SessionType:
    """Parse a single type expression (CLI helper); given env, every type
    name in it must be defined there."""
    p = _P(tokenize(src))
    ty = p.type_()
    p.expect("eof")
    for name in type_names(ty) if env is not None else ():
        if name not in env:
            raise ParseError(f"undefined type name: {name}")
    return ty
