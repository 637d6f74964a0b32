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
from dataclasses import dataclass
from typing import Callable, NamedTuple, NoReturn, TypeVar

from .types import (
    One, Tensor, Lolli, IChoice, EChoice, UpSL, DownSL, UpLL, DownLL,
    ValIn, ValOut, Ref, SessionType, TypeDef, TypeDefEnv,
    SHARED, LINEAR, unfold, TypeError_, type_names,
)
from .procast import (
    Fwd, Spawn, Close, Wait, SendChan, RecvChan, SendLabel, CaseRecv,
    Acquire, Accept, Release, Detach, SendVal, RecvVal,
    ProcessTerm, Param, ProcDef, ProcSignature, FIELDS, NAME, BINDER,
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
# constructor -> its field names
_SHAPE = {cls: cls.__match_args__ for cls in SYNTAX}
# a type's prefix word -> its constructor and whether "base." follows it;
# a choice's marker -> its constructor
_PREFIX = {w: (cls, _SHAPE[cls] == ("base", "cont"))
           for cls, w in SYNTAX.items()
           if _SHAPE[cls] in (("cont",), ("base", "cont"))}
_CHOICE = {w: cls for cls, w in SYNTAX.items()
           if _SHAPE[cls] == ("branches",)}
# an action written "binder <- word subject" -> its constructor and
# whether the binder is its first field; one written "word name ..." ->
# its constructor, whether each name it reads is a value, and whether a
# continuation follows
_BINDING = {w: (cls, FIELDS[cls][0][1] is BINDER)
            for cls, w in SYNTAX.items() if "binder" in _SHAPE[cls]}
_ACTION = {w: (cls, [f == "value" for f, role in FIELDS[cls] if role is NAME],
               "cont" in _SHAPE[cls])
           for cls, w in SYNTAX.items() if cls in FIELDS and w not in _BINDING}

# the words and symbols of the declarations, case, spawn and the infix
# connectives, and those of the table; two-character symbols first
_KEYWORDS = {"type", "proc", "system", "main", "sh", "case", "spawn",
             *(w for w in SYNTAX.values() if w.isidentifier())}
_SYMBOLS = ("|-", "-o", "<-", "=>", *"{}():;,.=|*",
            *(w for w in SYNTAX.values() if not w.isidentifier()))
_SYMSET = set(_SYMBOLS)

# blanks and line breaks, then a comment, which leaves the group empty,
# or in the group: ASCII digits that run into an ASCII letter (so that
# ASCII text splits where str.isdigit and str.isalpha split it), a run of
# word characters, a symbol, or any other character with the rest of the
# source, so that the first such character ends the matches; or blanks
# and line breaks at the end
_TOKEN = re.compile(
    r"[ \t\r\n]*(?://[^\n]*|([0-9]+(?=[A-Za-z_])|\w+|%s|[^ \t\r\n](?s:.*)))"
    r"|[ \t\r\n]+" % "|".join(map(re.escape, _SYMBOLS)))


# --------------------------------------------------------------------------- #
# Lexer
# --------------------------------------------------------------------------- #

class Token(NamedTuple):
    kind: str  # "ident", "num", "kw", "eof" or the symbol itself
    text: str
    line: int


def tokenize(src: str) -> list[Token]:
    """src's tokens with their kinds and lines, the last one "eof". A
    token's kind follows from its text. The parser reads only the texts
    (``_texts``) and comes here for the line of a token it reports an
    error at."""
    toks: list[Token] = []
    line, at = 1, 0
    for m in _TOKEN.finditer(src):
        text = m[1]
        if not text:
            continue
        line += src.count("\n", at, m.start(1))
        at = m.start(1)
        if text[0].isalnum() and not (text[0].isalpha() or text.isdigit()):
            # digits run into a letter, or a word character that starts
            # neither: split as str.isdigit and str.isalpha see it, which
            # \d and [^\W\d] do not match exactly (say on "²" or "½")
            n = next(i for i, c in enumerate(text) if not c.isdigit())
            if n:
                toks.append(Token("num", text[:n], line))
            text = text[n:]
        if text in _SYMSET:
            kind = text
        elif text in _KEYWORDS:
            kind = "kw"
        elif text[0].isdigit():
            kind = "num"
        elif text[0].isalpha() or text[0] == "_":
            kind = "ident"
        else:
            raise ParseError(
                f"line {line}: unexpected character {text[0]!r}")
        toks.append(Token(kind, text, line))
    toks.append(Token("eof", "", line + src.count("\n", at)))
    return toks


def _texts(src: str) -> list[str]:
    """src's token texts and "" for its end: findall's matches where they
    are all ASCII and the last is a word or a symbol, since each is then
    one of tokenize's tokens. Otherwise tokenize splits the non-ASCII
    words, or raises at a character that starts no token (whose match
    takes the rest of src)."""
    texts = list(filter(None, _TOKEN.findall(src)))
    last = texts[-1] if texts else "_"
    if not ((last in _SYMSET or last[0].isalnum() or last[0] == "_")
            and (src.isascii() or "".join(texts).isascii())):
        return [t.text for t in tokenize(src)]
    texts.append("")
    return texts


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
    """Recursive descent over token texts: a method takes the index of
    the first token it reads and returns what it read with the index after
    it. A token's kind is read off its text; its line is found only for
    an error."""

    def __init__(self, src: str):
        self.src = src
        self.toks = _texts(src)

    def fail(self, i: int, what: str) -> NoReturn:
        raise ParseError(f"line {tokenize(self.src)[i].line}: {what}")

    def expect(self, i: int, want: str) -> int:
        """The index after token i, which must be want."""
        if self.toks[i] != want:
            self.fail(i, f"expected {want!r}, got {self.toks[i]!r}")
        return i + 1

    def ident(self, i: int) -> str:
        t = self.toks[i]
        if not _is_ident(t):
            self.fail(i, f"expected 'ident', got {t!r}")
        return t

    def many(self, i: int, item: Callable[[int], tuple[T, int]],
             sep: str) -> tuple[list[T], int]:
        """One item or more from index i, separated by sep."""
        items = []
        while True:
            x, i = item(i)
            items.append(x)
            if self.toks[i] != sep:
                return items, i
            i += 1

    # -- types -------------------------------------------------------------- #

    def type_(self, i: int, tensor: bool = False) -> tuple[SessionType, int]:
        """A type; only its "*" factors where tensor is set. Its prefixes
        are read in a loop, and "*" and "-o" nest to the right, "-o"
        loosest."""
        toks = self.toks
        prefixes = []
        while (t := toks[i]) in _PREFIX:
            cls, based = _PREFIX[t]
            prefixes.append((cls, self.ident(i + 1) if based else None))
            i = self.expect(i + 2, ".") if based else i + 1
        if t in _CHOICE:
            branches, i = self.many(self.expect(i + 1, "{"), self.branch, ",")
            ty, i = _CHOICE[t](tuple(branches)), self.expect(i, "}")
        elif t == "(":
            ty, i = self.type_(i + 1)
            i = self.expect(i, ")")
        elif t == "1" or _is_ident(t):
            ty, i = One() if t == "1" else Ref(t), i + 1
        else:
            self.fail(i, f"expected a type, got {t!r}")
        for cls, base in reversed(prefixes):
            ty = cls(ty) if base is None else cls(base, ty)
        if toks[i] == "*":
            right, i = self.type_(i + 1, True)
            ty = Tensor(ty, right)
        if toks[i] == "-o" and not tensor:
            right, i = self.type_(i + 1)
            ty = Lolli(ty, right)
        return ty, i

    def branch(self, i: int) -> tuple[tuple[str, SessionType], int]:
        label = self.ident(i)
        ty, i = self.type_(self.expect(i + 1, ":"))
        return (label, ty), i

    # -- processes ---------------------------------------------------------- #

    def proc_body(self, i: int) -> tuple[ProcessTerm, int]:
        """Actions up to one with no continuation, read in a loop along
        the continuation spine; only case arms recurse."""
        toks = self.toks
        spine: list[tuple[type, list]] = []
        while True:
            t = toks[i]
            if t in _ACTION:
                cls, values, continues = _ACTION[t]
                vals = [self.value(j) if value else self.ident(j)
                        for j, value in enumerate(values, i + 1)]
                i += len(values) + 1
                if not continues:
                    p = cls(*vals)
                    break
                head = cls, vals
            elif t == "case":
                on = self.ident(i + 1)
                arms, i = self.many(self.expect(i + 2, "{"), self.case_arm,
                                    "|")
                p, i = CaseRecv(on, tuple(arms)), self.expect(i, "}")
                break
            elif _is_ident(t) and toks[i + 1] == ".":
                head, i = (SendLabel, [t, self.ident(i + 2)]), i + 3
            elif _is_ident(t):
                head, i = self.binding(t, self.expect(i + 1, "<-"))
            else:
                self.fail(i, f"expected a process, got {t!r}")
            i = self.expect(i, ";")
            spine.append(head)
        for cls, vals in reversed(spine):
            p = cls(*vals, p)
        return p, i

    def value(self, i: int) -> str:
        v = self.toks[i]
        if not (v[:1].isdigit() or _is_ident(v)):
            self.fail(i, f"expected a value, got {v!r}")
        return v

    def binding(self, name: str, i: int) -> tuple[tuple[type, list], int]:
        """The action after ``name <-`` and its fields before the
        continuation."""
        verb = self.toks[i]
        if verb not in _KEYWORDS:
            self.fail(i, f"expected an action, got {verb!r}")
        if verb == "spawn":
            (proc, args), i = self.call(i + 1)
            return (Spawn, [proc, name, args]), i
        if verb not in _BINDING:
            self.fail(i, f"unknown action {verb!r}")
        cls, binder_first = _BINDING[verb]
        subject = self.ident(i + 1)
        fields = [name, subject] if binder_first else [subject, name]
        return (cls, fields), i + 2

    def case_arm(self, i: int) -> tuple[tuple[str, ProcessTerm], int]:
        label = self.ident(i)
        p, i = self.proc_body(self.expect(i + 1, "=>"))
        return (label, p), i

    # -- declarations ------------------------------------------------------- #

    def procdef(self, i: int) -> tuple[tuple, int]:
        """The header fields and the body of the proc at i."""
        toks = self.toks
        name = self.ident(i + 1)
        i = self.expect(self.expect(i + 2, ":"), "(")
        params = []
        if toks[i] != ")":
            params, i = self.many(i, self.param, ",")
        i = self.expect(self.expect(i, ")"), "|-")
        offer = self.ident(i)
        offer_ty, i = self.type_(self.expect(i + 1, ":"))
        body, i = self.proc_body(self.expect(i, "="))
        return (name, offer, offer_ty, tuple(params), body), i

    def param(self, i: int) -> tuple[Param, int]:
        shared = self.toks[i] == "sh"
        chan = self.ident(i + shared)
        ty, i = self.type_(self.expect(i + shared + 1, ":"))
        return Param(chan, ty, shared), i

    def system(self, i: int) -> tuple[SystemDecl, int]:
        toks = self.toks
        i = self.expect(i + 1, "{")
        spawns: list[tuple[str, str, tuple[str, ...]]] = []
        main: tuple[str, tuple[str, ...]] | None = None
        while toks[i] != "}":
            if toks[i] == "main":
                if main is not None:
                    self.fail(i, "duplicate main")
                main, i = self.call(i + 1)
            else:
                binder = self.ident(i)
                i = self.expect(self.expect(i + 1, "<-"), "spawn")
                (proc, args), i = self.call(i)
                spawns.append((binder, proc, args))
            i = self.expect(i, ";")
        if main is None:
            raise ParseError("system block has no main process")
        return SystemDecl(tuple(spawns), main), i + 1

    def call(self, i: int) -> tuple[tuple[str, tuple[str, ...]], int]:
        proc = self.ident(i)
        i = self.expect(i + 1, "(")
        args: list[str] = []
        if self.toks[i] != ")":
            args, i = self.many(i, lambda i: (self.ident(i), i + 1), ",")
        return (proc, tuple(args)), self.expect(i, ")")


def _is_ident(t: str) -> bool:
    return (t[:1].isalpha() or t[:1] == "_") and t not in _KEYWORDS


def _shared(env: TypeDefEnv, t: SessionType) -> bool:
    """The surface syntax carries no modality keyword: a type is shared
    exactly when it unfolds to an up-shift, and linear when it does not
    resolve."""
    try:
        return isinstance(unfold(env, t), UpSL)
    except (KeyError, TypeError_):
        return False


def parse_program(src: str) -> Program:
    p = _P(src)
    toks = p.toks
    typedefs: list[TypeDef] = []
    procdefs = []
    system: SystemDecl | None = None
    i = 0
    while toks[i]:
        t = toks[i]
        if t == "type":
            name = p.ident(i + 1)
            # modality assigned structurally once the whole file is parsed
            ty, i = p.type_(p.expect(i + 2, "="))
            typedefs.append(TypeDef(name, LINEAR, ty))
        elif t == "proc":
            proc, i = p.procdef(i)
            procdefs.append(proc)
        elif t == "system":
            if system is not None:
                p.fail(i, "duplicate system block")
            system, i = p.system(i)
        else:
            p.fail(i, f"expected a declaration, got {t!r}")
    env = TypeDefEnv(tuple(typedefs))
    env = TypeDefEnv(tuple(
        TypeDef(d.name, SHARED, d.body) if _shared(env, Ref(d.name)) else d
        for d in typedefs))
    sig = ProcSignature(tuple(
        ProcDef(name, offer, ty, _shared(env, ty), params, body)
        for name, offer, ty, params, body in procdefs))
    return Program(env, sig, system)


def parse_type(src: str, env: TypeDefEnv | None = None) -> SessionType:
    """Parse a single type expression (CLI helper); given env, every type
    name in it must be defined there."""
    p = _P(src)
    ty, i = p.type_(0)
    if p.toks[i]:
        p.fail(i, f"expected 'eof', got {p.toks[i]!r}")
    for name in type_names(ty) if env is not None else ():
        if name not in env:
            raise ParseError(f"undefined type name: {name}")
    return ty
