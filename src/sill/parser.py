"""Surface syntax: lexer and recursive-descent parser.

A source file is a sequence of ``type`` definitions, ``proc`` definitions,
and at most one ``system`` block naming the initial configuration.

Type grammar, loosest first::

    T ::= T -o T | T * T
        | up_s T | down_s T | up_l T | down_l T | ?base. T | !base. T
        | 1 | Name | +{l: T, ...} | &{l: T, ...} | (T)

Process bodies are semicolon-sequenced actions; see ``_statement`` for the
full list. Comments run from ``//`` to end of line.
"""

from __future__ import annotations

from dataclasses import dataclass

from .types import (
    One, Tensor, Lolli, IChoice, EChoice, UpSL, DownSL, UpLL, DownLL,
    ValIn, ValOut, Ref, SessionType, TypeDef, TypeDefEnv,
    SHARED, LINEAR, unfold, TypeError_, type_names,
)
from .procast import (
    Fwd, Spawn, Close, Wait, SendChan, RecvChan, SendLabel, CaseRecv,
    Acquire, Accept, Release, Detach, SendVal, RecvVal,
    ProcessTerm, Param, ProcDef, ProcSignature,
)


class ParseError(Exception):
    pass


# --------------------------------------------------------------------------- #
# Lexer
# --------------------------------------------------------------------------- #

_KEYWORDS = {
    "type", "proc", "system", "main", "sh",
    "fwd", "close", "wait", "send", "recv", "case", "spawn",
    "acquire", "accept", "release", "detach", "put", "get",
    "up_s", "down_s", "up_l", "down_l",
}

_SYMBOLS = ("|-", "-o", "<-", "=>", "{", "}", "(", ")", ":", ";", ",",
            ".", "=", "|", "*", "+", "&", "?", "!")


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "num", "kw", or the symbol itself
    text: str
    line: int


def tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
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
            toks.append(Token("kw" if word in _KEYWORDS else "ident", word, line))
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(Token("num", src[i:j], line))
            i = j
            continue
        for sym in _SYMBOLS:
            if src.startswith(sym, i):
                toks.append(Token(sym, sym, line))
                i += len(sym)
                break
        else:
            raise ParseError(f"line {line}: unexpected character {ch!r}")
    toks.append(Token("eof", "", line))
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
        t = self.peek()
        if t.kind == "kw" and t.text in ("up_s", "down_s", "up_l", "down_l"):
            self.next()
            cont = self.type_prefix()
            cls = {"up_s": UpSL, "down_s": DownSL,
                   "up_l": UpLL, "down_l": DownLL}[t.text]
            return cls(cont)
        if self.at("?") or self.at("!"):
            out = self.at("!")
            self.next()
            base = self.ident()
            self.expect(".")
            cont = self.type_prefix()
            return ValOut(base, cont) if out else ValIn(base, cont)
        return self.type_atom()

    def type_atom(self) -> SessionType:
        t = self.peek()
        if t.kind == "num" and t.text == "1":
            self.next()
            return One()
        if t.kind == "ident":
            return Ref(self.next().text)
        if self.at("("):
            self.next()
            ty = self.type_()
            self.expect(")")
            return ty
        if self.at("+") or self.at("&"):
            internal = self.at("+")
            self.next()
            self.expect("{")
            branches = [self.branch()]
            while self.at(","):
                self.next()
                branches.append(self.branch())
            self.expect("}")
            cls = IChoice if internal else EChoice
            return cls(tuple(branches))
        raise ParseError(f"line {t.line}: expected a type, got {t.text!r}")

    def branch(self) -> tuple[str, SessionType]:
        label = self.ident()
        self.expect(":")
        return label, self.type_()

    # -- processes ---------------------------------------------------------- #

    def proc_body(self) -> ProcessTerm:
        """Actions up to a fwd, close or case, read in a loop along the
        continuation spine; only case arms recurse."""
        spine: list[tuple[type, tuple]] = []
        while True:
            t = self.next()
            kw = t.text if t.kind == "kw" else None
            if kw == "fwd":
                p = Fwd(self.ident(), self.ident())
                break
            if kw == "close":
                p = Close(self.ident())
                break
            if kw == "case":
                on = self.ident()
                self.expect("{")
                branches = [self.case_arm()]
                while self.at("|"):
                    self.next()
                    branches.append(self.case_arm())
                self.expect("}")
                p = CaseRecv(on, tuple(branches))
                break
            if kw == "wait":
                head = Wait, (self.ident(),)
            elif kw == "send":
                head = SendChan, (self.ident(), self.ident())
            elif kw == "put":
                on = self.ident()
                v = self.next()
                if v.kind not in ("ident", "num"):
                    raise ParseError(
                        f"line {v.line}: expected a value, got {v.text!r}")
                head = SendVal, (on, v.text)
            elif t.kind == "ident" and self.at("."):
                self.next()
                head = SendLabel, (t.text, self.ident())
            elif t.kind == "ident":
                self.expect("<-")
                head = self.binding(t.text)
            else:
                raise ParseError(
                    f"line {t.line}: expected a process, got {t.text!r}")
            self.expect(";")
            spine.append(head)
        for cls, fields in reversed(spine):
            p = cls(*fields, p)
        return p

    def binding(self, name: str) -> tuple[type, tuple]:
        """The action after ``name <-`` and its fields before the
        continuation."""
        verb = self.peek()
        if verb.kind != "kw":
            raise ParseError(
                f"line {verb.line}: expected an action, got {verb.text!r}")
        self.next()
        match verb.text:
            case "recv":
                return RecvChan, (self.ident(), name)
            case "get":
                return RecvVal, (self.ident(), name)
            case "acquire" | "accept" | "release" | "detach":
                cls = {"acquire": Acquire, "accept": Accept,
                       "release": Release, "detach": Detach}[verb.text]
                return cls, (name, self.ident())
            case "spawn":
                proc, args = self.call()
                return Spawn, (proc, name, args)
        raise ParseError(f"line {verb.line}: unknown action {verb.text!r}")

    def case_arm(self) -> tuple[str, ProcessTerm]:
        label = self.ident()
        self.expect("=>")
        return label, self.proc_body()

    # -- declarations ------------------------------------------------------- #

    def typedef(self) -> TypeDef:
        self.expect("kw", "type")
        name = self.ident()
        self.expect("=")
        body = self.type_()
        # modality assigned structurally once the whole file is parsed
        return TypeDef(name, LINEAR, body)

    def procdef(self) -> ProcDef:
        self.expect("kw", "proc")
        name = self.ident()
        self.expect(":")
        self.expect("(")
        params: list[Param] = []
        if not self.at(")"):
            params.append(self.param())
            while self.at(","):
                self.next()
                params.append(self.param())
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
                proc, args = self.call()
                main = (proc, args)
            else:
                binder = self.ident()
                self.expect("<-")
                self.expect("kw", "spawn")
                proc, args = self.call()
                spawns.append((binder, proc, args))
            self.expect(";")
        self.expect("}")
        if main is None:
            raise ParseError("system block has no main process")
        return SystemDecl(tuple(spawns), main)

    def call(self) -> tuple[str, tuple[str, ...]]:
        proc = self.ident()
        self.expect("(")
        args: list[str] = []
        if not self.at(")"):
            args.append(self.ident())
            while self.at(","):
                self.next()
                args.append(self.ident())
        self.expect(")")
        return proc, tuple(args)


def _assign_modalities(defs: list[TypeDef]) -> TypeDefEnv:
    """The surface syntax carries no modality keyword; a definition is
    shared exactly when it unfolds to an up-shift."""
    env = TypeDefEnv(tuple(defs))
    out = []
    for d in defs:
        try:
            mod = SHARED if isinstance(unfold(env, Ref(d.name)), UpSL) else LINEAR
        except (KeyError, TypeError_):
            mod = LINEAR
        out.append(TypeDef(d.name, mod, d.body))
    return TypeDefEnv(tuple(out))


def _mark_shared_offers(defs: list[ProcDef], env: TypeDefEnv) -> ProcSignature:
    out = []
    for d in defs:
        try:
            shared = isinstance(unfold(env, d.offer_ty), UpSL)
        except (KeyError, TypeError_):
            shared = False
        out.append(ProcDef(d.name, d.offer, d.offer_ty, shared, d.params, d.body))
    return ProcSignature(tuple(out))


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
    env = _assign_modalities(typedefs)
    sig = _mark_shared_offers(procdefs, env)
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
