"""Session type representation: the stratified grammar and named definitions.

Types live in two layers. A shared type is always an upshift of a linear
type (``UpSL``); linear types are built from the multiplicative unit,
channel input/output, labelled choices, value input/output, the purely
linear shifts, and the downshift back into the shared layer. Recursion is
expressed through named definitions (``Ref``), never through binders, so
every validated environment denotes a finite system of regular trees.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter


# --------------------------------------------------------------------------- #
# Session types
# --------------------------------------------------------------------------- #

@dataclass(frozen=True, slots=True)
class One:
    """Terminated session: provider closes, client waits."""


@dataclass(frozen=True, slots=True)
class Tensor:
    """Provider sends a channel of (at most) the payload type, continues as cont."""
    payload: "SessionType"
    cont: "SessionType"


@dataclass(frozen=True, slots=True)
class Lolli:
    """Provider receives a channel of the payload type, continues as cont."""
    payload: "SessionType"
    cont: "SessionType"


@dataclass(frozen=True, slots=True)
class IChoice:
    """Internal choice: provider picks one of the labelled branches."""
    branches: tuple[tuple[str, "SessionType"], ...]

    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.branches)

    def branch(self, label: str) -> "SessionType":
        for l, t in self.branches:
            if l == label:
                return t
        raise KeyError(label)


@dataclass(frozen=True, slots=True)
class EChoice:
    """External choice: client picks one of the labelled branches."""
    branches: tuple[tuple[str, "SessionType"], ...]

    labels = IChoice.labels
    branch = IChoice.branch


@dataclass(frozen=True, slots=True)
class UpSL:
    """Shared-layer constructor: acquire point guarding a linear body."""
    cont: "SessionType"


@dataclass(frozen=True, slots=True)
class DownSL:
    """Release point: the session returns to the shared type cont."""
    cont: "SessionType"


@dataclass(frozen=True, slots=True)
class UpLL:
    """Purely linear synchronization point (supertype of UpSL)."""
    cont: "SessionType"


@dataclass(frozen=True, slots=True)
class DownLL:
    """Purely linear release point (supertype of DownSL)."""
    cont: "SessionType"


@dataclass(frozen=True, slots=True)
class ValIn:
    """Client sends a base-typed value, session continues as cont."""
    base: str
    cont: "SessionType"


@dataclass(frozen=True, slots=True)
class ValOut:
    """Provider sends a base-typed value, session continues as cont."""
    base: str
    cont: "SessionType"


@dataclass(frozen=True, slots=True)
class Ref:
    """Reference to a named definition; the only source of recursion."""
    name: str


SessionType = (
    One | Tensor | Lolli | IChoice | EChoice
    | UpSL | DownSL | UpLL | DownLL | ValIn | ValOut | Ref
)

SHARED = "shared"
LINEAR = "linear"


# --------------------------------------------------------------------------- #
# Constraints
# --------------------------------------------------------------------------- #

@dataclass(frozen=True, slots=True)
class Bot:
    """A channel that will never become available again."""


@dataclass(frozen=True, slots=True)
class Top:
    """A channel with no release obligation (not acquired yet)."""


@dataclass(frozen=True, slots=True)
class SharedC:
    """A concrete shared type as a release obligation."""
    ty: SessionType


ConstraintType = Bot | Top | SharedC

BOT = Bot()
TOP = Top()


# --------------------------------------------------------------------------- #
# Definition environments
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class TypeDef:
    name: str
    modality: str  # SHARED or LINEAR
    body: SessionType


@dataclass(frozen=True)
class TypeDefEnv:
    defs: tuple[TypeDef, ...] = ()

    @cached_property
    def _table(self) -> dict[str, TypeDef]:
        return {d.name: d for d in self.defs}

    @cached_property
    def graph(self) -> "TypeGraph":
        """These definitions as a graph of integer ids, built on the first
        judgment, with the judgments' verdict memo. Not a field, so
        equality, hashing and repr ignore it."""
        return TypeGraph(self)

    def __contains__(self, name: str) -> bool:
        return name in self._table

    def lookup(self, name: str) -> TypeDef:
        try:
            return self._table[name]
        except KeyError:
            raise KeyError(f"undefined type name: {name}") from None

    def extend(self, *new: TypeDef) -> "TypeDefEnv":
        # returning self keeps the graph warm across meets that mint nothing
        return TypeDefEnv(self.defs + new) if new else self

    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.defs)


class TypeError_(Exception):
    """Raised for operations on malformed environments."""


_UNARY = frozenset((UpSL, DownSL, UpLL, DownLL, ValIn, ValOut))


def children(t: SessionType) -> tuple[SessionType, ...]:
    """Immediate structural subterms, payloads included."""
    cls = t.__class__
    if cls is Tensor or cls is Lolli:
        return (t.payload, t.cont)
    if cls is IChoice or cls is EChoice:
        return tuple([ty for _, ty in t.branches])
    return (t.cont,) if cls in _UNARY else ()


def type_names(t: SessionType) -> list[str]:
    """The type names t mentions, without unfolding them, in the order of a
    depth-first walk."""
    names, todo = [], [t]
    pop, push = todo.pop, todo.append
    while todo:
        t = pop()
        cls = t.__class__
        if cls is Ref:
            names.append(t.name)
        elif cls is Tensor or cls is Lolli:
            push(t.payload)
            push(t.cont)
        elif cls is IChoice or cls is EChoice:
            todo.extend([ty for _, ty in t.branches])
        elif cls in _UNARY:
            push(t.cont)
    return names


def unfold(env: TypeDefEnv, t: SessionType) -> SessionType:
    """Resolve name references until a structural constructor appears.

    Total on validated environments by contractivity.
    """
    seen = set()
    while isinstance(t, Ref):
        if t.name in seen:
            raise TypeError_(f"non-contractive cycle through {t.name}")
        seen.add(t.name)
        t = env.lookup(t.name).body
    return t


class TypeGraph:
    """One environment's types as a graph of integer ids, on which the
    judgments decide (Gay & Hole, Acta Informatica 2005). A node is a tuple
    (constructor, children's ids, a choice's label -> id dict or a value
    type's base type). Nodes are hash-consed (Filliâtre & Conchon, 2006),
    and a name has its body's id, so Ref(n) and n's body are one node.
    ``_intern`` makes one call per node, reading identity at every node of
    a resolved body, alive as long as the env, and of a pinned type, which
    the graph keeps alive; of a type from elsewhere, at its root alone."""

    __slots__ = ("env", "nodes", "index", "names", "ident", "memo", "pinned")

    def __init__(self, env: TypeDefEnv):
        self.env = weakref.ref(env)  # the env owns the graph
        self.nodes: list[tuple] = [(One, (), None)]  # One, the leaf, is 0
        self.index: dict[tuple, int] = {self.nodes[0]: 0}
        self.names: dict[str, int] = {}
        self.ident: dict[int, int] = {}  # id() of a body's subterm -> id
        # verdicts: subtyping keyed by (a, b), subsynchronization by (a, b, d);
        # a subtyping pair of one id holds at once and is never stored
        self.memo: dict[tuple, bool] = {}
        self.pinned: list[SessionType] = []

    def pin(self, t: SessionType) -> int:
        """The id of t, interned by identity with its subterms and kept
        alive by the graph, so that ident stays valid for it."""
        i = _intern(self, t, True)
        self.pinned.append(t)
        return i

    def intern(self, t: SessionType) -> int:
        """The id of t, by identity at its root, else by key at each node."""
        i = self.ident.get(id(t))
        return _intern(self, t, False) if i is None else i

    def _resolve(self, t: Ref) -> int:
        """The id of t's body, numbered before its children, which may
        name it; the number's slot holds None until the walk fills it."""
        try:
            u = unfold(self.env(), t)
            i = self.ident.get(id(u))
            if i is None:
                i = self.ident[id(u)] = len(self.nodes)
                self.nodes.append(None)
                i = _intern(self, u, True, i)
        except (KeyError, TypeError_, RecursionError):
            # malformed or too deep: the next judgment starts a new graph
            self.env().__dict__.pop("graph", None)
            raise
        self.names[t.name] = i
        return i


def _intern(g: TypeGraph, t: SessionType, body: bool, at: int = -1) -> int:
    """t's id in g, its node's key (constructor, children's ids, labels or
    base type) looked up once. With body, t's id is read from and written
    to g.ident. A body numbered at takes at, or the id of an earlier node
    of its key, at then keeping that node for any child that named it."""
    if body and at < 0:
        i = g.ident.get(id(t))
        if i is not None:
            return i
    cls = t.__class__
    if cls is Ref:
        i = g.names.get(t.name)
        if i is None:
            i = g._resolve(t)
    elif cls is One:
        i = 0
    else:
        if cls is IChoice or cls is EChoice:
            # the first branch of a label wins, as in branch(): a stable
            # sort keeps a label's branches in order
            arms = {}
            for l, c in sorted(t.branches, key=itemgetter(0)):
                if l not in arms:
                    arms[l] = _intern(g, c, body)
            kids = tuple(arms.values())
            node, key = (cls, kids, arms), (cls, kids, tuple(arms))
        elif cls is Tensor or cls is Lolli:
            node = key = (cls, (_intern(g, t.payload, body),
                                _intern(g, t.cont, body)), None)
        else:
            node = key = (cls, (_intern(g, t.cont, body),),
                          t.base if cls is ValIn or cls is ValOut else None)
        i = g.index.get(key)
        if at >= 0:
            g.nodes[at] = node
            if i is None:
                i = g.index[key] = at
        elif i is None:
            i = g.index[key] = len(g.nodes)
            g.nodes.append(node)
    if body:
        g.ident[id(t)] = i
    return i


def modality(env: TypeDefEnv, t: SessionType) -> str:
    """A type is shared exactly when it unfolds to an upshift out of the
    linear layer."""
    return SHARED if isinstance(unfold(env, t), UpSL) else LINEAR


def reachable(env: TypeDefEnv, t: SessionType) -> frozenset[SessionType]:
    """Every type encountered from t by unfolding and taking subterms.

    Finite for validated environments; witnesses regularity.
    """
    seen: set[SessionType] = set()
    stack = [t]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        if isinstance(cur, Ref):
            stack.append(env.lookup(cur.name).body)
        else:
            stack.extend(children(cur))
    return frozenset(seen)


def validate_env(env: TypeDefEnv) -> list[str]:
    """Check closure, contractivity, stratification, and label distinctness.

    Returns one diagnostic string per violation; an empty list means the
    environment is well formed. Closure failures (and duplicate
    definitions) are reported alone; otherwise contractivity, then the
    stratification and label diagnostics of each definition in order, then
    modality mismatches. One walk per definition body gathers both its
    undefined names and its stratification diagnostics.
    """
    defs = env.defs
    dups: list[str] = []
    names = set()
    for d in defs:
        if d.name in names:
            dups.append(f"duplicate definition: {d.name}")
        names.add(d.name)

    # contractivity: name-to-name chains must not cycle. Each name's
    # structural modality, fixed here once: None where its chain cycles
    # (or reaches an undefined name, which closure reports)
    mods = {}
    chain = {}
    for d in defs:
        cls = d.body.__class__
        if cls is Ref:
            chain[d.name] = d.body.name
        else:
            mods[d.name] = SHARED if cls is UpSL else LINEAR
    diags: list[str] = []
    for start in chain:
        slow = start
        path = []
        while slow in chain:
            if slow in path:
                diags.append(f"non-contractive: {' -> '.join(path + [slow])}")
                break
            path.append(slow)
            slow = chain[slow]
        else:
            mods[start] = mods.get(slow)

    # closure, stratification and label distinctness, in one walk of each
    # body: it adds the body's undefined names to missing and its
    # diagnostics to out, in the order met
    def walk(t: SessionType, where: str, top: bool) -> None:
        cls = t.__class__
        if cls is Ref:
            if t.name not in names:
                missing.add(t.name)
        elif cls is One:
            pass
        elif cls is IChoice or cls is EChoice:
            seen = set()
            for l, ty in t.branches:
                if l in seen:
                    out.append(f"duplicate label {l} ({defname}, {where})")
                seen.add(l)
                walk(ty, f"{where}/{l}", False)
            if not t.branches:
                out.append(f"empty choice ({defname}, {where})")
        elif cls is Tensor or cls is Lolli:
            walk(t.payload, where + "/payload", True)
            walk(t.cont, where + "/cont", False)
        elif cls is DownSL:
            # the continuation must land back in the shared layer
            c = t.cont
            if (mods.get(c.name) is LINEAR if c.__class__ is Ref
                    else c.__class__ is not UpSL):
                out.append(f"stratification: down-shift to a non-shared "
                           f"type ({defname}, {where})")
            walk(c, where + "/down_s", True)
        elif cls is UpSL:
            if not top:
                out.append(f"stratification: up-shift not at the top of a "
                           f"shared definition ({defname}, {where})")
            walk(t.cont, where + "/up_s", False)
        elif cls in _UNARY:
            c = t.cont
            if (mods.get(c.name) is SHARED if c.__class__ is Ref
                    else c.__class__ is UpSL):
                out.append(f"stratification: linear constructor with "
                           f"shared continuation ({defname}, {where})")
            walk(c, where + "/cont", False)

    undefined: list[str] = []
    for d in defs:
        body, defname, missing, out = d.body, d.name, set(), diags
        if d.modality == SHARED and body.__class__ is not UpSL:
            if body.__class__ is not Ref:
                diags.append(
                    f"stratification: shared definition {d.name} must be "
                    f"an up-shift")
            elif mods.get(body.name) is LINEAR:
                diags.append(
                    f"stratification: shared definition {d.name} "
                    f"does not unfold to an up-shift")
            out = []  # such a body is walked for its names alone
        elif d.modality == SHARED:
            body = body.cont
        walk(body, "body", False)
        undefined += [f"undefined reference: {n} in {d.name}"
                      for n in sorted(missing)]
    if dups or undefined:
        return dups + undefined

    # declared modality must agree with the structural one
    for d in defs:
        m = mods.get(d.name)
        if m is not None and m != d.modality:
            diags.append(f"modality mismatch: {d.name} declared {d.modality}")
    return diags
