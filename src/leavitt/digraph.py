"""Directed graphs, finite paths, and infinite words.

A graph has named vertices, named arrows, and named arrow families.  A family
``f[]: u -> w`` stands for a countable collection of parallel arrows f[0],
f[1], ... and is how a vertex becomes an infinite emitter.  Vertex, arrow,
and family names share one namespace so that textual expressions can refer
to any of them without qualification.
"""

from dataclasses import dataclass, field as dc_field

from .errors import ParseError, PreconditionError


@dataclass(frozen=True, slots=True)
class Arrow:
    """A single arrow.  Family members carry the index they were drawn at.

    Arrows are immutable values.  The sort key and the hash are computed
    once, at construction, and kept in slots.
    """

    name: str
    source: str
    target: str
    index: int | None = None
    # Sort key.  Plain arrows compare before their own family members would,
    # and family members order by index.
    key: tuple = dc_field(init=False, repr=False)
    _hash: int = dc_field(init=False, repr=False)

    def __post_init__(self):
        key = (self.name,) if self.index is None else (self.name, self.index)
        object.__setattr__(self, "key", key)
        object.__setattr__(
            self, "_hash", hash((self.name, self.source, self.target, self.index))
        )

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Arrow:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.name == other.name
            and self.index == other.index
            and self.source == other.source
            and self.target == other.target
        )

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # Rebuild on unpickling: a stored hash holds only in the process
        # that computed it.
        return (Arrow, (self.name, self.source, self.target, self.index))

    def __str__(self):
        if self.index is None:
            return self.name
        return f"{self.name}[{self.index}]"


@dataclass(frozen=True, slots=True)
class Path:
    """A finite path.  Empty paths are vertices and carry their base point.

    Paths are immutable values whose hash is computed once, at construction.
    The public constructor checks that the arrows compose; the operations
    below build their results through ``_trusted``, which does not repeat
    the check, since each of them checks its own junction or only cuts a
    path that is already valid.
    """

    source: str
    target: str
    arrows: tuple = ()
    _hash: int = dc_field(init=False, repr=False)

    def __post_init__(self):
        prev = self.source
        for a in self.arrows:
            if a.source != prev:
                raise PreconditionError(f"arrow {a} does not compose at {prev}")
            prev = a.target
        if prev != self.target:
            raise PreconditionError(
                f"path target {self.target} does not match arrows ending at {prev}"
            )
        object.__setattr__(self, "_hash", hash((self.source, self.target, self.arrows)))

    @staticmethod
    def _trusted(source, target, arrows):
        # A path whose arrows the caller knows compose from source to target.
        path = _new_object(Path)
        _set_source(path, source)
        _set_target(path, target)
        _set_arrows(path, arrows)
        _set_hash(path, hash((source, target, arrows)))
        return path

    @staticmethod
    def vertex(v):
        return Path(v, v, ())

    @staticmethod
    def of_arrows(arrows):
        arrows = tuple(arrows)
        if not arrows:
            raise PreconditionError("of_arrows needs at least one arrow")
        return Path(arrows[0].source, arrows[-1].target, arrows)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Path:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.source == other.source
            and self.target == other.target
            and self.arrows == other.arrows
        )

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return (Path, (self.source, self.target, self.arrows))

    def __len__(self):
        return len(self.arrows)

    @property
    def is_vertex(self):
        return not self.arrows

    @property
    def key(self):
        return tuple(a.key for a in self.arrows)

    @property
    def dual_key(self):
        # Letters of the corresponding ghost word, in product order.
        return tuple(a.key for a in reversed(self.arrows))

    def concat(self, other):
        """This path followed by ``other``, a path or a single arrow."""
        if self.target != other.source:
            raise PreconditionError(f"cannot compose {self} with {other}")
        tail = (other,) if other.__class__ is Arrow else other.arrows
        return Path._trusted(self.source, other.target, self.arrows + tail)

    def prepend(self, arrow):
        if arrow.target != self.source:
            raise PreconditionError(f"cannot prepend {arrow} to {self}")
        return Path._trusted(arrow.source, self.target, (arrow,) + self.arrows)

    def strip_prefix(self, prefix):
        """Return the remainder if ``prefix`` is an initial segment, else None."""
        head = prefix.arrows
        n = len(head)
        arrows = self.arrows
        if n > len(arrows) or prefix.source != self.source:
            return None
        if arrows[:n] != head:
            return None
        return Path._trusted(prefix.target, self.target, arrows[n:])

    def drop_last(self):
        if not self.arrows:
            raise PreconditionError("cannot drop an arrow from a vertex path")
        rest = self.arrows[:-1]
        tgt = rest[-1].target if rest else self.source
        return Path._trusted(self.source, tgt, rest)

    def drop_first(self):
        if not self.arrows:
            raise PreconditionError("cannot drop an arrow from a vertex path")
        rest = self.arrows[1:]
        src = rest[0].source if rest else self.target
        return Path._trusted(src, self.target, rest)

    def __str__(self):
        if not self.arrows:
            return self.source
        return ".".join(str(a) for a in self.arrows)


# Slot setters for Path._trusted.  They bypass the frozen __setattr__ and
# __post_init__, so only Path._trusted may use them.
_new_object = object.__new__
_set_source = Path.source.__set__
_set_target = Path.target.__set__
_set_arrows = Path.arrows.__set__
_set_hash = Path._hash.__set__


def path_sort_key(path):
    """Length, then arrow names, then base point to break vertex ties."""
    return (len(path.arrows), path.key, path.source)


def ghost_sort_key(path):
    """Order a ghost word by length, then by its letters in product order.

    The path here is the real path whose reversal spells the ghost word.
    """
    return (len(path.arrows), path.dual_key, path.source)


class DiGraph:
    """A directed graph with optional countable arrow families."""

    def __init__(self):
        self._vertices = {}
        self._arrows = {}
        self._families = {}
        self._out = {}
        self._out_families = {}

    # -- construction -------------------------------------------------

    def _claim_name(self, name):
        if not name or not all(c.isalnum() or c == "_" for c in name):
            raise PreconditionError(f"bad identifier {name!r}")
        if name in self._vertices or name in self._arrows or name in self._families:
            raise PreconditionError(f"identifier {name!r} already in use")

    def add_vertex(self, v):
        self._claim_name(v)
        self._vertices[v] = None
        self._out[v] = []
        self._out_families[v] = []

    def add_arrow(self, name, source, target):
        self._claim_name(name)
        self._require_vertex(source)
        self._require_vertex(target)
        arrow = Arrow(name, source, target)
        self._arrows[name] = arrow
        self._out[source].append(arrow)
        self._out[source].sort(key=lambda a: a.key)
        return arrow

    def add_family(self, name, source, target):
        self._claim_name(name)
        self._require_vertex(source)
        self._require_vertex(target)
        self._families[name] = (source, target)
        self._out_families[source].append(name)
        self._out_families[source].sort()

    def _require_vertex(self, v):
        if v not in self._vertices:
            raise PreconditionError(f"unknown vertex {v!r}")

    # -- queries ------------------------------------------------------

    @property
    def vertices(self):
        return list(self._vertices)

    @property
    def plain_arrows(self):
        return list(self._arrows.values())

    @property
    def family_names(self):
        return list(self._families)

    def has_vertex(self, v):
        return v in self._vertices

    def arrow(self, name, index=None):
        if name in self._arrows:
            if index is not None:
                raise PreconditionError(f"{name} is a plain arrow, not a family")
            return self._arrows[name]
        if name in self._families:
            if index is None:
                raise PreconditionError(f"{name} is a family and needs an index")
            if not isinstance(index, int) or index < 0:
                raise PreconditionError(f"bad family index {index!r}")
            src, tgt = self._families[name]
            return Arrow(name, src, tgt, index)
        raise PreconditionError(f"unknown arrow {name!r}")

    def out_arrows(self, v, family_cap=0):
        """Arrows leaving v: all plain ones, plus family members below the cap."""
        self._require_vertex(v)
        out = list(self._out[v])
        for fam in self._out_families[v]:
            src, tgt = self._families[fam]
            out.extend(Arrow(fam, src, tgt, j) for j in range(family_cap))
        return out

    def classify_vertex(self, v):
        self._require_vertex(v)
        if self._out_families[v]:
            return "infinite_emitter"
        if not self._out[v]:
            return "sink"
        return "regular"

    def is_regular(self, v):
        return self.classify_vertex(v) == "regular"

    def is_sink(self, v):
        return self.classify_vertex(v) == "sink"

    def special_arrow(self, v):
        """The distinguished arrow at a regular vertex: least name wins."""
        if not self.is_regular(v):
            raise PreconditionError(f"vertex {v} is not regular")
        return self._out[v][0]

    def all_arrows(self, family_cap=0):
        out = list(self._arrows.values())
        for fam, (src, tgt) in self._families.items():
            out.extend(Arrow(fam, src, tgt, j) for j in range(family_cap))
        out.sort(key=lambda a: a.key)
        return out

    # -- path enumeration ---------------------------------------------

    def paths_from(self, v, max_length, family_cap=0):
        """All paths with source v and length at most max_length, sorted."""
        self._require_vertex(v)
        result = [Path.vertex(v)]
        frontier = [Path.vertex(v)]
        for _ in range(max_length):
            nxt = []
            for p in frontier:
                for a in self.out_arrows(p.target, family_cap):
                    nxt.append(p.concat(a))
            result.extend(nxt)
            frontier = nxt
        result.sort(key=path_sort_key)
        return result

    def all_paths(self, max_length, family_cap=0):
        result = []
        for v in self._vertices:
            result.extend(self.paths_from(v, max_length, family_cap))
        result.sort(key=path_sort_key)
        return result

    def paths_into(self, v, max_length, family_cap=0):
        """All paths with target v and length at most max_length, sorted."""
        self._require_vertex(v)
        return [p for p in self.all_paths(max_length, family_cap) if p.target == v]


# -- graph and path text formats ---------------------------------------


def parse_graph(text):
    """Parse the sectioned graph format.

    Sections are introduced by [vertices], [arrows], and [families].  Vertex
    lines hold one identifier.  Arrow lines read "name: src -> dst" and
    family lines read "name[]: src -> dst".  '#' starts a comment.
    """
    graph = DiGraph()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line not in ("[vertices]", "[arrows]", "[families]"):
                raise ParseError(f"line {lineno}: unknown section {line}")
            section = line
            continue
        if section is None:
            raise ParseError(f"line {lineno}: content before any section")
        try:
            if section == "[vertices]":
                graph.add_vertex(line)
            else:
                head, _, rest = line.partition(":")
                name = head.strip()
                if section == "[families]":
                    if not name.endswith("[]"):
                        raise ParseError(f"line {lineno}: family name needs []")
                    name = name[:-2].strip()
                src, _, dst = rest.partition("->")
                src, dst = src.strip(), dst.strip()
                if not src or not dst:
                    raise ParseError(f"line {lineno}: expected 'name: src -> dst'")
                if section == "[arrows]":
                    graph.add_arrow(name, src, dst)
                else:
                    graph.add_family(name, src, dst)
        except PreconditionError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    return graph


def _parse_arrow_token(graph, token):
    token = token.strip()
    if token.endswith("]"):
        name, _, idx = token[:-1].partition("[")
        try:
            index = int(idx)
        except ValueError as exc:
            raise ParseError(f"bad family index in {token!r}") from exc
        try:
            return graph.arrow(name.strip(), index)
        except PreconditionError as exc:
            raise ParseError(str(exc)) from exc
    try:
        return graph.arrow(token)
    except PreconditionError as exc:
        raise ParseError(str(exc)) from exc


def parse_path(graph, text):
    """Parse a path literal: a vertex name, or dot joined arrow names."""
    text = text.strip()
    if not text:
        raise ParseError("empty path literal")
    if "." not in text and graph.has_vertex(text):
        return Path.vertex(text)
    arrows = [_parse_arrow_token(graph, tok) for tok in text.split(".")]
    try:
        return Path.of_arrows(arrows)
    except PreconditionError as exc:
        raise ParseError(str(exc)) from exc


# -- periodicity helpers ------------------------------------------------


def smallest_period(seq):
    """The smallest p > 0 with seq[i] == seq[i+p] wherever both exist.

    Computed from the classical border array.  Returns len(seq) for an
    aperiodic-looking sequence and 0 for the empty one.
    """
    seq = list(seq)
    n = len(seq)
    if n == 0:
        return 0
    border = [0] * n
    k = 0
    for i in range(1, n):
        while k > 0 and seq[i] != seq[k]:
            k = border[k - 1]
        if seq[i] == seq[k]:
            k += 1
        border[i] = k
    return n - border[n - 1]

def primitive_root(cycle):
    """The primitive closed subpath whose power spells the given cycle."""
    if cycle.is_vertex or cycle.source != cycle.target:
        raise PreconditionError(f"{cycle} is not a nonempty closed path")
    p = smallest_period([a.key for a in cycle.arrows])
    if len(cycle) % p == 0:
        root = Path.of_arrows(cycle.arrows[:p])
        if root.source == root.target:
            return root
    return cycle


# -- infinite words -----------------------------------------------------


class CycleTail:
    """The eventually periodic tail rho^infinity of an infinite word."""

    __slots__ = ("cycle",)

    def __init__(self, cycle):
        if cycle.is_vertex or cycle.source != cycle.target:
            raise PreconditionError(f"tail cycle {cycle} must be closed and nonempty")
        self.cycle = cycle

    @property
    def source(self):
        return self.cycle.source

    def arrow_at(self, i):
        return self.cycle.arrows[i % len(self.cycle)]

    def __eq__(self, other):
        return isinstance(other, CycleTail) and self.cycle == other.cycle

    def __hash__(self):
        return hash(("CycleTail", self.cycle))

    def __str__(self):
        return f"({self.cycle})^w"


class GeneratorTail:
    """An opaque arrow generator, with a shift offset into it.

    Two generator tails are considered equal when they carry the same name
    and offset; the name is trusted to identify the generating rule.  The
    aperiodic flag records that the generating rule is known to produce a
    word that is not eventually periodic, which is what makes normalized
    prefixes with offsets a faithful labeling.
    """

    __slots__ = ("name", "fn", "start", "offset", "aperiodic")

    def __init__(self, name, fn, start, offset=0, aperiodic=False):
        self.name = name
        self.fn = fn
        self.start = start
        self.offset = offset
        self.aperiodic = aperiodic

    @property
    def source(self):
        return self.arrow_at(0).source if self.offset >= 0 else self.start

    def arrow_at(self, i):
        return self.fn(self.offset + i)

    def shifted(self, k):
        return GeneratorTail(self.name, self.fn, self.start, self.offset + k, self.aperiodic)

    def __eq__(self, other):
        return (
            isinstance(other, GeneratorTail)
            and self.name == other.name
            and self.offset == other.offset
        )

    def __hash__(self):
        return hash(("GeneratorTail", self.name, self.offset))

    def __str__(self):
        if self.offset:
            return f"{self.name}@{self.offset}"
        return self.name


class InfiniteWord:
    """An infinite path: a finite prefix followed by a tail.

    Words are kept in a normal form where no prefix arrow can be absorbed
    into the tail.  For cycle tails the cycle is primitive, so equality of
    normal forms is equality of words.  For generator tails the same holds
    whenever the generator is aperiodic.
    """

    __slots__ = ("prefix", "tail")

    def __init__(self, prefix, tail, normalize=True):
        if prefix.target != tail.source:
            raise PreconditionError(f"prefix {prefix} does not meet tail {tail}")
        if normalize:
            prefix, tail = _normalize(prefix, tail)
        self.prefix = prefix
        self.tail = tail

    @property
    def source(self):
        return self.prefix.source

    def arrow_at(self, i):
        if i < len(self.prefix):
            return self.prefix.arrows[i]
        return self.tail.arrow_at(i - len(self.prefix))

    def window(self, n):
        return [self.arrow_at(i) for i in range(n)]

    def shift(self, k=1):
        """Drop the first k arrows."""
        word = self
        for _ in range(k):
            if len(word.prefix) > 0:
                word = InfiniteWord(word.prefix.drop_first(), word.tail)
            elif isinstance(word.tail, CycleTail):
                c = word.tail.cycle
                rot = Path.of_arrows(c.arrows[1:] + c.arrows[:1])
                word = InfiniteWord(Path.vertex(rot.source), CycleTail(rot))
            else:
                word = InfiniteWord(
                    Path.vertex(word.tail.shifted(1).source), word.tail.shifted(1)
                )
        return word

    def prepend(self, arrow):
        return InfiniteWord(self.prefix.prepend(arrow), self.tail)

    def __eq__(self, other):
        return (
            isinstance(other, InfiniteWord)
            and self.prefix == other.prefix
            and self.tail == other.tail
        )

    def __hash__(self):
        return hash((self.prefix, self.tail))

    def __str__(self):
        if self.prefix.is_vertex:
            return str(self.tail)
        return f"{self.prefix}.{self.tail}"


def _normalize(prefix, tail):
    if isinstance(tail, CycleTail):
        cycle = primitive_root(tail.cycle)
        while len(prefix) > 0 and prefix.arrows[-1] == cycle.arrows[-1]:
            prefix = prefix.drop_last()
            cycle = Path.of_arrows(cycle.arrows[-1:] + cycle.arrows[:-1])
        return prefix, CycleTail(cycle)
    while len(prefix) > 0 and tail.offset > 0 and prefix.arrows[-1] == tail.fn(tail.offset - 1):
        prefix = prefix.drop_last()
        tail = tail.shifted(-1)
    return prefix, tail


def periodic_word(cycle, prefix=None):
    """The word prefix.cycle^infinity."""
    if prefix is None:
        prefix = Path.vertex(cycle.source)
    return InfiniteWord(prefix, CycleTail(cycle))


def generator_word(name, fn, start_vertex, aperiodic=False, prefix=None):
    """A word whose tail is drawn from an opaque index-to-arrow rule."""
    tail = GeneratorTail(name, fn, start_vertex, 0, aperiodic)
    probe = tail.arrow_at(0)
    if probe.source != start_vertex:
        raise PreconditionError("generator does not start at the stated vertex")
    if prefix is None:
        prefix = Path.vertex(start_vertex)
    return InfiniteWord(prefix, tail)


def thue_morse_word(graph, arrow0, arrow1):
    """The Thue-Morse word over two loops at a common vertex.

    Position i carries arrow1 when the binary weight of i is odd.  The
    resulting word is aperiodic, a fact recorded on the tail so that
    prefix-plus-offset labels are reliable.
    """
    for a in (arrow0, arrow1):
        if a.source != a.target:
            raise PreconditionError(f"{a} is not a loop")
    if arrow0.source != arrow1.source or arrow0 == arrow1:
        raise PreconditionError("need two distinct loops at one vertex")

    def fn(i):
        return arrow1 if bin(i).count("1") % 2 else arrow0

    return generator_word(f"tm({arrow0},{arrow1})", fn, arrow0.source, aperiodic=True)


def classify_word(word, offset_bound=8, period_bound=8, window=None):
    """Decide eventual periodicity where that is possible.

    Cycle tails are exactly eventually periodic: returns
    ("rational", primitive_cycle).  For generator tails the scan falsifies
    every offset/period pair within the stated bounds; when that succeeds
    and the generator is registered aperiodic the verdict is
    ("irrational_witnessed", (offset_bound, period_bound)).  Anything else
    is ("unknown", reason): a finite window cannot certify periodicity of
    an opaque rule.
    """
    if isinstance(word.tail, CycleTail):
        return ("rational", word.tail.cycle)
    if window is None:
        window = offset_bound + 2 * period_bound + 48
    keys = [a.key for a in word.window(window)]
    surviving = []
    for p in range(1, period_bound + 1):
        for k in range(offset_bound + 1):
            if all(keys[i] == keys[i + p] for i in range(k, window - p)):
                surviving.append((k, p))
    if surviving:
        return ("unknown", f"window matches period candidates {surviving[:3]}")
    if word.tail.aperiodic:
        return ("irrational_witnessed", (offset_bound, period_bound))
    return ("unknown", "no period within bounds, generator not registered aperiodic")


def tail_equivalent(w1, w2):
    """Whether two infinite words agree after dropping finite prefixes.

    Exact for cycle tails and for generator tails of the same rule.  A
    cycle tail is never equivalent to an aperiodic generator tail.  The
    remaining cases return "unknown".
    """
    t1, t2 = w1.tail, w2.tail
    if isinstance(t1, CycleTail) and isinstance(t2, CycleTail):
        c1, c2 = primitive_root(t1.cycle), primitive_root(t2.cycle)
        if len(c1) != len(c2):
            return False
        doubled = c1.arrows + c1.arrows
        return any(
            doubled[i : i + len(c2)] == c2.arrows for i in range(len(c1))
        )
    if isinstance(t1, GeneratorTail) and isinstance(t2, GeneratorTail):
        if t1.name == t2.name:
            return True
        return "unknown"
    gen = t1 if isinstance(t1, GeneratorTail) else t2
    if gen.aperiodic:
        return False
    return "unknown"
