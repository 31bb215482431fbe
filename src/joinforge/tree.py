"""Symbolic regular rooted trees.

A tree of arity ``m`` and depth ``k`` has vertices addressed by words over
the symbols ``1..m`` of length 0 (the root) up to ``k`` (the free vertices,
or leaves).  The word doubles as the path from the root, so the ancestor
relation is the prefix relation and the join of two vertices is their
longest common prefix.  Leaves carry nonnegative weights; the mass of the
cylinder below an arbitrary vertex is the sum of the leaf weights under it.

Per-vertex data (leaf weights, vertex functions, cylinder masses) is held
as one float64 array per level, indexed by word rank: the word's symbols
minus one, read as a base-``m`` number.  Ranks number each level in
lexicographic order, and the vertices at one level below a vertex fill one
contiguous slice of that level's array.

Everything here is immutable after construction (the arrays are read-only)
and all operations are pure, so values can be shared freely between threads
or processes.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import reduce
from typing import Any

import numpy as np

# Largest tree whose per-vertex arrays are built: k = 21 at m = 2, about
# 32 MB per set of level arrays.
MAX_TREE_VERTICES = 2**22

# Keys of a word-keyed map are read this many at a time, and level arrays
# of fewer values are checked together, so the temporaries of one numpy pass
# stay small next to the map itself.
KEY_CHUNK = 2048

# Longest symbol a word may hold: its value must fit an int64, and no tree
# that can be held has an arity of more digits.
_MAX_SYMBOL_DIGITS = 18


class ConfigurationError(ValueError):
    """Malformed tree data: bad vertices, weights, or particle tuples."""


class cached_attribute:
    """A method's value, computed on the first read and stored in the
    instance dict under the method's name, where every later read finds it
    without calling back here.

    This is ``functools.cached_property`` without the lock that Python 3.12
    took out of it.  Before 3.12 that lock is taken on each first read, and
    a fuzz seed makes three (the shape, its walk and the masses): about 3 µs
    of a 180 µs seed on Python 3.11.  Two threads that read at once may both
    compute the value; the objects here are immutable, so both find equal
    values.  Once Python 3.10 and 3.11 are no longer supported, this class
    can go and ``functools.cached_property`` take its place.
    """

    def __init__(self, method: Any) -> None:
        self.method = method
        self.name = method.__name__
        self.__doc__ = method.__doc__

    def __get__(self, instance: Any, owner: type | None = None) -> Any:
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.method(instance)
        return value


Word = tuple[int, ...]


def _scan_words(text: str, count: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Symbols and lengths of ``count`` words joined by '/', or None when a
    word breaks the grammar.

    This is the one definition of a word as written: ``""`` (the root) or
    decimal symbols joined by '.', each of ASCII digits with no sign, space
    or leading zero (so every symbol is at least 1), and of at most
    ``_MAX_SYMBOL_DIGITS`` digits.  Returns every symbol in text order and
    the number of symbols of each word.
    """
    try:
        b = np.frombuffer(f"/{text}/".encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        return None
    # '.', '/' and '0'..'9' are the ASCII codes 46..57
    if b.min() < ord(".") or b.max() > ord("9"):
        return None
    digit = b >= ord("0")
    dot = b == ord(".")
    cuts = (b == ord("/")).nonzero()[0]
    if cuts.size != count + 1:
        return None
    if (dot[1:-1] > (digit[:-2] & digit[2:])).any():  # a dot sits between two digits
        return None
    # the text opens and closes with '/', so digit runs start and end in turn
    edges = (digit[1:] != digit[:-1]).nonzero()[0] + 1
    starts = edges[::2]
    widths = edges[1::2] - starts
    symbols = b[starts].astype(np.int64) - ord("0")
    widest = int(widths.max(initial=0))
    if widest > _MAX_SYMBOL_DIGITS or starts.size and symbols.min() == 0:
        return None  # too many digits, or a leading zero
    for j in range(1, widest):
        more = widths > j
        symbols[more] = symbols[more] * 10 + b[starts[more] + j] - ord("0")
    before = np.searchsorted(starts, cuts)
    return symbols, before[1:] - before[:-1]


def parse_word(text: str) -> Word:
    """Symbols of a dot-separated word, as written in files and CLI arguments; '' is the root.

    The text must be exactly a word (see ``_scan_words``): ``"01.1"``,
    ``" 1"``, ``"+1"`` and ``"1."`` are refused.
    """
    if text == "":
        return ()
    scanned = _scan_words(text, 1) if isinstance(text, str) else None
    if scanned is None:
        raise ConfigurationError(f"bad vertex encoding {text!r}")
    return tuple(scanned[0].tolist())


@dataclass(frozen=True, order=True)
class Vertex:
    """A vertex of the tree, addressed by its word.

    The root is the empty word.  The level of a vertex equals the length of
    its word.  Vertices are tree-agnostic; arity and depth constraints are
    enforced where a :class:`TreeParams` is in scope.
    """

    word: Word = ()

    @property
    def level(self) -> int:
        return len(self.word)

    def child(self, symbol: int) -> "Vertex":
        return Vertex(self.word + (symbol,))

    def ancestor_of(self, other: "Vertex") -> bool:
        """Prefix relation: True when ``self`` lies on the root path of ``other``."""
        return other.word[: len(self.word)] == self.word

    def to_text(self) -> str:
        """Dot-separated encoding used in files and CLI arguments; root is ''."""
        return ".".join(str(s) for s in self.word)

    @classmethod
    def from_text(cls, text: str) -> "Vertex":
        return cls(parse_word(text))

    def __repr__(self) -> str:  # compact in test output
        return f"Vertex({self.to_text()!r})"


ROOT = Vertex()


@dataclass(frozen=True)
class TreeParams:
    """Arity and depth of the regular rooted tree.

    ``arity >= 2`` children per internal vertex; leaves sit ``depth >= 1``
    levels below the root.
    """

    arity: int
    depth: int

    def __post_init__(self) -> None:
        if not (_is_int(self.arity) and self.arity >= 2):
            raise ConfigurationError(f"arity must be an integer >= 2, got {self.arity!r}")
        if not (_is_int(self.depth) and self.depth >= 1):
            raise ConfigurationError(f"depth must be an integer >= 1, got {self.depth!r}")

    @property
    def leaf_count(self) -> int:
        return self.arity**self.depth

    @property
    def vertex_count(self) -> int:
        return (self.arity ** (self.depth + 1) - 1) // (self.arity - 1)

    def symbols(self) -> range:
        return range(1, self.arity + 1)

    def validate_vertex(self, v: Vertex) -> Vertex:
        self.rank(v.word)
        return v

    def is_leaf(self, v: Vertex) -> bool:
        return v.level == self.depth

    def vertices_at(self, level: int) -> Iterator[Vertex]:
        """All vertices at a given level, in lexicographic order."""
        if level < 0 or level > self.depth:
            raise ConfigurationError(f"level {level} outside 0..{self.depth}")
        for word in itertools.product(self.symbols(), repeat=level):
            yield Vertex(word)

    def vertices(self) -> Iterator[Vertex]:
        for level in range(self.depth + 1):
            yield from self.vertices_at(level)

    def leaves(self) -> Iterator[Vertex]:
        return self.vertices_at(self.depth)

    def descendants_at(self, v: Vertex, level: int) -> Iterator[Vertex]:
        """Vertices at absolute ``level`` lying below ``v`` (inclusive of ``v``)."""
        if level < v.level or level > self.depth:
            raise ConfigurationError(
                f"level {level} outside {v.level}..{self.depth} for {v!r}"
            )
        for suffix in itertools.product(self.symbols(), repeat=level - v.level):
            yield Vertex(v.word + suffix)

    def leaves_below(self, v: Vertex) -> Iterator[Vertex]:
        return self.descendants_at(v, self.depth)

    def rank(self, word: Sequence[int]) -> int:
        """Index of the vertex with this word in its level's array.

        The rank reads the word's symbols minus one as a base-``m`` number,
        so each level's vertices are numbered from 0 in lexicographic order.
        A symbol must be a Python or numpy integer, never a float or a bool.
        """
        m = self.arity
        rank = 0
        for s in word:
            if type(s) is not int and not isinstance(s, np.integer) or not 1 <= s <= m:
                break
            rank = rank * m + s - 1
        else:
            if len(word) <= self.depth:
                return rank
        raise ConfigurationError(
            f"unexpected word {'.'.join(map(str, word))!r}: the tree with "
            f"m={m}, k={self.depth} has no such vertex"
        )

    def ranks_below(self, v: Vertex, level: int) -> slice:
        """Ranks of the vertices at absolute ``level`` below ``v``: one contiguous slice."""
        if level < v.level or level > self.depth:
            raise ConfigurationError(
                f"level {level} outside {v.level}..{self.depth} for {v!r}"
            )
        width = self.arity ** (level - v.level)
        start = self.rank(v.word) * width
        return slice(start, start + width)


def join(a: Vertex, b: Vertex) -> Vertex:
    """Longest common prefix of two vertices: their deepest common ancestor."""
    n = 0
    for x, y in zip(a.word, b.word):
        if x != y:
            break
        n += 1
    return Vertex(a.word[:n])


def common_join(vertices: Sequence[Vertex]) -> Vertex:
    """Deepest common ancestor of a nonempty collection of vertices."""
    if not vertices:
        raise ConfigurationError("common_join of an empty collection")
    return reduce(join, vertices)


def join_multiset(particles: Sequence[Vertex]) -> dict[Vertex, int]:
    """Join points of a tuple of distinct leaves, with multiplicities.

    A vertex has multiplicity ``r`` when ``r + 1`` of the particles pairwise
    join there, which equals the number of its occupied children minus one.
    The multiplicities always total ``n - 1`` for ``n`` particles.
    """
    ps = list(particles)
    if len(ps) < 2:
        raise ConfigurationError("join_multiset needs at least two particles")
    if len(set(ps)) != len(ps):
        raise ConfigurationError("particles must be pairwise distinct leaves")

    mult: dict[Vertex, int] = {}

    def split(group: list[Vertex]) -> None:
        if len(group) == 1:
            return
        w = common_join(group)
        parts: dict[int, list[Vertex]] = {}
        for v in group:
            parts.setdefault(v.word[w.level], []).append(v)
        mult[w] = len(parts) - 1
        for part in parts.values():
            split(part)

    split(ps)
    return mult


def check_tree_size(tree: TreeParams) -> None:
    """Refuse a tree of more than ``MAX_TREE_VERTICES`` vertices.

    A tree with at least ``2**1000`` leaves is refused by that bound, not by
    its vertex count, which may take long to compute and be too long to
    print.
    """
    m, k = tree.arity, tree.depth
    bound = k * (m.bit_length() - 1)  # m**k >= 2**bound
    if bound >= 1000:
        size = f"at least 2**{bound}"
    elif tree.vertex_count > MAX_TREE_VERTICES:
        size = str(tree.vertex_count)
    else:
        return
    raise ConfigurationError(
        f"a tree with m={m}, k={k} has {size} vertices, over the limit of {MAX_TREE_VERTICES}"
    )


def level_arrays(tree: TreeParams, first_level: int, fill: float) -> list[np.ndarray]:
    """Fresh float64 arrays for levels ``first_level..depth``, filled with ``fill``.

    A tree too large to hold is refused here, before anything is allocated.
    """
    check_tree_size(tree)
    return [
        np.full(tree.arity**level, fill, dtype=np.float64)
        for level in range(first_level, tree.depth + 1)
    ]


def keyed_levels(
    tree: TreeParams, first_level: int, mapping: Mapping[str, Any], fill: float
) -> list[np.ndarray]:
    """Level arrays ``first_level..depth`` from values keyed by word text.

    Keys are words as ``parse_word`` reads them, naming vertices at levels
    ``first_level..depth``; values are JSON numbers (``int`` or ``float``,
    never ``bool``) or numpy integer and floating scalars.  Vertices the map
    leaves out hold ``fill``.  Keys are read ``KEY_CHUNK`` at a time, each
    chunk in one numpy pass (see ``_read_chunk``); a chunk that does not
    read is read again key by key, only for the message that names its
    first bad entry.
    """
    arrays = level_arrays(tree, first_level, _numbers(fill, "fill values"))
    keys, values = iter(mapping), iter(mapping.values())
    while chunk := list(itertools.islice(keys, KEY_CHUNK)):
        raw = list(itertools.islice(values, KEY_CHUNK))
        read = _read_chunk(tree, first_level, chunk, raw)
        if read is None:
            raise _first_bad_entry(tree, first_level, chunk, raw)
        for level, ranks, numbers in read:
            arrays[level - first_level][ranks] = numbers
    return arrays


def keyed_map(tree: TreeParams, arrays: Sequence[np.ndarray]) -> dict[str, float]:
    """Values keyed by word text from level arrays that end at the leaves.

    The inverse of ``keyed_levels``: every vertex on the arrays' levels gets
    one entry.  Each level's words are spelled once, in rank order.
    """
    symbols = [str(s) for s in tree.symbols()]
    keyed: dict[str, float] = {}
    for level, array in enumerate(arrays, tree.depth + 1 - len(arrays)):
        words = map(".".join, itertools.product(symbols, repeat=level))
        keyed.update(zip(words, array.tolist()))
    return keyed


def _read_chunk(
    tree: TreeParams, first_level: int, keys: list[str], values: list[Any]
) -> list[tuple[int, np.ndarray, np.ndarray]] | None:
    """The entries of one chunk by level: each level with the ranks and
    values of its entries; None when any entry is refused.

    A chunk as ``keyed_map`` writes one, words of one-digit symbols in level
    order with every level between the first key's and the last key's
    complete, is read as rows of bytes (see ``_digit_runs``).  At m <= 9
    that is every chunk it writes, the root's included.  Any other chunk is
    read by ``_scan_words``: two-digit symbols, several levels out of
    order, or a bad key.
    """
    if not all(map(_is_number_type, set(map(type, values)))):
        return None
    try:
        numbers = _float_array(values)
        text = "/".join(keys)
    except (TypeError, OverflowError, FloatingPointError):
        return None
    runs = _digit_runs(text, len(keys), len(keys[0]), len(keys[-1]), tree.arity)
    if runs is None:
        return _scanned_levels(tree, first_level, text, numbers)
    if not first_level <= runs[0][0] <= runs[-1][0] <= tree.depth:
        return None
    levels, start = [], 0
    for level, digits in runs:
        stop = start + len(digits)
        levels.append((level, _ranks(tree, digits), numbers[start:stop]))
        start = stop
    return levels


def _digit_runs(
    text: str, count: int, first: int, last: int, m: int
) -> list[tuple[int, np.ndarray]] | None:
    """The ``count`` words joined by '/' in ``text`` as runs of rows: each
    run's level and its symbols less one, one row per word; None unless the
    words are ``d.d.….d`` of one-digit symbols ``d`` in ``1..min(m, 9)``,
    in level order from the level of the first word, ``first`` characters
    long, to that of the last, ``last`` characters long, and every level
    strictly between those two holds all of its ``m**level`` words.

    ``text`` and a closing '/' are viewed as rows of bytes, one per word:
    ``2 * level`` bytes, or the one byte '/' for the root.  The length of
    ``text`` tells how many words each of the two end levels holds, and the
    rows check that it told the truth: each row holds one '/', its last
    byte.  Subtracting the row ``1.1.….1/`` wraps every byte below its
    column's round to 207 or more, so one comparison with the most each
    column allows (``min(m, 9) - 1`` under a digit, 0 under '.' or '/')
    checks every byte of a run.
    """
    low, high = (first + 1) // 2, (last + 1) // 2
    if low > high:
        return None
    # words and bytes left to the two end levels once the levels between are full;
    # m >= 2, so the loop stops within about log2(count) levels
    words, size = count, len(text) + 1
    for level in range(low + 1, high):
        words, size = words - m**level, size - m**level * 2 * level
        if words < 0:
            return None
    wide, narrow = 2 * high or 1, 2 * low or 1
    if low == high:
        shallow, odd = words, words * wide != size
    else:  # shallow words on the first level, the rest on the last
        shallow, odd = divmod(words * wide - size, wide - narrow)
    if odd or not 0 <= shallow <= words:
        return None
    try:
        data = np.frombuffer(f"{text}/".encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        return None
    middle = [(level, m**level) for level in range(low + 1, high)]
    runs, start = [], 0
    for level, rows in ((low, shallow), *middle, (high, words - shallow)):
        if rows:
            width = 2 * level or 1
            base = np.frombuffer((b"1." * level)[:-1] + b"/", dtype=np.uint8)
            limit = np.zeros(width, dtype=np.uint8)
            limit[:-1:2] = min(m, 9) - 1
            offsets = data[start : start + rows * width].reshape(rows, width) - base
            if (offsets > limit).any():
                return None
            runs.append((level, offsets[:, :-1:2]))
            start += rows * width
    return runs


def _scanned_levels(
    tree: TreeParams, first_level: int, text: str, numbers: np.ndarray
) -> list[tuple[int, np.ndarray, np.ndarray]] | None:
    """``_read_chunk`` of the words in ``text``, read by ``_scan_words``."""
    n = numbers.size
    scanned = _scan_words(text, n)
    if scanned is None:
        return None
    symbols, lengths = scanned
    if symbols.max(initial=0) > tree.arity:
        return None
    shortest, longest = int(lengths.min()), int(lengths.max())
    if not first_level <= shortest <= longest <= tree.depth:
        return None
    if shortest == longest:
        return [(shortest, _ranks(tree, (symbols - 1).reshape(n, longest)), numbers)]
    # a shorter word is right-aligned in a row as wide as the longest word,
    # so it leads with zeros
    digits = np.zeros(n * longest, dtype=np.float64)
    offsets = np.arange(1, n + 1) * longest - np.cumsum(lengths)
    digits[np.arange(symbols.size) + np.repeat(offsets, lengths)] = symbols - 1
    ranks = _ranks(tree, digits.reshape(n, longest))
    levels = []
    for level in range(shortest, longest + 1):
        at = lengths == level
        levels.append((level, ranks[at], numbers[at]))
    return levels


def _ranks(tree: TreeParams, digits: np.ndarray) -> np.ndarray:
    """Ranks of words from their symbols less one, one row per word, each
    row read as a base-``m`` number.  The float64 product is exact: every
    rank and partial sum stays below ``MAX_TREE_VERTICES`` < 2**53."""
    place = float(tree.arity) ** np.arange(digits.shape[1] - 1, -1, -1)
    return (digits @ place).astype(np.intp)


def _float_array(values: list[Any]) -> np.ndarray:
    """``values`` as float64; a finite value beyond its range raises, never becomes inf."""
    with np.errstate(over="raise"):
        return np.array(values, dtype=np.float64)


def _is_number_type(t: type) -> bool:
    """Exactly ``int`` or ``float``, so never ``bool``, or a numpy integer or
    floating scalar type, which ``np.bool_`` is not."""
    return t in (int, float) or issubclass(t, (np.integer, np.floating))


def _float_value(value: Any, what: str) -> float:
    """One value read by the rule of map values (see ``_is_number_type``) as
    a float; a value beyond the float range is refused, never made infinite."""
    if type(value) is float:
        return value
    if not _is_number_type(type(value)):
        raise ConfigurationError(f"{what} must be a JSON number, got {value!r}")
    try:
        return _float_array([value]).item()
    except (OverflowError, FloatingPointError):
        raise ConfigurationError(f"{what} is too large for a float") from None


def _is_int(value: Any) -> bool:
    """A Python ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _first_bad_entry(
    tree: TreeParams, first_level: int, keys: list[Any], values: list[Any]
) -> ConfigurationError:
    """The refusal of the first entry that ``_read_chunk`` cannot take."""
    for key, value in zip(keys, values):
        try:
            word = parse_word(key)
            tree.rank(word)
            if len(word) < first_level:
                raise ConfigurationError(f"unexpected word {key!r} above level {first_level}")
            _float_value(value, f"value at {key!r}")
        except ConfigurationError as exc:
            return exc
    return ConfigurationError(f"entries from {keys[0]!r} to {keys[-1]!r} could not be read")


def _numbers(values: Any, what: str) -> np.ndarray:
    """``values`` as float64, refusing any dtype but integer and float, and a
    list or tuple holding a boolean, which numpy would read as a number."""
    if isinstance(values, (list, tuple)) and any(isinstance(v, (bool, np.bool_)) for v in values):
        raise ConfigurationError(f"{what} must be integers or floats, got a boolean")
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise ConfigurationError(f"{what} must be integers or floats, got {array.dtype} data")
    return array.astype(np.float64, copy=False)


def _held(
    tree: TreeParams,
    first_level: int,
    arrays: Sequence[np.ndarray],
    what: str,
    positive: bool,
) -> tuple[np.ndarray, ...]:
    """Level arrays ``first_level..depth``, every value checked (finite, and
    ``> 0`` when ``positive``, else ``>= 0``), then made read-only.

    An array that owns its float64 data is taken over as it is; anything
    else is copied first, a view included, since its base stays writable.
    """
    held, label = [], f"{what}s"
    for a in arrays:
        a = _numbers(a, label)
        held.append(a if a.base is None else a.copy())
    if [a.shape for a in held] != [(tree.arity**l,) for l in range(first_level, tree.depth + 1)]:
        raise ConfigurationError(
            f"{what}s need one array of m**level values per level {first_level}..{tree.depth}"
        )
    # the levels of under KEY_CHUNK values are checked in one pass over a
    # small copy and the others in place; a NaN minimum fails both tests
    few = sum(a.size < KEY_CHUNK for a in held)  # the levels grow, so these come first
    parts = [np.concatenate(held[:few]), *held[few:]] if few > 1 else held
    if not all(
        (a.min() > 0.0 if positive else a.min() >= 0.0) and a.max() < math.inf for a in parts
    ):
        for level, out in enumerate(held, first_level):  # the first bad value names its vertex
            ok = np.isfinite(out) & (out > 0.0 if positive else out >= 0.0)
            if ok.all():
                continue
            bad = int(np.flatnonzero(~ok)[0])
            v = Vertex(_word_of_rank(tree, level, bad))
            raise ConfigurationError(
                f"{what} at {v!r} must be finite and {'>' if positive else '>='} 0, "
                f"got {float(out[bad])!r}"
            )
    for out in held:
        out.setflags(write=False)
    return tuple(held)


def _word_of_rank(tree: TreeParams, level: int, rank: int) -> Word:
    """The word of the vertex at ``level`` with this rank: its base-``m``
    digits, plus one each, the inverse of ``TreeParams.rank``."""
    symbols = []
    for _ in range(level):
        rank, digit = divmod(rank, tree.arity)
        symbols.append(digit + 1)
    return tuple(reversed(symbols))


def _level_item(tree: TreeParams, arrays: tuple[np.ndarray, ...], v: Vertex) -> float:
    """The value at ``v`` in level arrays that end at the leaves; KeyError
    for a vertex off their levels or outside the tree."""
    first_level = tree.depth + 1 - len(arrays)
    try:
        rank = tree.rank(v.word)
    except (AttributeError, ConfigurationError):
        raise KeyError(v) from None
    if v.level < first_level:
        raise KeyError(v)
    return arrays[v.level - first_level].item(rank)


@dataclass(frozen=True, init=False, eq=False)
class WeightAssignment:
    """Nonnegative weight for every leaf, held as one array in word-rank order."""

    tree: TreeParams
    leaf_array: np.ndarray

    def __init__(self, tree: TreeParams, leaf_array: np.ndarray) -> None:
        """From the m**k leaf weights in word-rank order."""
        (array,) = _held(tree, tree.depth, [leaf_array], "weight", positive=False)
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "leaf_array", array)

    @classmethod
    def constant(cls, tree: TreeParams, value: float = 1.0) -> "WeightAssignment":
        return cls.from_mapping(tree, {}, default=value)

    @classmethod
    def from_mapping(
        cls, tree: TreeParams, words: Mapping[str, float], default: float = 1.0
    ) -> "WeightAssignment":
        """From leaf weights keyed by word text, as in an instance file (see
        :func:`keyed_levels`); unmentioned leaves hold ``default``."""
        (array,) = keyed_levels(tree, tree.depth, words, default)
        return cls(tree, array)

    def weight(self, leaf: Vertex) -> float:
        return _level_item(self.tree, (self.leaf_array,), leaf)

    @cached_attribute
    def masses(self) -> tuple[np.ndarray, ...]:
        """Cylinder masses below every vertex (see :func:`cylinder_masses`), computed once."""
        return cylinder_masses(self.tree, self)


def cylinder_masses(tree: TreeParams, weights: WeightAssignment) -> tuple[np.ndarray, ...]:
    """Mass of the cylinder below every vertex, one read-only array per level.

    ``masses[level][rank]`` is the sum of the leaf weights below the vertex
    with that rank.  Each level adds its children's columns in symbol order,
    so every mass is the float a left-to-right sum over the children gives.
    A mass beyond the float range is refused.

    All levels are views of one array, root first, allocated at once; the
    array and every view are read-only.
    """
    if weights.tree != tree:
        raise ConfigurationError("weight assignment belongs to a different tree")
    check_tree_size(tree)
    m = tree.arity
    buffer = np.zeros(tree.vertex_count)
    masses = []
    for level in range(tree.depth + 1):
        start = (m**level - 1) // (m - 1)  # the vertices above this level
        masses.append(buffer[start : start + m**level])
    masses[-1][:] = weights.leaf_array
    try:
        with np.errstate(over="raise"):
            for level in range(tree.depth - 1, -1, -1):
                children = masses[level + 1].reshape(-1, m)
                for symbol in range(m):
                    masses[level] += children[:, symbol]
    except FloatingPointError:
        raise ConfigurationError("a cylinder mass exceeds the float range") from None
    buffer.flags.writeable = False
    for array in masses:
        array.flags.writeable = False
    return tuple(masses)


@dataclass(frozen=True, init=False, eq=False)
class LevelFunction:
    """A positive value at every vertex, held as one array per level in word-rank order.

    ``levels[l][r]`` is the value at the vertex of level ``l`` with rank ``r``.
    """

    tree: TreeParams
    levels: tuple[np.ndarray, ...]

    def __init__(self, tree: TreeParams, levels: Sequence[np.ndarray]) -> None:
        """From the k+1 level arrays, each in word-rank order."""
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "levels", _held(tree, 0, levels, "vertex value", positive=True))

    @classmethod
    def constant(cls, tree: TreeParams, value: float = 1.0) -> "LevelFunction":
        return cls.from_mapping(tree, {}, default=value)

    @classmethod
    def from_mapping(
        cls, tree: TreeParams, words: Mapping[str, float], default: float = 1.0
    ) -> "LevelFunction":
        """From vertex values keyed by word text, as in an instance file (see
        :func:`keyed_levels`); unmentioned vertices hold ``default``."""
        return cls(tree, keyed_levels(tree, 0, words, default))

    @classmethod
    def by_level(cls, tree: TreeParams, level_values: Sequence[float]) -> "LevelFunction":
        """Constant on each level; ``level_values[l]`` is the value at level ``l``."""
        if len(level_values) != tree.depth + 1:
            raise ConfigurationError(
                f"need {tree.depth + 1} level values, got {len(level_values)}"
            )
        arrays = level_arrays(tree, 0, 0.0)
        for array, value in zip(arrays, _numbers(level_values, "level values")):
            array[:] = value
        return cls(tree, arrays)

    def __call__(self, v: Vertex) -> float:
        return _level_item(self.tree, self.levels, v)
