"""Concrete permutations: cycle structure, powers, m-th-root existence,
constructive enumeration of all m-th roots, and a brute-force oracle.

Permutations act on {1, ..., n} and are stored in one-line notation
(image[i-1] is where i goes).  The m-th power of a single L-cycle splits
it into gcd(L, m) cycles of length L/gcd(L, m); root construction inverts
that splitting by fusing g existing ell-cycles into one (g*ell)-cycle of
the root.  Each fusion is written straight from a chain of the g cycles,
entry t of each going to entry t of the next, and the last closing back
onto the first through a closing table, the anchor rotated by a shift
found once per size.  One walk partitions the cycles of a length into
bundles.  A bundle with exactly one fusion (g == 1, or g == 2 on fixed
points) is written as it is chosen, without a loop of its own, and a
remainder of singletons is written in one pass.  The cycles no bundle has
taken yet are kept in a doubly linked list, so a bundle is taken and given
back in O(g) (Knuth's dancing links) and the first root is built in O(n),
not by copying what is left at every bundle.  A permutation is split
into cycles once, on first use, and that split serves cycles(),
cycle_type and enumerate_roots alike; enumerate_roots reads sigma's type
through cycle_type to decide existence.  The construction factors over cycle
lengths as the count does, since the maps of each ell write only the
points of the ell-cycles.  A length whose admissible sizes are (1,) has
one map, written once before the stream.  Of the others, the smallest
ell's maps are streamed, and each larger ell's are recorded and replayed
for every map of the smaller ones if their number, the count's factor for
ell, fits a fixed cap on what one call records, decided before the stream
(from its solution vectors alone when even they pass the cap).  A
recording is a memo: its items are built as the first iteration reaches
them and kept for every later one, so no root waits for a whole
recording.  A recorded length is written back from its memo under each
map of the smaller lengths, or, when it is the innermost, gathered into
each root by one itemgetter pass over a copy of the outer maps' image and
the recorded values.  An innermost length that is streamed gathers its
fusions the same way: per partition, each root is one itemgetter pass
over a copy of the image and the values of one fusion per bundle, which
position patterns of the bundle's size give.  The patterns of a size are
a memo too, and they count against the same cap.
Every constructed root is verified in full by re-powering before it is
emitted, in the form it was built in: an image padded with a 0 at index 0.
Powers are taken by repeated squaring, so that check costs O(n log m), and
O(n**2) at most, as a huge m is reduced once per call.  A root that passes
it is a permutation of 1..n, so it is not validated a second time: every
slot of a built root holds 0 (never written) or a value in 1..n; a 0 stays
0 under every power, a repeated value makes every power non-injective,
unlike sigma, and the reduction of a huge m leaves an exponent of at least
1.  The oracle scans S_n once per (n, m) and buckets every permutation by
its m-th power.
"""

from __future__ import annotations

import functools
import itertools
from math import factorial, lcm
from operator import itemgetter, methodcaller

from ._checks import FrozenRecord, InternalCheckError, SizeCapError, is_int
from ._checks import refuse_rebinding, require_int
from .counting import _length_factor, _witness
from .gsets import count_epsilons, g_set_bounded, iter_epsilons


# Cycle-type text of a larger degree is refused before its vector is built.
MAX_DEGREE = 1_000_000
# The largest n brute_force_root_table scans by default: S_8 has 40,320 members.
DEFAULT_ORACLE_BOUND = 8


@functools.lru_cache(maxsize=16)
def _order_multiple(n: int) -> int:
    """lcm(1..n), which the order of every permutation of degree n divides."""
    return lcm(*range(1, n + 1))


def _exponent(m: int, n: int) -> int:
    """An exponent that raises every permutation of degree n as m >= 1 does:
    m itself, or for an m of more than 2n bits its residue modulo
    L = lcm(1..n) < 4**n (L when L divides m), which is at least 1.  So a
    power takes at most 2n squarings however long m is."""
    if m.bit_length() > 2 * n:
        bound = _order_multiple(n)
        m = m % bound or bound
    return m


def _padded_power(padded: tuple[int, ...], m: int) -> tuple[int, ...]:
    """m-th power, for m >= 1, of an image padded with a 0 at index 0, so
    that padded[x] is where x goes and each composition is one itemgetter
    pass; the power is padded too.  Repeated squaring: floor(log2 m)
    squarings and popcount(m) - 1 products, so the cost grows with the bit
    length of m, not with m.  The padding alone, (0,), needs m == 1, which
    _exponent(m, 0) always gives: it takes no pass, as an itemgetter of one
    index returns no tuple."""
    square, result = padded, None
    while True:
        if m & 1:
            result = square if result is None else itemgetter(*result)(square)
        m >>= 1
        if not m:
            return result
        square = itemgetter(*square)(square)


def _image_power(image: tuple[int, ...], m: int) -> tuple[int, ...]:
    """m-th power of a one-line image, for m >= 1, by _padded_power."""
    if not image:
        return ()
    return _padded_power((0, *image), _exponent(m, len(image)))[1:]


def _one_to_n(image: tuple, ints: bool = True) -> tuple:
    """image, if it lists 1..n in some order and ints is true, saying that
    every entry is an int and not a bool (1.0 and True sort as 1 does);
    ValueError otherwise, with one message for both."""
    if not ints or sorted(image) != list(range(1, len(image) + 1)):
        raise ValueError(f"not a permutation of 1..{len(image)}: {image!r}")
    return image


class Permutation:
    """A permutation of {1, ..., n} in one-line notation.  Immutable, as it
    is hashed and keeps its cycle split: image and the split are bound once."""

    __slots__ = ("image", "_cycles")
    __setattr__ = __delattr__ = refuse_rebinding

    def __init__(self, image):
        image = tuple(image)
        object.__setattr__(self, "image", _one_to_n(image, all(map(is_int, image))))

    @classmethod
    def _proved(cls, image: tuple[int, ...]) -> "Permutation":
        """The Permutation of an image already proved to be a permutation of
        1..n, such as a re-powered root, built without checking it again."""
        perm = object.__new__(cls)
        object.__setattr__(perm, "image", image)
        return perm

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Permutation":
        """Build from disjoint cycles; elements not mentioned are fixed."""
        image = list(range(1, require_int(n, "n", minimum=0) + 1))
        touched = set()
        for cyc in cycles:
            cyc = tuple(cyc)
            for x in cyc:
                if not (is_int(x) and 1 <= x <= n):
                    raise ValueError(f"cycle entry {x!r} is not an int in 1..{n}")
                if x in touched:
                    raise ValueError(f"cycles are not disjoint at {x}")
                touched.add(x)
            for i, x in enumerate(cyc):
                image[x - 1] = cyc[(i + 1) % len(cyc)]
        return cls._proved(tuple(image))  # disjoint cycles on 1..n: a permutation

    @property
    def degree(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        if require_int(i, "point") > len(self.image):
            raise ValueError(f"point {i} outside 1..{len(self.image)}")
        return self.image[i - 1]

    def __pow__(self, m: int) -> "Permutation":
        return power(self, m)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __lt__(self, other: "Permutation") -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.image < other.image

    def __repr__(self) -> str:
        return f"Permutation({list(self.image)})"

    def __str__(self) -> str:
        return format_permutation(self)

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles (fixed points included), each rotated so its
        minimum comes first, listed in order of those minima."""
        return list(self._split())

    def _split(self) -> tuple[tuple[int, ...], ...]:
        """The cycles, split on first use and kept: every later call, and
        cycle_type and enumerate_roots, reads the same tuple."""
        try:
            return self._cycles
        except AttributeError:
            pass
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            x = self.image[start - 1]
            while x != start:
                seen[x - 1] = True
                cyc.append(x)
                x = self.image[x - 1]
            out.append(tuple(cyc))
        object.__setattr__(self, "_cycles", tuple(out))
        return self._cycles


class CycleType(FrozenRecord):
    """Multiplicity vector a, where a[ell-1] counts the ell-cycles.

    The weight n is sum(ell * a[ell-1]); trailing zeros are preserved, so
    vectors differing only in trailing zeros compare unequal.
    """

    __slots__ = ("a",)

    def __init__(self, a):
        a = tuple(a)
        for count in a:
            if not is_int(count) or count < 0:
                raise ValueError(f"multiplicities must be nonnegative ints, got {a!r}")
        super().__init__(a)

    @classmethod
    def _proved(cls, a: tuple[int, ...]) -> "CycleType":
        """The CycleType of a vector already known to hold nonnegative int
        counts, such as one counted from a split, built without checking it."""
        t = object.__new__(cls)
        object.__setattr__(t, "a", a)
        return t

    @property
    def n(self) -> int:
        return sum(ell * count for ell, count in enumerate(self.a, start=1))

    def nonzero(self) -> list[tuple[int, int]]:
        """(ell, a_ell) pairs with a_ell > 0, ell increasing."""
        return [(ell, count) for ell, count in enumerate(self.a, start=1) if count]

    def class_size(self) -> int:
        """Number of permutations in S_n with this cycle type."""
        size = factorial(self.n)
        for ell, count in self.nonzero():
            size //= ell**count * factorial(count)
        return size

    def canonical_permutation(self) -> Permutation:
        """The permutation of this type whose cycles use consecutive
        integers in increasing cycle length: e.g. 1^2 2 -> (1)(2)(3 4)."""
        cycles = []
        nxt = 1
        for ell, count in self.nonzero():
            for _ in range(count):
                cycles.append(range(nxt, nxt + ell))
                nxt += ell
        return Permutation.from_cycles(self.n, cycles)


def cycle_type(sigma: Permutation) -> CycleType:
    a = [0] * sigma.degree
    for cyc in sigma._split():
        a[len(cyc) - 1] += 1
    return CycleType._proved(tuple(a))


def cycle_types(n: int):
    """All cycle types of S_n (partitions of n as multiplicity vectors).

    Largest parts first; n == 0 yields the single empty type.
    """
    require_int(n, "n", minimum=0)
    a = [0] * n

    def rec(remaining: int, max_part: int):
        if remaining == 0:
            yield CycleType._proved(tuple(a))  # every count is an int this loop set
            return
        for part in range(min(remaining, max_part), 0, -1):
            for count in range(remaining // part, 0, -1):
                a[part - 1] = count
                yield from rec(remaining - part * count, part - 1)
                a[part - 1] = 0

    yield from rec(n, n)


def power(sigma: Permutation, m: int) -> Permutation:
    """sigma**m, computed by repeated squaring of the image."""
    require_int(m, "m")
    return Permutation._proved(_image_power(sigma.image, m))  # a power of a permutation is one


def has_mth_root(t: CycleType, m: int) -> bool:
    """Whether permutations of cycle type t admit an m-th root.

    Criterion: bracket(ell, m) divides a_ell for every ell (Wilf,
    "generatingfunctionology", 2nd ed., theorem 4.8.2), as counting._witness
    tests it.  t is a CycleType; for a permutation sigma, pass cycle_type(sigma).
    """
    return all(row[3] for row in _witness(t, m))


def _shift(g: int, ell: int, m: int) -> int:
    """u, the inverse of m // g modulo ell, which gcd(g*ell, m) == g makes
    exist: the last cycle of a fusion of g ell-cycles sends its entry t to
    entry (t + u) mod ell of the anchor."""
    return pow(m // g, -1, ell)


def _closing(anchor, g: int, ell: int, m: int):
    """anchor[closing[t]] for t = 0..ell-1: where the last cycle of a fusion
    of g ell-cycles sends its entries, the anchor rotated by _shift."""
    shift = _shift(g, ell, m)
    return anchor[shift:] + anchor[:shift]


def _write_fusion(image: list[int], anchor, chain, closing) -> None:
    """Write the cycle that runs anchor, chain[0], ..., chain[-1] entry by
    entry into image (image[x] = its successor): entry t of each cycle goes
    to entry t of the next, and entry t of the last to closing[t]."""
    source = anchor
    for target in chain:
        for x, y in zip(source, target):
            image[x] = y
        source = target
    for x, y in zip(source, closing):
        image[x] = y


def _fusions(bundle, ell: int, m: int, image: list[int]):
    """All (g*ell)-cycles D with D**m equal to the product of the bundle.
    Each D is written into image (image[x] = D(x)) before a yield.

    Since gcd(g*ell, m) == g, the m-th power of D takes each entry of D to
    the entry m places on, so it splits D into g cycles of length ell, one
    per residue class mod g.  The bundle cycle holding the smallest element,
    the anchor, is pinned to class 0 at position 0 (which kills the
    rotational symmetry of D), and each ordering of the other g-1 cycles,
    combined with each of the ell rotations of each, fills classes 1..g-1.
    D is written straight from that chain of cycles by _write_fusion, its
    closing table made by _closing; the rotations
    of each companion are made once per bundle.  Exactly
    (g-1)! * ell**(g-1) distinct cycles result, ordered by companion order,
    then rotation offset."""
    anchor = bundle[0]
    closing = _closing(anchor, len(bundle), ell, m)
    rotations = [[cyc[off:] + cyc[:off] for off in range(ell)] for cyc in bundle[1:]]
    for ordering in itertools.permutations(rotations):
        for chain in itertools.product(*ordering):
            _write_fusion(image, anchor, chain, closing)
            yield


_DONE = object()


def _nested(levels):
    """Run the generators made by levels[0](), levels[1](), ... as nested
    loops, the first outermost, and yield once per innermost step.  A flat
    walk over the outer levels, so the depth is not bounded by the
    recursion limit.  levels[i]() is called anew after each step of level
    i-1, so it may read state that the steps of the levels above left."""
    if not levels:
        yield
        return
    *outer, inner = levels
    stack = []
    while True:
        if len(stack) == len(outer):
            yield from inner()
        else:
            stack.append(iter(outer[len(stack)]()))
        # advance the innermost open level; an exhausted one closes its loop
        while stack and next(stack[-1], _DONE) is _DONE:
            stack.pop()
        if not stack:
            return


def _unlinked_subsets(nxt: list[int], prv: list[int], head: int, size: int, k: int):
    """Each k-subset of the size entries of the doubly linked list at head
    (nxt[x] follows x, prv[x] precedes it), in the order that
    itertools.combinations gives over the entries in list order.  A subset
    is yielded as the list of its entries, which are unlinked while it is
    yielded, so the list then holds the other entries alone; they are
    relinked in reverse order before the next subset.  An unlinked entry
    keeps its own pointers, so it steps on to its successor and relinks in
    O(1) (Knuth's dancing links).  avail counts the entries from node to the
    end: no entry is picked that leaves too few to complete a subset."""
    picked: list[int] = []
    avails: list[int] = []  # avail where each picked entry was picked
    node, avail = nxt[head], size
    while True:
        if len(picked) == k:
            yield picked
        elif avail >= k - len(picked):
            nxt[prv[node]], prv[nxt[node]] = nxt[node], prv[node]
            picked.append(node)
            avails.append(avail)
            node, avail = nxt[node], avail - 1
            continue
        if not picked:
            return
        node, avail = picked.pop(), avails.pop()
        nxt[prv[node]] = prv[nxt[node]] = node
        node, avail = nxt[node], avail - 1


def _partitions(cycles, ell: int, m: int, sizes: tuple[int, ...], image: list[int]):
    """Each partition of the ell-cycles into bundles of the admissible sizes.

    Per solution vector over the sizes, a walk of choose levels places the
    bundles, each anchored at the first cycle left so every partition comes
    once.  A bundle with exactly one fusion, (g-1)! * ell**(g-1) == 1, that
    is g == 1 or g == 2 on fixed points, is written into image by its
    choose step; the others are listed, in choose order, and that list is
    yielded once per partition for the caller to fuse.  Once singletons
    alone are left, one pass writes them all.  The cycles no bundle has
    taken yet are their indices in a doubly linked list, in index order: a
    choose step unlinks its anchor and takes its companions from
    _unlinked_subsets, so a step costs O(g) and not a copy of what is left,
    and the first partition of a^ell is O(a).  A list that runs out while
    bundles are left to place, or is not whole after a solution vector,
    raises InternalCheckError."""
    head = len(cycles)  # the list's sentinel; the entries are 0..head-1
    nxt = [*range(1, head + 1), 0]
    prv = [head, *range(head)]
    singles = sizes[0] == 1
    shift = _shift(1, ell, m) if singles else 0  # a singleton's closing shift
    remaining = [0] * len(sizes)  # bundles of each size still to place
    left = untaken = 0  # bundles still to place; cycles no bundle has taken
    multi: list[tuple] = []  # the bundles with more than one fusion, in choose order
    ran_out = f"untaken {ell}-cycles ran out with bundles left to place"

    def write_singletons(x: int, count: int) -> None:
        # the count cycles from entry x on, each its own cycle, rotated by the shift
        for _ in range(count):
            if x == head:
                raise InternalCheckError(ran_out)
            cyc = cycles[x]
            for y, z in zip(cyc, cyc[shift:] + cyc[:shift]):
                image[y] = z
            x = nxt[x]

    def choose():
        nonlocal left, untaken
        first = nxt[head]
        if singles and remaining[0] == left:  # singletons alone are left: one pass
            write_singletons(first, left)
            placed, left = left, 0
            yield
            left = placed
            return
        if first == head:
            raise InternalCheckError(ran_out)
        nxt[prv[first]], prv[nxt[first]] = nxt[first], prv[first]
        anchor, rest = cycles[first], untaken - 1
        left -= 1
        for i, g in enumerate(sizes):
            if not remaining[i]:
                continue
            remaining[i] -= 1
            untaken = rest - (g - 1)
            if g == 1:
                write_singletons(first, 1)
                yield
            else:
                one_fusion = g == 2 and ell == 1  # on to the companion and back: the shift is 0
                for picked in _unlinked_subsets(nxt, prv, head, rest, g - 1):
                    companions = [cycles[j] for j in picked]
                    if one_fusion:
                        _write_fusion(image, anchor, companions, anchor)
                    else:
                        multi.append((anchor, *companions))
                    yield
                    if not one_fusion:
                        multi.pop()
            remaining[i] += 1
        left, untaken = left + 1, rest + 1
        nxt[prv[first]] = prv[nxt[first]] = first

    for eps in iter_epsilons(sizes, head):
        remaining[:] = eps
        left, untaken = sum(eps), head
        levels = []  # the open choose levels, outermost first
        while True:
            if left:
                levels.append(choose())
            else:
                yield multi
            while levels and next(levels[-1], _DONE) is _DONE:
                levels.pop()
            if not levels:
                break
        if nxt[head] != 0 or prv[head] != head - 1:
            raise InternalCheckError(f"untaken {ell}-cycles not relinked after a solution vector")


def _fuse_levels(multi, ell: int, m: int, image: list[int]) -> list:
    """A _nested level per bundle of multi, in order, running its fusions through image."""
    return [functools.partial(_fusions, bundle, ell, m, image) for bundle in multi]


def _ell_part_maps(cycles, ell: int, m: int, sizes: tuple[int, ...], image: list[int]):
    """All restrictions of an m-th root to the ell-cycles' support, written
    into image: per partition of _partitions, one nested loop per bundle
    with more than one fusion runs that bundle's fusions.  The innermost
    length, when it is streamed, goes through _ell_part_roots instead, which
    gathers each partition's fusion product from patterns that count
    against _REPLAY_CAP, and falls back to these loops for a size whose
    patterns do not fit."""
    for multi in _partitions(cycles, ell, m, sizes, image):
        yield from _nested(_fuse_levels(multi, ell, m, image))


class _Memo:
    """The items of the iterator source, each built when an iteration first
    reaches it and kept for every later one, so the first item waits for
    one step of source, not all.  Iterations may overlap: the one that runs
    out of built items steps source for all.  complete is true once source
    is exhausted, and an iteration then reads the kept items alone."""

    __slots__ = ("built", "_source")

    def __init__(self, source):
        self._source = source
        self.built: list = []

    @property
    def complete(self) -> bool:
        return self._source is None

    def __iter__(self):
        return iter(self.built) if self._source is None else self._building()

    def _building(self):
        built, i = self.built, 0
        while True:
            if i == len(built):
                if self._source is None or (item := next(self._source, _DONE)) is _DONE:
                    self._source = None
                    return
                built.append(item)
            yield built[i]
            i += 1


def _patterns(g: int, ell: int, m: int) -> _Memo:
    """The fusions of a bundle of g ell-cycles as position patterns, in
    _fusions order: _fusions run on the bundle of positions ((0, ...,
    ell-1), (ell, ..., 2*ell-1), ...) writes where each position goes, and
    itemgetter(*written), called on a bundle's points in that order, gives
    that fusion's values on them."""
    written = [0] * (g * ell)
    positions = tuple(tuple(range(j * ell, (j + 1) * ell)) for j in range(g))
    return _Memo(itemgetter(*written) for _ in _fusions(positions, ell, m, written))


def _pattern_slots(g: int, ell: int, cap: int) -> int:
    """The slots that the patterns of size g take, (g-1)! * ell**(g-1) of
    g*ell points each, or cap + 1 once their product passes cap."""
    slots = g * ell
    for k in range(1, g):
        slots *= k * ell
        if slots > cap:
            return cap + 1
    return slots


def _gather_index(identity, supports):
    """gather, for a base as long as identity (range(len(base)), or that
    range as a list, which copies faster) and the values of the points of
    each of supports in turn: gather(base + values)[x] is the value that
    values holds for x if x is one of those points, else base[x]."""
    index = list(identity)
    for j, x in enumerate(itertools.chain.from_iterable(supports), start=len(index)):
        index[x] = j
    return itemgetter(*index)


def _joined(factors):
    """The values of each choice of one fusion per bundle of factors, a
    (call, patterns) pair per bundle, joined in bundle order, the first
    bundle outermost and each bundle's fusions in pattern order: a _nested
    run, whose level per outer bundle sets that bundle's chosen values and
    whose innermost level joins them to each of the last bundle's, so the
    choices are never held all at once."""
    *outer, (call, patterns) = factors
    chosen = [()] * len(outer)

    def choose(i: int, call, patterns):  # a step per fusion, each setting chosen[i]
        return map(chosen.__setitem__, itertools.repeat(i), map(call, patterns))

    def join():
        return map(tuple(itertools.chain.from_iterable(chosen)).__add__, map(call, patterns))

    levels = [functools.partial(choose, i, *factor) for i, factor in enumerate(outer)]
    return _nested([*levels, join])


def _fusion_product(gather, base: tuple[int, ...], factors):
    """gather(base + values) for each choice of one fusion per bundle, the
    first bundle outermost and each bundle's fusions in pattern order.
    factors holds a (call, patterns) pair per bundle, call(pattern) giving
    that fusion's values on the bundle's points, and values joins the
    chosen values in bundle order.  The outer bundles' values are joined
    once per run of the innermost, whose values are listed once if its
    patterns are all built."""
    *outer, (call, patterns) = factors
    if not outer:
        return map(gather, map(base.__add__, map(call, patterns)))
    inner = list(map(call, patterns)) if patterns.complete else None
    joined = map(*outer[0]) if len(outer) == 1 else _joined(outer)
    return itertools.chain.from_iterable(
        map(gather, map((base + values).__add__, inner or map(call, patterns)))
        for values in joined
    )


def _ell_part_roots(cycles, ell: int, m: int, sizes: tuple[int, ...], image: list[int], patterns):
    """Per partition of the innermost length, the ell-cycles, which is
    streamed under the outer lengths' values in image: an iterator over the
    padded images of its roots, to be read before the next.  The one-fusion
    bundles are written into image by _partitions, base = tuple(image) is
    taken once, and one gather index is built over the other bundles'
    points; _fusion_product then gathers each root from base and the
    bundles' patterns, which patterns holds by size.  A partition with a
    bundle of a size that has no patterns runs its fusions through image
    as _ell_part_maps does."""
    identity = list(range(len(image)))
    for multi in _partitions(cycles, ell, m, sizes, image):
        if not multi:
            yield (tuple(image),)
        elif all(map(patterns.__contains__, map(len, multi))):
            supports, factors = [], []
            for bundle in multi:
                points = tuple(itertools.chain.from_iterable(bundle))
                supports.append(points)
                factors.append((methodcaller("__call__", points), patterns[len(bundle)]))
            yield _fusion_product(_gather_index(identity, supports), tuple(image), factors)
        else:
            yield (tuple(image) for _ in _nested(_fuse_levels(multi, ell, m, image)))


# Slots (one point of one recorded map) that the inner cycle lengths of one
# enumerate_roots call may record in all: about 9 MB of tuples at most.
_REPLAY_CAP = 1 << 20


def _recorded(maps, support: tuple[int, ...], image: list[int], count: int):
    """The values on support of each of maps, an ell-part's count maps that
    write only support into image, in order.  A run of other than count
    maps raises InternalCheckError when it is exhausted."""
    read = itemgetter(*support)  # an inner ell >= 2 gives 2 points at least, so a tuple
    built = 0
    for _ in maps():
        built += 1
        yield read(image)
    if built != count:
        raise InternalCheckError(f"{built} inner maps built where {count} were due")


def _replay(image: list[int], support: tuple[int, ...], recording):
    """Write each recorded tuple of values back onto support in image,
    yielding after each: the run of maps the recording was taken from."""
    for values in recording:
        for x, y in zip(support, values):
            image[x] = y
        yield


def _gather(gather, image: list[int], recording):
    """The padded images of the roots under one map of the outer lengths,
    whose values image holds, for the recorded maps of the innermost
    length: base = tuple(image) is taken once, and each root is
    gather(base + values), one itemgetter pass, in recording order."""
    return map(gather, map(tuple(image).__add__, recording))


def enumerate_roots(sigma: Permutation, m: int):
    """Yield every tau with tau**m == sigma, each verified by re-powering.

    Streams lazily.  The order is deterministic: cycle lengths ell
    ascending, solution vectors lexicographic, bundle partitions in
    anchored order, interleavings by companion order then rotation offset.
    The empty permutation is its own m-th root for every m, and sigma has
    none unless has_mth_root(cycle_type(sigma), m).  A length whose
    sizes are (1,) leaves each cycle a cycle: its one map is written once,
    before the stream.  Of the other lengths, the smallest one's maps are
    streamed.  Each larger ell, in ascending order, takes its exact number
    of maps from _length_factor before the stream, unless its solution
    vectors, a lower bound on that number, already need more slots (a point
    in one map) than are left of _REPLAY_CAP.  If its slots fit, its maps
    are built once, under the first map of the smaller lengths, into a
    _Memo of their values on its points, and read from it in the same
    order under every map of the smaller lengths: written back onto its
    points by _replay, or, for the innermost length, gathered straight into
    each root by _gather.  If not, they are built again per outer map.  The
    smaller lengths run as _nested levels, and under each of their maps the
    innermost length is the source of roots.  An innermost length that is
    streamed gathers its fusions into each root by _ell_part_roots, from
    the pattern memos of each of its sizes with more than one fusion whose
    (g-1)! * ell**(g-1) * g * ell slots fit what is left of _REPLAY_CAP; a
    partition with a bundle of another size runs its fusions through the
    image.  So no recording is dropped, and memory stays O(n + _REPLAY_CAP)
    however long the stream runs.

    Each root is built as a padded image (index 0 holds 0) and re-powered
    in full in that form against the padded sigma, with m reduced by
    _exponent once per call.  A root tau with tau**m == sigma is a
    permutation of 1..n, so it is emitted without a second validation: each
    slot of tau holds 0 (never written) or a value in 1..n, a 0 would leave
    a 0 in tau**m, and a repeated value would make tau**m non-injective.
    The reduced exponent is at least 1, so this holds for every m.
    """
    if not has_mth_root(cycle_type(sigma), m):
        return
    by_len: dict[int, list[tuple[int, ...]]] = {}
    for cyc in sigma._split():
        by_len.setdefault(len(cyc), []).append(cyc)
    target, exponent = (0, *sigma.image), _exponent(m, sigma.degree)
    # image[x] is the root's image of x; image[0] is padding.  Each root
    # overwrites every other entry: the bundles cover sigma.
    image = [0] * (sigma.degree + 1)
    free = _REPLAY_CAP  # the slots this call may still record, or fill with patterns
    levels = []  # a _nested level per length with more than one map, ascending
    last = None  # the cycles, ell and sizes of the last such length, and its memo if recorded
    for ell in sorted(by_len):
        cycles = by_len[ell]
        sizes = g_set_bounded(m, ell, len(cycles))
        if sizes == (1,):  # each cycle stays a cycle: one map, written once here
            for cyc in cycles:
                _write_fusion(image, cyc, (), _closing(cyc, 1, ell, m))
            continue
        maps, memo = functools.partial(_ell_part_maps, cycles, ell, m, sizes, image), None
        # After a streamed length, which has two maps at least as a root
        # exists (two solution vectors when its sizes hold 1 and some g <= a,
        # else bundles of g > 1 cycles of length ell >= 2), this one reruns.
        points = ell * len(cycles)
        if levels and count_epsilons(sizes, len(cycles)) * points <= free:
            count = _length_factor(ell, len(cycles), m)
            if count * points <= free:
                free -= count * points
                support = tuple(itertools.chain.from_iterable(cycles))
                memo = _Memo(_recorded(maps, support, image, count))
                maps = functools.partial(_replay, image, support, memo)
        levels.append(maps)
        last = (cycles, ell, sizes, memo)
    if last is None:  # every length has one map, written above
        padded_roots = [tuple(image)]
    else:  # the last length is the source of roots under each map of the others
        cycles, ell, sizes, memo = last
        outer = levels[:-1]
        if memo is not None:  # each root is gathered from the recording
            gather = _gather_index(range(len(image)), cycles)
            padded_roots = itertools.chain.from_iterable(
                _gather(gather, image, memo) for _ in _nested(outer)
            )
        else:  # streamed: the fusions of each size whose patterns fit are gathered
            patterns = {}
            for g in sizes:
                slots = _pattern_slots(g, ell, free)
                if g * ell < slots <= free:  # more than one fusion, and room for them all
                    free -= slots
                    patterns[g] = _patterns(g, ell, m)
            padded_roots = itertools.chain.from_iterable(
                roots
                for _ in _nested(outer)
                for roots in _ell_part_roots(cycles, ell, m, sizes, image, patterns)
            )
    for padded in padded_roots:
        if _padded_power(padded, exponent) != target:
            raise InternalCheckError("constructed root failed re-powering")
        yield Permutation._proved(padded[1:])


def brute_force_root_table(
    n: int, m: int, max_n: int = DEFAULT_ORACLE_BOUND
) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Every m-th root in S_n, bucketed by its m-th power, from one scan of S_n.

    Maps each image that has an m-th root to the images of all its roots,
    in lexicographic order; an image without a root is absent.  The n!
    candidates are powered by repeated squaring of their images only: no
    shared cycle logic with the constructive enumerator.  Refuses n > max_n
    (the bound is an argument, not ambient state)."""
    require_int(n, "n", minimum=0)
    require_int(m, "m")
    require_int(max_n, "max_n", minimum=0)
    if n > max_n:
        raise SizeCapError(
            f"exhaustive scan over S_{n} refused (bound max_n={max_n}); pass a larger max_n"
        )
    table: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for cand in itertools.permutations(range(1, n + 1)):  # lexicographic
        table.setdefault(_image_power(cand, m), []).append(cand)
    return table


def parse_permutation(text: str) -> Permutation:
    """One-line notation: "2 3 1" means 1->2, 2->3, 3->1.  "" is S_0."""
    try:
        image = tuple(int(tok) for tok in text.split())
    except ValueError as exc:
        raise ValueError(f"permutation text must be whitespace-separated integers: {text!r}") from exc
    return Permutation._proved(_one_to_n(image))  # int() gives ints, never bools


def format_permutation(sigma: Permutation) -> str:
    return " ".join(map(str, sigma.image))


def parse_cycle_type(text: str) -> CycleType:
    """Cycle-type text: tokens "ell^count" (or bare "ell" for count 1),
    lengths with zero multiplicity omitted: "1^2 3" is a=(2, 0, 1).
    A degree above MAX_DEGREE raises SizeCapError."""
    counts: dict[int, int] = {}
    for token in text.split():
        ell_str, sep, count_str = token.partition("^")
        try:
            ell = int(ell_str)
            count = int(count_str) if sep else 1
        except ValueError as exc:
            raise ValueError(f"bad cycle-type token {token!r}") from exc
        if ell < 1 or count < 1:
            raise ValueError(f"bad cycle-type token {token!r}: need ell >= 1 and count >= 1")
        if ell in counts:
            raise ValueError(f"cycle length {ell} repeated in {text!r}")
        counts[ell] = count
    n = sum(ell * count for ell, count in counts.items())
    if n > MAX_DEGREE:
        raise SizeCapError(f"cycle type {text!r} has degree above MAX_DEGREE = {MAX_DEGREE}")
    a = [0] * n
    for ell, count in counts.items():
        a[ell - 1] = count
    return CycleType._proved(tuple(a))  # counts proved positive ints above


def format_cycle_type(t: CycleType) -> str:
    return " ".join(f"{ell}^{count}" for ell, count in t.nonzero())
