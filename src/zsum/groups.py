"""Finite abelian groups in invariant-factor form, plus element arithmetic.

A group is its invariant factors d_1 | d_2 | ... | d_k (each >= 2) and
nothing else; elements are residue tuples with residues[i] in [0, d_i).
Arbitrary cyclic decompositions are accepted as input and canonicalized, so
Z_4 x Z_6 and Z_2 x Z_12 build equal groups with equal hashes.  Elements
always live in the canonical presentation.  Sets of elements can also be
kept as bitmasks over element ranks and moved as a whole by an element,
given by its rank, with :meth:`AbelianGroup.translate`; its shift steps per
rank, and addition and scaling tables on ranks, are built on first use, and
once per process: :func:`canonicalize` returns one object per chain.  The
Davenport search and the conjecture scan share the generators of a subgroup
H of Aut(G) (``AbelianGroup._automorphism_maps``) and one orbit engine
(``_orbit_roots``); the stabilizers live in ``zsum.davenport``.

Every argument rule of the library edge is defined here once:
``_checked_int`` (an ``int``, bools refused), ``_checked_sequence`` (a list
or tuple), ``_checked_ints`` and :meth:`AbelianGroup.check_elements` (a list
or tuple of such ints, or of valid elements) and ``_checked_group`` (an
:class:`AbelianGroup`); each caller passes its label.

All values are immutable and hashable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterable, Sequence

from .errors import InvalidElement, InvalidGroup, InvalidInstance, ZsumError

Element = tuple[int, ...]


def _checked_int(value: object, label: str, error: type[ZsumError]) -> int:
    """``value`` if it is an ``int`` (bools refused), else ``error``."""
    if type(value) is not int:
        raise error(f"{label} {value!r} is not an integer")
    return value


def _checked_sequence(values: object, label: str, error: type[ZsumError]) -> Sequence:
    """``values`` if it is a list or tuple (no iterator, set or str), else ``error``."""
    if not isinstance(values, (list, tuple)):
        raise error(f"{label}s must come as a list or tuple, not {type(values).__name__}")
    return values


def _checked_ints(values: object, label: str, error: type[ZsumError]) -> Sequence[int]:
    """``values`` if it is a list or tuple of ``int`` entries, else ``error``."""
    for v in _checked_sequence(values, label, error):
        _checked_int(v, label, error)
    return values


def _checked_group(value: object, label: str, error: type[ZsumError]) -> AbelianGroup:
    """``value`` if it is an :class:`AbelianGroup`, else ``error``."""
    if not isinstance(value, AbelianGroup):
        raise error(f"{label} {value!r} is not an AbelianGroup")
    return value


# Trial division runs up to the square root, so this caps it at 2^16 steps.
MAX_FACTORED_ORDER = 2**32


def _factorint(n: int) -> dict[int, int]:
    """Prime factorization by trial division, for n <= MAX_FACTORED_ORDER;
    a larger n raises InvalidGroup instead of running for hours."""
    if n > MAX_FACTORED_ORDER:
        raise InvalidGroup(
            f"order {n} exceeds {MAX_FACTORED_ORDER}, the largest order zsum factors"
        )
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _unit_generators(d: int) -> list[int]:
    """Units of Z_d that generate its unit group, each outside the subgroup
    the earlier ones span; empty for d <= 2."""
    span: set[int] = {1}
    gens = []
    for u in range(2, d):
        if u in span or math.gcd(u, d) != 1:
            continue
        gens.append(u)
        grown = set(span)
        coset = {s * u % d for s in span}
        while not coset <= grown:  # the cosets span * u^k, until u^k is in span
            grown |= coset
            coset = {s * u % d for s in coset}
        span = grown
    return gens


def _orbit_roots(items: Sequence, moves: Iterable[Callable]) -> list[int]:
    """Per item, the index of the first item of its orbit in the order of
    ``items``, under the maps ``moves``: a union-find over the indices that
    always keeps the smaller root.  An item is joined only to its images
    that are themselves in ``items``, so on a list that the maps do not keep
    an orbit is a class of items linked through the list."""
    index = {item: i for i, item in enumerate(items)}
    parent = list(range(len(items)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for move in moves:
        for i, j in enumerate(map(index.get, map(move, items))):
            if j is not None and j != i:
                a, b = find(i), find(j)
                if a != b:
                    parent[max(a, b)] = min(a, b)
    return [find(i) for i in range(len(items))]


def invariant_factors_of(orders: Sequence[int]) -> tuple[int, ...]:
    """Recombine a diagonal presentation into the divisibility chain.

    Bucket the prime-power components per prime, then stack them
    largest-first: the j-th invariant factor (from the top) multiplies the
    j-th largest power of every prime.
    """
    buckets: dict[int, list[int]] = {}
    for d in _checked_ints(orders, "cyclic order", InvalidGroup):
        if d < 1:
            raise InvalidGroup(f"cyclic order must be >= 1, got {d}")
        for p, e in _factorint(d).items():
            buckets.setdefault(p, []).append(e)
    depth = max((len(v) for v in buckets.values()), default=0)
    factors = []
    for j in range(depth):
        f = 1
        for p, exps in buckets.items():
            exps_sorted = sorted(exps, reverse=True)
            if j < len(exps_sorted):
                f *= p ** exps_sorted[j]
        factors.append(f)
    factors.reverse()
    return tuple(factors)


@dataclass(frozen=True)
class AbelianGroup:
    """Canonical presentation of a finite abelian group: its invariant
    factors, which it compares and hashes by.

    Construct via :func:`canonicalize`, which hands out one object per
    chain; the constructor trusts its inputs.
    """

    invariant_factors: tuple[int, ...]

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def zero(self) -> Element:
        return (0,) * self.rank

    def check_element(self, a: Element) -> None:
        """InvalidElement unless ``a`` is a tuple of ints (bools refused), one
        per invariant factor d, each in [0, d)."""
        factors = self.invariant_factors
        if type(a) is not tuple:
            raise InvalidElement(f"element {a!r} is not a tuple")
        if len(a) != len(factors):
            raise InvalidElement(f"element {a!r} has arity {len(a)}, group rank is {len(factors)}")
        for r, d in zip(a, factors):
            if type(r) is not int:
                raise InvalidElement(f"residue {r!r} in {a!r} is not an integer")
            if not 0 <= r < d:
                raise InvalidElement(f"residue {r} out of range [0, {d}) in {a!r}")

    def check_elements(self, seq: Sequence[Element]) -> None:
        """InvalidInstance unless ``seq`` is a list or tuple; then check_element per entry."""
        for a in _checked_sequence(seq, "element", InvalidInstance):
            self.check_element(a)

    def add(self, a: Element, b: Element) -> Element:
        self.check_element(a)
        self.check_element(b)
        # Hot tuples are built from lists throughout the package: a tuple grown
        # from a generator is resized, and CPython parks the spare blocks in
        # per-size free lists, so peak RSS crept with the number of calls.
        return tuple([(x + y) % d for x, y, d in zip(a, b, self.invariant_factors)])

    def neg(self, a: Element) -> Element:
        self.check_element(a)
        return tuple([(-x) % d for x, d in zip(a, self.invariant_factors)])

    def scalar_mul(self, c: int, a: Element) -> Element:
        self.check_element(a)
        return tuple([(c * x) % d for x, d in zip(a, self.invariant_factors)])

    def sum(self, elems: Iterable[Element]) -> Element:
        total = self.zero()
        for e in elems:
            total = self.add(total, e)
        return total

    def elements(self) -> list[Element]:
        """All group elements in lexicographic residue order."""
        return list(itertools.product(*(range(d) for d in self.invariant_factors)))

    def element_rank(self, a: Element) -> int:
        """Position of ``a`` in :meth:`elements` (mixed-radix value)."""
        rank = 0
        for r, d in zip(a, self.invariant_factors):
            rank = rank * d + r
        return rank

    def translate(self, mask: int, r: int) -> int:
        """Translate a set of elements, kept as a bitmask over element ranks,
        by the element of rank ``r``: bit ``element_rank(a)`` moves to
        ``element_rank(a + elements()[r])``.

        Two masked shifts per nonzero coordinate of that element.  ``r`` is
        trusted; callers take it from :attr:`rank_index` or a rank table.
        """
        for keep, up, wrap, down in self._rank_shifts[r]:
            mask = (mask & keep) << up | (mask & wrap) >> down
        return mask

    @cached_property
    def _rank_shifts(self) -> list[tuple[tuple[int, int, int, int], ...]]:
        """Per element rank, the (keep, up, wrap, down) steps of the element's
        nonzero coordinates, in coordinate order.  For coordinate i and
        residue r in [1, d_i), the bits whose i-th residue is below d_i - r
        move up by r * stride_i, the others wrap down by (d_i - r) * stride_i,
        where stride_i is the product of the later invariant factors.  Masks
        repeat once per block of d_i * stride_i bits, so each is one repunit
        multiply instead of a per-bit loop.  The step tuples are shared
        between ranks: n short tuples over sum(d_i) steps."""
        n = self.order
        full = (1 << n) - 1
        shifts: list[tuple[tuple[int, int, int, int], ...]] = [()]
        stride = n
        for d in self.invariant_factors:
            stride //= d
            repunit = full // ((1 << d * stride) - 1)  # lowest bit of every block
            steps = [()]  # residue 0 never shifts
            for r in range(1, d):
                keep = ((1 << (d - r) * stride) - 1) * repunit
                steps.append(((keep, r * stride, full ^ keep, (d - r) * stride),))
            # ranks are mixed-radix with the last coordinate fastest
            shifts = [head + step for head in shifts for step in steps]
        return shifts

    @cached_property
    def _automorphism_maps(self) -> list[list[int]]:
        """Generators of a subgroup H of Aut(G), each as the list of image
        ranks of the element ranks: unit scalings x_i -> u * x_i, swaps of
        adjacent coordinates with equal invariant factors, and the shears
        e_i -> e_i + (d_j / gcd(d_i, d_j)) * e_j, which are additive because
        d_j divides that multiple of d_i.  Built once per group."""
        factors = self.invariant_factors
        elements = self.elements()
        images = []
        for i, d in enumerate(factors):
            for u in _unit_generators(d):
                images.append([a[:i] + (u * a[i] % d,) + a[i + 1:] for a in elements])
            for j, dj in enumerate(factors):
                if j != i:
                    c = dj // math.gcd(d, dj)
                    images.append([a[:j] + ((a[j] + c * a[i]) % dj,) + a[j + 1:] for a in elements])
            if i + 1 < len(factors) and factors[i + 1] == d:
                images.append([a[:i] + (a[i + 1], a[i]) + a[i + 2:] for a in elements])
        rank = self.element_rank
        return [[rank(b) for b in image] for image in images]

    @cached_property
    def rank_index(self) -> dict[Element, int]:
        """Element to rank: the inverse of :meth:`elements`, n entries."""
        return {e: r for r, e in enumerate(self.elements())}

    @cached_property
    def neg_ranks(self) -> list[int]:
        """``neg_ranks[r]`` is the rank of ``-elements()[r]``: negation on
        element ranks, n ints, built mixed-radix digit by digit."""
        ranks = [0]
        for d in self.invariant_factors:
            ranks = [head * d + (-r) % d for head in ranks for r in range(d)]
        return ranks

    @cached_property
    def rank_add_table(self) -> tuple[tuple[int, ...], ...]:
        """``rank_add_table[a][b]`` is the rank of ``elements()[a] +
        elements()[b]``: addition on element ranks, n² ints."""
        elements = self.elements()
        factors = self.invariant_factors
        rank = self.element_rank
        return tuple([
            tuple([rank([(x + y) % d for x, y, d in zip(a, b, factors)]) for b in elements])
            for a in elements
        ])

    @cached_property
    def rank_scale_table(self) -> tuple[tuple[int, ...], ...]:
        """``rank_scale_table[c][a]`` is the rank of ``c * elements()[a]``
        for c in [0, exponent), n * exponent ints.  The exponent kills every
        element, so any integer weight w (negative, zero or huge) scales as
        its residue ``w % exponent``."""
        elements = self.elements()
        factors = self.invariant_factors
        rank = self.element_rank
        return tuple([
            tuple([rank([(c * x) % d for x, d in zip(a, factors)]) for a in elements])
            for c in range(self.exponent)
        ])

    def describe(self) -> str:
        if not self.invariant_factors:
            return "Z_1"
        return " x ".join(f"Z_{d}" for d in self.invariant_factors)


def canonicalize(orders: Sequence[int]) -> AbelianGroup:
    """The group for a list or tuple of cyclic orders (each an int >= 1,
    bools refused): one shared object per invariant-factor chain, so its
    cached tables are built once per process."""
    return _interned(invariant_factors_of(orders))


@cache
def _interned(invariant_factors: tuple[int, ...]) -> AbelianGroup:
    return AbelianGroup(invariant_factors=invariant_factors)


def rho(x: Sequence) -> int:
    """Maximal repetition: the largest multiplicity of a single value in x,
    a nonempty list or tuple of hashable values (InvalidInstance)."""
    if not _checked_sequence(x, "value", InvalidInstance):
        raise InvalidInstance("rho is undefined for an empty sequence")
    counts: dict = {}
    try:
        for a in x:
            counts[a] = counts.get(a, 0) + 1
    except TypeError:  # the value cannot be hashed
        raise InvalidInstance(f"rho needs hashable values, got {a!r}") from None
    return max(counts.values())


def groups_of_order(q: int) -> list[AbelianGroup]:
    """All abelian groups of order q, one per invariant-factor chain."""
    if _checked_int(q, "order", InvalidGroup) < 1:
        raise InvalidGroup(f"order must be >= 1, got {q}")

    def chains_desc(rem: int, cap: int) -> list[list[int]]:
        # descending chains c_1 >= c_2 >= ..., c_{i+1} | c_i, product rem
        if rem == 1:
            return [[]]
        out = []
        for f in range(2, rem + 1):
            if rem % f == 0 and cap % f == 0:
                for tail in chains_desc(rem // f, f):
                    out.append([f] + tail)
        return out

    groups = []
    for chain in chains_desc(q, q):
        groups.append(canonicalize(list(reversed(chain))))
    groups.sort(key=lambda g: g.invariant_factors)
    return groups


def groups_up_to_order(max_order: int) -> list[AbelianGroup]:
    out = []
    for q in range(1, _checked_int(max_order, "max order", InvalidGroup) + 1):
        out.extend(groups_of_order(q))
    return out
