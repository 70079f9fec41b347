"""Finite abelian groups in invariant-factor form, plus element arithmetic.

A group is its invariant factors d_1 | d_2 | ... | d_k (each >= 2) and
nothing else; elements are residue tuples with residues[i] in [0, d_i).
Arbitrary cyclic decompositions are accepted as input and canonicalized, so
Z_4 x Z_6 and Z_2 x Z_12 build equal groups with equal hashes.  Elements
always live in the canonical presentation.  Sets of elements can also be
kept as bitmasks over element ranks and moved as a whole with
:meth:`AbelianGroup.translate`; addition and scaling tables on ranks are
built on first use.

All values are immutable and hashable; they can be shared freely across
workers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import InvalidElement, InvalidGroup, InvalidInstance

Element = tuple[int, ...]


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


def _orbit_minima_mask(n: int, maps: Iterable[Sequence[int]]) -> int:
    """Bit mask of the ranks in [0, n) that are the smallest in their orbit
    under the group the rank permutations ``maps`` generate: a union-find
    over the ranks that always keeps the smaller root."""
    parent = list(range(n))

    def find(r: int) -> int:
        while parent[r] != r:
            parent[r] = parent[parent[r]]
            r = parent[r]
        return r

    for image in maps:
        for a, b in enumerate(image):
            if a != b:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    mask = 0
    for r in range(n):
        if parent[r] == r:
            mask |= 1 << r
    return mask


def _schreier_generators(
    n: int, maps: Sequence[Sequence[int]], point: int
) -> Iterator[tuple[int, ...]]:
    """Generators of the stabilizer of ``point`` in the group that the
    permutations ``maps`` of [0, n) generate (Schreier's lemma): u_c^-1 g u_b
    for each b in the orbit of ``point`` and each g, where c = g(b) and u_b
    is a product of generators carrying ``point`` to b.  Identities are left
    out; repeats are not."""
    identity = tuple(range(n))
    transversal = {point: identity}
    orbit = [point]
    for b in orbit:
        u = transversal[b]
        for g in maps:
            if g[b] not in transversal:
                transversal[g[b]] = tuple([g[x] for x in u])
                orbit.append(g[b])
    inverses: dict[int, list[int]] = {}
    for b in orbit:
        u = transversal[b]
        for g in maps:
            c = g[b]
            inverse = inverses.get(c)
            if inverse is None:
                inverse = inverses[c] = [0] * n
                for x, y in enumerate(transversal[c]):
                    inverse[y] = x
            s = tuple([inverse[g[x]] for x in u])
            if s != identity:
                yield s


def invariant_factors_of(orders: Sequence[int]) -> tuple[int, ...]:
    """Recombine a diagonal presentation into the divisibility chain.

    Bucket the prime-power components per prime, then stack them
    largest-first: the j-th invariant factor (from the top) multiplies the
    j-th largest power of every prime.
    """
    buckets: dict[int, list[int]] = {}
    for d in orders:
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

    Construct via :func:`canonicalize`; the constructor trusts its inputs.
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
        factors = self.invariant_factors
        if len(a) != len(factors):
            raise InvalidElement(f"element {a!r} has arity {len(a)}, group rank is {len(factors)}")
        for r, d in zip(a, factors):
            if not 0 <= r < d:
                raise InvalidElement(f"residue {r} out of range [0, {d}) in {a!r}")

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

    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.neg(b))

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

    def translate(self, mask: int, e: Element) -> int:
        """Translate a set of elements, kept as a bitmask over element ranks,
        by ``e``: bit ``element_rank(a)`` moves to ``element_rank(a + e)``.

        Two masked shifts per nonzero coordinate of ``e``.  ``e`` is trusted;
        callers validate it once with :meth:`check_element`.
        """
        for steps, r in zip(self._translation_steps, e):
            if r:
                keep, up, wrap, down = steps[r]
                mask = (mask & keep) << up | (mask & wrap) >> down
        return mask

    @cached_property
    def _translation_steps(self) -> list[list[tuple[int, int, int, int]]]:
        """Per coordinate i and residue r in [1, d_i): the bits whose i-th
        residue is below d_i - r move up by r * stride_i, the others wrap
        down by (d_i - r) * stride_i, where stride_i is the product of the
        later invariant factors.  Masks repeat once per block of d_i * stride_i
        bits, so each is one repunit multiply instead of a per-bit loop."""
        n = self.order
        full = (1 << n) - 1
        out = []
        stride = n
        for d in self.invariant_factors:
            stride //= d
            repunit = full // ((1 << d * stride) - 1)  # lowest bit of every block
            steps = [(0, 0, 0, 0)]  # residue 0 never shifts
            for r in range(1, d):
                keep = ((1 << (d - r) * stride) - 1) * repunit
                steps.append((keep, r * stride, full ^ keep, (d - r) * stride))
            out.append(steps)
        return out

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

    def _minima_fixing(self, points: tuple[int, ...]) -> int:
        """Bit mask of the ranks that are the smallest in their orbit under
        the pointwise stabilizer in H of zero, one or two ranks ``points``
        (the H of :attr:`_automorphism_maps` itself for none); 0 when that
        stabilizer is trivial.  Schreier's lemma gives generators of
        Stab_H(a) from those of H, and of Stab_H(a, b) from those of
        Stab_H(a).  Built on first request and cached per group; only the
        generators of the one-point stabilizers are kept."""
        masks = self._stabilizer_masks
        mask = masks.get(points)
        if mask is None:
            n = self.order
            if not points:
                gens = self._automorphism_maps
            else:
                gens = self._point_stabilizers.get(points[0])
                if gens is None:
                    gens = list(set(_schreier_generators(n, self._automorphism_maps, points[0])))
                    self._point_stabilizers[points[0]] = gens
            if len(points) == 2 and gens:
                gens = _schreier_generators(n, gens, points[1])
            mask = _orbit_minima_mask(n, gens)
            masks[points] = mask = 0 if mask == (1 << n) - 1 else mask
        return mask

    @cached_property
    def _point_stabilizers(self) -> dict[int, list[tuple[int, ...]]]:
        """Rank a -> generators of Stab_H(a), filled by :meth:`_minima_fixing`."""
        return {}

    @cached_property
    def _stabilizer_masks(self) -> dict[tuple[int, ...], int]:
        """Fixed ranks -> stabilizer minima, filled by :meth:`_minima_fixing`."""
        return {}

    @cached_property
    def rank_index(self) -> dict[Element, int]:
        """Element to rank: the inverse of :meth:`elements`, n entries."""
        return {e: r for r, e in enumerate(self.elements())}

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
    """Build the group for a list of cyclic orders (each >= 1)."""
    orders = tuple(orders)
    if not all(isinstance(d, int) and d >= 1 for d in orders):
        raise InvalidGroup(f"orders must be positive integers, got {orders!r}")
    return AbelianGroup(invariant_factors=invariant_factors_of(orders))


def rho(x: Sequence) -> int:
    """Maximal repetition: the largest multiplicity of a single value in x."""
    if not x:
        raise InvalidInstance("rho is undefined for an empty sequence")
    counts: dict = {}
    for a in x:
        counts[a] = counts.get(a, 0) + 1
    return max(counts.values())


def groups_of_order(q: int) -> list[AbelianGroup]:
    """All abelian groups of order q, one per invariant-factor chain."""
    if q < 1:
        raise InvalidGroup(f"order must be >= 1, got {q}")
    if q == 1:
        return [canonicalize([1])]

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
    for q in range(1, max_order + 1):
        out.extend(groups_of_order(q))
    return out
