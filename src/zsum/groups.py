"""Finite abelian groups in invariant-factor form, plus element arithmetic.

A group is described by its invariant factors d_1 | d_2 | ... | d_k (each
>= 2); elements are residue tuples with residues[i] in [0, d_i).  Arbitrary
cyclic decompositions are accepted as input and canonicalized, so Z_4 x Z_6
and Z_2 x Z_12 construct the same group object.  Elements always live in the
canonical presentation.  Sets of elements can also be kept as bitmasks over
element ranks and moved as a whole with :meth:`AbelianGroup.translate`.

All values are immutable and hashable; they can be shared freely across
workers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InvalidElement, InvalidGroup, InvalidInstance

Element = tuple[int, ...]


def _factorint(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine at the orders we handle."""
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


@dataclass(frozen=True, eq=False)
class AbelianGroup:
    """Canonical presentation of a finite abelian group.

    Construct via :func:`canonicalize`; the constructor trusts its inputs.
    Identity is the canonical form: groups given as [4, 6] and [2, 12]
    compare equal (given_orders is kept only to echo user input).
    """

    given_orders: tuple[int, ...]
    invariant_factors: tuple[int, ...]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbelianGroup):
            return NotImplemented
        return self.invariant_factors == other.invariant_factors

    def __hash__(self) -> int:
        return hash(self.invariant_factors)

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

    def element_order(self, a: Element) -> int:
        self.check_element(a)
        o = 1
        for r, d in zip(a, self.invariant_factors):
            o = math.lcm(o, d // math.gcd(r, d))
        return o

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

    def describe(self) -> str:
        if not self.invariant_factors:
            return "Z_1"
        return " x ".join(f"Z_{d}" for d in self.invariant_factors)


def canonicalize(given_orders: Sequence[int]) -> AbelianGroup:
    """Build the group for a list of cyclic orders (each >= 1)."""
    orders = tuple(given_orders)
    if not all(isinstance(d, int) and d >= 1 for d in orders):
        raise InvalidGroup(f"orders must be positive integers, got {orders!r}")
    return AbelianGroup(given_orders=orders, invariant_factors=invariant_factors_of(orders))


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
