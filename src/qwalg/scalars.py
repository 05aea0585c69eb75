"""Exact model of the multiplicative parameter group Z/e x Z^m.

Every commutation weight in the toolkit is an element of a declared group
generated by one primitive root of unity of order e (e = 1 meaning no
torsion) and finitely many multiplicatively independent free parameters.
All identities between weights are decided relative to this declared group:
free symbols never satisfy accidental relations.
"""
from __future__ import annotations

from operator import neg
from typing import NamedTuple

from . import intlattice

_setattr = object.__setattr__


class GroupMismatch(ValueError):
    """Combining scalars that live in different declared groups."""


class Frozen:
    """Base of the slotted value classes (``Scalar``, ``ScalarGroup`` and
    ``Confluent``): ``__init__`` sets each field once, nothing after.  The
    fields are the ``__slots__``: two values are equal only within one
    class, when their fields are, and print as ``Name(field=value, ...)``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash((self.__class__, self._fields()))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


class ScalarGroup(Frozen):
    """The group Z/e x Z^m with named free generators and an optional named root."""

    __slots__ = ("torsion_order", "free_symbols", "root_symbol", "rank", "free_index",
                 "_hash")

    def __init__(self, torsion_order: int = 1, free_symbols: tuple[str, ...] = (),
                 root_symbol: str | None = None):
        if torsion_order < 1:
            raise ValueError("torsion order must be >= 1")
        names = list(free_symbols)
        if root_symbol is not None:
            names.append(root_symbol)
        if len(set(names)) != len(names):
            raise ValueError("scalar symbol names must be distinct")
        _setattr(self, "torsion_order", torsion_order)
        _setattr(self, "free_symbols", free_symbols)
        _setattr(self, "root_symbol", root_symbol)
        _setattr(self, "rank", len(free_symbols))
        # Position of each free symbol in ``free_symbols``.
        _setattr(self, "free_index", {name: k for k, name in enumerate(free_symbols)})
        # Every Scalar hash reads its group's, so it is computed once.
        _setattr(self, "_hash", hash((torsion_order, free_symbols, root_symbol)))

    # The value is (torsion_order, free_symbols, root_symbol); rank,
    # free_index and _hash derive from it, so comparisons are written out.
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self.torsion_order == other.torsion_order
                                 and self.free_symbols == other.free_symbols
                                 and self.root_symbol == other.root_symbol)

    def __ne__(self, other):
        # Written out, not derived from __eq__: Scalar.mul tests its
        # groups with != on every product.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is not other and (self.torsion_order != other.torsion_order
                                      or self.free_symbols != other.free_symbols
                                      or self.root_symbol != other.root_symbol)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"ScalarGroup(torsion_order={self.torsion_order!r}, "
                f"free_symbols={self.free_symbols!r}, root_symbol={self.root_symbol!r})")

    def one(self) -> "Scalar":
        return Scalar(self, 0, (0,) * self.rank)

    def scalar(self, torsion: int = 0, free: tuple[int, ...] | None = None) -> "Scalar":
        free = (0,) * self.rank if free is None else tuple(free)
        return Scalar(self, torsion % self.torsion_order, free)

    def root(self, power: int = 1) -> "Scalar":
        if self.torsion_order == 1:
            raise ValueError("group has no root of unity")
        return self.scalar(torsion=power)

    def free_gen(self, name: str, power: int = 1) -> "Scalar":
        if name not in self.free_index:
            raise ValueError(f"{name!r} is not a free symbol of the scalar group")
        v = [0] * self.rank
        v[self.free_index[name]] = power
        return self.scalar(free=tuple(v))

    def has_degree(self, d) -> bool:
        """d is the degree of an element: torsion in [0, e), then one
        exponent per free symbol."""
        return len(d) == 1 + self.rank and 0 <= d[0] < self.torsion_order

    def inverse_degree(self, d: tuple[int, ...]) -> tuple[int, ...]:
        """The degree of the inverse: every exponent negated, torsion mod e."""
        return (-d[0] % self.torsion_order, *map(neg, d[1:]))


class Scalar(Frozen):
    """One element of a ScalarGroup: a torsion exponent and a free exponent vector."""

    __slots__ = ("group", "torsion", "free")

    def __init__(self, group: ScalarGroup, torsion: int, free: tuple[int, ...]):
        if not (0 <= torsion < group.torsion_order):
            raise ValueError("torsion exponent out of range")
        if len(free) != group.rank:
            raise ValueError("free exponent vector has the wrong length")
        _setattr(self, "group", group)
        _setattr(self, "torsion", torsion)
        _setattr(self, "free", free)

    def is_one(self) -> bool:
        return self.torsion == 0 and not any(self.free)

    def degree(self) -> tuple[int, ...]:
        """(torsion, *free), the form twist tables and the rewrite engine use."""
        return (self.torsion, *self.free)

    def mul(self, other: "Scalar") -> "Scalar":
        if other.group != self.group:
            raise GroupMismatch("scalars belong to different groups")
        e = self.group.torsion_order
        return Scalar(self.group, (self.torsion + other.torsion) % e,
                      tuple(a + b for a, b in zip(self.free, other.free)))

    def pow(self, k: int) -> "Scalar":
        e = self.group.torsion_order
        return Scalar(self.group, (self.torsion * k) % e,
                      tuple(a * k for a in self.free))

    def inv(self) -> "Scalar":
        return self.pow(-1)


def format_scalar(s: Scalar) -> str:
    """Render a scalar in the product-of-powers literal syntax."""
    parts = []
    e = s.group.torsion_order
    if s.torsion:
        if e % 2 == 0 and s.torsion == e // 2:
            parts.append("-1")
        else:
            root = s.group.root_symbol
            if root is None:
                raise ValueError("group has torsion but no declared root symbol")
            parts.append(root if s.torsion == 1 else f"{root}^{s.torsion}")
    for name, k in zip(s.group.free_symbols, s.free):
        if k == 0:
            continue
        parts.append(name if k == 1 else f"{name}^{k}")
    return " * ".join(parts) if parts else "1"


def merge_groups(g1: ScalarGroup, g2: ScalarGroup) -> ScalarGroup:
    """Common refinement of two declared groups (same-name symbols identified).

    Root declarations must agree when both groups make one: a root symbol
    names one fixed root of unity, so a conflicting order or name is an
    error rather than silently rescaled.  The free symbols of g1 keep their
    positions, so g1 is returned unchanged when g2 embeds in it.
    """
    if g1 == g2:
        return g1
    roots = {(g.torsion_order, g.root_symbol) for g in (g1, g2)
             if g.torsion_order > 1 or g.root_symbol is not None}
    if len(roots) > 1:
        raise GroupMismatch("incompatible root-of-unity declarations")
    e, root = roots.pop() if roots else (1, None)
    free = g1.free_symbols + tuple(s for s in g2.free_symbols
                                   if s not in g1.free_symbols)
    return ScalarGroup(e, free, root)


class SubgroupDescription(NamedTuple):
    """Canonical description of the subgroup of Z/e x Z^m spanned by some scalars.

    ``full_basis`` is the Hermite normal form of the lattice in Z^(m+1) that
    presents the subgroup (free coordinates first, the torsion coordinate
    last, with the relation row (0, ..., 0, e) included); two generating
    sets span the same subgroup exactly when these bases coincide.
    """

    torsion_order: int
    free_basis: tuple[tuple[int, ...], ...]
    full_basis: tuple[tuple[int, ...], ...]

    def is_trivial(self) -> bool:
        return self.torsion_order == 1 and not self.free_basis


def subgroup_canonical_form(group: ScalarGroup, gens) -> SubgroupDescription:
    """Canonical form of the subgroup generated by the degrees ``gens``.

    Lifts each degree (t_i, *v_i) to the exponent row (v_i, t_i), adds the
    relation row (0, ..., 0, e) and reads everything off one Hermite normal
    form: the rows with a free pivot give the free basis, and the one row
    without a free pivot is (0, ..., 0, c), so the torsion part has order
    e / c.
    """
    gens = list(gens)
    if not all(map(group.has_degree, gens)):
        raise GroupMismatch("generator outside the declared group")
    e, m = group.torsion_order, group.rank
    rows = [[*g[1:], g[0]] for g in gens]
    rows.append([0] * m + [e])
    full = tuple(tuple(r) for r in intlattice.hermite_nf(rows) if any(r))
    free = tuple(r[:m] for r in full[:-1])
    return SubgroupDescription(e // full[-1][m], free, full)
