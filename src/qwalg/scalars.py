"""Exact model of the multiplicative parameter group Z/e x Z^m.

Every commutation weight in the toolkit is an element of a declared group
generated by one primitive root of unity of order e (e = 1 meaning no
torsion) and finitely many multiplicatively independent free parameters.
All identities between weights are decided relative to this declared group:
free symbols never satisfy accidental relations.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import intlattice


class GroupMismatch(ValueError):
    """Combining scalars that live in different declared groups."""


@dataclass(frozen=True)
class ScalarGroup:
    """The group Z/e x Z^m with named free generators and an optional named root."""

    torsion_order: int = 1
    free_symbols: tuple[str, ...] = ()
    root_symbol: str | None = None

    def __post_init__(self):
        if self.torsion_order < 1:
            raise ValueError("torsion order must be >= 1")
        names = list(self.free_symbols)
        if self.root_symbol is not None:
            names.append(self.root_symbol)
        if len(set(names)) != len(names):
            raise ValueError("scalar symbol names must be distinct")

    @property
    def rank(self) -> int:
        return len(self.free_symbols)

    def one(self) -> "Scalar":
        return Scalar(self, 0, (0,) * self.rank)

    def scalar(self, torsion: int = 0, free: tuple[int, ...] | None = None) -> "Scalar":
        free = (0,) * self.rank if free is None else tuple(free)
        return Scalar(self, torsion % self.torsion_order, free)

    def root(self, power: int = 1) -> "Scalar":
        if self.torsion_order == 1:
            raise ValueError("group has no root of unity")
        return self.scalar(torsion=power)

    def minus_one(self) -> "Scalar":
        if self.torsion_order % 2 != 0:
            raise ValueError("-1 requires an even torsion order")
        return self.scalar(torsion=self.torsion_order // 2)

    def free_gen(self, name: str, power: int = 1) -> "Scalar":
        idx = self.free_symbols.index(name)
        v = [0] * self.rank
        v[idx] = power
        return self.scalar(free=tuple(v))


@dataclass(frozen=True)
class Scalar:
    """One element of a ScalarGroup: a torsion exponent and a free exponent vector."""

    group: ScalarGroup
    torsion: int
    free: tuple[int, ...]

    def __post_init__(self):
        if not (0 <= self.torsion < self.group.torsion_order):
            raise ValueError("torsion exponent out of range")
        if len(self.free) != self.group.rank:
            raise ValueError("free exponent vector has the wrong length")

    def is_one(self) -> bool:
        return self.torsion == 0 and not any(self.free)

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

    def __mul__(self, other: "Scalar") -> "Scalar":
        return self.mul(other)

    def __pow__(self, k: int) -> "Scalar":
        return self.pow(k)

    def __str__(self) -> str:
        return format_scalar(self)


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


@dataclass(frozen=True)
class SubgroupDescription:
    """Canonical description of the subgroup of Z/e x Z^m spanned by some scalars.

    ``full_basis`` is the Hermite normal form of the lattice in Z^(1+m) that
    presents the subgroup (torsion coordinate first, with the relation row
    e in the torsion coordinate implicitly included); two generating sets
    span the same subgroup exactly when these bases coincide.
    """

    torsion_order: int
    free_basis: tuple[tuple[int, ...], ...]
    full_basis: tuple[tuple[int, ...], ...]

    def is_trivial(self) -> bool:
        return self.torsion_order == 1 and not self.free_basis


def subgroup_canonical_form(group: ScalarGroup, gens) -> SubgroupDescription:
    """Canonical form of the subgroup generated by ``gens``.

    Lifts everything to the lattice spanned by the exponent rows
    (t_i, v_i) together with (e, 0, ..., 0) and reads the description off
    the Hermite normal form.
    """
    gens = list(gens)
    for g in gens:
        if g.group != group:
            raise GroupMismatch("generator outside the declared group")
    e, m = group.torsion_order, group.rank
    rows = [[g.torsion] + list(g.free) for g in gens]
    rows.append([e] + [0] * m)
    h, _ = intlattice.hermite_nf(rows)
    full = tuple(tuple(r) for r in h if any(r))
    hf, _ = intlattice.hermite_nf([list(g.free) for g in gens] or [[0] * m])
    free = tuple(tuple(r) for r in hf if any(r))
    # Torsion part: the intersection of the lifted lattice with Z x {0}.
    inter = intlattice.lattice_intersect([list(r) for r in full],
                                         [[1] + [0] * m], 1 + m)
    c = abs(inter[0][0]) if inter else e
    return SubgroupDescription(e // c, free, full)
