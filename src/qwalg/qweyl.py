"""Multiparameter quantum Weyl algebras: construction with a certified
ordered-monomial basis, localization onto a canonical mixed algebra with
full symbolic verification, and the induced invariants.

The algebra on x_1, y_1, ..., x_n, y_n with parameters (qbar, Lambda) has,
for i < j,

    y_i y_j = lambda_{i,j} y_j y_i          x_i x_j = q_i lambda_{i,j} x_j x_i
    x_i y_j = lambda_{i,j}^{-1} y_j x_i     x_j y_i = q_i lambda_{i,j} y_i x_j
    x_j y_j = 1 + sum_{k<j} (q_k - 1) y_k x_k + q_j y_j x_j.

The elements z_j = x_j y_j - y_j x_j = 1 + sum_{k<=j} (q_k - 1) y_k x_k are
scalar-normal; inverting those with q_j != 1 produces generators satisfying
the canonical mixed relations with 2n - r quantum generators and the r
Weyl pairs given by the indices with q_j = 1.
"""
from __future__ import annotations

from operator import add
from typing import NamedTuple

from .cyclo import Coeff, CoeffRing
from .mixed import (CanonicalMixedAlgebra, NotEquivalent, center_lattices,
                    equivalence_decide)
from .presentation import GeneratorMap, VerificationError, verified
from .qwa import QWeylSpec
from .rewrite import Element, Failing, ReductionSystem, Rule
from .scalars import Scalar, ScalarGroup
from .torus import QuantumTorus


class QuantumWeylAlgebra:
    def __init__(self, group: ScalarGroup, n: int, qs, lam):
        if n < 1:
            raise ValueError("need n >= 1")
        qs = tuple(qs)
        if len(qs) != n:
            raise ValueError("need one quantization parameter per index")
        if any(q.group != group for q in qs):
            raise ValueError("quantization parameter outside the declared group")
        self._torus = QuantumTorus(group, lam)
        if self._torus.n != n:
            raise ValueError(f"Lambda must be {n} x {n}")
        self.group, self.n, self.qs = group, n, qs
        self.lam = tuple(map(tuple, self._torus.lam))
        self._system: ReductionSystem | None = None  # built by the first system()

    @staticmethod
    def from_spec(spec: QWeylSpec) -> "QuantumWeylAlgebra":
        return QuantumWeylAlgebra(spec.group, spec.n, spec.q, spec.lam)

    # Letter order: y1 < x1 < y2 < x2 < ..., so y_i is letter 2i and x_i is
    # 2i + 1 (from 0); every right-hand side is smaller.
    def _build_system(self) -> ReductionSystem:
        """The system, with the terms of every z_i built once: the twist
        rules are stated by the degrees of their scalars, read off the
        torus exponents and the degrees of the q_i."""
        ring = CoeffRing(self.group)
        one = Coeff.one(ring)
        letters = tuple(f"{c}{i+1}" for i in range(self.n) for c in "yx")
        inverse, e = self.group.inverse_degree, self.group.torsion_order
        deg, qd = self._torus.degrees(), [q.degree() for q in self.qs]
        rules = []
        for j in range(self.n):
            for i in range(j):
                lam = deg[i][j]
                qlam = ((qd[i][0] + lam[0]) % e, *map(add, qd[i][1:], lam[1:]))
                yi, xi, yj, xj = 2 * i, 2 * i + 1, 2 * j, 2 * j + 1
                rules += [Rule((yj, yi), inverse(lam)), Rule((xj, xi), inverse(qlam)),
                          Rule((yj, xi), lam), Rule((xj, yi), qlam)]
        z, self._z = {(): one}, []
        for j in range(self.n):  # x_j y_j = q_j y_j x_j + z_(j-1)
            qj = Coeff.of_degree(ring, qd[j])
            rules.append(Rule((2 * j + 1, 2 * j), Element(ring, {(2 * j, 2 * j + 1): qj, **z})))
            z = {**z, (2 * j, 2 * j + 1): qj.sub(one)}  # zero ones included
            self._z.append(z)
        sys = ReductionSystem(self.group, letters, rules)
        verdict = sys.check_confluence()
        if isinstance(verdict, Failing):
            raise VerificationError(f"quantum Weyl relations are not confluent "
                                    f"at {sys.format_word(verdict.word)}")
        return sys

    def system(self) -> ReductionSystem:
        """The certified reduction system, built on first use: the
        invariants and equivalence checks read only the parameters."""
        if self._system is None:
            self._system = self._build_system()
        return self._system

    def z_element(self, sys: ReductionSystem, i: int) -> Element:
        """z_i = 1 + sum_{k<=i} (q_k - 1) y_k x_k as an element of sys, from
        the terms that building the system made."""
        self.system()
        return Element(sys.ring, self._z[i])

    @property
    def weyl_indices(self) -> list[int]:
        return [i for i in range(self.n) if self.qs[i].is_one()]

    @property
    def quantum_indices(self) -> list[int]:
        return [i for i in range(self.n) if not self.qs[i].is_one()]


def localized_lambda(a: QuantumWeylAlgebra) -> CanonicalMixedAlgebra:
    """The canonical mixed algebra of the localization, by the block formula.

    In the block order (z'-block, y-block) the weight matrix is
    [[1, M], [M', Lambda]] with M carrying q_{i_k} against y_{i_k} and M'
    its inverse transposed pattern; a final permutation lists the r
    Weyl-paired y's first, then the z'-block, then the quantum y's.
    """
    jj, ii = a.weyl_indices, a.quantum_indices
    nz, one = len(ii), a.group.one()
    lam = [[one] * (nz + a.n) for _ in ii] + [[one] * nz + list(row) for row in a.lam]
    for k, i in enumerate(ii):
        lam[k][nz + i], lam[nz + i][k] = a.qs[i], a.qs[i].inv()
    perm = [nz + j for j in jj] + list(range(nz)) + [nz + i for i in ii]
    plam = [[lam[i][j] for j in perm] for i in perm]
    return CanonicalMixedAlgebra(a.group, nz + a.n, len(jj), plam)


class LocalizationResult(NamedTuple):
    canonical: CanonicalMixedAlgebra
    gmap: GeneratorMap
    normal_scalars: dict[int, dict[str, Scalar]]  # per inverted z index
    relations_checked: int


def localize_to_mixed(a: QuantumWeylAlgebra) -> LocalizationResult:
    """Invert the z_i and verify the canonical mixed relations symbolically.

    Each z with q != 1 is confirmed scalar-normal, its inverse adjoined with
    re-certified confluence, and every relation of the canonical
    presentation is checked on the generator images x'_j = z_(prev j)^{-1} x_j
    and z'_i = z_(prev i)^{-1} z_i: its defect has normal form zero.  The
    image of z_i is its letter Z_i, which the identification rule makes
    equal to z_i, so it is the normal form of z_i and needs no reduction.
    """
    sys = a.system()
    jj, ii = a.weyl_indices, a.quantum_indices
    normal_scalars: dict[int, dict[str, Scalar]] = {}
    for i in ii:
        ext, _ = sys.adjoin_inverse(a.z_element(sys, i), f"z{i+1}^-1")
        # The new letter Z equals z_i, so its twists are z_i's scalars.
        z, group, twists = len(sys.letters), a.group, ext.twists
        normal_scalars[i] = {name: Scalar(group, d[0], d[1:]) for g, name in enumerate(sys.letters)
                             for d in [twists[z, g]]}
        sys = ext

    def after_prev(j: int, letter: str) -> Element:
        """z_p^-1 letter for the last quantum index p < j, or the letter."""
        prev = [p for p in ii if p < j]
        return sys.word(f"z{prev[-1]+1}^-1", letter) if prev else sys.word(letter)

    canonical = localized_lambda(a)
    source = canonical.to_presentation()
    # Canonical y-block: r Weyl-paired y's, then the z' chain, then quantum y's.
    r, nz = len(jj), len(ii)
    images: dict[str, Element] = {}
    for k, j in enumerate(jj):
        images[f"y{k+1}"] = sys.word(f"y{j+1}")
        images[f"x{k+1}"] = after_prev(j, f"x{j+1}")
    for k, i in enumerate(ii):
        images[f"y{r+k+1}"] = after_prev(i, f"z{i+1}")
        images[f"y{r+nz+k+1}"] = sys.word(f"y{i+1}")
    gmap = GeneratorMap(source, sys, images)
    res = verified(gmap, "localization")
    return LocalizationResult(canonical, gmap, normal_scalars, res.relations_checked)


class QWeylInvariants(NamedTuple):
    gk_dim: int
    w_supdeg: int
    center_trivial: bool | None  # None when a q_i is a nontrivial root of unity


def qweyl_invariants(a: QuantumWeylAlgebra) -> QWeylInvariants:
    r = len(a.weyl_indices)
    applicable = all(q.is_one() or any(q.free) for q in a.qs)
    center_trivial = None
    if applicable:
        _, center = center_lattices(localized_lambda(a))
        center_trivial = not center
    return QWeylInvariants(gk_dim=2 * a.n, w_supdeg=2 * r,
                           center_trivial=center_trivial)


def qweyl_equivalence_necessary(a: QuantumWeylAlgebra, b: QuantumWeylAlgebra,
                                param: str | None = None):
    """Necessary conditions via the localized canonical algebras; the
    semiclassical decision applies when every parameter equals 1."""
    if a.n != b.n:
        return NotEquivalent("NEQ_GK", f"gk {2 * a.n} vs {2 * b.n}")
    ca, cb = localized_lambda(a), localized_lambda(b)
    return equivalence_decide(ca, cb, param=param)
