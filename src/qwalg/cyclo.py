"""Coefficient arithmetic for the rewrite engine.

A coefficient is a Laurent polynomial in the declared free symbols with
coefficients in the cyclotomic field Q(zeta_e), divided by a product of
tracked denominator atoms (the finitely many polynomials the engine has
been asked to invert, e.g. q - 1 during localization).

A numerator is one sparse dict {(a_1, ..., a_m, t): c} standing for the sum
of c * q^a * zeta^t, with 0 <= t < phi(e), so that zeta^t runs over the
power basis of Q(zeta_e) = Q[x]/Phi_e and the representation is canonical.
Coordinates c are non-zero ints, or Fractions once a division has made
them so; an integral coordinate is always an int.  A product adds keys; a
power zeta^t with t >= phi is expanded through the integer table
roots[t % e] of the non-zero coordinates of zeta^t, so a product of
scalar-group elements q^a zeta^t costs one integer multiplication per
coordinate.  The only field division is the inverse in Q(zeta_e) of the
field part of one q-monomial, by the extended Euclidean algorithm on dense
lists (_divmod, _mul, _sub).  Zero tests and equality are exact: the
representation is canonical and denominators are compared by cross
multiplication.  A scalar-group element enters only as its degree
(torsion, *free), the form of the rewrite engine's twist tables:
Coeff.of_degree builds its coefficient and coeff_degree reads a degree
back off a coefficient.

Denominator atoms are interned once per ring.  An atom is stored shifted
(least exponent 0 in each symbol) and monic (the field part of its
lex-leading q-monomial is exactly 1), with its degree box and its lead
exponent; a denominator is a Counter of atom ids.  Dividing by an atom
reads each quotient term straight off the remainder's leading term, with
no inverse in Q(zeta_e).

Invariant: every Coeff that carries a denominator comes out of _cancel (or
is the negation of one), so no atom of its denominator divides its
numerator.  (_cancel divides by each atom until it fails; a later division
by another atom cannot make an earlier one divide, since an atom that does
not divide n divides no divisor of n.)  Hence the unit lemma: let u be a
unit (one q-monomial, no denominator) and n / d a coefficient.  If an atom
A of d divided u * n, it would divide n = u^-1 * (u * n), which the
invariant rules out.  So u * n / d is already cancelled, and Coeff.mul does
no trial division for a product with a unit, nor for (u * A) * (n / d) with
A an atom of d, which is u * n / (d - A) (as (q - 1) (q - 1)^-1 in the
identification rules).  Nor does Coeff.inv of a p with no denominator: a
non-unit atom divides no unit.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import zip_longest
from operator import add, sub

from .scalars import ScalarGroup

# ---------------------------------------------------------------------------
# Dense polynomials: lists of coefficients, constant term first.


def _divmod(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of a by b; the remainder has len(b) - 1 entries
    (or fewer, when a is shorter).  b's leading coefficient must be non-zero.
    A monic b is never divided by, so integer inputs give integer results."""
    n = len(b) - 1
    lead = b[-1]
    a = list(a)
    q = [0] * max(len(a) - n, 0)
    for k in range(len(q) - 1, -1, -1):
        c = a[k + n]
        if not c:
            continue
        if lead != 1:
            c /= lead
        q[k] = c
        for i in range(n):
            if b[i]:
                a[k + i] -= c * b[i]
    return q, a[:n]


def _mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _sub(a: list, b: list) -> list:
    return [x - y for x, y in zip_longest(a, b, fillvalue=0)]


@cache
def cyclotomic_poly(e: int) -> list[int]:
    """Coefficients of the e-th cyclotomic polynomial, constant term first.
    Memoized: the returned list is shared and must not be mutated."""
    poly = [-1] + [0] * (e - 1) + [1]  # x^e - 1
    for d in range(1, e):
        if e % d == 0:
            poly, rem = _divmod(poly, cyclotomic_poly(d))
            if any(rem):
                raise ArithmeticError("inexact division")
    return poly


# Largest e * phi(e) a ring is built for: it tabulates the coordinates of
# zeta^t for 0 <= t < e.  The slowest accepted ring (e = 665) builds in
# about 0.05 s on a 2-CPU x86 VM under Python 3.11; past the bound, the
# prime e = 1009 takes 0.06 s, e = 2310 0.4 s (0.25 s of it Phi_e) and
# e = 20011 20 s.
MAX_ROOT_TABLE = 400_000


def _totient(e: int) -> int:
    out, rest, p = e, e, 2
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            out -= out // p
        p += 1
    return out - out // rest if rest > 1 else out


class CoeffRing:
    """Arithmetic context for one scalar group: Q(zeta_e)-Laurent in m symbols."""

    _cache: dict[ScalarGroup, "CoeffRing"] = {}

    def __new__(cls, group: ScalarGroup):
        if group not in cls._cache:
            obj = super().__new__(cls)
            obj._init(group)
            cls._cache[group] = obj
        return cls._cache[group]

    def _init(self, group: ScalarGroup):
        self.group = group
        self.e = group.torsion_order
        # phi(e) >= 1, so e alone past the bound refuses before the totient's
        # trial division, which takes sqrt(e) steps on a prime e.
        if self.e > MAX_ROOT_TABLE or self.e * _totient(self.e) > MAX_ROOT_TABLE:
            raise ValueError(f"root order {self.e} is too large: its table of "
                             f"roots would need e * phi(e) > {MAX_ROOT_TABLE} entries")
        self.m = group.rank
        self.phi_poly = cyclotomic_poly(self.e)
        self.phi = len(self.phi_poly) - 1
        self.zero_exp = (0,) * self.m
        # roots[t]: the non-zero (s, c) coordinates of zeta^t, 0 <= t < e, in
        # integers; zeta^t = zeta * zeta^(t-1) with zeta^phi reduced by the
        # monic Phi_e.
        self.roots = []
        z = [1] + [0] * (self.phi - 1)
        for _ in range(self.e):
            self.roots.append(tuple((s, c) for s, c in enumerate(z) if c))
            top, z = z[-1], [0, *z[:-1]]
            if top:
                z = [c - top * p for c, p in zip(z, self.phi_poly)]
        self.torsion_of = {r: t for t, r in enumerate(self.roots)}
        # Interned denominator atoms: atoms[i] = (shifted monic polynomial,
        # degree in each symbol, lex-leading exponent); atom_ids inverts it.
        self.atoms: list[tuple[dict, tuple, tuple]] = []
        self.atom_ids: dict[tuple, int] = {}
        # factors[lp_key(p)] = (atom id, unit u) with p = u * atom, per inverted p.
        self.factors: dict[tuple, tuple[int, dict]] = {}

    def intern(self, atom: dict) -> int:
        """The id of a shifted monic atom, adding it to the table if new."""
        key = lp_key(atom)
        if key not in self.atom_ids:
            self.atom_ids[key] = len(self.atoms)
            self.atoms.append((atom, tuple(max(k[i] for k in atom) for i in range(self.m)),
                               max(k[:-1] for k in atom)))
        return self.atom_ids[key]

    def cy_inv(self, a: list) -> list:
        """Inverse in Q(zeta_e) of the dense coordinates a, by the extended
        Euclidean algorithm; integral coordinates come back as ints.  a is
        not zero: its one caller passes the leading field part of a non-zero
        numerator."""
        # Invariant: s_i * a = r_i modulo Phi_e.  All Fractions, so no
        # division below meets two ints.
        r0, r1 = [Fraction(c) for c in self.phi_poly], [Fraction(c) for c in a]
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            while not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                inv = 1 / r1[0]
                return [c.numerator if c.denominator == 1 else c
                        for c in _divmod([c * inv for c in s1], self.phi_poly)[1]]
            q, rem = _divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _sub(s0, _mul(q, s1))


# ---------------------------------------------------------------------------
# Laurent polynomials over Q(zeta_e): dict[(q-exponents..., t) -> coordinate].


def _accumulate(out: dict, p: dict) -> dict:
    """out += p in place, dropping cancelled keys."""
    for k, v in p.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def lp_add(a: dict, b: dict) -> dict:
    return _accumulate(dict(a), b)


def lp_neg(a: dict) -> dict:
    return {k: -v for k, v in a.items()}


def lp_mul(ring, a: dict, b: dict) -> dict:
    roots, e = ring.roots, ring.e
    if ring.phi == 1 and (len(a) == 1 or len(b) == 1):
        # Every field part is rational, so a one-term factor, such as a
        # scalar-group element, shifts the keys of the other one to
        # distinct keys: no sum, no cancellation.
        if len(b) != 1:
            a, b = b, a
        (kb, vb), = b.items()
        return {tuple(map(add, ka, kb)): va * vb for ka, va in a.items()}
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            *exp, t = map(add, ka, kb)
            c = va * vb
            for s, r in roots[t % e]:
                k = (*exp, s)
                out[k] = out.get(k, 0) + c * r
    return {k: v for k, v in out.items() if v}


def lp_key(a: dict) -> tuple:
    return tuple(sorted(a.items()))


def _shift(ring, p: dict) -> tuple[dict, tuple]:
    """(p / q^mins, mins) with mins the least exponent of each symbol in p."""
    mins = tuple(min(k[i] for k in p) for i in range(ring.m))
    return {(*map(sub, k, mins), k[-1]): v for k, v in p.items()}, mins


def _zeta_part(ring, p: dict) -> tuple[tuple, list]:
    """p's lex-leading q-exponent and the dense coordinates of its
    coefficient in Q(zeta_e)."""
    lead = max(k[:-1] for k in p)
    z = [0] * ring.phi
    for k, v in p.items():
        if k[:-1] == lead:
            z[k[-1]] = v
    return lead, z


def _term(exp: tuple, z: list) -> dict:
    """The numerator z * q^exp of dense field coordinates z."""
    return {(*exp, s): c for s, c in enumerate(z) if c}


def _divide(ring, a: dict, atom: int) -> dict | None:
    """Exact quotient of a non-zero a by an interned atom, or None when the
    atom does not divide a.

    Shift a to an honest polynomial (Laurent units are monomials) and run
    lex-ordered division.  Degrees add up, so every term of the quotient has
    0 <= exp_i <= deg_i(a) - deg_i(atom); a leading-term quotient outside
    that box certifies non-divisibility.  The atom is monic, so a quotient
    term is the remainder's leading term moved down by the atom's lead
    exponent.  The leading exponents fall strictly in lex order, so the loop
    ends inside the box.
    """
    poly, deg, lead = ring.atoms[atom]
    pa, sa = _shift(ring, a)
    box = [max(k[i] for k in pa) - d for i, d in enumerate(deg)]
    quot: dict = {}
    rem = dict(pa)
    while rem:
        lead_r = max(k[:-1] for k in rem)
        exp = tuple(map(sub, lead_r, lead))
        if any(not 0 <= x <= top for x, top in zip(exp, box)):
            return None
        c = {(*exp, k[-1]): v for k, v in rem.items() if k[:-1] == lead_r}
        quot.update(c)
        _accumulate(rem, lp_mul(ring, lp_neg(c), poly))
    return {(*map(add, k, sa), k[-1]): v for k, v in quot.items()}


# ---------------------------------------------------------------------------
# Coefficients with tracked denominators.


# The denominator of every Coeff without one; shared, so never mutated.
_NO_DEN: Counter = Counter()


def _times_atoms(ring: CoeffRing, num: dict, atoms: Counter) -> dict:
    """num times each denominator atom as many times as atoms counts it."""
    for atom, k in atoms.items():
        for _ in range(k):
            num = lp_mul(ring, num, ring.atoms[atom][0])
    return num


def _is_unit(num: dict) -> bool:
    """Whether a non-zero numerator is one q-monomial (a unit of the ring)."""
    keys = iter(num)
    exp = next(keys)[:-1]
    return all(k[:-1] == exp for k in keys)


class Coeff:
    """num / prod(den atoms); den counts the ids of the ring's interned atoms.
    A den is shared between coefficients and never mutated."""

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: CoeffRing, num: dict, den: Counter | None = None):
        self.ring = ring
        self.num = num
        self.den = den if num and den else _NO_DEN

    def __repr__(self):
        # Atoms by their polynomials, not by their ids: the ids depend on
        # what the ring interned earlier.
        den = sorted((lp_key(self.ring.atoms[a][0]), k) for a, k in self.den.items())
        return f"Coeff({dict(lp_key(self.num))!r}, den={[(dict(p), k) for p, k in den]!r})"

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(ring: CoeffRing) -> "Coeff":
        return Coeff(ring, {})

    @staticmethod
    def one(ring: CoeffRing) -> "Coeff":
        return Coeff(ring, {(*ring.zero_exp, 0): 1})

    @staticmethod
    def from_rational(ring: CoeffRing, r) -> "Coeff":
        r = Fraction(r)
        if r == 0:
            return Coeff.zero(ring)
        return Coeff(ring, {(*ring.zero_exp, 0): r.numerator if r.denominator == 1 else r})

    @staticmethod
    def of_degree(ring: CoeffRing, d: tuple) -> "Coeff":
        """The scalar-group element of degree d = (torsion, *free)."""
        return Coeff(ring, {(*d[1:], t): c for t, c in ring.roots[d[0] % ring.e]})

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coeff):
            return NotImplemented
        # Every coefficient without a denominator shares _NO_DEN.
        if self.den is other.den or self.den == other.den:
            return self.num == other.num
        return (_times_atoms(self.ring, self.num, other.den)
                == _times_atoms(self.ring, other.num, self.den))

    # -- arithmetic -----------------------------------------------------------

    def _with(self, num, den) -> "Coeff":
        return Coeff(self.ring, num, den)._cancel()

    def _cancel(self) -> "Coeff":
        if not self.num or not self.den:
            return self
        num = self.num
        den = Counter(self.den)
        for atom in list(den):
            while den[atom] > 0:
                q = _divide(self.ring, num, atom)
                if q is None:
                    break
                num = q
                den[atom] -= 1
            if den[atom] == 0:
                del den[atom]
        return Coeff(self.ring, num, den)

    def add(self, other: "Coeff") -> "Coeff":
        ring = self.ring
        if self.den is other.den or self.den == other.den:
            num = lp_add(self.num, other.num)
            return self._with(num, self.den) if num else Coeff.zero(ring)
        union = self.den | other.den
        left = _times_atoms(ring, self.num, union - self.den)
        right = _times_atoms(ring, other.num, union - other.den)
        return self._with(lp_add(left, right), union)

    def neg(self) -> "Coeff":
        return Coeff(self.ring, lp_neg(self.num), self.den)

    def sub(self, other: "Coeff") -> "Coeff":
        return self.add(other.neg())

    def mul(self, other: "Coeff") -> "Coeff":
        ring = self.ring
        if self.is_zero() or other.is_zero():
            return Coeff.zero(ring)
        # A product with a unit, or of u * atom and n / d with the atom in d,
        # is already cancelled (the unit lemma above).
        plain, frac = (self, other) if not self.den else (other, self)
        if not plain.den:
            if not frac.den or _is_unit(plain.num):
                return Coeff(ring, lp_mul(ring, self.num, other.num), frac.den)
            atom, unit = ring.factors.get(lp_key(plain.num), (None, None))
            if atom in frac.den:
                return Coeff(ring, lp_mul(ring, unit, frac.num), frac.den - Counter((atom,)))
        return self._with(lp_mul(ring, self.num, other.num), self.den + other.den)

    def inv(self) -> "Coeff":
        """Exact inverse; non-unit content becomes a tracked denominator atom."""
        ring = self.ring
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero coefficient")
        atom, unit_inv = _atomize(ring, self.num)
        num = _times_atoms(ring, unit_inv, self.den)
        if atom is None:
            return Coeff(ring, num)
        inv = Coeff(ring, num, Counter({atom: 1}))  # cancelled when self.den is 0
        return inv._cancel() if self.den else inv


def _atomize(ring: CoeffRing, p: dict) -> tuple[int | None, dict]:
    """Split p = unit * atom with the atom shifted to exponent >= 0 and monic
    leading coefficient; returns the interned atom's id (None when p is a
    unit) and the inverse of the unit as a Laurent polynomial."""
    shifted, mins = _shift(ring, p)
    lc_inv = ring.cy_inv(lc := _zeta_part(ring, shifted)[1])
    # p = (lc * q^mins) * atom, so 1/unit = lc^{-1} * q^{-mins}
    unit_inv = _term(tuple(-x for x in mins), lc_inv)
    if _is_unit(p):
        return None, unit_inv
    atom = ring.intern(lp_mul(ring, shifted, _term(ring.zero_exp, lc_inv)))
    ring.factors[lp_key(p)] = atom, _term(mins, lc)
    return atom, unit_inv


def coeff_degree(c: Coeff) -> tuple | None:
    """The degree (torsion, *free) of a coefficient that is an element of the
    scalar group, or None."""
    if c.den or not c.num:
        return None
    exps = {k[:-1] for k in c.num}
    if len(exps) != 1:
        return None
    t = c.ring.torsion_of.get(tuple(sorted((k[-1], v) for k, v in c.num.items())))
    return None if t is None else (t, *exps.pop())
