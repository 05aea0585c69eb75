"""Coefficient arithmetic for the rewrite engine.

A coefficient is a Laurent polynomial in the declared free symbols with
coefficients in the cyclotomic field Q(zeta_e), divided by a product of
tracked denominator atoms (the finitely many polynomials the engine has
been asked to invert, e.g. q - 1 during localization).

An element of Q(zeta_e) = Q[x]/Phi_e is a tuple of phi(e) Fractions, its
coordinates in the power basis 1, zeta, ..., zeta^(phi-1): the remainder of
a polynomial in zeta modulo the e-th cyclotomic polynomial Phi_e.  One
dense-polynomial kernel (_divmod, _mul, _sub) serves the cyclotomic
polynomials themselves, the reduction of products and the inverse by the
extended Euclidean algorithm.  Zero tests and equality are exact: the
representation is canonical and denominators are compared by cross
multiplication.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import zip_longest

from .scalars import Scalar, ScalarGroup

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


def cyclotomic_poly(e: int) -> list[int]:
    """Coefficients of the e-th cyclotomic polynomial, constant term first."""
    poly = [-1] + [0] * (e - 1) + [1]  # x^e - 1
    for d in range(1, e):
        if e % d == 0:
            poly, rem = _divmod(poly, cyclotomic_poly(d))
            if any(rem):
                raise ArithmeticError("inexact division")
    return poly


# Largest e * phi(e) a ring is built for: it tabulates zeta^t for 0 <= t < e
# as phi-tuples.  The slowest accepted ring (e = 665) builds in about 0.3 s
# on a 2-CPU x86 VM under Python 3.11, while e = 20011 exhausts memory.
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
        if self.e * _totient(self.e) > MAX_ROOT_TABLE:
            raise ValueError(f"root order {self.e} is too large: its table of "
                             f"roots would need e * phi(e) > {MAX_ROOT_TABLE} entries")
        self.m = group.rank
        self.phi_poly = cyclotomic_poly(self.e)
        self.phi = len(self.phi_poly) - 1
        self.cy_zero = tuple([Fraction(0)] * self.phi)
        self.cy_one = (Fraction(1),) + self.cy_zero[1:]
        # roots[t] = zeta^t for 0 <= t < e, each reduced from zeta * roots[t-1].
        self.roots = [self.cy_one]
        for _ in range(1, self.e):
            self.roots.append(self._reduce([Fraction(0), *self.roots[-1]]))

    # -- cyclotomic numbers: tuples of Fractions in the power basis ---------

    def _reduce(self, p: list) -> tuple:
        """The element of Q(zeta_e) that the polynomial p takes zeta to."""
        rem = _divmod(p, self.phi_poly)[1]
        return tuple(rem + [Fraction(0)] * (self.phi - len(rem)))

    def cy_add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def cy_neg(self, a):
        return tuple(-x for x in a)

    def cy_mul(self, a, b):
        return self._reduce(_mul(a, b))

    def cy_from_rational(self, r) -> tuple:
        out = [Fraction(0)] * self.phi
        out[0] = Fraction(r)
        return tuple(out)

    def cy_root(self, t: int) -> tuple:
        return self.roots[t % self.e]

    def cy_inv(self, a):
        """Inverse in Q(zeta_e) by the extended Euclidean algorithm."""
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        if self.phi == 1:
            return (1 / a[0],)
        # Invariant: s_i * a = r_i modulo Phi_e.
        r0, r1 = self.phi_poly, list(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            while not r1[-1]:
                r1.pop()
            if len(r1) == 1:  # r1[0] may be an integer left over from Phi_e
                inv = Fraction(1) / r1[0]
                return self._reduce([c * inv for c in s1])
            q, rem = _divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _sub(s0, _mul(q, s1))


# ---------------------------------------------------------------------------
# Laurent polynomials: dict[exponent tuple -> cyclotomic number].


def lp_add(ring, a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        s = ring.cy_add(out.get(k, ring.cy_zero), v)
        if any(s):
            out[k] = s
        else:
            out.pop(k, None)
    return out


def lp_neg(ring, a: dict) -> dict:
    return {k: ring.cy_neg(v) for k, v in a.items()}


def lp_mul(ring, a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            s = ring.cy_add(out.get(k, ring.cy_zero), ring.cy_mul(va, vb))
            if any(s):
                out[k] = s
            else:
                out.pop(k, None)
    return out


def lp_key(a: dict) -> tuple:
    return tuple(sorted(a.items()))


def _shift(ring, p: dict) -> tuple[dict, tuple]:
    """(p / x^mins, mins) with mins the least exponent of each symbol in p."""
    mins = tuple(min(k[i] for k in p) for i in range(ring.m))
    return {tuple(x - y for x, y in zip(k, mins)): v for k, v in p.items()}, mins


def lp_divexact(ring, a: dict, b: dict) -> dict | None:
    """Exact quotient a/b in the Laurent ring, or None when b does not divide a.

    Shift both to honest polynomials (Laurent units are monomials) and run
    lex-ordered division.  Degrees add up, so every term of a quotient of the
    shifted polynomials has 0 <= exp_i <= deg_i(a) - deg_i(b); a leading-term
    quotient outside that box certifies non-divisibility.  The leading
    exponents fall strictly in lex order, so the loop ends inside the box.
    """
    if not b:
        raise ZeroDivisionError
    if not a:
        return {}
    pa, sa = _shift(ring, a)
    pb, sb = _shift(ring, b)
    box = [max(k[i] for k in pa) - max(k[i] for k in pb) for i in range(ring.m)]
    lead_b = max(pb)
    inv_lb = ring.cy_inv(pb[lead_b])
    quot: dict = {}
    rem = dict(pa)
    while rem:
        lead_r = max(rem)
        exp = tuple(x - y for x, y in zip(lead_r, lead_b))
        if any(not 0 <= x <= top for x, top in zip(exp, box)):
            return None
        c = ring.cy_mul(rem[lead_r], inv_lb)
        quot[exp] = c
        for kb, vb in pb.items():
            k = tuple(x + y for x, y in zip(exp, kb))
            s = ring.cy_add(rem.get(k, ring.cy_zero), ring.cy_neg(ring.cy_mul(c, vb)))
            if any(s):
                rem[k] = s
            else:
                rem.pop(k, None)
    offset = tuple(x - y for x, y in zip(sa, sb))
    return {tuple(x + y for x, y in zip(k, offset)): v for k, v in quot.items()}


# ---------------------------------------------------------------------------
# Coefficients with tracked denominators.


def _times_atoms(ring: CoeffRing, num: dict, atoms: Counter) -> dict:
    """num times each denominator atom as many times as atoms counts it."""
    for atom, k in atoms.items():
        for _ in range(k):
            num = lp_mul(ring, num, dict(atom))
    return num


class Coeff:
    """num / prod(den atoms); den atoms are canonical Laurent polynomials."""

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: CoeffRing, num: dict, den: Counter | None = None):
        self.ring = ring
        self.num = num
        self.den = den if den is not None else Counter()
        if not num:
            self.den = Counter()

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(ring: CoeffRing) -> "Coeff":
        return Coeff(ring, {})

    @staticmethod
    def one(ring: CoeffRing) -> "Coeff":
        return Coeff(ring, {(0,) * ring.m: ring.cy_one})

    @staticmethod
    def from_rational(ring: CoeffRing, r) -> "Coeff":
        r = Fraction(r)
        if r == 0:
            return Coeff.zero(ring)
        return Coeff(ring, {(0,) * ring.m: ring.cy_from_rational(r)})

    @staticmethod
    def from_scalar(ring: CoeffRing, s: Scalar) -> "Coeff":
        if s.group != ring.group:
            raise ValueError("scalar outside the coefficient ring's group")
        return Coeff(ring, {tuple(s.free): ring.cy_root(s.torsion)})

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coeff):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return (_times_atoms(self.ring, self.num, other.den)
                == _times_atoms(self.ring, other.num, self.den))

    def __hash__(self):
        raise TypeError("Coeff is not hashable")

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
                q = lp_divexact(self.ring, num, dict(atom))
                if q is None:
                    break
                num = q
                den[atom] -= 1
            if den[atom] == 0:
                del den[atom]
        return Coeff(self.ring, num, den)

    def add(self, other: "Coeff") -> "Coeff":
        ring = self.ring
        if self.den == other.den:
            num = lp_add(ring, self.num, other.num)
            return self._with(num, Counter(self.den)) if num else Coeff.zero(ring)
        union = self.den | other.den
        left = _times_atoms(ring, self.num, union - self.den)
        right = _times_atoms(ring, other.num, union - other.den)
        return self._with(lp_add(ring, left, right), union)

    def neg(self) -> "Coeff":
        return Coeff(self.ring, lp_neg(self.ring, self.num), Counter(self.den))

    def sub(self, other: "Coeff") -> "Coeff":
        return self.add(other.neg())

    def mul(self, other: "Coeff") -> "Coeff":
        if self.is_zero() or other.is_zero():
            return Coeff.zero(self.ring)
        num = lp_mul(self.ring, self.num, other.num)
        if not self.den and not other.den:
            return Coeff(self.ring, num)
        return self._with(num, self.den + other.den)

    def inv(self) -> "Coeff":
        """Exact inverse; non-unit content becomes a tracked denominator atom."""
        ring = self.ring
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero coefficient")
        num = _times_atoms(ring, {(0,) * ring.m: ring.cy_one}, self.den)
        if len(self.num) == 1:
            (exp, cy), = self.num.items()
            unit = {tuple(-x for x in exp): ring.cy_inv(cy)}
            return Coeff(ring, lp_mul(ring, num, unit))
        atom, unit = _atomize(ring, self.num)
        return Coeff(ring, lp_mul(ring, num, unit), Counter({atom: 1}))._cancel()


def _atomize(ring: CoeffRing, p: dict) -> tuple[tuple, dict]:
    """Split p = unit * atom with the atom shifted to exponent >= 0 and monic
    leading coefficient; returns (atom key, inverse-of-unit as Laurent)."""
    shifted, mins = _shift(ring, p)
    lead = max(shifted)
    lc = shifted[lead]
    lc_inv = ring.cy_inv(lc)
    atom_lp = {k: ring.cy_mul(v, lc_inv) for k, v in shifted.items()}
    atom = lp_key(atom_lp)
    # p = (lc * x^mins) * atom, so 1/unit = lc^{-1} * x^{-mins}
    unit_inv = {tuple(-x for x in mins): lc_inv}
    return atom, unit_inv


def format_coeff(c: Coeff) -> str:
    """Compact rendering: cyclotomic-combination coefficients on monomials,
    with tracked denominators appended."""
    ring = c.ring
    names = ring.group.free_symbols
    root = ring.group.root_symbol or "zeta"

    def mono(k) -> str:
        return " ".join(n if e == 1 else f"{n}^{e}"
                        for n, e in zip(names, k) if e)

    def cyc(v) -> str:
        terms = []
        for i, x in enumerate(v):
            if not x:
                continue
            base = "" if i == 0 else (root if i == 1 else f"{root}^{i}")
            if not base:
                terms.append(str(x))
            elif x == 1:
                terms.append(base)
            else:
                terms.append(f"{x}*{base}")
        return " + ".join(terms) if terms else "0"

    def lp(p) -> str:
        parts = []
        for k, v in sorted(p.items()):
            m = mono(k)
            cy = cyc(v)
            if not m:
                parts.append(cy if "+" not in cy else f"({cy})")
            elif cy == "1":
                parts.append(m)
            else:
                parts.append(f"({cy}) {m}")
        return " + ".join(parts) if parts else "0"

    out = lp(c.num)
    for atom, k in sorted(c.den.items()):
        out += f" / ({lp(dict(atom))})" + (f"^{k}" if k > 1 else "")
    return out


def coeff_to_scalar(c: Coeff) -> Scalar | None:
    """Recognize a coefficient as an element of the scalar group, if it is one."""
    if c.den or len(c.num) != 1:
        return None
    ring = c.ring
    (exp, cy), = c.num.items()
    try:
        t = ring.roots.index(cy)
    except ValueError:
        return None
    return Scalar(ring.group, t, tuple(exp))
