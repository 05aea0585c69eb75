"""Free-algebra reduction systems and diamond-lemma confluence certification.

Words are tuples of letter indices; an element is a finite sum of words with
exact coefficients.  Every rule rewrites its left-hand word to a sum of
words that is strictly smaller in the deglex order (length first, then the
letter order), so reduction always terminates; certified confluence then
makes normal forms canonical and turns the ordered monomials into a basis.

Every left-hand side is two letters and no two rules share one, so the
rules form one table keyed by their left sides; the constructor refuses
any other rule.  Presentations contribute one quadratic rule per generator
pair.  One routine conjugates the rules of an inverse: the letter g^-1 sits
right after g, with g g^-1 -> 1 and g^-1 g -> 1, and every other letter h
gets one rule from the twist g h = mu h g + c g of its pair (``twist``),
conjugated by g^-1:

    h g^-1 = mu g^-1 h + c g^-1        (g h = phi(h) g gives g^-1 h = phi^-1(h) g^-1)

oriented by the letter order.  Localization at a scalar-normal element z
appends Z and Z^-1 in one extension: Z with the twist rules of z and one
identification rule that rewrites the two-letter leading word of z into Z
minus the tail, so Z genuinely equals z, and Z^-1 with the rules conjugated
from those twists.

Reduction rewrites the deglex-largest pending word at its leftmost redex by
the one rule keyed there, so on any system, certified or not, it is a
linear map: reducing a - b gives the normal form of a minus that of b.  An
ambiguity with the two one-step results a and b is therefore resolved by
reducing a - b once and testing it for zero, which is Bergman's
"resolvable relative to <=" (The diamond lemma for ring theory, Adv. Math.
29, 1978, Thm 1.2).  An extension is certified incrementally: its rules
start with those of the certified parent, whose ambiguities among
themselves stay resolvable when rules are added (Bergman, loc. cit.), so
only ambiguities that involve a new rule are resolved again.  An overlap
whose two one-step results cancel term by term needs no reduction.

The overlaps of a new inverse pair g g^-1, g^-1 g with the rules of g and
g^-1 are settled by construction: the conjugated rules make them reduce
alike.  So are the overlaps u a b and a b w of an identification rule a b
with a parent rule u a or b w, when a b u < u a b or w a b < a b w: the
parent's certified normality of the element puts their difference in the
ideal of smaller words.  A twist table holds the degree of mu (torsion
exponent mod e, then free exponents) of each rule u h -> mu h u with mu a
scalar, built from the rules alone, which may state mu by that degree
(``_grow``).  Such a rule is its table entry until a reduction uses it: its
right side is built on first use (``right_side``), and the degree criterion
settles its overlaps with no right side at all.  Read either way round,
with an inverse pair g g^-1 -> 1 <- g^-1 g of degree 0, the table gives the
degree nu of a letter x on a word t: x t = nu t x, so t x = nu^-1 x t.
One graded lemma settles most other overlaps: the first letter moves right
or the last letter moves left, the same statement in the algebra and in its
opposite, and words of another degree may leave a remainder that reduces to
zero, reduced once per system.  Degrees, and the remainders shown to
vanish, also give normality scalars (``commutation_with_generators``): an
extension takes from its base those that its own degrees do not give, and
the base's certification has proved most of them.  Degrees settle a
relation of a generator map whose images are single words
(``exchange_degree``).  They are the engine's form of a scalar: one becomes
a coefficient once per rule that a reduction uses, and a ``Scalar`` only
where a public method returns one.  Proofs are in ``check_confluence``.
Certification visits only the overlaps with a loose
pair, read off an index: a rule outside the table or a descending letter
pair with no twist rule.  ``adjoin_inverse`` appends its two letters in an
extension that reuses the parent's rules, tables and index, and validates
and indexes only what it adds; ``invert_generator`` renumbers the letters
after g and builds its system afresh.
"""
from __future__ import annotations

from operator import add, neg, sub
from typing import NamedTuple

from .cyclo import Coeff, CoeffRing, coeff_degree
from .scalars import Frozen, Scalar, ScalarGroup

Word = tuple[int, ...]


class RuleError(ValueError):
    """Malformed reduction rule: a left side that is not two letters or
    repeats, or a right side that is not deglex-smaller."""


class NotNormalError(ValueError):
    """Element is not scalar-normal, so it cannot be inverted."""


class NotCertifiedError(RuntimeError):
    """Normal forms requested before confluence was certified."""


class InverseError(ValueError):
    """A word uses the inverse of a non-invertible generator."""


def deglex_key(w: Word):
    return (len(w), w)


def _add_term(terms: dict, w: Word, c: Coeff) -> None:
    """terms[w] += c for a non-zero c, dropping the word when it cancels."""
    old = terms.get(w)
    if old is None:
        terms[w] = c
    else:
        c = old.add(c)
        if c.is_zero():
            del terms[w]
        else:
            terms[w] = c


def _terms_key(terms) -> frozenset:
    """The terms (t, c) as a key: each word with its coefficient's numerator
    and denominator."""
    return frozenset((t, frozenset(c.num.items()), frozenset(c.den.items())) for t, c in terms)


class Element:
    """Finite linear combination of words with Coeff coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: CoeffRing, terms: dict | None = None):
        self.ring = ring
        self.terms = {}
        if terms:
            for w, c in terms.items():
                if not c.is_zero():
                    self.terms[w] = c

    @staticmethod
    def of_terms(ring: CoeffRing, terms: dict) -> "Element":
        """The element of terms that are already all non-zero (no copy)."""
        el = Element.__new__(Element)
        el.ring, el.terms = ring, terms
        return el

    @staticmethod
    def from_word(ring, w: Word, coeff: Coeff | None = None) -> "Element":
        c = coeff if coeff is not None else Coeff.one(ring)
        return Element(ring, {tuple(w): c})

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "Element") -> "Element":
        out = dict(self.terms)
        for w, c in other.terms.items():
            _add_term(out, w, c)
        return Element.of_terms(self.ring, out)

    def neg(self) -> "Element":
        return Element(self.ring, {w: c.neg() for w, c in self.terms.items()})

    def sub(self, other: "Element") -> "Element":
        return self.add(other.neg())

    def scale(self, coeff: Coeff) -> "Element":
        return Element(self.ring, {w: c.mul(coeff) for w, c in self.terms.items()})

    def concat(self, other: "Element") -> "Element":
        """Free (unreduced) product."""
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                _add_term(out, w1 + w2, c1.mul(c2))
        return Element.of_terms(self.ring, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.terms.keys() == other.terms.keys() and all(
            c == other.terms[w] for w, c in self.terms.items())

    def leading_word(self) -> Word:
        return max(self.terms, key=deglex_key)

    def __repr__(self):
        return f"Element({self.terms!r})"


class Rule(NamedTuple):
    lhs: Word
    rhs: Element | tuple  # or, for a twist u h -> mu h u, the degree of mu


class Confluent(Frozen):
    """Every overlap resolves.  A value with no fields, so the verdict is truthy."""

    __slots__ = ()


class Failing(NamedTuple):
    word: Word
    normal_form_1: Element
    normal_form_2: Element


class ReductionSystem:
    """A terminating reduction system on the free algebra over the letters."""

    def __init__(self, group: ScalarGroup, letters: tuple[str, ...], rules: list[Rule]):
        self.group = group
        self.ring = CoeffRing(group)
        self.letters: tuple[str, ...] = ()
        self.rules: list[Rule] = []
        self._certified = False
        # Left side -> right side; a twist's degree until ``right_side`` builds it.
        self._rhs: dict[Word, Element | tuple] = {}
        self._pos: dict[Word, int] = {}  # left side -> index of its rule
        # Twist table (u, h) -> degree of mu per rule u h -> mu h u (see ``_grow``).
        self._twists: dict[Word, tuple] = {}
        # Loose pairs (a, b): outside the twist table, and a rule's left side
        # or descending (a > b); indexed both ways, a -> {b} and b -> {a}.
        self._loose_first: dict[int, frozenset] = {}
        self._loose_second: dict[int, frozenset] = {}
        self._degrees: dict[tuple, tuple | None] = {}  # memo of ``_word_degree``
        self._inverses: frozenset = frozenset()  # (g, h) with g h -> 1 and h g -> 1
        # Overlap words settled by construction (see ``check_confluence``).
        self._by_construction: frozenset = frozenset()
        # (side, x, terms) -> nu for the remainders shown to reduce to zero.
        self._remainders: dict = {}
        self._base: ReductionSystem | None = None  # the system an extension grew from
        self._grow(letters, rules)

    def _grow(self, letters, rules: list[Rule]):
        """Append letters and rules, validating only the new rules, with the
        twist-table entries of the new rules and the inverse pairs they
        complete.  A twist u h -> mu h u stated by the degree d of mu becomes
        its entry d and nothing more: it is validated by its letter order
        (h before u), and its right side is built on first use
        (``right_side``).  A right side h u whose coefficient is a scalar
        has its degree read off.  A rule is validated before it gets an
        entry.
        Table entries join only with new rules, so the loose pairs to index
        are those of the new rules and of the new letters.  (A pair with no
        rule that later gets a twist rule stays indexed: that only adds
        candidates, which the degree criterion settles.)"""
        old, first, tw = len(self.letters), len(self.rules), self._twists
        self.letters += tuple(letters)
        pos, rhs_of, out, e = self._pos, self._rhs, self.rules, self.group.torsion_order
        for lhs, rhs in rules:
            if rhs.__class__ is tuple:
                # Its one word h u is below u h when h < u: only a rule that
                # fails that or the shape is sent on, to raise its RuleError.
                if len(lhs) != 2 or lhs[1] >= lhs[0] or lhs in rhs_of:
                    self._validate_rule(lhs, (lhs[::-1],))
                d = rhs
            else:
                self._validate_rule(lhs, rhs.terms)
                d = coeff_degree(rhs.terms[lhs[::-1]]) if rhs.terms.keys() == {lhs[::-1]} else None
            pos[lhs], rhs_of[lhs] = len(out), rhs
            out.append(Rule(lhs, rhs))
            if d is not None:
                tw[lhs] = (d[0] % e, *d[1:])
        new = self.rules[first:]
        loose = [r.lhs for r in new if r.lhs not in tw]
        loose += [(a, b) for a in range(old, len(self.letters)) for b in range(a)
                  if (a, b) not in tw]
        firsts: dict[int, set] = {}
        seconds: dict[int, set] = {}
        for a, b in loose:
            firsts.setdefault(a, set()).add(b)
            seconds.setdefault(b, set()).add(a)
        for index, added in ((self._loose_first, firsts), (self._loose_second, seconds)):
            for x, ys in added.items():  # new sets: an extension shares the old ones
                index[x] = index.get(x, frozenset()) | ys
        one = self.one()
        units = [r.lhs for r in new if r.rhs.__class__ is Element and r.rhs == one]
        self._inverses |= {p for lhs in units if self._rhs.get(lhs[::-1]) == one
                           for p in (lhs, lhs[::-1])}

    def _extended(self, letters, rules: list[Rule]) -> "ReductionSystem":
        """This system with letters appended and rules added after its own:
        the parent's rules, tables and index are reused, and only the new
        rules are validated, entered in the twist table and indexed."""
        ext = ReductionSystem.__new__(ReductionSystem)
        ext.group, ext.ring, ext.letters, ext._certified = self.group, self.ring, self.letters, False
        ext.rules, ext._rhs, ext._pos = list(self.rules), dict(self._rhs), dict(self._pos)
        ext._twists = dict(self._twists)
        ext._loose_first, ext._loose_second = dict(self._loose_first), dict(self._loose_second)
        ext._degrees, ext._inverses, ext._by_construction = {}, self._inverses, frozenset()
        ext._remainders, ext._base = {}, self._base or self
        ext._grow(letters, rules)
        return ext

    # -- construction helpers -------------------------------------------------

    def _validate_rule(self, lhs: Word, words):
        if len(lhs) != 2:
            raise RuleError(f"rule left-hand side {lhs} is not two letters")
        if lhs in self._rhs:
            raise RuleError(f"duplicate leading word {lhs}")
        key = deglex_key(lhs)
        for w in words:
            if deglex_key(w) >= key:
                raise RuleError(f"rule does not decrease deglex order: {lhs} -> {w}")

    def index(self, name: str) -> int:
        try:
            return self.letters.index(name)
        except ValueError:
            raise InverseError(f"unknown generator {name!r}") from None

    def word(self, *names: str) -> Element:
        return Element.from_word(self.ring, tuple(self.index(n) for n in names))

    def one(self) -> Element:
        return Element.from_word(self.ring, ())

    @property
    def certified(self) -> bool:
        return self._certified

    @property
    def twists(self) -> dict[Word, tuple]:
        """The twist table: (u, h) -> the degree of mu per rule u h -> mu h u."""
        return self._twists

    def right_side(self, lhs: Word) -> Element:
        """The right side of the rule on ``lhs``.  A twist stated by its
        degree gets its ``Element`` here, on first use, and keeps it."""
        rhs = self._rhs[lhs]
        if rhs.__class__ is tuple:
            rhs = self._rhs[lhs] = Element.of_terms(
                self.ring, {lhs[::-1]: Coeff.of_degree(self.ring, rhs)})
        return rhs

    # -- reduction -------------------------------------------------------------

    def _reduced(self, terms: dict) -> Element:
        """The reduction of the non-zero terms, with no reduction when every
        word is irreducible: distinct irreducible words are already reduced."""
        if all(map(self.irreducible, terms)):
            return Element.of_terms(self.ring, terms)
        return self._reduce_terms(terms)

    def _reduce_terms(self, terms: dict) -> Element:
        """Reduce the sum of the non-zero terms in ``terms``.

        The deglex-largest word goes first and is rewritten at its leftmost
        redex, so the result is a linear function of the input on any
        system, certified or not.  Pending words wait in buckets by length:
        no rule lengthens a word, so the largest one is the plain tuple
        maximum of the longest non-empty bucket.
        """
        rhs_of = self._rhs
        one = Coeff.one(self.ring).num
        buckets: list[dict] = [{} for _ in range(max(map(len, terms), default=0) + 1)]
        for w, c in terms.items():
            buckets[len(w)][w] = c
        done: dict = {}
        for pending in reversed(buckets):
            while pending:
                if len(pending) == 1:
                    w, c = pending.popitem()
                else:
                    w = max(pending)
                    c = pending.pop(w)
                for pos in range(len(w) - 1):
                    rhs = rhs_of.get((w[pos], w[pos + 1]))
                    if rhs is not None:
                        break
                else:
                    # Words leave in decreasing order, so w is new here.
                    done[w] = c
                    continue
                if rhs.__class__ is tuple:
                    rhs = self.right_side(w[pos:pos + 2])
                pre, post = w[:pos], w[pos + 2:]
                for rw, rc in rhs.terms.items():
                    # Many rule coefficients are 1 (inverse pairs, commuting
                    # letters): the product is c itself.
                    v = pre + rw + post
                    _add_term(buckets[len(v)], v,
                              c if rc.num == one and not rc.den else c.mul(rc))
        return Element.of_terms(self.ring, done)

    def irreducible(self, w: Word) -> bool:
        """Whether no rule applies at any pair of adjacent letters of w."""
        return not any(pair in self._rhs for pair in zip(w, w[1:]))

    def normal_form(self, el: Element) -> Element:
        """The normal form; a sum of irreducible words is its own (``_reduced``)."""
        if not self._certified:
            raise NotCertifiedError("confluence has not been certified for this system")
        return self._reduced(el.terms)

    def format_word(self, w: Word) -> str:
        """The word as space-separated letter names."""
        return " ".join(self.letters[i] for i in w)

    def multiply(self, a: Element, b: Element) -> Element:
        return self.normal_form(a.concat(b))

    # -- confluence -------------------------------------------------------------

    def check_confluence(self, known: int = 0) -> Confluent | Failing:
        """Resolve every ambiguity: left sides are two letters, none
        repeated, so these are the overlaps u v w of left sides u v and v w.

        An extension by an inverse g^-1 (``_conjugated``) settles these
        overlaps by construction, before any degree check: g g^-1 h,
        g^-1 g h, h g g^-1, h g^-1 g, g g^-1 g and g^-1 g g^-1, where the
        rules of the pairs of g and g^-1 with h come from the twist
        g h = mu h g + c g of the same step.  Proof, for h before g: the
        sides of g g^-1 h are h and mu^-1 g h g^-1 - mu^-1 c g g^-1, and
        g h -> mu h g + c g, then g g^-1 -> 1, reduces the latter to
        h + mu^-1 c - mu^-1 c = h; g^-1 g h has the sides h and
        mu g^-1 h g + c g^-1 g, which g^-1 h -> mu^-1 h g^-1 - mu^-1 c g^-1
        and g^-1 g -> 1 reduce to h - c + c = h.  For h after g^-1 the rule
        h g -> mu^-1 g h - mu^-1 c g and h g^-1 -> mu g^-1 h + c g^-1 reduce
        h g g^-1 and h g^-1 g alike, and g g^-1 g, g^-1 g g^-1 have equal
        one-step results.  Overlaps that reduce to a common result are
        resolvable (Bergman, loc. cit.).  Inverse pairs of earlier
        extensions go through the degree criterion, like any other rule.

        Degrees settle an overlap u v w, read on either side (``_graded``):
        on the left x = u moves right through p = v w, on the right x = w
        moves left through p = u v.  The twist table holds the rules of x
        with both letters of p, in the overlap's order (u v and u w, or
        u w and v w), and nu is the degree of x on p: x p = nu p x on the
        left; on the right p x = nu x p, so nu is the inverse of the left
        reading (``_word_degree``).  The degree of x on a word t of the
        rule p -> sum c_t t reads each pair of x with a letter of t either
        way round, and x and its inverse partner twist by 1.  Words of
        degree nu need nothing more; the rest must hold a word with no
        degree and leave a remainder f that reduces to zero, with
        f = sum_rest c_t (x t - nu t x) on the left and
        f = sum_rest c_t (t x - nu x t) on the right.  Then the overlap is
        resolvable relative to <= (Bergman, Thm 1.2; an Ore extension by a
        graded automorphism, Goodearl and Warfield, ch. 2).  Proof, on the
        left: the rules u v, u w and p take one side through v u w and
        v w u to nu sum c_t t u; the other is sum c_t u t, and moving u
        through a word t = h h' by the rules of its pairs (twists either way
        round, or u h -> 1 <- h u) passes u t, h u h' and t u, where t < v w
        gives h <= v < u.  Every word met is below u v w, so modulo
        I_{<uvw} the sides differ by f, whose words are below u v w too;
        reduction never goes above the words it starts from, so an f that
        reduces to zero is in I_{<uvw}.  Reversing every word maps u v w to
        w v u and the algebra to its opposite, where the right reading
        becomes the left one; its words are below u v w as well: u w v,
        w u v, w t, h w h' (h <= u and w < v) and t w.  This settles the
        identification overlaps u v w of a localization, whose rule v w
        holds the new letter Z above u, and those Z'^-1 v w whose rule holds
        the earlier letter Z'.  A remainder is reduced once per side, x, nu
        and rest terms (with their coefficients' numerators and
        denominators), and remembered with its nu, keyed by the rest, when
        it vanishes: its words are below every overlap that leaves it.  The
        side must be in the key, since the right remainder for nu is -nu
        times the left one for nu^-1.  A vanished right remainder is also
        the identity sum_rest c_t (t x - nu x t) = 0 that
        ``commutation_with_generators`` reads.  A remainder whose words all
        have degrees has never vanished: it is not tried, and the overlap
        is reduced.  An extension starts with an empty memo: a remainder of
        one of its new overlaps holds a new letter, as x or in a word of the
        new rule.

        Identification: in an extension by ``adjoin_inverse`` of a normal
        nf = c a b + tail, whose rule l: a b -> c^-1 (Z - tail) is new and
        whose letter Z has the rules Z h -> mu_h h Z with nf h = mu_h h nf
        in the parent, an overlap u a b with a parent rule u a and
        a b u < u a b, or a b w with a parent rule b w and w a b < a b w, is
        settled by construction.  ``commutation_with_generators`` proves
        nf h = mu_h h nf in the parent, or, for a letter h of the base the
        parent grew from and the element el written in base letters,
        el h = mu_h h el in the base; every rule of the base is a rule of
        the parent, so mapping each letter to itself is a homomorphism
        base -> parent, which carries the identity to the parent, where
        el = nf.  Proof, for u a b: E = nf u - mu_u u nf
        is zero in the parent, and u a b is its largest word (the tail words
        t are below a b, and a b u < u a b puts t u below u a b).  E minus
        one rewrite of u a b by the rule u a,
        E1 = c a b u + tail u - mu_u c r_ua b - mu_u u tail, has all its
        words below u a b and, the parent being confluent, reduces to zero
        there: E1 lies in I_{<uab}.  Modulo E1, c times the difference of
        the sides, c r_ua b - u (Z - tail), is mu_u^-1 (c a b + tail) u - u Z,
        which l at a b u and Z u -> mu_u u Z take to zero; c is a unit.  For
        a b w the same holds with E = mu_w w nf - nf w, the rule b w at
        a b w (the leftmost redex: a b is irreducible in the parent), and l
        at w a b.

        An overlap whose pairs (u, v), (v, w) and (u, w) are all in the table
        is settled on the left (v w -> mu w v has one word, of degree nu),
        so only the others are visited: each has a loose pair, and
        ``_candidates`` reads them off the loose-pair index.
        Any other ambiguity, with one-step results a and b, is resolved by
        reducing a - b once: reduction is linear on any system, so that is
        zero exactly when a and b have the same normal form (an a - b that
        cancels term by term is zero unreduced).  ``known``
        counts leading rules that already form a certified system;
        ambiguities among them stay resolvable once rules are added
        (Bergman), so they are skipped.

        A twist rule stated by its degree needs no right side for any of
        this: the degree criterion settles its overlaps from the table, and
        its right side is built on first use, by a reduction or a one-step
        result (``right_side``).

        On a failure every ambiguity of the full scan (``_candidates`` with
        ``full``) is reduced again, since a settled overlap may reduce to
        non-zero on a system that is not confluent: the Failing witness is
        the first ambiguity whose sides have different normal forms, with
        both.  ``certify`` gives the verdict alone.
        """
        if self.certify(known):
            return Confluent()
        word, a, b = next(self._unresolved(self._candidates(0, full=True)))
        return Failing(word, self._reduce_terms(a.terms), self._reduce_terms(b.terms))

    def certify(self, known: int = 0) -> bool:
        """Whether every ambiguity resolves, with no witness: the first pass
        of ``check_confluence``, which certifies the system when it does."""
        confluent = next(self._unresolved(self._unsettled(known)), None) is None
        self._certified |= confluent
        return confluent

    def _unsettled(self, known: int):
        """The candidate overlaps from ``known`` that neither the
        construction nor the degree criterion, on either side, settles, as
        (u v w, right side of u v, of v w), each as its rule states it."""
        return ((word, rhs1, rhs2) for word, rhs1, rhs2 in self._candidates(known)
                if not (word in self._by_construction or self._graded(word, rhs2, True)
                        or self._graded(word, rhs1, False)))

    def _unresolved(self, overlaps):
        """Each of the overlaps as (word, a, b) whose one-step results a and
        b reduce differently."""
        for word, _, _ in overlaps:
            a, b = self._one_step(word)
            if self._reduced(a.sub(b).terms).terms:
                yield word, a, b

    def _graded(self, word: Word, rhs: Element | tuple, left: bool) -> bool:
        """Whether degrees settle the overlap u v w, moving x = u through the
        right side rhs of the rule v w on the left, x = w through that of
        u v on the right (see ``check_confluence``); a twist's degree stands
        for its right side."""
        # x twists both letters of p = v w or u v: by u w and by the overlap's
        # other rule, u v on the left and v w on the right.
        x, p, other = (word[0], word[1:], word[:2]) if left else (word[2], word[:2], word[1:])
        if word[::2] not in self._twists or other not in self._twists:
            return False
        if rhs.__class__ is tuple:  # one word, p turned round: of degree nu
            return True
        nu = self._word_degree(x, p)
        rest = [(t, c) for t, c in rhs.terms.items() if self._word_degree(x, t) != nu]
        # A remainder with a degree on every word has never vanished.
        return not rest or (any(self._word_degree(x, t) is None for t, _ in rest)
                            and self._remainder_vanishes(
                                x, nu if left else self.group.inverse_degree(nu), rest, left))

    def _remainder_vanishes(self, x: int, nu: tuple, rest: list, left: bool) -> bool:
        """Whether the remainder f of the terms (t, c_t) of ``rest`` on this
        side, with x t = nu t x on the left and t x = nu x t on the right,
        reduces to zero (see ``check_confluence``); memoized on success."""
        key = (left, x, _terms_key(rest))
        if self._remainders.get(key) != nu:
            xs, r = Element.from_word(self.ring, (x,)), Element(self.ring, dict(rest))
            a, b = (xs, r) if left else (r, xs)  # f = a b - nu b a
            f = a.concat(b).sub(b.concat(a).scale(Coeff.of_degree(self.ring, nu)))
            if self._reduce_terms(f.terms).terms:
                return False
            self._remainders[key] = nu
        return True

    def _word_degree(self, x: int, t: Word) -> tuple | None:
        """The degree nu with x t = nu t x (so t x = nu^-1 x t), or None:
        the sum of the twist degrees of x and each letter of t, read either
        way round (negated when turned), torsion mod e; x twists itself and
        its inverse partner by 1.  Memoized, since the table is fixed."""
        d = self._degrees.get((x, t), False)
        if d is False:
            d = self._degrees[x, t] = self._sum_degrees(x, t)
        return d

    def _sum_degrees(self, x: int, t: Word) -> tuple | None:
        tw, total = self._twists, None
        for h in t:
            if h == x or (x, h) in self._inverses:
                continue
            if (d := tw.get((h, x) if h > x else (x, h))) is None:
                return None
            if h > x:  # turned round: h x -> mu x h gives x h = mu^-1 h x
                d = tuple(map(neg, d))
            total = d if total is None else tuple(map(add, total, d))
        if total is None:
            return (0,) * (1 + self.group.rank)
        return (total[0] % self.group.torsion_order, *total[1:])

    def exchange_degree(self, u: Word, t: Word) -> tuple | None:
        """The degree nu with u t = nu t u in the algebra: the sum over the
        letters h of u of the degree of h on t (``_word_degree``), torsion
        mod e, or None when one has none."""
        total = (0,) * (1 + self.group.rank)
        for h in u:
            if (d := self._word_degree(h, t)) is None:
                return None
            total = tuple(map(add, total, d))
        return (total[0] % self.group.torsion_order, *total[1:])

    def _candidates(self, known: int, full: bool = False):
        """The overlaps u v w of left sides u v (rule r1) and v w (rule r2)
        with r1 or r2 from ``known``, as (u v w, right side of r1, of r2),
        ordered by the index of r1, then of r2, that have a loose pair among
        (u, v), (v, w) and (u, w), read off the loose-pair index.  A twist
        rule u v meets v w only with v w or u w loose; a twist rule v w
        meets u v only with u v or u w loose (both twists force u > v > w,
        so u w is descending); a loose rule meets every rule.  ``full``
        reads every rule as loose, which gives every such overlap: the
        scan that the Failing witness takes."""
        rules, pos, tw = self.rules, self._pos, self._twists
        first, second = self._loose_first, self._loose_second
        none = frozenset()
        found = set()
        for k in range(known, len(rules)):
            a, b = lhs = rules[k].lhs
            if lhs in tw and not full:
                ws = first.get(b, none) | first.get(a, none)
                us = second.get(a, none) | second.get(b, none)
            else:
                ws = us = range(len(self.letters))
            for w in ws:
                j = pos.get((b, w))
                if j is not None:
                    found.add((k, j))
            for u in us:
                i = pos.get((u, a))
                if i is not None:
                    found.add((i, k))
        for i, j in sorted(found):
            r1, r2 = rules[i], rules[j]
            yield (*r1.lhs, r2.lhs[1]), r1.rhs, r2.rhs

    def _one_step(self, word: Word) -> tuple[Element, Element]:
        """The one-step results rhs1 w and u rhs2 of the overlap u v w, with
        rhs1 and rhs2 the right sides of u v and v w."""
        u, _, w = word
        rhs1, rhs2 = self.right_side(word[:2]), self.right_side(word[1:])
        return (Element.of_terms(self.ring, {t + (w,): c for t, c in rhs1.terms.items()}),
                Element.of_terms(self.ring, {(u,) + t: c for t, c in rhs2.terms.items()}))

    # -- normality and localization ---------------------------------------------

    def commutation_with_generators(self, el: Element) -> dict[str, Scalar] | None:
        """Per-letter scalars mu with el*g = mu*g*el, or None if not scalar-normal.

        Every letter is covered, inverse letters included, in letter order.
        An inverse letter g^-1 (after g, with g g^-1 -> 1 and g^-1 g -> 1)
        gets the inverse of g's scalar: g el = mu^-1 el g conjugates to
        el g^-1 = mu^-1 g^-1 el.  Another letter g reads mu off degrees
        when it can, with the normal form nf: (a) g twisted either way
        round against every letter of nf, with one degree nu over its
        words, has g nf = nu nf g, so mu = nu^-1; (b) a right-side
        remainder of g that certification reduced to zero, with the rest
        terms sum c_t t and its nu (see ``check_confluence``), gives
        sum c_t (t g - nu g t) = 0, and when the words of nf outside those
        terms are none, or exactly its words of degree nu^-1, which satisfy
        t g = nu g t, then nf g = nu g nf, so mu = nu.  Either way mu holds
        once nf g is known to be non-zero.  That needs no reduction when
        no rule has the left side g g, nor an ascending pair of g with a
        letter of nf, and each descending pair that g passes from one side
        has a twist rule: the letters above g from the right, those below
        it from the left.  Proof, from the right: a word t of nf is
        irreducible, so reducing t g only moves g to the left past letters
        above g, by their twist rules, and stops before the first letter
        with no rule before g; neither pair beside g then has a rule.  So
        t g reduces to a unit times t with g inserted, and t is read back
        off that word (g sits before its longest suffix of letters above
        g): the terms of nf g go to distinct words and cannot cancel.  From
        the left the same holds for g nf = mu^-1 nf g.  Otherwise nf g is
        reduced and must be non-zero.  A letter with neither takes nf g and
        g nf apart; mu is read off a word whose coefficients in both are
        scalar-group elements, as the difference of their degrees, and
        otherwise as the ratio of the coefficients at the first word.
        Either way nf g = mu g nf is then checked on every term, so the
        scalar does not depend on the word it was read off.  A product
        whose words are all irreducible is not reduced (``_reduced``).

        In an extension, and for el written in letters of the base that the
        extension grew from, a base letter that neither (a) nor (b) settles
        on nf takes mu from the base, by (a), (b) or the two products there
        on el (a degree or a proof holds for any words, and z_i of a quantum
        Weyl base is its own normal form): every rule of the base is a rule
        of the extension, so el g = mu g el holds there too (see
        ``check_confluence``), and only nf g != 0 is shown in the extension.
        The base's certification has proved most of these identities: the
        overlaps x_(i+1) y_(i+1) g of a quantum Weyl base leave, on the
        right, the remainder of z_i for each letter g of a quantum index up
        to i.  A letter that the base refuses takes the two products in the
        extension, since base -> extension need not be injective.
        """
        degrees = self._commutation(self.normal_form(el), el)
        return None if degrees is None else {name: self.group.scalar(d[0], d[1:])
                                              for name, d in zip(self.letters, degrees)}

    def _commutation(self, nf: Element, el: Element) -> list[tuple] | None:
        """The degrees of the scalars of ``commutation_with_generators`` for
        the normal form nf of el, in letter order."""
        if nf.is_zero():
            return None
        base, inverse = self._base or self, self.group.inverse_degree
        if any(h >= len(base.letters) for t in el.terms for h in t):
            base = self
        bnf = nf if base is self else el  # degrees and proofs hold for any words
        terms, nf_letters = nf.terms.items(), {h for t in nf.terms for h in t}
        out: list[tuple] = []
        for g in range(len(self.letters)):
            if (g - 1, g) in self._inverses:
                out.append(inverse(out[-1]))
                continue
            src, snf = (base, bnf) if g < len(base.letters) else (self, nf)
            if (mu := self._proven_degree(g, nf)) is None and src is not self:
                mu = src._proven_degree(g, snf)
            if mu is None:
                mu = src._product_degree(g, snf)
                if mu is None and src is not self:  # the base may refuse what self accepts
                    src, mu = self, self._product_degree(g, nf)
                if mu is None:
                    return None
                if src is self:  # nf g was reduced, and is non-zero
                    out.append(mu)
                    continue
            if not (self._moves_through(g, nf_letters) or self._moves_through(g, nf_letters, False)
                    or self._reduced({t + (g,): c for t, c in terms}).terms):
                return None
            out.append(mu)
        return out

    def _proven_degree(self, g: int, nf: Element) -> tuple | None:
        """The degree of mu with nf g = mu g nf from the degrees of g on the
        words of nf: one degree d gives d^-1, and so does a class of degree d
        whose complement is a remainder of g proven on the right for d^-1;
        otherwise None (see ``commutation_with_generators``)."""
        inverse = self.group.inverse_degree
        degree = {t: self._word_degree(g, t) for t in nf.terms}
        classes = set(degree.values())
        if len(classes) == 1 and None not in classes:
            return inverse(classes.pop())
        # The words outside the remainder: none (False), or one class d.
        for d in {False} | classes - {None}:
            mu = self._remainders.get((False, g, _terms_key(
                (t, c) for t, c in nf.terms.items() if degree[t] != d)))
            if mu is not None and (d is False or mu == inverse(d)):
                return mu
        return None

    def _product_degree(self, g: int, nf: Element) -> tuple | None:
        """The degree of mu with nf g = mu g nf != 0 from the two reduced
        products, or None (see ``commutation_with_generators``)."""
        e, terms = self.group.torsion_order, nf.terms.items()
        a = self._reduced({t + (g,): c for t, c in terms})
        if not a.terms:
            return None
        b = self._reduced({(g,) + t: c for t, c in terms})
        if a.terms.keys() != b.terms.keys():
            return None
        mu = next((((da[0] - db[0]) % e, *map(sub, da[1:], db[1:]))
                   for w, c in a.terms.items() if (da := coeff_degree(c)) is not None
                   and (db := coeff_degree(b.terms[w])) is not None), None)
        if mu is None:
            w0 = next(iter(a.terms))
            mu = coeff_degree(a.terms[w0].mul(b.terms[w0].inv()))
        return None if mu is None or a != b.scale(Coeff.of_degree(self.ring, mu)) else mu

    def _moves_through(self, g: int, letters: set, right: bool = True) -> bool:
        """Whether no rule has the left side g g, nor an ascending pair of g
        with one of the letters, and the rule of each descending pair that g
        passes is a twist: from the right of a word g passes the letters above
        it, from the left those below it (see ``commutation_with_generators``)."""
        rhs, tw = self._rhs, self._twists
        return (g, g) not in rhs and not any(
            ((h, g) if h < g else (g, h)) in rhs
            or (h > g) == right and (p := (max(g, h), min(g, h))) in rhs and p not in tw
            for h in letters - {g})

    def adjoin_inverse(self, el: Element, label: str) -> tuple["ReductionSystem", str]:
        """Extend the system with letters Z, Z^-1 representing a scalar-normal
        element and its inverse.

        Z genuinely equals the element: the identification rule rewrites the
        element's leading word into Z minus the tail, so the ordered basis of
        the localization replaces that word by Z powers.  Z twists every
        letter by the element's scalars, and Z^-1 gets the rules conjugated
        from those twists, as an inverted generator does; both letters are
        appended in one extension, certified once from the parent's rules.
        The scalars stay degrees (``_commutation``), which state Z's and
        Z^-1's twist rules; each becomes a coefficient in its rule.  In an
        extension, a letter of the base whose degrees over nf do not give
        its scalar takes it from the base, most often off a remainder that
        the base's certification proved (see
        ``commutation_with_generators``).
        The overlaps of the identification rule a b with a parent rule u a
        (when a b u < u a b) or b w (when w a b < a b w) are settled by
        construction from the element's normality scalars, which Z's rules
        carry (proof in ``check_confluence``).
        A plain generator gets only the inverse letter.
        """
        nf = self.normal_form(el)
        degrees = self._commutation(nf, el)
        if degrees is None:
            raise NotNormalError("element does not commute with every generator "
                                 "up to a scalar")
        ring = self.ring
        lead = nf.leading_word()
        if len(nf.terms) == 1 and len(lead) == 1:
            if nf.terms[lead] != Coeff.one(ring):
                raise NotNormalError("inverse of a scaled generator: invert the "
                                     "generator itself instead")
            return self.invert_generator(self.letters[lead[0]], label)
        if len(lead) != 2:
            raise NotNormalError("cannot invert an element whose leading word "
                                 "is not two letters unless it is a plain generator")
        z = len(self.letters)
        rules = [Rule((z, h), d) for h, d in enumerate(degrees)]
        # Identification: lead -> c_lead^{-1} (Z - tail).
        tail = Element(ring, {w: c for w, c in nf.terms.items() if w != lead})
        z_minus_tail = Element.from_word(ring, (z,)).sub(tail)
        rules.append(Rule(lead, z_minus_tail.scale(nf.terms[lead].inv())))
        z_label = label[:-3] if label.endswith("^-1") else label + "~"
        zero = Coeff.zero(ring)
        inv_rules = self._conjugated(z, [(h, d, zero) for h, d in enumerate(degrees)])
        # Identification overlaps u a b and a b w with a parent rule, under
        # the order conditions of the lemma in ``check_confluence``.
        a, b = lead
        parent = self._rhs
        words = {(u, a, b) for u in range(z) if (u, a) in parent and (a, b, u) < (u, a, b)}
        words |= {(a, b, w) for w in range(z) if (b, w) in parent and (w, a, b) < (a, b, w)}
        ext = self._extended((z_label, label), rules + inv_rules)
        return ext._certified_inverse(z, len(self.rules), words), label

    def invert_generator(self, name: str, label: str | None = None) -> tuple["ReductionSystem", str]:
        """Adjoin the inverse of a normal generator: every relation of it is
        a twist (see ``twist``) and it occurs in no identification rule.

        The letter g^-1 goes right after g, every later letter moves up by
        one, and the system is built afresh."""
        if not self._certified:
            raise NotCertifiedError("confluence has not been certified for this system")
        g, one = self.index(name), self.one()
        if any(g in r.lhs and r.rhs == one for r in self.rules):
            raise InverseError(f"{name!r} already inverted")
        # Beside g g^-1 and g^-1 g, only identification rules have a left
        # side that is not strictly descending.
        if any(g in r.lhs and r.lhs[0] <= r.lhs[1] and r.rhs != one for r in self.rules):
            raise NotNormalError(f"cannot invert {name!r}: it occurs in a "
                                 f"localization identification")
        label = label or f"{name}^-1"
        twists = []
        for h, other in enumerate(self.letters):
            if h == g:
                continue
            tw = self.twist(g, h)
            if tw is None:
                raise NotNormalError(f"cannot invert {name!r}: relation "
                                     f"with {other!r} is not a twist")
            twists.append((h + (h > g), *tw))
        rules = self._conjugated(g, twists)

        def shift(w: Word) -> Word:
            return tuple(i + (i > g) for i in w)

        # The parent's twist rules are restated by their table degrees.
        old = [Rule(shift(r.lhs), self._twists.get(r.lhs) or Element(
                   self.ring, {shift(w): c for w, c in r.rhs.terms.items()})) for r in self.rules]
        letters = self.letters[:g + 1] + (label,) + self.letters[g + 1:]
        ext = ReductionSystem(self.group, letters, old + rules)
        return ext._certified_inverse(g, len(self.rules)), label

    def _conjugated(self, g: int, twists) -> list[Rule]:
        """The rules of the letter g^-1 = g + 1 of an extension, from the
        twists (h, d, c) of g, one per other letter h of the extension:
        g h = mu h g + c g with mu of degree d.

        Beside g g^-1 -> 1 and g^-1 g -> 1, each twist is conjugated by
        g^-1, h g^-1 = mu g^-1 h + c g^-1, and oriented by the letter order;
        c = 0 (every letter of an adjoined Z) needs no coefficient product,
        and its rule is stated by the degree of its scalar.
        """
        ring, inv = self.ring, g + 1
        rules = [Rule((g, inv), self.one()), Rule((inv, g), self.one())]
        for h, d, c in twists:
            if h < inv:  # g^-1 h = mu^-1 h g^-1 - mu^-1 c g^-1
                d = self.group.inverse_degree(d)
                c = c if c.is_zero() else Coeff.of_degree(ring, d).mul(c).neg()
            lhs = (h, inv) if h > inv else (inv, h)
            rules.append(Rule(lhs, d if c.is_zero() else Element(
                ring, {lhs[::-1]: Coeff.of_degree(ring, d), (inv,): c})))
        return rules

    def _certified_inverse(self, g: int, known: int,
                           identified: set = frozenset()) -> "ReductionSystem":
        """Certify this extension by the inverse g^-1 = g + 1, whose rules
        came from ``_conjugated``; the first ``known`` rules form a certified
        system.  The overlaps of g g^-1 and g^-1 g with the rules of g and
        g^-1, and the ``identified`` overlaps of an identification rule, are
        settled by construction (see ``check_confluence``)."""
        inv = g + 1
        words = {(g, inv, g), (inv, g, inv)} | identified
        for h in range(len(self.letters)):
            if h < g:
                words |= {(g, inv, h), (inv, g, h)}
            elif h > inv:
                words |= {(h, g, inv), (h, inv, g)}
        self._by_construction = frozenset(words)
        verdict = self.check_confluence(known)
        if isinstance(verdict, Failing):
            raise NotNormalError(f"inversion of {self.letters[g]!r} breaks confluence "
                                 f"at {self.format_word(verdict.word)}")
        return self

    def twist(self, g: int, h: int) -> tuple[tuple, Coeff] | None:
        """(d, c) with g h = mu h g + c g and d the degree of mu, read off
        the rule of the pair, or None.  The rule must be a scalar twist
        (c = 0) or, with mu = 1, have the tail c g with c = 1 or -1: h counts
        g, [h, g] = -c g."""
        d = self._word_degree(g, (h,)) if g != h else None
        if d is not None:
            return d, Coeff.zero(self.ring)
        hi, lo = max(g, h), min(g, h)
        rhs, one = self._rhs.get((hi, lo)), Coeff.one(self.ring)
        if rhs is None or len(rhs.terms) != 2 or rhs.terms.get((lo, hi)) != one:
            return None
        c = rhs.terms.get((g,))  # hi lo = lo hi + c g; with g earlier, h g = g h + c g
        if c is None or c not in (one, one.neg()):
            return None
        return (0,) * (1 + self.group.rank), (c if g == hi else c.neg())
