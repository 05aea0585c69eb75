"""Free-algebra reduction systems and diamond-lemma confluence certification.

Words are tuples of letter indices; an element is a finite sum of words with
exact coefficients.  Every rule rewrites its left-hand word to a sum of
words that is strictly smaller in the deglex order (length first, then the
letter order), so reduction always terminates; certified confluence then
makes normal forms canonical and turns the ordered monomials into a basis.

Presentations contribute one quadratic rule per generator pair.
Localization extends a system with an inverse letter: a scalar-normal
element z gets commutation rules for z^-1 plus one identification rule that
rewrites the leading word of z * z^-1 = 1, which is how z^-1 genuinely
inverts z rather than being a free Laurent variable.

An extension is certified incrementally: its rules start with those of the
certified parent, whose ambiguities among themselves stay resolvable when
rules are added (Bergman, The diamond lemma for ring theory, Adv. Math. 29,
1978), so only ambiguities that involve a new rule are resolved again.
"""
from __future__ import annotations

from dataclasses import dataclass

from .cyclo import Coeff, CoeffRing, coeff_to_scalar
from .scalars import Scalar, ScalarGroup

Word = tuple[int, ...]


class RuleError(ValueError):
    """Malformed reduction rule (duplicate leading word, non-decreasing RHS...)."""


class NotNormalError(ValueError):
    """Element is not scalar-normal, so it cannot be inverted."""


class NotCertifiedError(RuntimeError):
    """Normal forms requested before confluence was certified."""


class InverseError(ValueError):
    """A word uses the inverse of a non-invertible generator."""


def deglex_key(w: Word):
    return (len(w), w)


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
    def zero(ring) -> "Element":
        return Element(ring)

    @staticmethod
    def from_word(ring, w: Word, coeff: Coeff | None = None) -> "Element":
        c = coeff if coeff is not None else Coeff.one(ring)
        return Element(ring, {tuple(w): c})

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "Element") -> "Element":
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out[w].add(c) if w in out else c
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
        return Element(self.ring, out)

    def neg(self) -> "Element":
        return Element(self.ring, {w: c.neg() for w, c in self.terms.items()})

    def sub(self, other: "Element") -> "Element":
        return self.add(other.neg())

    def scale(self, coeff: Coeff) -> "Element":
        if coeff.is_zero():
            return Element.zero(self.ring)
        return Element(self.ring, {w: c.mul(coeff) for w, c in self.terms.items()})

    def concat(self, other: "Element") -> "Element":
        """Free (unreduced) product."""
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                c = c1.mul(c2)
                if w in out:
                    c = out[w].add(c)
                if c.is_zero():
                    out.pop(w, None)
                else:
                    out[w] = c
        return Element(self.ring, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(c == other.terms[w] for w, c in self.terms.items())

    def __hash__(self):
        raise TypeError("Element is not hashable")

    def leading_word(self) -> Word:
        return max(self.terms, key=deglex_key)

    def __repr__(self):
        return f"Element({self.terms!r})"


@dataclass(frozen=True)
class Rule:
    lhs: Word
    rhs: Element


@dataclass(frozen=True)
class Confluent:
    pass


@dataclass(frozen=True)
class Failing:
    word: Word
    normal_form_1: Element
    normal_form_2: Element


class ReductionSystem:
    """A terminating reduction system on the free algebra over the letters."""

    def __init__(self, group: ScalarGroup, letters: tuple[str, ...],
                 rules: list[Rule], inverse_of: dict[int, int] | None = None):
        self.group = group
        self.ring = CoeffRing(group)
        self.letters = tuple(letters)
        self.rules = list(rules)
        self.inverse_of = dict(inverse_of or {})
        self._certified = False
        self._by_first: dict[int, list[Rule]] = {}
        for rule in self.rules:
            self._validate_rule(rule)
            self._by_first.setdefault(rule.lhs[0], []).append(rule)

    # -- construction helpers -------------------------------------------------

    def _validate_rule(self, rule: Rule):
        if not rule.lhs:
            raise RuleError("empty rule left-hand side")
        key = deglex_key(rule.lhs)
        for w in rule.rhs.terms:
            if deglex_key(w) >= key:
                raise RuleError(f"rule does not decrease deglex order: {rule.lhs} -> {w}")

    def index(self, name: str) -> int:
        try:
            return self.letters.index(name)
        except ValueError:
            raise InverseError(f"unknown generator {name!r}") from None

    def word(self, *names: str) -> Element:
        return Element.from_word(self.ring, tuple(self.index(n) for n in names))

    def one(self) -> Element:
        return Element.from_word(self.ring, ())

    def gen(self, name: str) -> Element:
        return self.word(name)

    @property
    def certified(self) -> bool:
        return self._certified

    # -- reduction -------------------------------------------------------------

    def _find_redex(self, w: Word):
        for pos in range(len(w)):
            for rule in self._by_first.get(w[pos], ()):
                n = len(rule.lhs)
                if w[pos:pos + n] == rule.lhs:
                    return pos, rule
        return None

    def _reduce(self, el: Element) -> Element:
        pending = dict(el.terms)
        done: dict = {}
        while pending:
            w = max(pending, key=deglex_key)
            c = pending.pop(w)
            if c.is_zero():
                continue
            hit = self._find_redex(w)
            if hit is None:
                if w in done:
                    s = done[w].add(c)
                    if s.is_zero():
                        done.pop(w)
                    else:
                        done[w] = s
                else:
                    done[w] = c
                continue
            pos, rule = hit
            pre, post = w[:pos], w[pos + len(rule.lhs):]
            for rw, rc in rule.rhs.terms.items():
                nw = pre + rw + post
                nc = c.mul(rc)
                if nw in pending:
                    nc = pending[nw].add(nc)
                if nc.is_zero():
                    pending.pop(nw, None)
                else:
                    pending[nw] = nc
        return Element(self.ring, done)

    def normal_form(self, el: Element) -> Element:
        if not self._certified:
            raise NotCertifiedError("confluence has not been certified for this system")
        return self._reduce(el)

    def format_word(self, w: Word) -> str:
        """The word as space-separated letter names."""
        return " ".join(self.letters[i] for i in w)

    def multiply(self, a: Element, b: Element) -> Element:
        return self.normal_form(a.concat(b))

    # -- confluence -------------------------------------------------------------

    def check_confluence(self, known: int = 0) -> Confluent | Failing:
        """Resolve every overlap and inclusion ambiguity of the rules.

        ``known`` counts leading rules that already form a certified system.
        Their ambiguities among themselves stay resolvable once rules are
        added (Bergman, The diamond lemma for ring theory, Adv. Math. 29,
        1978), so only ambiguities involving a later rule are resolved.  On a
        disagreement the full scan runs, so the Failing witness is the one
        a plain call returns.
        """
        for i, r1 in enumerate(self.rules):
            for r2 in self.rules[known if i < known else 0:]:
                l1, l2 = r1.lhs, r2.lhs
                # Overlap ambiguities: a proper suffix of l1 equals a prefix of l2.
                for k in range(1, min(len(l1), len(l2))):
                    if l1[len(l1) - k:] == l2[:k]:
                        word = l1 + l2[k:]
                        a = self._reduce(r1.rhs.concat(Element.from_word(self.ring, l2[k:])))
                        b = self._reduce(Element.from_word(self.ring, l1[:len(l1) - k]).concat(r2.rhs))
                        if a != b:
                            return self.check_confluence() if known else Failing(word, a, b)
                # Inclusion ambiguities: l2 a proper subword of l1.
                if len(l2) < len(l1):
                    for pos in range(len(l1) - len(l2) + 1):
                        if l1[pos:pos + len(l2)] == l2:
                            a = self._reduce(r1.rhs)
                            mid = Element.from_word(self.ring, l1[:pos]).concat(
                                r2.rhs).concat(Element.from_word(self.ring, l1[pos + len(l2):]))
                            b = self._reduce(mid)
                            if a != b:
                                return self.check_confluence() if known else Failing(l1, a, b)
        self._certified = True
        return Confluent()

    # -- normality and localization ---------------------------------------------

    def commutation_with_generators(self, el: Element) -> dict[str, Scalar] | None:
        """Per-letter scalars mu with el*g = mu*g*el, or None if not scalar-normal.

        Every letter is covered, inverse letters included, in letter order.
        """
        if not self._certified:
            raise NotCertifiedError("confluence has not been certified for this system")
        nf = self._reduce(el)
        if nf.is_zero():
            return None
        out: dict[str, Scalar] = {}
        for idx, name in enumerate(self.letters):
            g = Element.from_word(self.ring, (idx,))
            a = self._reduce(nf.concat(g))
            b = self._reduce(g.concat(nf))
            if set(a.terms) != set(b.terms) or not a.terms:
                return None
            w0 = next(iter(a.terms))
            ratio = a.terms[w0].mul(b.terms[w0].inv())
            mu = coeff_to_scalar(ratio)
            if mu is None:
                return None
            if a != b.scale(Coeff.from_scalar(self.ring, mu)):
                return None
            out[name] = mu
        return out

    def adjoin_inverse(self, el: Element, label: str) -> tuple["ReductionSystem", str]:
        """Extend the system with letters Z, Z^-1 representing a scalar-normal
        element and its inverse.

        Z genuinely equals the element: the identification rule rewrites the
        element's leading word into Z minus the tail, so the ordered basis of
        the localization replaces that word by Z powers.  Confluence is
        re-certified and both inverse laws are checked.  A plain generator
        (times a unit) gets only the inverse letter.
        """
        if not self._certified:
            raise NotCertifiedError("confluence has not been certified for this system")
        nf = self._reduce(el)
        twists = self.commutation_with_generators(nf)
        if twists is None:
            raise NotNormalError("element does not commute with every generator "
                                 "up to a scalar")
        ring = self.ring
        if len(nf.terms) == 1 and len(nf.leading_word()) == 1:
            # Plain generator: no identification letter needed.
            (w0, c0), = nf.terms.items()
            if c0 != Coeff.one(ring):
                raise NotNormalError("inverse of a scaled generator: invert the "
                                     "generator itself instead")
            return self.invert_generator(self.letters[w0[0]], label)

        lead = nf.leading_word()
        if len(lead) < 2:
            raise NotNormalError("cannot invert an element whose leading word "
                                 "is a single letter unless it is a plain generator")
        z_idx = len(self.letters)
        zinv_idx = z_idx + 1
        z_label = label[:-3] if label.endswith("^-1") else label + "~"
        letters = self.letters + (z_label, label)
        rules = list(self.rules)
        for idx, mu in enumerate(twists.values()):
            rules.append(Rule((z_idx, idx),
                              Element.from_word(ring, (idx, z_idx),
                                                Coeff.from_scalar(ring, mu))))
            rules.append(Rule((zinv_idx, idx),
                              Element.from_word(ring, (idx, zinv_idx),
                                                Coeff.from_scalar(ring, mu.inv()))))
        one = Element.from_word(ring, ())
        rules.append(Rule((z_idx, zinv_idx), one))
        rules.append(Rule((zinv_idx, z_idx), one))
        # Identification: lead -> c_lead^{-1} (Z - tail).
        c_lead = nf.terms[lead]
        tail = Element(ring, {w: c for w, c in nf.terms.items() if w != lead})
        rhs = Element.from_word(ring, (z_idx,)).sub(tail).scale(c_lead.inv())
        rules.append(Rule(lead, rhs))
        inverse_of = dict(self.inverse_of)
        inverse_of[zinv_idx] = z_idx
        inverse_of[z_idx] = zinv_idx
        ext = ReductionSystem(self.group, letters, rules, inverse_of)
        verdict = ext.check_confluence(known=len(self.rules))
        if isinstance(verdict, Failing):
            raise NotNormalError(f"localized system is not confluent at "
                                 f"{ext.format_word(verdict.word)}")
        inv_letter = Element.from_word(ring, (zinv_idx,))
        lifted = Element(ring, dict(nf.terms))
        if ext._reduce(inv_letter.concat(lifted)) != ext.one() or \
                ext._reduce(lifted.concat(inv_letter)) != ext.one():
            raise NotNormalError("inverse laws failed in the localized system")
        return ext, label

    def invert_generator(self, name: str, label: str | None = None) -> tuple["ReductionSystem", str]:
        """Adjoin the inverse of a generator, inserted right after it in the
        letter order so that sorted words bring cancelling pairs together.

        Allowed for generators all of whose relations are scalar twists, and
        for generators scaled by a derivation-counting partner ([w, g] = g),
        which stay normal with an affine twist.
        """
        if not self._certified:
            raise NotCertifiedError("confluence has not been certified for this system")
        gidx = self.index(name)
        if gidx in self.inverse_of:
            raise InverseError(f"{name!r} already inverted")
        for rule in self.rules:
            if len(rule.lhs) != 2 and gidx in rule.lhs:
                raise NotNormalError(f"cannot invert {name!r}: it occurs in a "
                                     f"localization identification")
        forms = {}
        for idx in range(len(self.letters)):
            if idx == gidx:
                continue
            rel = self.pair_rule_form(gidx, idx)
            if rel is None:
                raise NotNormalError(f"cannot invert {name!r}: relation with "
                                     f"{self.letters[idx]!r} is not a twist")
            forms[idx] = rel
        label = label or f"{name}^-1"
        ring = self.ring
        inv_idx = gidx + 1

        def remap(idx: int) -> int:
            return idx if idx <= gidx else idx + 1

        def remap_word(w: Word) -> Word:
            return tuple(remap(i) for i in w)

        def remap_el(el: Element) -> Element:
            return Element(ring, {remap_word(w): c for w, c in el.terms.items()})

        letters = self.letters[: gidx + 1] + (label,) + self.letters[gidx + 1:]
        rules = [Rule(remap_word(r.lhs), remap_el(r.rhs)) for r in self.rules]
        one_el = Element.from_word(ring, ())
        rules.append(Rule((gidx, inv_idx), one_el))
        rules.append(Rule((inv_idx, gidx), one_el))
        one = Coeff.one(ring)
        for idx, (kind, mu) in forms.items():
            h = remap(idx)
            if kind == "scalar":
                if h > inv_idx:  # h * ginv = mu * ginv * h
                    rules.append(Rule((h, inv_idx),
                                      Element(ring, {(inv_idx, h):
                                                     Coeff.from_scalar(ring, mu)})))
                else:            # ginv * h = mu^{-1} * h * ginv
                    rules.append(Rule((inv_idx, h),
                                      Element(ring, {(h, inv_idx):
                                                     Coeff.from_scalar(ring, mu.inv())})))
            else:  # the partner counts g: [h, g] = g, so ginv*h = h*ginv + ginv
                if h > inv_idx:
                    rules.append(Rule((h, inv_idx),
                                      Element(ring, {(inv_idx, h): one,
                                                     (inv_idx,): Coeff.from_rational(ring, -1)})))
                else:
                    rules.append(Rule((inv_idx, h),
                                      Element(ring, {(h, inv_idx): one,
                                                     (inv_idx,): one})))
        inverse_of = {remap(a): remap(b) for a, b in self.inverse_of.items()}
        inverse_of[inv_idx] = gidx
        inverse_of[gidx] = inv_idx
        ext = ReductionSystem(self.group, letters, rules, inverse_of)
        verdict = ext.check_confluence(known=len(self.rules))
        if isinstance(verdict, Failing):
            raise NotNormalError(f"inversion of {name!r} breaks confluence at "
                                 f"{ext.format_word(verdict.word)}")
        return ext, label

    def pair_rule_form(self, gidx: int, idx: int):
        """Classify the relation between two letters from the stored rule.

        Returns ("scalar", mu) when g*h = mu*h*g, ("euler", None) when
        [h, g] = g, and None otherwise.  mu is oriented so that
        g * h = mu * h * g.
        """
        hi, lo = max(gidx, idx), min(gidx, idx)
        rule = next((r for r in self.rules if r.lhs == (hi, lo)), None)
        if rule is None:
            return None
        terms = rule.rhs.terms
        quad = terms.get((lo, hi))
        if quad is None:
            return None
        mu_hi_lo = coeff_to_scalar(quad)  # hi*lo = mu_hi_lo * lo*hi + tail
        if mu_hi_lo is None:
            return None
        tail = {w: c for w, c in terms.items() if w != (lo, hi)}
        if not tail:
            mu = mu_hi_lo if gidx == hi else mu_hi_lo.inv()
            return ("scalar", mu)
        if list(tail) == [(gidx,)] and mu_hi_lo.is_one():
            c = tail[(gidx,)]
            one = Coeff.one(self.ring)
            # [idx, g] = g corresponds to g*idx = idx*g - g (g later) or
            # idx*g = g*idx + g (idx later); both leave tail = (+/-) g.
            if c == one or c == one.neg():
                return ("euler", None)
        return None


def build_reduction_system(group: ScalarGroup, generators: list[str],
                           relations: list[tuple[Word, Element]]) -> ReductionSystem:
    """Public constructor for presentation-shaped systems.

    ``relations`` lists (leading word (j, i) with j > i, replacement); every
    ordered pair must appear exactly once and every replacement must be
    strictly smaller in the deglex order.
    """
    n = len(generators)
    seen = set()
    for lhs, _ in relations:
        if len(lhs) != 2 or not (n > lhs[0] > lhs[1] >= 0):
            raise RuleError(f"leading word {lhs} is not a descending generator pair")
        if lhs in seen:
            raise RuleError(f"duplicate leading word {lhs}")
        seen.add(lhs)
    expected = {(j, i) for j in range(n) for i in range(j)}
    if seen != expected:
        missing = expected - seen
        raise RuleError(f"missing relations for pairs {sorted(missing)}")
    rules = [Rule(lhs, rhs) for lhs, rhs in relations]
    return ReductionSystem(group, tuple(generators), rules)
