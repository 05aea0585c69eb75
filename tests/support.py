"""Helpers shared by the test modules, which import from here and never from
each other: the corpus, drawn and gridded systems, localization chains, and
the references that reduce everything the engine settles without reducing.
"""
import argparse
import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import cache
from importlib import resources
from pathlib import Path

from hypothesis import Phase, find, settings, strategies as st

from qwalg import __version__, intlattice as il
from qwalg.cli import COMMANDS, HELP, OPTIONS, SUBS, TAKES, main
from qwalg.cyclo import Coeff, coeff_degree
from qwalg.embeddings import FailingRelation, GeneratorMap, Verified
from qwalg.mixed import CanonicalMixedAlgebra
from qwalg.presentation import (AddMultiple, Permute, Presentation, PresentationError, Scale,
                                apply_op, certified_system, exchanged,
                                system_from_presentation)
from qwalg.qwa import ParseError, parse_presentation
from qwalg.qweyl import QuantumWeylAlgebra
from qwalg.rewrite import Confluent, Element, Failing, NotNormalError, ReductionSystem, Rule
from qwalg.scalars import Scalar, ScalarGroup
from qwalg.torus import QuantumTorus

CORPUS = Path(resources.files("qwalg") / "corpus")

S22_TEXT = """\
# the two-pair mixed algebra with weight q
scalars { free q }
generators x1, y1, x2, y2
relations {
  x1 y1 = y1 x1 + 1
  y1 y2 = q * y2 y1
  x1 x2 = q * x2 x1
  x1 y2 = q^-1 * y2 x1
  x2 y1 = q * y1 x2
  x2 y2 = y2 x2 + 1
}
"""

TRIANGLE = """\
scalars {{ root zeta : 4 }}
generators a, b, c
relations {{
  b a = zeta * a b
  c a = {ca} * a c
  c b = b c + 1
}}
"""

LL2_TARGET = """\
scalars { free q }
generators w, y, u, v
relations {
  [w, y] = y
  u v = q * v u
}
"""

T21_SOURCE = """\
scalars { free q }
generators y1, y2, w1
relations {
  y1 y2 = q * y2 y1
  [w1, y1] = y1
}
"""


# -- scalar parameters as degrees ------------------------------------------------


def degrees(x):
    """The degree of a ``Scalar``, or the degrees of a (nested) sequence of
    them: the form the torus, algebra and field constructors take."""
    return x.degree() if isinstance(x, Scalar) else [degrees(y) for y in x]


def torus(group: ScalarGroup, lam) -> QuantumTorus:
    """The torus of a matrix of ``Scalar``s."""
    return QuantumTorus(group, degrees(lam))


def canonical(group: ScalarGroup, n: int, r: int, lam) -> CanonicalMixedAlgebra:
    """The canonical mixed algebra (n, r, Lambda) of a matrix of ``Scalar``s."""
    return CanonicalMixedAlgebra(group, n, r, torus(group, lam))


def qweyl_algebra(group: ScalarGroup, n: int, qs, lam) -> QuantumWeylAlgebra:
    """The quantum Weyl algebra of ``Scalar`` parameters."""
    return QuantumWeylAlgebra(group, n, degrees(qs), degrees(lam))


def uniparameter(group: ScalarGroup, name: str, exponents) -> QuantumTorus:
    """The torus with lambda_{i,j} = name^s_{i,j}, s the integer matrix
    ``exponents``."""
    return QuantumTorus(group, [[group.free_gen(name, k).degree() for k in row]
                                for row in exponents])


def corpus(name: str) -> str:
    return str(CORPUS / name)


def cli_output(argv) -> tuple[int, str, str]:
    """The CLI's exit code, stdout and stderr.  An exit of argparse (help,
    version, a usage error) is read as its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def reference_parser() -> argparse.ArgumentParser:
    """The CLI parser with every command and all of its arguments, built
    from the command table with argparse's defaults: its output, for any
    argv, is what ``cli._parse`` must give."""
    parser = argparse.ArgumentParser(
        prog="qwalg",
        description="Exact classification toolkit for mixed classical/quantum "
                    "polynomial algebras")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    for top, names in SUBS.items():
        sp = sub.add_parser(top, help=HELP[top])
        if names != [top]:
            sp.add_argument("sub", choices=[n.split()[1] for n in names])
            sp.add_argument("files", nargs="+")
        elif len(COMMANDS[top].files) == 1:
            sp.add_argument("file")
        else:
            sp.add_argument("files", nargs=len(COMMANDS[top].files))
        for opt in TAKES[top]:
            sp.add_argument(f"--{opt}", **OPTIONS[opt])
        sp.add_argument("--json", action="store_true",
                        help="print the machine block as JSON only")
    return parser


def parse_output(parse, argv) -> tuple:
    """The exit code (None when parsing succeeds), stdout, stderr and
    namespace (None on an exit) of ``parse(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    rc = ns = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            ns = vars(parse(argv))
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue(), ns


def run(argv):
    """The CLI's exit code, its output discarded."""
    return cli_output(argv)[0]


def run_corpus(*commands):
    """Each command on every corpus file, in file order."""
    for f in sorted(CORPUS.glob("*.qwa")):
        for cmd in commands:
            run([*cmd, str(f)])


@cache
def corpus_bases() -> tuple[ReductionSystem, ...]:
    """The certified system of every corpus presentation (the quantum Weyl
    files hold none), in file order."""
    out = []
    for f in sorted(CORPUS.glob("*.qwa")):
        try:
            out.append(certified_system(parse_presentation(f.read_text())))
        except ParseError:
            continue
    return tuple(out)


def inverted_systems(s: ReductionSystem):
    """s and its extension by the inverse of each letter that is normal."""
    yield s
    for name in s.letters:
        try:
            yield s.invert_generator(name)[0]
        except NotNormalError:
            pass


@cache
def corpus_systems() -> tuple[ReductionSystem, ...]:
    """The corpus bases and their inverted generators."""
    return tuple(s for base in corpus_bases() for s in inverted_systems(base))


def fresh(s: ReductionSystem) -> ReductionSystem:
    return ReductionSystem(s.group, s.letters, s.rules)


def record_extensions(monkeypatch, entry):
    """entry(parent, ext) for every system ext that adjoin_inverse or
    invert_generator returns."""
    built = []
    for name in ("adjoin_inverse", "invert_generator"):
        def wrapped(self, *args, _orig=getattr(ReductionSystem, name), **kwargs):
            ext, label = _orig(self, *args, **kwargs)
            built.append(entry(self, ext))
            return ext, label
        monkeypatch.setattr(ReductionSystem, name, wrapped)
    return built


def count_reductions(monkeypatch) -> list:
    """A list that grows by one entry per ``_reduce_terms`` call."""
    calls = []
    real = ReductionSystem._reduce_terms

    def counted(self, terms):
        calls.append(self)
        return real(self, terms)
    monkeypatch.setattr(ReductionSystem, "_reduce_terms", counted)
    return calls


# -- drawn presentations ---------------------------------------------------------


def relation_items(draw, group, n, kinds, weight):
    """Per pair: no relation or one of ``kinds``, given in a random
    orientation as an item (a, b, k) of ``Presentation.from_items``;
    ``weight`` draws the scalar of a quantum one, whose degree is k."""
    items = []
    for i in range(n):
        for j in range(i + 1, n):
            a, b = draw(st.sampled_from(((i, j), (j, i))))
            kind = draw(st.sampled_from(("none",) + kinds))
            if kind == "additive":
                items.append((a, b, draw(st.integers(-3, 3))))
            elif kind == "multiplicative":
                items.append((a, b, draw(weight).degree()))
            elif kind == "eulerian":
                items.append((a, b, None))
            elif kind == "commuting":
                items.append((a, b, 0))
    return items


def weights(group):
    free = st.tuples(*(st.integers(-3, 3) for _ in range(group.rank)))
    return st.builds(group.scalar, st.integers(0, group.torsion_order - 1), free)


# -- quantum Weyl algebras and their localization chains -----------------------


def qweyl_grid(e: int, n: int):
    """Quantum Weyl algebras over Z/e x Z<q>: every count of quantum indices,
    in a few positions, with twisted Lambda."""
    g = ScalarGroup(e, ("q",), "zeta" if e > 1 else None)
    q, zeta, one = g.free_gen("q"), g.scalar(1), g.one()
    params = (q, zeta.mul(q), q.inv(), zeta.mul(q).pow(2))
    lam = [[one] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lam[i][j] = zeta.pow(i + 2 * j).mul(q.pow((i + j) % 3 - 1))
            lam[j][i] = lam[i][j].inv()
    patterns = {tuple(range(k)) for k in range(n + 1)}
    patterns |= {tuple(range(n - k, n)) for k in range(n)}
    for quantum in sorted(patterns):
        qs = tuple(params[i % len(params)] if i in quantum else one
                   for i in range(n))
        yield qweyl_algebra(g, n, qs, lam)


@st.composite
def qweyl_algebras(draw, min_quantum: int = 0) -> QuantumWeylAlgebra:
    """A quantum Weyl algebra over Z/e x Z<q, p>, e in {1, 2, 3, 4, 6, 12},
    with n <= 5, any set of at least ``min_quantum`` quantum indices, and
    drawn q_i and Lambda."""
    e = draw(st.sampled_from((1, 2, 3, 4, 6, 12)))
    g = ScalarGroup(e, ("q", "p"), "zeta" if e > 1 else None)
    n = draw(st.integers(1, 5))
    quantum = draw(st.sets(st.integers(0, n - 1), min_size=min_quantum))
    scalars = st.builds(lambda t, a, b: g.scalar(t, (a, b)), st.integers(0, e - 1),
                        st.integers(-1, 1), st.integers(-1, 1))
    qs = tuple(draw(scalars.filter(lambda s: not s.is_one())) if i in quantum else g.one()
               for i in range(n))
    lam = [[g.one()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lam[i][j] = draw(scalars)
            lam[j][i] = lam[i][j].inv()
    return qweyl_algebra(g, n, qs, lam)


def localization_chain(a: QuantumWeylAlgebra) -> list:
    """(extension, rule count of its parent) for each z_i that the
    localization of a inverts, in localization order."""
    s, out = a.system(), []
    for i in a.quantum_indices:
        ext, _ = s.adjoin_inverse(a.z_element(s, i), f"z{i+1}^-1")
        out.append((ext, len(s.rules)))
        s = ext
    return out


def identification_rules(s: ReductionSystem) -> list[Rule]:
    """The identification rules of adjoined inverses: their left side
    ascends and their right side is not 1."""
    one = s.one()
    return [r for r in s.rules if r.lhs[0] < r.lhs[1] and r.rhs != one]


# -- references that reduce ----------------------------------------------------


def brute_force_ambiguities(s: ReductionSystem, known: int):
    """Every rule r2 tried at every position p of every left side l1."""
    for i, r1 in enumerate(s.rules):
        l1 = r1.lhs
        for r2 in s.rules[known if i < known else 0:]:
            l2 = r2.lhs
            for p in range(len(l1)):
                if (p == 0 and len(l2) >= len(l1)) or l1[p:p + len(l2)] != l2[:len(l1) - p]:
                    continue
                word = l1 + l2[len(l1) - p:]
                a = Element(s.ring, {w + word[len(l1):]: c
                                     for w, c in s.right_side(l1).terms.items()})
                b = Element(s.ring, {word[:p] + w + word[p + len(l2):]: c
                                     for w, c in s.right_side(l2).terms.items()})
                yield word, a, b


def two_sided(s: ReductionSystem) -> Confluent | Failing:
    """The reference resolution: reduce both sides of every ambiguity apart
    and compare the two normal forms."""
    for word, _, _ in s._candidates(0, full=True):
        a, b = (s._reduce_terms(x.terms) for x in s._one_step(word))
        if a != b:
            return Failing(word, a, b)
    return Confluent()


def assert_matches_two_sided(s: ReductionSystem, known: int = 0):
    """The full scan and the incremental scan from ``known`` agree with the
    reference: the same verdict, witness word and both normal forms."""
    expected = two_sided(fresh(s))
    assert fresh(s).check_confluence() == expected
    if known:
        assert fresh(s).check_confluence(known) == expected
    return expected


def unsettled_by_full_scan(s: ReductionSystem, known: int):
    """The full scan with the construction criterion and the degree
    criterion on both sides applied to every overlap."""
    return [(w, r1, r2) for w, r1, r2 in s._candidates(known, full=True)
            if not (w in s._by_construction or s._graded(w, r2, True) or s._graded(w, r1, False))]


def assert_candidate_parity(s: ReductionSystem, known: int):
    """The candidate scan plus the settle checks leaves the same overlaps,
    in the same order, as the full scan plus the same checks; every overlap
    it skips has its three pairs in the twist table."""
    got = list(s._unsettled(known))
    expected = unsettled_by_full_scan(s, known)
    assert [w for w, _, _ in got] == [w for w, _, _ in expected]
    assert all(r1 is e1 and r2 is e2 for (_, r1, r2), (_, e1, e2) in zip(got, expected))
    visited = {w for w, _, _ in s._candidates(known)}
    for (u, v, w), _, _ in s._candidates(known, full=True):
        if (u, v, w) not in visited:
            assert {(u, v), (v, w), (u, w)} <= s._twists.keys()


def reference_commutation(s: ReductionSystem, el: Element):
    """Two reductions per letter: nf g and g nf, compared up to a scalar."""
    nf = s._reduce_terms(el.terms)
    if nf.is_zero():
        return None
    out = {}
    for idx, name in enumerate(s.letters):
        g = Element.from_word(s.ring, (idx,))
        a, b = s._reduce_terms(nf.concat(g).terms), s._reduce_terms(g.concat(nf).terms)
        if set(a.terms) != set(b.terms) or not a.terms:
            return None
        w0 = next(iter(a.terms))
        mu = coeff_degree(a.terms[w0].mul(b.terms[w0].inv()))
        if mu is None or a != b.scale(Coeff.of_degree(s.ring, mu)):
            return None
        out[name] = s.group.scalar(mu[0], mu[1:])
    return out


def assert_same_commutation(s: ReductionSystem, el: Element):
    got, expected = s.commutation_with_generators(el), reference_commutation(s, el)
    assert got == expected
    if got is not None:
        assert list(got) == list(expected)
    return got


def raw_image_verify(gmap: GeneratorMap) -> Verified | FailingRelation:
    """The reference check: reduce b a - exchanged(src, i, j, a, b) on the
    raw images a, b of every source pair i < j."""
    src, sys = gmap.source, gmap.target
    count = 0
    for i in range(src.n):
        a = gmap.images[src.gens[i]]
        for j in range(i + 1, src.n):
            b = gmap.images[src.gens[j]]
            defect = sys.normal_form(b.concat(a).sub(exchanged(src, i, j, a, b)))
            if not defect.is_zero():
                return FailingRelation((src.gens[i], src.gens[j]), defect)
            count += 1
    return Verified(count)


def lattice_member(basis, vec) -> bool:
    """Exact membership test of vec in the row lattice spanned by basis."""
    if not basis:
        return not any(vec)
    rows = [r for r in il.hermite_nf(basis) if any(r)]
    v = list(vec)
    for row in rows:
        j = next(i for i, x in enumerate(row) if x)
        if v[j] % row[j] != 0:
            return False
        q = v[j] // row[j]
        v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


def random_unimodular(n, rng, steps=8):
    u = il.identity(n)
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        e = il.identity(n)
        if kind == 0 and n > 1:
            e[i][j] = rng.choice([-2, -1, 1, 2])
        elif kind == 1 and n > 1:
            e[i][i] = e[j][j] = 0
            e[i][j] = 1
            e[j][i] = 1
        else:
            e[i][i] = -1
        u = il.matmul(u, e)
    return u


def full_congruence(h, s) -> list[list[int]]:
    """h^T * s * h by its defining sums over plain ints: every entry, the
    diagonal and lower triangle too, with no intlattice product.  The
    reference for ``il.congruence_upper`` and the checks built on it."""
    rows, cols = range(len(h)), range(len(h[0]))
    return [[sum(h[k][i] * s[k][t] * h[t][j] for k in rows for t in rows) for j in cols]
            for i in cols]


def random_antisymmetric(n, rng, bound=4):
    a = il.zeros(n, n)
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = rng.randrange(-bound, bound + 1)
            a[j][i] = -a[i][j]
    return a


def subpresentation(p: Presentation, names) -> Presentation:
    """The presentation on the generators ``names`` (names or indices), in
    that order, with the relations among them."""
    indices = [p.index(x) if isinstance(x, str) else x for x in names]
    if not indices:
        raise PresentationError("empty generator subset")
    items = []
    for a in range(len(indices)):
        for b in range(a + 1, len(indices)):
            i, j = indices[a], indices[b]
            w = p.eulerian.get((min(i, j), max(i, j)))
            if w is not None:  # counted by the first generator of the item
                items.append((a, b, None) if w == i else (b, a, None))
            else:
                items.append((a, b, p.degrees[i][j] or p.weyl[i][j]))
    return Presentation.from_items(p.group, tuple(p.gens[i] for i in indices), items)


def scramble(p, rng, steps=6):
    """Random admissible-preserving generator changes (for test inputs)."""
    for _ in range(steps):
        kind = rng.randrange(3) if p.n > 1 else 1
        if kind == 0:
            order = list(range(p.n))
            rng.shuffle(order)
            p = apply_op(p, Permute(tuple(order)))
        elif kind == 1:
            i = rng.randrange(p.n)
            p = apply_op(p, Scale(i, Fraction(rng.choice([1, 2, 3]))))
        else:
            i, j = rng.sample(range(p.n), 2)
            c = rng.choice([-2, -1, 1, 2])
            try:
                p = apply_op(p, AddMultiple(i, j, c))
            except Exception:
                continue
    return p


# -- drawn systems settled by twist degrees ------------------------------------


@st.composite
def hub_presentations(draw, hubs=("largest", "smallest")) -> Presentation:
    """The hub, the largest generator or the smallest (one of ``hubs``),
    twists each other one by zeta^a q^b (b over one or two free symbols);
    among the rest only one pair has a relation: a Weyl weight, a twist or
    [g_a, g_b] = g_b with a < b."""
    e, m = draw(st.sampled_from((3, 4, 6, 12))), draw(st.integers(1, 2))
    group = ScalarGroup(e, ("q", "p")[:m], "zeta")
    n = draw(st.integers(3, 5))
    degrees = st.tuples(st.integers(0, e - 1), *[st.integers(-1, 1)] * m)
    hub = n - 1 if draw(st.sampled_from(hubs)) == "largest" else 0
    others = [i for i in range(n) if i != hub]
    items = [(i, hub, draw(degrees)) for i in others]
    pair = tuple(sorted(draw(st.lists(st.sampled_from(others), min_size=2, max_size=2,
                                      unique=True))))
    rel = draw(st.one_of(st.integers(-2, 2).filter(bool), st.just(None), degrees))
    return Presentation.from_items(group, tuple(f"g{k}" for k in range(n)),
                                   items + [(*pair, rel)])


def appended_letter(draw, base: ReductionSystem) -> ReductionSystem:
    """The base with a letter Z appended: Z twists each letter h by the
    degree of v w on h (when the table gives one) or by a random degree, and
    an ascending pair v w gets the rule v w -> c Z (+ d, + a smaller word)."""
    g, ring, n = base.group, base.ring, len(base.letters)
    z = n
    v, w = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
    rules = list(base.rules)
    for h in range(n):
        nu = base.exchange_degree((v, w), (h,))
        if nu is None or draw(st.booleans()):
            nu = (draw(st.integers(0, g.torsion_order - 1)),
                  *(draw(st.integers(-1, 1)) for _ in range(g.rank)))
        # Z h = mu h Z, mu of degree nu
        rules.append(Rule((z, h), Element.from_word(ring, (h, z), Coeff.of_degree(ring, nu))))
    rhs = {(z,): Coeff.from_rational(ring, draw(st.sampled_from((1, -1, 2))))}
    if draw(st.booleans()):
        rhs[()] = Coeff.from_rational(ring, draw(st.sampled_from((1, -1))))
    if draw(st.booleans()):
        smaller = [(a, b) for a in range(v) for b in range(z + 1)] + [(h,) for h in range(z)]
        rhs[draw(st.sampled_from(smaller))] = Coeff.one(ring)
    rules.append(Rule((v, w), Element(ring, rhs)))
    return ReductionSystem(g, base.letters + ("Z",), rules)


@st.composite
def localization_steps(draw):
    """(extension, rule count of its parent) for one z_i that the
    localization of a drawn quantum Weyl algebra inverts."""
    return draw(st.sampled_from(localization_chain(draw(qweyl_algebras(min_quantum=1)))))


@st.composite
def graded_systems(draw, hubs=("largest", "smallest"),
                   hows=("presentation", "appended", "inverted", "localized")):
    """(system, rule count of a certified parent, or 0): a hub
    presentation's system; or that system with a letter Z appended; or,
    when it is confluent, its extension by the inverse of a letter (the hub
    always inverts); or a step of a drawn localization.  ``hubs`` and
    ``hows`` narrow the draw."""
    how = draw(st.sampled_from(hows))
    if how == "localized":
        return draw(localization_steps())
    s = system_from_presentation(draw(hub_presentations(hubs)))
    if how == "appended":
        return appended_letter(draw, s), 0
    if how == "inverted" and isinstance(s.check_confluence(), Confluent):
        inverted = list(inverted_systems(s))[1:]
        assert inverted  # the hub twists every other letter
        return draw(st.sampled_from(inverted)), len(s.rules)
    return s, 0


def assert_graded_case(case):
    """Every overlap that either side of the degree criterion settles agrees
    with the two-sided reference, and the candidate scan with the full one;
    an extension by an inverse was certified with its overlaps settled by
    construction, so it is confluent: the reference reduces every overlap,
    so each one the certification dropped (by construction, by degrees or
    out of the candidate scan) reduces to zero."""
    s, known = case
    verdict = assert_matches_two_sided(s, known)
    assert isinstance(verdict, Confluent) or not s.certified
    assert_candidate_parity(s, known)


def find_graded(condition, verdict=object, **narrow):
    """Some drawn system meets the condition and has the verdict.  Any
    example will do, so the one found is not shrunk."""
    find(graded_systems(**narrow),
         lambda case: condition(case[0]) and isinstance(case[0].check_confluence(), verdict),
         settings=settings(database=None, max_examples=1000, phases=[Phase.generate]))
