"""Seeded generators for the three benchmark workloads.

Everything here is stdlib only and independent of qwalg: the program under
test sees nothing but the ``.qwa`` text written by these generators, and
every query carries the answer it must produce (checked by ``oracles``).

Each workload's pool is a sequence of *rounds*.  A round holds every query
class of the workload once, in a seeded order, and its class structure does
not depend on the seed; the timed loop runs whole passes over the pool, so
every run measures the same composition.
"""
from __future__ import annotations

import hashlib
import random
from itertools import combinations
from math import gcd
from dataclasses import dataclass, field

ROOT = "zeta"


@dataclass
class Query:
    kind: str            # oracle selector: localize, qinv, check, reduce, ...
    argv: list[str]      # CLI arguments, without --json
    expect: dict         # data the oracle compares the answer against
    group: str           # scalar-group label (one warm-up query per label)
    cls: str = ""        # class label for per-class statistics
    cost: int = 0        # size rank; the cheapest query of a group warms it up


@dataclass
class Workload:
    rounds: list[list[Query]] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)   # relative path -> text

    @property
    def queries(self) -> list[Query]:
        return [q for rnd in self.rounds for q in rnd]

    def digest(self, workdir: str) -> str:
        """Hash of the inputs with the per-process directory name left out."""
        h = hashlib.sha256()
        for path in sorted(self.files):
            h.update(path.replace(workdir, "").encode() + b"\0"
                     + self.files[path].encode() + b"\0")
        for q in self.queries:
            h.update("\x1f".join(q.argv).replace(workdir, "").encode() + b"\n")
        return h.hexdigest()


# ---------------------------------------------------------------------------
# Scalars: (torsion mod e, free exponent tuple) in the group Z/e x Z^m.


@dataclass(frozen=True)
class Group:
    e: int
    syms: tuple[str, ...]

    @property
    def label(self) -> str:
        return f"e{self.e}-" + "".join(self.syms)

    def header(self) -> str:
        clauses = []
        if self.e > 1:
            clauses.append(f"root {ROOT} : {self.e}")
        clauses.append("free " + ", ".join(self.syms))
        return "scalars { " + " ; ".join(clauses) + " }"

    def one(self):
        return (0, (0,) * len(self.syms))

    def inv(self, s):
        t, f = s
        return ((-t) % self.e, tuple(-x for x in f))

    def is_one(self, s) -> bool:
        return s[0] == 0 and not any(s[1])

    def random(self, rng: random.Random, span: int = 2):
        return (rng.randrange(self.e),
                tuple(rng.randint(-span, span) for _ in self.syms))

    def random_nontrivial(self, rng: random.Random, span: int = 2):
        while True:
            s = self.random(rng, span)
            if not self.is_one(s):
                return s

    def fmt(self, s) -> str:
        t, f = s
        parts = []
        if t:
            parts.append(ROOT if t == 1 else f"{ROOT}^{t}")
        for name, k in zip(self.syms, f):
            if k:
                parts.append(name if k == 1 else f"{name}^{k}")
        return " * ".join(parts) if parts else "1"


def antisymmetric_scalars(g: Group, n: int, draw) -> list[list]:
    lam = [[g.one() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lam[i][j] = draw()
            lam[j][i] = g.inv(lam[i][j])
    return lam


# ---------------------------------------------------------------------------
# Integer matrices.


def transpose(a):
    return [list(r) for r in zip(*a)]


def matmul(a, b):
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def random_unimodular(n: int, rng: random.Random, steps: int):
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        kind = rng.randrange(3)
        if kind == 0:
            c = rng.choice([-2, -1, 1, 2])
            for r in range(n):
                u[r][i] += c * u[r][j]
        elif kind == 1:
            for r in range(n):
                u[r][i], u[r][j] = u[r][j], u[r][i]
        else:
            for r in range(n):
                u[r][i] = -u[r][i]
    return u


def congruent(c, u):
    return matmul(matmul(transpose(u), c), u)


def skew_block(n: int, divisors) -> list[list[int]]:
    c = [[0] * n for _ in range(n)]
    for k, d in enumerate(divisors):
        c[2 * k][2 * k + 1] = d
        c[2 * k + 1][2 * k] = -d
    return c


def divisor_chain(rng: random.Random, blocks: int) -> list[int]:
    out = []
    d = rng.choice([1, 2])
    for _ in range(blocks):
        out.append(d)
        d *= rng.choice([1, 1, 2, 3])
    return out


# ---------------------------------------------------------------------------
# Presentations: generator names plus {(i, j): ("add", w) | ("mul", s)}, i < j,
# read in the (i, j) orientation: add w means g_i g_j = g_j g_i + w and
# mul s means g_i g_j = s g_j g_i.  Absent pairs commute.


def rel_of(g: Group, rels: dict, a: int, b: int):
    i, j = min(a, b), max(a, b)
    kind, w = rels.get((i, j), ("add", 0))
    if a == i:
        return kind, w
    return kind, (-w if kind == "add" else g.inv(w))


def put_rel(g: Group, rels: dict, a: int, b: int, kind: str, w) -> None:
    i, j = min(a, b), max(a, b)
    if a != i:
        w = -w if kind == "add" else g.inv(w)
    if (kind == "add" and w == 0) or (kind == "mul" and g.is_one(w)):
        rels.pop((i, j), None)
    else:
        rels[(i, j)] = (kind, w)


def canonical_mixed(g: Group, n: int, r: int, lam) -> tuple[list[str], dict]:
    """Generators y1..yn, x1..xr with the canonical mixed relations."""
    names = [f"y{i+1}" for i in range(n)] + [f"x{i+1}" for i in range(r)]
    rels: dict = {}
    for i in range(n):
        for j in range(i + 1, n):
            put_rel(g, rels, i, j, "mul", lam[i][j])
    for i in range(r):
        put_rel(g, rels, n + i, i, "add", 1)
        for j in range(n):
            if j != i:
                put_rel(g, rels, n + i, j, "mul", g.inv(lam[i][j]))
        for j in range(i + 1, r):
            put_rel(g, rels, n + i, n + j, "mul", lam[i][j])
    return names, rels


def scramble(g: Group, names, rels, rng: random.Random, steps: int):
    """Random admissibility-preserving generator changes: permute, scale a
    generator by an integer, or add a multiple of a Weyl/commuting partner."""
    names, rels = list(names), dict(rels)
    n = len(names)
    for _ in range(steps):
        kind = rng.randrange(3)
        if kind == 0:
            order = list(range(n))
            rng.shuffle(order)
            inv = {old: new for new, old in enumerate(order)}
            new_rels: dict = {}
            for (i, j), (k, w) in rels.items():
                put_rel(g, new_rels, inv[i], inv[j], k, w)
            names, rels = [names[o] for o in order], new_rels
        elif kind == 1:
            i, c = rng.randrange(n), rng.choice([2, 3])
            for key, (k, w) in list(rels.items()):
                if k == "add" and i in key:
                    rels[key] = ("add", c * w)
        else:
            i, j = rng.sample(range(n), 2)
            c = rng.choice([-2, -1, 1, 2])
            if rel_of(g, rels, i, j)[0] != "add":
                continue
            new = {}
            for t in range(n):
                if t in (i, j):
                    continue
                (ki, wi), (kj, wj) = rel_of(g, rels, i, t), rel_of(g, rels, j, t)
                if ki == kj == "add":
                    new[t] = ("add", wi + c * wj)
                elif ki == kj == "mul" and wi == wj:
                    new[t] = ("mul", wi)
                else:
                    break
            else:
                for t, (k, w) in new.items():
                    put_rel(g, rels, i, t, k, w)
    return names, rels


def format_presentation(g: Group, names, rels, comment: str) -> str:
    lines = [f"# {comment}", g.header(), "generators " + ", ".join(names)]
    body = []
    for (i, j), (k, w) in sorted(rels.items()):
        a, b = names[i], names[j]
        if k == "add":
            body.append(f"  {a} {b} = {b} {a} + {w}" if w > 0
                        else f"  {b} {a} = {a} {b} + {-w}")
        else:
            body.append(f"  {a} {b} = {g.fmt(w)} * {b} {a}")
    if body:
        lines += ["relations {"] + body + ["}"]
    return "\n".join(lines) + "\n"


def weyl_matrix(names, rels) -> list[list[int]]:
    n = len(names)
    m = [[0] * n for _ in range(n)]
    for (i, j), (k, w) in rels.items():
        if k == "add":
            m[i][j], m[j][i] = w, -w
    return m


def triangle_admissible(g: Group, names, rels) -> bool:
    """Every pair with a nonzero Weyl weight sees each third generator through
    two Weyl relations, or through twists whose weights multiply to 1."""
    n = len(names)
    for (i, j), (k, w) in rels.items():
        if k != "add":
            continue
        for t in range(n):
            if t in (i, j):
                continue
            (ki, wi), (kj, wj) = rel_of(g, rels, i, t), rel_of(g, rels, j, t)
            if ki == kj == "add":
                continue
            if ki == kj == "mul" and g.is_one(((wi[0] + wj[0]) % g.e,
                                                tuple(x + y for x, y in zip(wi[1], wj[1])))):
                continue
            return False
    return True


# ---------------------------------------------------------------------------
# localize: quantum Weyl algebras.

LOCALIZE_N = (2, 3, 4, 5)
LOCALIZE_E = (1, 2, 3, 4, 12)
LOCALIZE_SYMS = (("q",), ("q", "l"))


def _qweyl_text(g: Group, qs, lam, comment: str) -> str:
    rows = ",".join("[" + ", ".join(g.fmt(s) for s in row) + "]" for row in lam)
    return "\n".join([f"# {comment}", g.header(), "qweyl {", f"  n = {len(qs)}",
                      "  q = (" + ", ".join(g.fmt(s) for s in qs) + ")",
                      f"  Lambda = [{rows}]", "}"]) + "\n"


def _qweyl_spec(g: Group, n: int, quantum, rng: random.Random):
    qs = [g.random_nontrivial(rng) if i in quantum else g.one() for i in range(n)]
    lam = antisymmetric_scalars(g, n, lambda: g.random(rng))
    return qs, lam


def phi(e: int) -> int:
    return sum(1 for k in range(1, e + 1) if gcd(k, e) == 1)


def gen_localize(seed: int, rounds: int, d: str) -> Workload:
    """Per round: one ``qweyl localize`` for every (n, e, symbols) class and
    one ``qweyl invariants`` for every (e, symbols) group.

    The quantum indices of each localize class are fixed: their number
    cycles through 0..min(n, 3) over the groups of one n, which keeps the
    heaviest localizations (every index quantum at n = 4, 5) out, and their
    positions cycle through all patterns of that size over groups and rounds.
    So every round costs about the same; the seed draws the q_i, Lambda and
    the order (and the patterns of the cheap ``invariants`` queries)."""
    rng = random.Random(seed)
    wl = Workload()
    groups = [Group(e, syms) for e in LOCALIZE_E for syms in LOCALIZE_SYMS]

    def write(g, n, quantum):
        qs, lam = _qweyl_spec(g, n, quantum, rng)
        path = f"{d}/loc{len(wl.files):04d}.qwa"
        wl.files[path] = _qweyl_text(g, qs, lam, f"n={n} r={n - len(quantum)}")
        return path, qs

    for rnd in range(rounds):
        batch = []
        for n in LOCALIZE_N:
            for k, g in enumerate(groups):
                patterns = list(combinations(range(n), (k + n) % (min(n, 3) + 1)))
                quantum = patterns[(k + rnd) % len(patterns)]
                r = n - len(quantum)
                path, _ = write(g, n, quantum)
                ph = "phi1" if phi(g.e) == 1 else "phi_gt1"
                batch.append(Query("localize", ["qweyl", "localize", path],
                                   {"n": n, "r": r}, g.label,
                                   cls=f"n{n}.{ph}", cost=n))
        for k, g in enumerate(groups):
            n = LOCALIZE_N[k % len(LOCALIZE_N)]
            r = k % (n + 1)
            path, qs = write(g, n, rng.sample(range(n), n - r))
            applicable = all(g.is_one(q) or any(q[1]) for q in qs)
            batch.append(Query("qinv", ["qweyl", "invariants", path],
                               {"n": n, "r": r, "applicable": applicable},
                               g.label, cls="invariants", cost=n - 1))
        rng.shuffle(batch)
        wl.rounds.append(batch)
    return wl


# ---------------------------------------------------------------------------
# classify: admissible scrambles, random presentations, semiclassical pairs.

CLASSIFY_GROUPS = (Group(2, ("q",)), Group(1, ("q", "p")), Group(4, ("q",)))
CLASSIFY_N = (4, 5, 6, 7, 8, 9, 10)
PAIR_GROUP = Group(1, ("q",))


def _random_weights(g: Group):
    """The mixed additive/multiplicative weight set of a group."""
    adds = [("add", w) for w in (-1, 0, 1, 2)]
    one = g.one()
    q = (0, (1,) + one[1][1:])
    muls = [q, g.inv(q), (0, (2,) + one[1][1:])]
    if g.e % 2 == 0:
        muls.append((g.e // 2, one[1]))
    if len(g.syms) > 1:
        muls.append((0, (1, -1) + one[1][2:]))
    return adds + [("mul", s) for s in muls]


def gen_classify(seed: int, rounds: int, d: str, corpus: list[tuple[list[str], dict]]) -> Workload:
    """Per round, for every group and every N in 4..10: a scrambled canonical
    algebra through check, reduce and invariants (its Weyl pair count r
    cycles over groups and rounds), plus a random presentation through check
    (and reduce when it happens to be admissible); then one congruent and one
    mutated semiclassical pair for n = r = 2 and 3; and every corpus query.
    Corpus answers are the frozen JSON lines."""
    rng = random.Random(seed)
    wl = Workload()

    def write(g, names, rels, comment):
        path = f"{d}/cls{len(wl.files):04d}.qwa"
        wl.files[path] = format_presentation(g, names, rels, comment)
        return path

    for rnd in range(rounds):
        batch = []
        for gi, g in enumerate(CLASSIFY_GROUPS):
            for big_n in CLASSIFY_N:
                r = (gi + big_n + rnd) % (big_n // 2 + 1)
                n = big_n - r
                lam = antisymmetric_scalars(g, n, lambda: g.random(rng))
                names, rels = canonical_mixed(g, n, r, lam)
                names, rels = scramble(g, names, rels, rng, steps=8)
                path = write(g, names, rels, f"scrambled canonical n={n} r={r}")
                exp = {"n": n, "r": r, "admissible": True}
                for kind in ("check", "reduce", "invariants"):
                    batch.append(Query(kind, [kind, path], exp, g.label,
                                       cls=f"scrambled.{kind}", cost=big_n))
                choices = _random_weights(g)
                rels = {}
                for i in range(big_n):
                    for j in range(i + 1, big_n):
                        put_rel(g, rels, i, j, *rng.choice(choices))
                names = [f"g{k+1}" for k in range(big_n)]
                adm = triangle_admissible(g, names, rels)
                path = write(g, names, rels, "random weights")
                batch.append(Query("check", ["check", path], {"admissible": adm},
                                   g.label, cls="random.check", cost=big_n))
                if adm:
                    rank2 = rank(weyl_matrix(names, rels))
                    batch.append(Query("reduce", ["reduce", path],
                                       {"n": big_n - rank2 // 2, "r": rank2 // 2},
                                       g.label, cls="random.reduce", cost=big_n))
        for n in (2, 3):
            c = skew_block(n, divisor_chain(rng, n // 2))
            s = congruent(c, random_unimodular(n, rng, rng.randint(2, 6)))
            mutated = [row[:] for row in c]
            k = 2 * (n // 2 - 1)
            mutated[k][k + 1] *= 2
            mutated[k + 1][k] *= 2
            g = PAIR_GROUP
            paths = []
            for mat, tag in ((c, "canonical"), (s, "congruent"), (mutated, "mutated")):
                lam = [[(0, (x,)) for x in row] for row in mat]
                names, rels = canonical_mixed(g, n, n, lam)
                paths.append(write(g, names, rels, f"semiclassical n=r={n} {tag}"))
            batch.append(Query("equiv", ["equiv", paths[0], paths[1]],
                               {"verdict": "equivalent"}, g.label,
                               cls="pair.equivalent", cost=2 * n))
            batch.append(Query("equiv", ["equiv", paths[2], paths[1]],
                               {"verdict": "not_equivalent"}, g.label,
                               cls="pair.mutated", cost=2 * n))
        for argv, expect in corpus:
            batch.append(Query("golden", argv, expect, "corpus", cls="corpus", cost=100))
        rng.shuffle(batch)
        wl.rounds.append(batch)
    return wl


# ---------------------------------------------------------------------------
# torus: quantum tori, congruent and mutated uniparameter pairs.

TORUS_GROUPS = tuple(Group(e, syms) for e in (1, 2, 6) for syms in (("q",), ("q", "p")))
TORUS_N = (4, 5, 6, 7, 8, 9, 10)


def _torus_text(g: Group, lam, comment: str) -> str:
    n = len(lam)
    rels = {(i, j): ("mul", lam[i][j]) for i in range(n) for j in range(i + 1, n)
            if not g.is_one(lam[i][j])}
    return format_presentation(g, [f"y{i+1}" for i in range(n)], rels, comment)


def gen_torus(seed: int, rounds: int, d: str) -> Workload:
    """Per round: for every group and n in 4..10 one torus through ``torus
    simple`` or ``torus center`` (alternating), and for every n one congruent
    and one mutated uniparameter pair through ``torus iso --param q``."""
    rng = random.Random(seed)
    wl = Workload()

    def write(text):
        path = f"{d}/tor{len(wl.files):04d}.qwa"
        wl.files[path] = text
        return path

    for rnd in range(rounds):
        batch = []
        for gi, g in enumerate(TORUS_GROUPS):
            for n in TORUS_N:
                lam = antisymmetric_scalars(g, n, lambda: g.random(rng))
                path = write(_torus_text(g, lam, f"torus n={n}"))
                sub = ("simple", "center")[(rnd + gi + n) % 2]
                batch.append(Query(sub, ["torus", sub, path],
                                   {"e": g.e, "lam": lam}, g.label,
                                   cls=f"torus.{sub}", cost=n))
        g = Group(1, ("q",))
        for n in TORUS_N:
            c = skew_block(n, divisor_chain(rng, rng.randint(1, n // 2)))
            mutated = [row[:] for row in c]
            k = max(i for i in range(0, n - 1, 2) if c[i][i + 1])
            mutated[k][k + 1] *= 2
            mutated[k + 1][k] *= 2
            u2 = random_unimodular(n, rng, rng.randint(3, 8))
            a = congruent(c, random_unimodular(n, rng, rng.randint(3, 8)))
            b = congruent(c, u2)
            b_mut = congruent(mutated, u2)
            paths = [write(_torus_text(g, [[(0, (x,)) for x in row] for row in m],
                                       f"uniparameter torus n={n}"))
                     for m in (a, b, b_mut)]
            batch.append(Query("iso", ["torus", "iso", paths[0], paths[1], "--param", "q"],
                               {"verdict": "iso", "a": a, "b": b}, g.label,
                               cls="torus.iso", cost=n))
            batch.append(Query("iso", ["torus", "iso", paths[0], paths[2], "--param", "q"],
                               {"verdict": "not_iso"}, g.label,
                               cls="torus.not_iso", cost=n))
        rng.shuffle(batch)
        wl.rounds.append(batch)
    return wl


# ---------------------------------------------------------------------------
# Exact rank over Q (shared with the oracles).


def rank(rows) -> int:
    from fractions import Fraction
    m = [[Fraction(x) for x in row] for row in rows if any(row)]
    rk, col = 0, 0
    ncols = len(m[0]) if m else 0
    while rk < len(m) and col < ncols:
        piv = next((i for i in range(rk, len(m)) if m[i][col]), None)
        if piv is None:
            col += 1
            continue
        m[rk], m[piv] = m[piv], m[rk]
        for i in range(rk + 1, len(m)):
            f = m[i][col] / m[rk][col]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[rk])]
        rk += 1
        col += 1
    return rk
