"""The text formats: .qwa files and generator maps.  Line oriented, UTF-8,
'#' comments.

    scalars { root zeta : 4 ; free q, p }
    generators y1, y2, x1, w1
    relations {
      x1 y1 = y1 x1 + 1
      y1 y2 = q * y2 y1
      [w1, y1] = y1
    }

A .qwa file holds either a presentation or a ``qweyl { ... }`` block
describing a multiparameter quantum Weyl algebra; a map file holds one
``map { ... }`` block.  Both are read by ``read_statements``.
"""
from __future__ import annotations

import re
from functools import partial
from typing import NamedTuple

from .cyclo import Coeff, coeff_degree
from .presentation import GeneratorMap, Presentation
from .rewrite import Element, ReductionSystem
from .scalars import GroupMismatch, Scalar, ScalarGroup, format_scalar, merge_groups


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_RE_WORD = re.compile(NAME)
_RE_NAME = re.compile(rf"^{NAME}$")
_RE_ROOT = re.compile(rf"^root\s+({NAME})\s*:\s*(\d+)$")
_RE_FREE = re.compile(r"^free\s+(.*)$")
_RE_QWEYL = re.compile(r"^(n|q|Lambda)\s*=\s*(.+)$")
_RE_ROW_SEP = re.compile(r"(?<=\])\s*,\s*(?=\[)")
# A whole relation line: [w, y] = y (groups 1-3), or x y = (4-5) then y x + p
# (6-8) or s * y x (9-11).  Only the bracket starts with '[', only s * has '*'.
_RE_RELATION = re.compile(
    rf"\[\s*({NAME})\s*,\s*({NAME})\s*\]\s*=\s*({NAME})"
    rf"|({NAME})\s+({NAME})\s*=\s*(?:({NAME})\s+({NAME})\s*\+\s*(-?\d+)"
    rf"|(.+?)\s*\*\s*({NAME})\s+({NAME}))")
# The statements of a .qwa file; True marks a block.
_QWA = {"scalars": True, "generators": False, "relations": True, "qweyl": True}


class QWeylSpec(NamedTuple):
    """Raw data of a qweyl block (resolved into an algebra by the qweyl module)."""
    group: ScalarGroup
    n: int
    q: tuple[Scalar, ...]
    lam: tuple[tuple[Scalar, ...], ...]


class Document(NamedTuple):
    group: ScalarGroup
    presentation: Presentation | tuple[int, list] | None  # the tuple read as a torus
    qweyl: QWeylSpec | None


def read_statements(text: str, shapes: dict[str, bool]) -> dict[str, tuple]:
    """The top-level statements of ``text`` by first word, as (line, body).

    ``shapes`` gives the allowed words and whether each opens a block.  The
    body of a line statement ``word rest`` is the string ``rest``; that of a
    block ``word { ... }`` is its list of (line, item), items being split at
    line ends and at ';'.  A block closes on a line that ends in '}'.  An
    unknown or repeated word, a missing '{' and an unterminated block are
    errors at their line.
    """
    found: dict[str, tuple] = {}
    items = None
    for ln, line in enumerate(text.splitlines(), 1):
        if "#" in line:
            line = line[: line.index("#")]
        s = line.strip()
        if not s:
            continue
        if items is None:
            m = _RE_WORD.match(s)
            word = m and m.group()
            if word not in shapes:
                raise ParseError(ln, f"unrecognized line {s!r}")
            kind = "block" if shapes[word] else "line"
            if word in found:
                raise ParseError(ln, f"duplicate {word} {kind}")
            s = s[m.end():].lstrip()
            if kind == "line":
                found[word] = (ln, s)
                continue
            if not s.startswith("{"):
                raise ParseError(ln, f"expected '{{' after {word!r}")
            items = []
            found[word] = (ln, items)
            s = s[1:]
        closed = s.endswith("}")
        for item in (s[:-1] if closed else s).split(";"):
            item = item.strip()
            if item:
                items.append((ln, item))
        if closed:
            items = None
    if items is not None:
        raise ParseError(found[word][0], f"unterminated {word!r} block")
    return found


def _names(text: str, ln: int, what: str) -> tuple[str, ...]:
    names = tuple(x.strip() for x in text.split(","))
    if not all(_RE_NAME.match(x) for x in names):
        raise ParseError(ln, f"bad {what} list {text!r}")
    return names


def _degree(group: ScalarGroup, text: str, line: int) -> tuple[int, ...]:
    """The degree (torsion mod e, *free) of a scalar literal."""
    text = text.strip()
    if not text:
        raise ParseError(line, "empty scalar literal")
    torsion = 0
    free = [0] * group.rank
    for factor in (f.strip() for f in text.split("*")):
        if factor == "1":
            continue
        if factor == "-1":
            if group.torsion_order % 2 != 0:
                raise ParseError(line, "-1 requires an even root-of-unity order")
            torsion += group.torsion_order // 2
            continue
        name, caret, exp = factor.partition("^")  # NAME is an ASCII identifier
        if not (name.isascii() and name.isidentifier()) or (
                caret and not exp.removeprefix("-").isdecimal()):
            raise ParseError(line, f"bad scalar factor {factor!r}")
        k = int(exp) if caret else 1
        if name == group.root_symbol:
            torsion += k
        elif name in group.free_index:
            free[group.free_index[name]] += k
        else:
            raise ParseError(line, f"undeclared scalar symbol {name!r}")
    return (torsion % group.torsion_order, *free)


def parse_scalar_literal(group: ScalarGroup, text: str, line: int = 0) -> Scalar:
    """Product of name^int factors, with the literals 1 and -1."""
    d = _degree(group, text, line)
    return Scalar(group, d[0], d[1:])


def _parse_scalars_block(ln: int, items) -> ScalarGroup:
    root_name = None
    order = 1
    free: tuple[str, ...] = ()
    for at, clause in items:
        m = _RE_ROOT.match(clause)
        if m:
            if root_name is not None:
                raise ParseError(at, "only one root of unity may be declared")
            root_name, order = m.group(1), int(m.group(2))
            if order < 1:
                raise ParseError(at, "root order must be >= 1")
            continue
        m = _RE_FREE.match(clause)
        if not m:
            raise ParseError(at, f"bad scalars clause {clause!r}")
        free += _names(m.group(1), at, "free symbol")
    try:
        return ScalarGroup(order, free, root_name)
    except ValueError as exc:
        raise ParseError(ln, str(exc)) from None


def parse_document(text: str, group: ScalarGroup | None = None,
                   torus: bool = False) -> Document:
    """Parse a .qwa file.  With ``group``, every scalar is built in that group,
    into which the file's declared group must embed (same-name symbols
    identified); pair commands use this to compare two files.  The
    relations go straight into the matrices of a ``Presentation``.  With
    ``torus``, the generators and relations are read as a quantum torus:
    ``presentation`` holds the arguments (n, weights) of
    ``QuantumTorus.from_relations``."""
    found = read_statements(text, _QWA)
    declared = (_parse_scalars_block(*found["scalars"]) if "scalars" in found
                else ScalarGroup())
    if group is None:
        group = declared
    elif merge_groups(group, declared) != group:
        raise GroupMismatch("declared scalars do not embed in the given group")

    presentation = qweyl = None
    if "generators" in found:
        read = _relations(_cached(partial(_degree, group)), *found["generators"],
                          found.get("relations", (0, ()))[1])
        presentation = (_torus_weights(*read) if torus
                        else Presentation.from_items(group, *read))
    elif "relations" in found:
        raise ParseError(found["relations"][0],
                         "relations block without a generators line")
    if "qweyl" in found:
        qweyl = _build_qweyl(group, _cached(partial(parse_scalar_literal, group)),
                             *found["qweyl"])
    if presentation is None and qweyl is None:
        raise ParseError(1, "file declares neither generators nor a qweyl block")
    return Document(group, presentation, qweyl)


def _cached(parse):
    """``parse(text, line)``, each distinct text parsed once."""
    parsed: dict = {}

    def literal(text: str, ln: int):
        s = parsed.get(text)
        if s is None:
            s = parsed[text] = parse(text, ln)
        return s
    return literal


def _relations(literal, ln, rest, rel_lines) -> tuple[tuple[str, ...], list]:
    """The generator names, and each relation line as (a, b, k): k is None
    for [g_a, g_b] = g_b, p for g_a g_b = g_b g_a + p, and ``literal(s, line)``
    for g_a g_b = s * g_b g_a.  Every check of a presentation is made here,
    in line order: distinct generator names, declared generators, no
    self-relation and one relation per pair."""
    gens = _names(rest, ln, "generator")
    if len(set(gens)) != len(gens):
        raise ParseError(ln, "duplicate generator name")
    index = {g: k for k, g in enumerate(gens)}
    seen, rels = set(), []
    for ln, s in rel_lines:
        m = _RE_RELATION.fullmatch(s)
        if m is None:
            raise ParseError(ln, f"unrecognized relation {s!r}")
        w, y, rhs, g1, g2, w1, w2, p, lit, q1, q2 = m.groups()
        if w is not None:
            if rhs != y:
                raise ParseError(ln, f"bracket relation must repeat its second "
                                     f"generator, got {rhs!r}")
            g1, g2 = w, y
        else:
            kind, right = ("Weyl", (w1, w2)) if lit is None else ("quantum", (q1, q2))
            if (g2, g1) != right:
                raise ParseError(ln, f"sides of a {kind} relation must be the same "
                                     "pair in both orders")
        try:
            a, b = index[g1], index[g2]
        except KeyError as exc:
            raise ParseError(ln, f"undeclared generator {exc.args[0]!r}") from None
        if a == b:
            raise ParseError(ln, f"self-relation on {gens[a]!r}")
        key = (a, b) if a < b else (b, a)
        if key in seen:
            raise ParseError(ln, f"duplicate relation for pair ({gens[key[0]]}, "
                                 f"{gens[key[1]]})")
        seen.add(key)
        rels.append((a, b, None if w is not None else int(p) if lit is None
                     else literal(lit, ln)))
    return gens, rels


def _torus_weights(gens, rels) -> tuple[int, list]:
    """n and each relation as (a, b, degree), the degree None for a relation
    that is not quantum; g_a g_b = g_b g_a + 0 says the pair commutes."""
    return len(gens), [(a, b, k if type(k) is tuple else None) for a, b, k in rels if k != 0]


def _build_qweyl(group, literal, ln, items) -> QWeylSpec:
    fields = {}
    for at, item in items:
        m = _RE_QWEYL.match(item)
        if not m:
            raise ParseError(at, f"bad qweyl clause {item!r}")
        if m.group(1) in fields:
            raise ParseError(at, f"duplicate qweyl clause {m.group(1)!r}")
        fields[m.group(1)] = (at, m.group(2))
    for key in ("n", "q", "Lambda"):
        if key not in fields:
            raise ParseError(ln, f"qweyl block is missing {key!r}")
    ln, ntext = fields["n"]
    if not ntext.isdigit() or int(ntext) < 1:
        raise ParseError(ln, f"bad qweyl size {ntext!r}")
    n = int(ntext)
    ln, qtext = fields["q"]
    if not (qtext.startswith("(") and qtext.endswith(")")):
        raise ParseError(ln, "q list must be parenthesized")
    qs = tuple(literal(t.strip(), ln) for t in qtext[1:-1].split(","))
    if len(qs) != n:
        raise ParseError(ln, f"expected {n} quantization parameters, got {len(qs)}")
    ln, ltext = fields["Lambda"]
    lam = _parse_scalar_matrix(literal, ltext, ln)
    if len(lam) != n or any(len(r) != n for r in lam):
        raise ParseError(ln, f"Lambda must be {n} x {n}")
    return QWeylSpec(group, n, qs, lam)


def _parse_scalar_matrix(literal, text, ln) -> tuple[tuple[Scalar, ...], ...]:
    """``[[a, b],[c, d]]``: scalar literals hold no brackets, so rows part at
    '],' before '['."""
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(ln, "matrix literal must be bracketed")
    rows = []
    for rtext in _RE_ROW_SEP.split(text[1:-1].strip()):
        if not (rtext.startswith("[") and rtext.endswith("]")):
            raise ParseError(ln, f"bad matrix row {rtext!r}")
        rows.append(tuple(literal(t.strip(), ln) for t in rtext[1:-1].split(",")))
    return tuple(rows)


def parse_presentation(text: str) -> Presentation:
    doc = parse_document(text)
    if doc.presentation is None:
        raise ParseError(1, "file does not contain a presentation")
    return doc.presentation


def parse_generator_map(text: str, source: Presentation,
                        target: ReductionSystem) -> GeneratorMap:
    """Parse ``map { g -> scalar * word ; ... }`` with word factors g or g^-1.

    Factors named g^-1 refer to the target's adjoined inverse letters.
    """
    found = read_statements(text, {"map": True})
    if "map" not in found:
        raise ParseError(1, "expected map { ... }")
    ln, entries = found["map"]
    images: dict[str, Element] = {}
    for at, entry in entries:
        name, arrow, rhs = entry.partition("->")
        name = name.strip()
        if not arrow:
            raise ParseError(at, f"bad map entry {entry!r}")
        if name not in source.gens:
            raise ParseError(at, f"map names unknown source generator {name!r}")
        if name in images:
            raise ParseError(at, f"map gives a second image for {name!r}")
        scalar = target.group.one()
        word: list[str] = []
        for f in rhs.split("*"):
            toks = f.split()
            if len(toks) > 1 or (toks and toks[0] in target.letters):
                for tok in toks:
                    if tok not in target.letters:
                        raise ParseError(at, f"unknown target factor {tok!r}")
                word += toks
            else:
                scalar = scalar.mul(parse_scalar_literal(target.group, f, at))
        el = target.word(*word) if word else target.one()
        images[name] = el.scale(Coeff.of_degree(target.ring, scalar.degree()))
    missing = [g for g in source.gens if g not in images]
    if missing:
        raise ParseError(ln, f"map is missing images for {missing}")
    return GeneratorMap(source, target, images)


# ---------------------------------------------------------------------------
# Canonical printing.


def format_group_block(group: ScalarGroup) -> str | None:
    clauses = []
    if group.torsion_order > 1:
        if group.root_symbol is None:
            raise ValueError("cannot print a torsion group without a named root")
        clauses.append(f"root {group.root_symbol} : {group.torsion_order}")
    if group.free_symbols:
        clauses.append("free " + ", ".join(group.free_symbols))
    if not clauses:
        return None
    return "scalars { " + " ; ".join(clauses) + " }"


def format_presentation(p: Presentation) -> str:
    lines = []
    block = format_group_block(p.group)
    if block:
        lines.append(block)
    lines.append("generators " + ", ".join(p.gens))
    rel_lines = []
    for i, gi in enumerate(p.gens):
        for j in range(i + 1, p.n):
            gj, w, d = p.gens[j], p.weyl[i][j], p.degrees[i][j]
            if (i, j) in p.eulerian:
                c, y = (gi, gj) if p.eulerian[i, j] == i else (gj, gi)
                rel_lines.append(f"  [{c}, {y}] = {y}")
            elif d is not None:
                s = format_scalar(p.group.scalar(d[0], d[1:]))
                rel_lines.append(f"  {gi} {gj} = {s} * {gj} {gi}")
            elif w > 0:
                rel_lines.append(f"  {gi} {gj} = {gj} {gi} + {w}")
            elif w < 0:
                rel_lines.append(f"  {gj} {gi} = {gi} {gj} + {-w}")
    if rel_lines:
        lines.append("relations {")
        lines.extend(rel_lines)
        lines.append("}")
    return "\n".join(lines) + "\n"


def format_qweyl(spec: QWeylSpec) -> str:
    lines = []
    block = format_group_block(spec.group)
    if block:
        lines.append(block)
    qlist = ", ".join(format_scalar(q) for q in spec.q)
    lines.append("qweyl {")
    lines.append(f"  n = {spec.n}")
    lines.append(f"  q = ({qlist})")
    lines.append(f"  Lambda = {format_scalar_matrix(spec.lam)}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def format_scalar_matrix(rows) -> str:
    """``[[a, b],[c, d]]``, as a qweyl block's Lambda and the CLI's lambda key."""
    return "[" + ",".join("[" + ", ".join(format_scalar(s) for s in row) + "]"
                          for row in rows) + "]"


def format_generator_map(gmap: GeneratorMap) -> str:
    """Serialization for monomial maps: map { g -> scalar * word ; ... }."""
    parts = []
    for name in gmap.source.gens:
        el = gmap.images[name]
        if len(el.terms) != 1:
            raise ValueError("only single-word images are serializable")
        (word, coeff), = el.terms.items()
        d = coeff_degree(coeff)
        if d is None:
            raise ValueError("image prefactor is not a scalar")
        s = gmap.target.group.scalar(d[0], d[1:])
        factors = " ".join(gmap.target.letters[i] for i in word) or "1"
        pre = "" if s.is_one() else f"{format_scalar(s)} * "
        parts.append(f"  {name} -> {pre}{factors}")
    return "map {\n" + "\n".join(parts) + "\n}\n"
