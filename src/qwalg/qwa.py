"""The .qwa textual format: scalar declarations, generators, relations, and
the quantum Weyl block.  Line oriented, UTF-8, '#' comments.

    scalars { root zeta : 4 ; free q, p }
    generators y1, y2, x1
    relations {
      x1 y1 = y1 x1 + 1
      y1 y2 = q * y2 y1
      [w1, y1] = y1
    }

A file holds either a presentation or a ``qweyl { ... }`` block describing a
multiparameter quantum Weyl algebra.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .presentation import Additive, Eulerian, Multiplicative, Presentation
from .scalars import GroupMismatch, Scalar, ScalarGroup, format_scalar, merge_groups


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_RE_NAME = re.compile(rf"^{NAME}$")
_RE_QUANTUM = re.compile(
    rf"^({NAME})\s+({NAME})\s*=\s*(.+?)\s*\*\s*({NAME})\s+({NAME})$")
_RE_WEYL = re.compile(
    rf"^({NAME})\s+({NAME})\s*=\s*({NAME})\s+({NAME})\s*\+\s*(-?\d+)$")
_RE_EULER = re.compile(rf"^\[\s*({NAME})\s*,\s*({NAME})\s*\]\s*=\s*({NAME})$")


@dataclass
class QWeylSpec:
    """Raw data of a qweyl block (resolved into an algebra by the qweyl module)."""
    group: ScalarGroup
    n: int
    q: tuple[Scalar, ...]
    lam: tuple[tuple[Scalar, ...], ...]


@dataclass
class Document:
    group: ScalarGroup
    presentation: Presentation | None
    qweyl: QWeylSpec | None


def _strip(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def parse_scalar_literal(group: ScalarGroup, text: str, line: int = 0) -> Scalar:
    """Product of name^int factors, with the literals 1 and -1."""
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
        m = re.match(rf"^({NAME})(?:\^(-?\d+))?$", factor)
        if not m:
            raise ParseError(line, f"bad scalar factor {factor!r}")
        name, exp = m.group(1), int(m.group(2) or 1)
        if name == group.root_symbol:
            torsion += exp
        elif name in group.free_symbols:
            free[group.free_symbols.index(name)] += exp
        else:
            raise ParseError(line, f"undeclared scalar symbol {name!r}")
    return group.scalar(torsion=torsion, free=tuple(free))


def _parse_scalars_block(body: list[tuple[int, str]]) -> ScalarGroup:
    root_name = None
    order = 1
    free: tuple[str, ...] = ()
    text = " ; ".join(t for _, t in body)
    first_line = body[0][0] if body else 0
    for clause in (c.strip() for c in text.split(";")):
        if not clause:
            continue
        m = re.match(rf"^root\s+({NAME})\s*:\s*(\d+)$", clause)
        if m:
            if root_name is not None:
                raise ParseError(first_line, "only one root of unity may be declared")
            root_name, order = m.group(1), int(m.group(2))
            if order < 1:
                raise ParseError(first_line, "root order must be >= 1")
            continue
        m = re.match(r"^free\s+(.*)$", clause)
        if m:
            names = tuple(x.strip() for x in m.group(1).split(","))
            if not all(_RE_NAME.match(x) for x in names):
                raise ParseError(first_line, f"bad free symbol list {m.group(1)!r}")
            free = free + names
            continue
        raise ParseError(first_line, f"bad scalars clause {clause!r}")
    try:
        return ScalarGroup(order, free, root_name)
    except ValueError as exc:
        raise ParseError(first_line, str(exc)) from None


def parse_document(text: str, group: ScalarGroup | None = None) -> Document:
    """Parse a .qwa file.  With ``group``, every scalar is built in that group,
    into which the file's declared group must embed (same-name symbols
    identified); pair commands use this to compare two files."""
    lines = text.splitlines()
    declared: ScalarGroup | None = None
    gens: tuple[str, ...] | None = None
    rel_lines: list[tuple[int, str]] = []
    qweyl_lines: list[tuple[int, str]] = []
    saw_relations = False
    saw_qweyl = False

    i = 0

    def read_block(start: int, header: str) -> tuple[list[tuple[int, str]], int]:
        """Collects the lines of 'header { ... }'; single-line bodies allowed."""
        line = _strip(lines[start])
        rest = line[len(header):].strip()
        if not rest.startswith("{"):
            raise ParseError(start + 1, f"expected '{{' after {header!r}")
        body: list[tuple[int, str]] = []
        inner = rest[1:].strip()
        if inner.endswith("}"):
            if inner[:-1].strip():
                body.append((start + 1, inner[:-1].strip()))
            return body, start + 1
        if inner:
            body.append((start + 1, inner))
        k = start + 1
        while k < len(lines):
            s = _strip(lines[k])
            if s == "}":
                return body, k + 1
            if s:
                if s.endswith("}"):
                    body.append((k + 1, s[:-1].strip()))
                    return body, k + 1
                body.append((k + 1, s))
            k += 1
        raise ParseError(start + 1, f"unterminated {header!r} block")

    while i < len(lines):
        s = _strip(lines[i])
        if not s:
            i += 1
            continue
        if s.startswith("scalars"):
            if declared is not None:
                raise ParseError(i + 1, "duplicate scalars block")
            body, i = read_block(i, "scalars")
            declared = _parse_scalars_block(body)
            continue
        if s.startswith("generators"):
            if gens is not None:
                raise ParseError(i + 1, "duplicate generators line")
            names = tuple(x.strip() for x in s[len("generators"):].split(","))
            if not all(_RE_NAME.match(x) for x in names):
                raise ParseError(i + 1, f"bad generator list {s!r}")
            if len(set(names)) != len(names):
                raise ParseError(i + 1, "duplicate generator name")
            gens = names
            i += 1
            continue
        if s.startswith("relations"):
            if saw_relations:
                raise ParseError(i + 1, "duplicate relations block")
            saw_relations = True
            rel_lines, i = read_block(i, "relations")
            continue
        if s.startswith("qweyl"):
            if saw_qweyl:
                raise ParseError(i + 1, "duplicate qweyl block")
            saw_qweyl = True
            qweyl_lines, i = read_block(i, "qweyl")
            continue
        raise ParseError(i + 1, f"unrecognized line {s!r}")

    declared = declared or ScalarGroup()
    if group is None:
        group = declared
    elif merge_groups(group, declared) != group:
        raise GroupMismatch("declared scalars do not embed in the given group")

    presentation = None
    if gens is not None:
        presentation = _build_presentation(group, gens, rel_lines)
    elif saw_relations:
        raise ParseError(1, "relations block without a generators line")

    qweyl = _build_qweyl(group, qweyl_lines) if saw_qweyl else None
    if presentation is None and qweyl is None:
        raise ParseError(1, "file declares neither generators nor a qweyl block")
    return Document(group, presentation, qweyl)


def _build_presentation(group, gens, rel_lines) -> Presentation:
    index = {g: k for k, g in enumerate(gens)}

    def idx(name: str, ln: int) -> int:
        if name not in index:
            raise ParseError(ln, f"undeclared generator {name!r}")
        return index[name]

    items = []
    seen = set()
    for ln, s in rel_lines:
        m = _RE_EULER.match(s)
        if m:
            w, y, rhs = m.group(1), m.group(2), m.group(3)
            if rhs != y:
                raise ParseError(ln, f"bracket relation must repeat its second "
                                     f"generator, got {rhs!r}")
            a, b = idx(w, ln), idx(y, ln)
            _claim(seen, a, b, ln, gens)
            items.append((a, b, Eulerian(a)))
            continue
        m = _RE_WEYL.match(s)
        if m:
            g1, g2, g3, g4, p = m.groups()
            if (g1, g2) != (g4, g3):
                raise ParseError(ln, "sides of a Weyl relation must be the same "
                                     "pair in both orders")
            a, b = idx(g1, ln), idx(g2, ln)
            _claim(seen, a, b, ln, gens)
            items.append((a, b, Additive(int(p))))
            continue
        m = _RE_QUANTUM.match(s)
        if m:
            g1, g2, lit, g3, g4 = m.groups()
            if (g1, g2) != (g4, g3):
                raise ParseError(ln, "sides of a quantum relation must be the same "
                                     "pair in both orders")
            a, b = idx(g1, ln), idx(g2, ln)
            _claim(seen, a, b, ln, gens)
            items.append((a, b, Multiplicative(parse_scalar_literal(group, lit, ln))))
            continue
        raise ParseError(ln, f"unrecognized relation {s!r}")
    try:
        return Presentation.build(group, gens, items)
    except ValueError as exc:
        raise ParseError(0, str(exc)) from None


def _claim(seen, a, b, ln, gens):
    if a == b:
        raise ParseError(ln, f"self-relation on {gens[a]!r}")
    key = (min(a, b), max(a, b))
    if key in seen:
        raise ParseError(ln, f"duplicate relation for pair ({gens[key[0]]}, "
                             f"{gens[key[1]]})")
    seen.add(key)


def _split_top(text: str, sep: str) -> list[str]:
    out, depth, cur = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return out


def _build_qweyl(group, body_lines) -> QWeylSpec:
    fields = {}
    for ln, s in body_lines:
        for piece in (x.strip() for x in _split_top(s, ";")):
            if not piece:
                continue
            m = re.match(r"^(n|q|Lambda)\s*=\s*(.+)$", piece)
            if not m:
                raise ParseError(ln, f"bad qweyl clause {piece!r}")
            fields[m.group(1)] = (ln, m.group(2).strip())
    for key in ("n", "q", "Lambda"):
        if key not in fields:
            raise ParseError(body_lines[0][0] if body_lines else 1,
                             f"qweyl block is missing {key!r}")
    ln, ntext = fields["n"]
    if not ntext.isdigit() or int(ntext) < 1:
        raise ParseError(ln, f"bad qweyl size {ntext!r}")
    n = int(ntext)
    ln, qtext = fields["q"]
    if not (qtext.startswith("(") and qtext.endswith(")")):
        raise ParseError(ln, "q list must be parenthesized")
    qs = tuple(parse_scalar_literal(group, t, ln)
               for t in _split_top(qtext[1:-1], ","))
    if len(qs) != n:
        raise ParseError(ln, f"expected {n} quantization parameters, got {len(qs)}")
    ln, ltext = fields["Lambda"]
    lam = _parse_scalar_matrix(group, ltext, ln)
    if len(lam) != n or any(len(r) != n for r in lam):
        raise ParseError(ln, f"Lambda must be {n} x {n}")
    return QWeylSpec(group, n, qs, tuple(tuple(r) for r in lam))


def _parse_scalar_matrix(group, text, ln) -> list[list[Scalar]]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(ln, "matrix literal must be bracketed")
    rows = []
    for rtext in _split_top(text[1:-1], ","):
        rtext = rtext.strip()
        if not (rtext.startswith("[") and rtext.endswith("]")):
            raise ParseError(ln, f"bad matrix row {rtext!r}")
        rows.append([parse_scalar_literal(group, t, ln)
                     for t in _split_top(rtext[1:-1], ",")])
    return rows


def parse_presentation(text: str) -> Presentation:
    doc = parse_document(text)
    if doc.presentation is None:
        raise ParseError(1, "file does not contain a presentation")
    return doc.presentation


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
    for (i, j) in sorted(p.rels):
        rel = p.rels[(i, j)]
        gi, gj = p.gens[i], p.gens[j]
        if isinstance(rel, Additive):
            if rel.weight >= 0:
                rel_lines.append(f"  {gi} {gj} = {gj} {gi} + {rel.weight}")
            else:
                rel_lines.append(f"  {gj} {gi} = {gi} {gj} + {-rel.weight}")
        elif isinstance(rel, Multiplicative):
            rel_lines.append(f"  {gi} {gj} = {format_scalar(rel.weight)} * {gj} {gi}")
        else:
            w, y = (gi, gj) if rel.w_index == i else (gj, gi)
            rel_lines.append(f"  [{w}, {y}] = {y}")
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
    lam = "[" + ",".join(
        "[" + ", ".join(format_scalar(s) for s in row) + "]" for row in spec.lam) + "]"
    lines.append("qweyl {")
    lines.append(f"  n = {spec.n}")
    lines.append(f"  q = ({qlist})")
    lines.append(f"  Lambda = {lam}")
    lines.append("}")
    return "\n".join(lines) + "\n"
