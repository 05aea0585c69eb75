"""Command-line front end: batch classification queries over .qwa files.

Every subcommand prints a human-readable report followed by a stable
machine block of key=value lines (or a single JSON object with --json).
Exit codes: 0 for a computed verdict, 1 for an inadmissible presentation
under ``check``, 2 for any input or processing error.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .embeddings import Verified, embed_mixed, embed_torus, verify_homomorphism
from .mixed import (Equivalent, NotEquivalent, equivalence_decide, invariants,
                    reduce_to_canonical)
from .presentation import (Presentation, certified_system, check_admissible,
                           system_from_presentation)
from .qwa import (format_generator_map, format_presentation, format_scalar_matrix,
                  parse_document, parse_generator_map)
from .qweyl import (QuantumWeylAlgebra, localize_to_mixed,
                    qweyl_equivalence_necessary, qweyl_invariants)
from .rewrite import Confluent
from .scalars import merge_groups
from .torus import (Iso, NotIso, QuantumTorus, Violation, central_lattice,
                    check_morphism, is_isomorphism, uniparameter_iso_decide)

DISCLAIMER = ("verdicts are relative to the declared scalar group: free symbols "
              "are taken multiplicatively independent")
# Files taken by the subcommands with a ``sub`` choice; the others take one.
FILES = {"iso": 2, "morphism": 2, "equiv": 2, "verify": 3}


class CliError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _load(paths, part: str) -> list:
    """Parse the files and return the ``part`` ("presentation" or "qweyl") of
    each, all over one scalar group: the merge of the declared groups.  A file
    whose declared group differs from the merge is parsed again into it."""
    texts, docs = [], []
    for path in paths:
        texts.append(_read(path))
        docs.append(parse_document(texts[-1]))
        if getattr(docs[-1], part) is None:
            what = "a presentation" if part == "presentation" else "a qweyl block"
            raise CliError(f"{path} does not contain {what}")
    group = functools.reduce(merge_groups, (d.group for d in docs))
    return [getattr(d if d.group == group else parse_document(t, group), part)
            for d, t in zip(docs, texts)]


def _load_presentations(*paths: str) -> list[Presentation]:
    return _load(paths, "presentation")


def _load_tori(*paths: str) -> list[QuantumTorus]:
    return [QuantumTorus.from_presentation(p) for p in _load(paths, "presentation")]


def _load_qweyls(*paths: str) -> list[QuantumWeylAlgebra]:
    return [QuantumWeylAlgebra.from_spec(s) for s in _load(paths, "qweyl")]


def _mat(m) -> str:
    return json.dumps([list(r) for r in m], separators=(",", ":"))


def _int_matrix(text: str) -> list[list[int]]:
    """The --matrix option: a JSON list of equal-length lists of integers."""
    try:
        h = json.loads(text)
    except ValueError:
        h = None
    if not (isinstance(h, list) and h and all(
            isinstance(row, list) and len(row) == len(h[0])
            and all(type(x) is int for x in row) for row in h)):
        raise CliError(f"--matrix must be a JSON list of equal-length lists "
                       f"of integers, got {text}")
    return h


def _emit(machine: dict, human: list[str], args) -> None:
    machine = {"command": machine.pop("command"), **machine,
               "semantics": "generic-parameters"}
    if args.json:
        print(json.dumps(machine))
        return
    for line in human:
        print(line)
    print(f"note: {DISCLAIMER}")
    print("---")
    for k, v in machine.items():
        print(f"{k}={v}")


def _subgroup_fields(prefix: str, sub) -> dict:
    return {
        f"{prefix}_torsion_order": sub.torsion_order,
        f"{prefix}_free_basis": _mat(sub.free_basis),
        f"{prefix}_trivial": str(sub.is_trivial()).lower(),
    }


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_check(args) -> int:
    p, = _load_presentations(args.file)
    report = check_admissible(p)
    verdict = system_from_presentation(p).check_confluence()
    confluent = isinstance(verdict, Confluent)
    if report.admissible != confluent:
        raise CliError("internal disagreement between the triangle test and "
                       "the overlap resolution check")
    machine = {
        "command": "check",
        "file": args.file,
        "verdict": "admissible" if report.admissible else "inadmissible",
        "confluent": str(confluent).lower(),
    }
    human = [f"{args.file}: {machine['verdict']}",
             "cross-check: overlap resolutions "
             + ("all agree" if confluent else "disagree")]
    if report.witness:
        machine["witness"] = report.triple(p.gens)
        human.append(f"violating triple: {machine['witness']}")
    _emit(machine, human, args)
    return 0 if report.admissible else 1


def cmd_reduce(args) -> int:
    p, = _load_presentations(args.file)
    algebra, cert = reduce_to_canonical(p)
    machine = {
        "command": "reduce",
        "file": args.file,
        "n": algebra.n,
        "r": algebra.r,
        "lambda": format_scalar_matrix(algebra.lam),
        "certificate_ops": len(cert.ops),
        "certificate": cert.describe(),
        "pairing": ";".join(f"{x}:{y}" for x, y in cert.pairing),
    }
    human = [f"canonical mixed algebra: n={algebra.n} r={algebra.r}",
             f"weight matrix {machine['lambda']}",
             f"certificate: {len(cert.ops)} elementary generator changes"]
    if cert.pairing:
        human.append("Weyl pairs (x : y): "
                     + ", ".join(f"{x}:{y}" for x, y in cert.pairing))
    if args.emit_qwa:
        with open(args.emit_qwa, "w", encoding="utf-8") as fh:
            fh.write(format_presentation(algebra.to_presentation()))
        human.append(f"canonical presentation written to {args.emit_qwa}")
        machine["emitted"] = args.emit_qwa
    _emit(machine, human, args)
    return 0


def cmd_invariants(args) -> int:
    p, = _load_presentations(args.file)
    algebra, _ = reduce_to_canonical(p)
    inv = invariants(algebra)
    machine = {
        "command": "invariants",
        "file": args.file,
        "n": algebra.n,
        "r": algebra.r,
        "gk_dim": inv.gk_dim,
        "gk_trdeg": inv.gk_trdeg,
        "w_supdeg": inv.w_supdeg,
        "E": "k" if inv.e_is_field else "0",
        **_subgroup_fields("G", inv.g_subgroup),
        "center_rank": inv.center_rank,
        "center_basis": _mat(inv.center_basis),
        "torus_simple": str(inv.torus_simple).lower(),
    }
    human = [
        f"gk dimension / transcendence degree: {inv.gk_dim}",
        f"w-supdeg: {inv.w_supdeg}",
        f"E = {'k' if inv.e_is_field else '0'}; "
        f"G trivial: {inv.g_subgroup.is_trivial()}",
        f"center lattice rank: {inv.center_rank}",
        f"parameter torus simple: {inv.torus_simple}",
    ]
    _emit(machine, human, args)
    return 0


def cmd_torus(args) -> int:
    if args.sub == "simple":
        t, = _load_tori(args.files[0])
        witness = central_lattice(t)
        simple = not witness
        machine = {"command": "torus.simple", "file": args.files[0],
                   "simple": str(simple).lower()}
        human = [f"torus on {t.n} generators: "
                 + ("simple" if simple else "not simple")]
        if not simple:
            machine["witness"] = _mat(witness[:1])
            human.append(f"central monomial exponent: {witness[0]}")
        _emit(machine, human, args)
        return 0
    if args.sub == "center":
        t, = _load_tori(args.files[0])
        basis = central_lattice(t)
        machine = {"command": "torus.center", "file": args.files[0],
                   "rank": len(basis), "basis": _mat(basis)}
        _emit(machine, [f"central lattice rank {len(basis)}",
                        f"basis {machine['basis']}"], args)
        return 0
    if args.sub == "iso":
        if not args.param:
            raise CliError("torus iso needs --param")
        t1, t2 = _load_tori(*args.files)
        res = uniparameter_iso_decide(t1, t2, args.param)
        machine = {"command": "torus.iso", "file_a": args.files[0],
                   "file_b": args.files[1], "param": args.param}
        if isinstance(res, Iso):
            machine.update(verdict="iso", h=_mat(res.h),
                           divisors=_mat([list(res.canonical)]))
            human = [f"isomorphic; witness exponent matrix {machine['h']}"]
        elif isinstance(res, NotIso):
            machine.update(verdict="not_iso",
                           divisors_a=_mat([list(res.canonical_1)]),
                           divisors_b=_mat([list(res.canonical_2)]))
            human = [f"not isomorphic: canonical divisors "
                     f"{list(res.canonical_1)} vs {list(res.canonical_2)}"]
        else:
            machine.update(verdict="not_applicable", detail=res.reason)
            human = [f"not applicable: {res.reason}"]
        _emit(machine, human, args)
        return 0
    # morphism, the last of the argparse choices
    if not args.matrix:
        raise CliError("torus morphism needs --matrix")
    t1, t2 = _load_tori(*args.files)
    h = _int_matrix(args.matrix)
    res = check_morphism(t1, t2, h)
    machine = {"command": "torus.morphism", "file_a": args.files[0],
               "file_b": args.files[1], "matrix": _mat(h)}
    if isinstance(res, Violation):
        machine.update(verdict="violation", at=f"({res.i + 1},{res.j + 1})")
        human = [f"matrix violates the weight equations at pair "
                 f"({res.i + 1},{res.j + 1})"]
    else:
        machine.update(verdict="morphism",
                       isomorphism=str(is_isomorphism(res)).lower())
        human = ["matrix defines a morphism"
                 + (" (isomorphism)" if is_isomorphism(res) else "")]
    _emit(machine, human, args)
    return 0


def cmd_qweyl(args) -> int:
    if args.sub == "localize":
        a, = _load_qweyls(args.files[0])
        res = localize_to_mixed(a)
        machine = {
            "command": "qweyl.localize", "file": args.files[0],
            "n": res.canonical.n, "r": res.canonical.r,
            "lambda": format_scalar_matrix(res.canonical.lam),
            "relations_checked": res.relations_checked,
            "verified": "true",
        }
        human = [f"localization: canonical mixed algebra n={res.canonical.n} "
                 f"r={res.canonical.r}",
                 f"{res.relations_checked} relations reduced to zero"]
        _emit(machine, human, args)
        return 0
    if args.sub == "invariants":
        a, = _load_qweyls(args.files[0])
        inv = qweyl_invariants(a)
        machine = {"command": "qweyl.invariants", "file": args.files[0],
                   "gk_dim": inv.gk_dim, "w_supdeg": inv.w_supdeg,
                   "center_trivial": "not_applicable" if inv.center_trivial is None
                   else str(inv.center_trivial).lower()}
        human = [f"gk dimension {inv.gk_dim}, w-supdeg {inv.w_supdeg}",
                 f"center trivial: {machine['center_trivial']}"]
        _emit(machine, human, args)
        return 0
    # equiv, the last of the argparse choices
    a, b = _load_qweyls(*args.files)
    verdict = qweyl_equivalence_necessary(a, b, param=args.param)
    machine = {"command": "qweyl.equiv", "file_a": args.files[0],
               "file_b": args.files[1]}
    human = _equiv_human(verdict, machine)
    _emit(machine, human, args)
    return 0


def cmd_embed(args) -> int:
    if args.sub == "torus":
        t, = _load_tori(args.files[0])
        gmap, field = embed_torus(t)
        machine = {"command": "embed.torus", "file": args.files[0],
                   "verified": "true", "m": field.m, "planes": field.n,
                   "centrals": field.t}
        human = [f"verified embedding into a Weyl-field presentation with "
                 f"{field.n} quantum planes and {field.t} central variables",
                 format_generator_map(gmap).rstrip()]
        _emit(machine, human, args)
        return 0
    if args.sub == "mixed":
        p, = _load_presentations(args.files[0])
        algebra, _ = reduce_to_canonical(p)
        gmap, field = embed_mixed(algebra)
        machine = {"command": "embed.mixed", "file": args.files[0],
                   "verified": "true", "m": field.m, "planes": field.n,
                   "centrals": field.t, "w_infdeg_target": 2 * field.m}
        human = [f"verified embedding into a mixed Weyl field with m={field.m}, "
                 f"{field.n} planes, {field.t} central variables",
                 format_generator_map(gmap).rstrip()]
        _emit(machine, human, args)
        return 0
    # verify, the last of the argparse choices
    src, tgt = _load_presentations(*args.files[:2])
    sys_t = certified_system(tgt)
    if args.invert:
        for name in args.invert.split(","):
            sys_t, _ = sys_t.invert_generator(name.strip())
    gmap = parse_generator_map(_read(args.files[2]), src, sys_t)
    res = verify_homomorphism(gmap)
    ok = isinstance(res, Verified)
    machine = {"command": "embed.verify", "source": args.files[0],
               "target": args.files[1], "map": args.files[2],
               "verified": str(ok).lower()}
    if ok:
        human = [f"map verified on {res.relations_checked} relations"]
    else:
        machine["failing_pair"] = f"({res.pair[0]},{res.pair[1]})"
        human = [f"map fails on the relation of pair {res.pair}"]
    _emit(machine, human, args)
    return 0 if ok else 1


def _equiv_human(verdict, machine: dict) -> list[str]:
    if isinstance(verdict, NotEquivalent):
        machine.update(verdict="not_equivalent", reason=verdict.reason)
        return [f"not equivalent ({verdict.reason}): {verdict.detail}"]
    if isinstance(verdict, Equivalent):
        machine.update(verdict="equivalent", reason=verdict.reason,
                       h=_mat(verdict.h))
        return [f"equivalent ({verdict.reason}); engine-verified witness both ways",
                f"torus witness matrix {machine['h']}"]
    machine.update(verdict="inconclusive", reason="INCONCLUSIVE")
    return [f"inconclusive: {verdict.detail}"]


def cmd_equiv(args) -> int:
    pa, pb = _load_presentations(*args.files)
    a, _ = reduce_to_canonical(pa)
    b, _ = reduce_to_canonical(pb)
    h = _int_matrix(args.matrix) if args.matrix else None
    verdict = equivalence_decide(a, b, param=args.param, supplied_h=h)
    machine = {"command": "equiv", "file_a": args.files[0],
               "file_b": args.files[1]}
    human = _equiv_human(verdict, machine)
    _emit(machine, human, args)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qwalg",
        description="Exact classification toolkit for mixed classical/quantum "
                    "polynomial algebras")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(sp, run):
        sp.add_argument("--json", action="store_true",
                        help="print the machine block as JSON only")
        sp.set_defaults(run=run)

    sp = sub.add_parser("check", help="parse + admissibility + confluence cross-check")
    sp.add_argument("file")
    common(sp, cmd_check)

    sp = sub.add_parser("reduce", help="canonical (n, r, Lambda) with certificate")
    sp.add_argument("file")
    sp.add_argument("--emit-qwa", metavar="OUT")
    common(sp, cmd_reduce)

    sp = sub.add_parser("invariants", help="rational invariants of the reduced algebra")
    sp.add_argument("file")
    common(sp, cmd_invariants)

    sp = sub.add_parser("torus", help="quantum torus queries")
    sp.add_argument("sub", choices=["simple", "center", "iso", "morphism"])
    sp.add_argument("files", nargs="+")
    sp.add_argument("--param")
    sp.add_argument("--matrix")
    common(sp, cmd_torus)

    sp = sub.add_parser("qweyl", help="quantum Weyl algebra queries")
    sp.add_argument("sub", choices=["localize", "invariants", "equiv"])
    sp.add_argument("files", nargs="+")
    sp.add_argument("--param")
    common(sp, cmd_qweyl)

    sp = sub.add_parser("embed", help="embedding constructions and verification")
    sp.add_argument("sub", choices=["torus", "mixed", "verify"])
    sp.add_argument("files", nargs="+")
    sp.add_argument("--invert", help="comma list of target generators to invert")
    common(sp, cmd_embed)

    sp = sub.add_parser("equiv", help="full equivalence decision with reason code")
    sp.add_argument("files", nargs=2)
    sp.add_argument("--param")
    sp.add_argument("--matrix", help="torus isomorphism matrix to verify and use")
    common(sp, cmd_equiv)

    args = parser.parse_args(argv)
    try:
        if "sub" in args and len(args.files) != (n := FILES.get(args.sub, 1)):
            raise CliError(f"{args.cmd} {args.sub} takes {n} file(s), "
                           f"got {len(args.files)}")
        return args.run(args)
    except Exception as exc:  # exit contract: every failure is exit 2
        # Input errors (ParseError and GroupMismatch are ValueErrors) speak
        # for themselves; anything else is named by its type.
        kind = "" if isinstance(exc, (CliError, ValueError)) else f"{type(exc).__name__}: "
        print(f"error: {kind}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
