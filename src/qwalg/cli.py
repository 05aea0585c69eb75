"""Command-line front end: batch classification queries over .qwa files.

Every subcommand prints a human-readable report followed by a stable
machine block of key=value lines (or a single JSON object with --json).
Exit codes: 0 for a computed verdict, 1 for the negative verdict of a
command that declares one (an inadmissible presentation under ``check``, a
map failing a relation under ``embed verify``), 2 for any input or
processing error.  ``COMMANDS`` declares each command's files, options and
exit codes; the parsers and the dispatcher all read it.  Parsers are built
per call and kept by nothing: an argv that starts with a command is read by
that command's parser alone when it can be (see ``_parse``), and any other
argv by the parser of every command.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, NamedTuple

from . import __version__
from .embeddings import Verified, embed_mixed, embed_torus, verify_homomorphism
from .mixed import (Equivalent, NotEquivalent, equivalence_decide, invariants,
                    reduce_to_canonical)
from .presentation import certified_system, check_admissible, system_from_presentation
from .qwa import (format_generator_map, format_presentation, format_scalar_matrix,
                  parse_document, parse_generator_map)
from .qweyl import (QuantumWeylAlgebra, localize_to_mixed,
                    qweyl_equivalence_necessary, qweyl_invariants)
from .scalars import merge_groups
from .torus import (Iso, NotIso, QuantumTorus, Violation, central_lattice,
                    check_morphism, is_isomorphism, uniparameter_iso_decide)

DISCLAIMER = ("verdicts are relative to the declared scalar group: free symbols "
              "are taken multiplicatively independent")


class CliError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


# File kinds: the document part the file must hold (None for a generator
# map, whose raw text the handler receives) and what the handler gets, made
# from the document; a torus file's relations go straight into exponents.
KINDS = {"presentation": ("presentation", lambda doc: doc.presentation),
         "torus": ("presentation",
                   lambda doc: QuantumTorus.from_relations(doc.group, *doc.presentation)),
         "qweyl": ("qweyl", lambda doc: QuantumWeylAlgebra.from_spec(doc.qweyl)),
         "map": (None, None)}


def _load(paths, kinds) -> list:
    """Read the files as their kinds ask, every parsed file over one scalar
    group: the merge of the declared groups.  A file whose declared group
    differs from the merge is parsed again into it."""
    texts, docs = [], []
    for path, kind in zip(paths, kinds):
        texts.append(_read(path))
        part = KINDS[kind][0]
        docs.append(parse_document(texts[-1], torus=kind == "torus") if part else None)
        if part and getattr(docs[-1], part) is None:
            what = "a presentation" if part == "presentation" else "a qweyl block"
            raise CliError(f"{path} does not contain {what}")
    group = functools.reduce(merge_groups, (d.group for d in docs if d))
    out = []
    for doc, text, kind in zip(docs, texts, kinds):
        part, make = KINDS[kind]
        if doc and doc.group != group:
            doc = parse_document(text, group, torus=kind == "torus")
        out.append(make(doc) if part else text)
    return out


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
# Handlers: one per command.  Each takes the parsed arguments and the loaded
# files, and returns (exit code, machine fields after the file keys, human
# report lines).


def cmd_check(args, p):
    report = check_admissible(p)
    confluent = system_from_presentation(p).certify()
    if report.admissible != confluent:
        raise CliError("internal disagreement between the triangle test and "
                       "the overlap resolution check")
    machine = {"verdict": "admissible" if report.admissible else "inadmissible",
               "confluent": str(confluent).lower()}
    human = [f"{args.files[0]}: {machine['verdict']}",
             "cross-check: overlap resolutions "
             + ("all agree" if confluent else "disagree")]
    if report.witness:
        machine["witness"] = report.triple(p.gens)
        human.append(f"violating triple: {machine['witness']}")
    return (0 if report.admissible else 1), machine, human


def cmd_reduce(args, p):
    algebra, cert = reduce_to_canonical(p)
    machine = {
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
        try:
            with open(args.emit_qwa, "w", encoding="utf-8") as fh:
                fh.write(format_presentation(algebra.to_presentation()))
        except OSError as exc:
            raise CliError(f"cannot write {args.emit_qwa}: {exc}") from None
        human.append(f"canonical presentation written to {args.emit_qwa}")
        machine["emitted"] = args.emit_qwa
    return 0, machine, human


def cmd_invariants(args, p):
    algebra, _ = reduce_to_canonical(p)
    inv = invariants(algebra)
    machine = {
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
    return 0, machine, human


def cmd_torus_simple(args, t):
    witness = central_lattice(t)
    simple = not witness
    machine = {"simple": str(simple).lower()}
    human = [f"torus on {t.n} generators: " + ("simple" if simple else "not simple")]
    if not simple:
        machine["witness"] = _mat(witness[:1])
        human.append(f"central monomial exponent: {witness[0]}")
    return 0, machine, human


def cmd_torus_center(args, t):
    basis = central_lattice(t)
    machine = {"rank": len(basis), "basis": _mat(basis)}
    return 0, machine, [f"central lattice rank {len(basis)}",
                        f"basis {machine['basis']}"]


def cmd_torus_iso(args, t1, t2):
    res = uniparameter_iso_decide(t1, t2, args.param)
    machine = {"param": args.param}
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
    return 0, machine, human


def cmd_torus_morphism(args, t1, t2):
    h = _int_matrix(args.matrix)
    res = check_morphism(t1, t2, h)
    machine = {"matrix": _mat(h)}
    if isinstance(res, Violation):
        machine.update(verdict="violation", at=f"({res.i + 1},{res.j + 1})")
        human = [f"matrix violates the weight equations at pair "
                 f"({res.i + 1},{res.j + 1})"]
    else:
        machine.update(verdict="morphism",
                       isomorphism=str(is_isomorphism(res)).lower())
        human = ["matrix defines a morphism"
                 + (" (isomorphism)" if is_isomorphism(res) else "")]
    return 0, machine, human


def cmd_qweyl_localize(args, a):
    res = localize_to_mixed(a)
    machine = {
        "n": res.canonical.n, "r": res.canonical.r,
        "lambda": format_scalar_matrix(res.canonical.lam),
        "relations_checked": res.relations_checked,
        "verified": "true",
    }
    # "Reduced to zero": each relation's defect has normal form zero, shown
    # by a reduction or by twist degrees (see verify_homomorphism).
    return 0, machine, [f"localization: canonical mixed algebra n={res.canonical.n} "
                        f"r={res.canonical.r}",
                        f"{res.relations_checked} relations reduced to zero"]


def cmd_qweyl_invariants(args, a):
    inv = qweyl_invariants(a)
    machine = {"gk_dim": inv.gk_dim, "w_supdeg": inv.w_supdeg,
               "center_trivial": "not_applicable" if inv.center_trivial is None
               else str(inv.center_trivial).lower()}
    return 0, machine, [f"gk dimension {inv.gk_dim}, w-supdeg {inv.w_supdeg}",
                        f"center trivial: {machine['center_trivial']}"]


def _equiv_fields(verdict):
    if isinstance(verdict, NotEquivalent):
        return (0, {"verdict": "not_equivalent", "reason": verdict.reason},
                [f"not equivalent ({verdict.reason}): {verdict.detail}"])
    if isinstance(verdict, Equivalent):
        h = _mat(verdict.h)
        return (0, {"verdict": "equivalent", "reason": verdict.reason, "h": h},
                [f"equivalent ({verdict.reason}); engine-verified witness both ways",
                 f"torus witness matrix {h}"])
    return (0, {"verdict": "inconclusive", "reason": "INCONCLUSIVE"},
            [f"inconclusive: {verdict.detail}"])


def cmd_qweyl_equiv(args, a, b):
    return _equiv_fields(qweyl_equivalence_necessary(a, b, param=args.param))


def cmd_embed_torus(args, t):
    gmap, field = embed_torus(t)
    machine = {"verified": "true", "m": field.m, "planes": field.n,
               "centrals": field.t}
    return 0, machine, [f"verified embedding into a Weyl-field presentation with "
                        f"{field.n} quantum planes and {field.t} central variables",
                        format_generator_map(gmap).rstrip()]


def cmd_embed_mixed(args, p):
    algebra, _ = reduce_to_canonical(p)
    gmap, field = embed_mixed(algebra)
    machine = {"verified": "true", "m": field.m, "planes": field.n,
               "centrals": field.t, "w_infdeg_target": 2 * field.m}
    return 0, machine, [f"verified embedding into a mixed Weyl field with m={field.m}, "
                        f"{field.n} planes, {field.t} central variables",
                        format_generator_map(gmap).rstrip()]


def cmd_embed_verify(args, src, tgt, map_text):
    sys_t = certified_system(tgt)
    if args.invert:
        for name in args.invert.split(","):
            sys_t, _ = sys_t.invert_generator(name.strip())
    res = verify_homomorphism(parse_generator_map(map_text, src, sys_t))
    if isinstance(res, Verified):
        return (0, {"verified": "true"},
                [f"map verified on {res.relations_checked} relations"])
    return (1, {"verified": "false", "failing_pair": f"({res.pair[0]},{res.pair[1]})"},
            [f"map fails on the relation of pair {res.pair}"])


def cmd_equiv(args, pa, pb):
    a, _ = reduce_to_canonical(pa)
    b, _ = reduce_to_canonical(pb)
    h = _int_matrix(args.matrix) if args.matrix else None
    return _equiv_fields(equivalence_decide(a, b, param=args.param, supplied_h=h))


# ---------------------------------------------------------------------------
# The command table.


class Command(NamedTuple):
    run: Callable
    files: tuple          # (machine-block key, file kind) of each file
    options: dict = {}    # option -> "required" or "optional"
    exits: tuple = (0,)   # exit codes of its verdicts


ONE = {kind: (("file", kind),) for kind in KINDS}
TWO = {kind: (("file_a", kind), ("file_b", kind)) for kind in KINDS}

# One entry per command, in the order of the help text.  A two-word name is a
# subcommand of a top-level command; HELP describes the top-level ones.
COMMANDS = {
    "check": Command(cmd_check, ONE["presentation"], exits=(0, 1)),
    "reduce": Command(cmd_reduce, ONE["presentation"], {"emit-qwa": "optional"}),
    "invariants": Command(cmd_invariants, ONE["presentation"]),
    "torus simple": Command(cmd_torus_simple, ONE["torus"]),
    "torus center": Command(cmd_torus_center, ONE["torus"]),
    "torus iso": Command(cmd_torus_iso, TWO["torus"], {"param": "required"}),
    "torus morphism": Command(cmd_torus_morphism, TWO["torus"], {"matrix": "required"}),
    "qweyl localize": Command(cmd_qweyl_localize, ONE["qweyl"]),
    "qweyl invariants": Command(cmd_qweyl_invariants, ONE["qweyl"]),
    "qweyl equiv": Command(cmd_qweyl_equiv, TWO["qweyl"], {"param": "optional"}),
    "embed torus": Command(cmd_embed_torus, ONE["torus"]),
    "embed mixed": Command(cmd_embed_mixed, ONE["presentation"]),
    "embed verify": Command(cmd_embed_verify, (("source", "presentation"),
                                               ("target", "presentation"), ("map", "map")),
                            {"invert": "optional"}, exits=(0, 1)),
    "equiv": Command(cmd_equiv, TWO["presentation"],
                     {"param": "optional", "matrix": "optional"}),
}
HELP = {"check": "parse + admissibility + confluence cross-check",
        "reduce": "canonical (n, r, Lambda) with certificate",
        "invariants": "rational invariants of the reduced algebra",
        "torus": "quantum torus queries",
        "qweyl": "quantum Weyl algebra queries",
        "embed": "embedding constructions and verification",
        "equiv": "full equivalence decision with reason code"}
# The argparse keywords of each option.
OPTIONS = {"emit-qwa": {"metavar": "OUT"}, "param": {},
           "matrix": {"help": "torus matrix to verify and use, as JSON integer rows"},
           "invert": {"help": "comma list of target generators to invert"}}
# Each top-level command's commands, and the options any of them takes.
SUBS = {top: [n for n in COMMANDS if n.split()[0] == top] for top in HELP}
TAKES = {top: [o for o in OPTIONS if any(o in COMMANDS[n].options for n in SUBS[top])]
         for top in HELP}


def _arguments(sp: argparse.ArgumentParser, top: str) -> argparse.ArgumentParser:
    """``sp`` with the arguments of the top-level command ``top``."""
    names = SUBS[top]
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
    return sp


def _parse(argv: list[str]) -> argparse.Namespace:
    """The arguments of ``argv``, as the parser of every command reads them.
    That parser hands everything after a leading command to the command's
    parser, ``qwalg <cmd>``; on its own it fails only on arguments the
    command's parser leaves over, or on one starting with ``--=``, which is
    ambiguous among the root's options before the hand-over.  So a command
    argv with neither is read by the command's parser alone, and any other
    argv by the parser of every command, which prints its own usage and
    error."""
    if argv and argv[0] in SUBS and not any(a.startswith("--=") for a in argv):
        args, rest = _arguments(argparse.ArgumentParser(prog=f"qwalg {argv[0]}"),
                                argv[0]).parse_known_args(argv[1:])
        if not rest:
            args.cmd = argv[0]
            return args
    parser = argparse.ArgumentParser(
        prog="qwalg",
        description="Exact classification toolkit for mixed classical/quantum "
                    "polynomial algebras")
    parser.add_argument("--version", action="version", version=__version__)
    # The prog that argparse would otherwise derive by formatting the usage.
    sub = parser.add_subparsers(dest="cmd", required=True, prog="qwalg")
    for top in SUBS:
        _arguments(sub.add_parser(top, help=HELP[top]), top)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    name = f"{args.cmd} {args.sub}" if "sub" in args else args.cmd
    cmd = COMMANDS[name]
    try:
        args.files = args.files if "files" in args else [args.file]
        if len(args.files) != len(cmd.files):
            raise CliError(f"{name} takes {len(cmd.files)} file(s), "
                           f"got {len(args.files)}")
        for opt in OPTIONS:
            given = getattr(args, opt.replace("-", "_"), None)
            if cmd.options.get(opt) == "required" and not given:
                raise CliError(f"{name} needs --{opt}")
            if given is not None and opt not in cmd.options:
                raise CliError(f"{name} does not take --{opt}")
        loaded = _load(args.files, [kind for _, kind in cmd.files])
        rc, fields, human = cmd.run(args, *loaded)
        if rc not in cmd.exits:
            raise AssertionError(f"{name} exit code {rc} is not declared")
        _emit({"command": name.replace(" ", "."),
               **{key: path for (key, _), path in zip(cmd.files, args.files)},
               **fields, "semantics": "generic-parameters"}, human, args)
        return rc
    except Exception as exc:  # exit contract: every failure is exit 2
        # Input errors (ParseError and GroupMismatch are ValueErrors) speak
        # for themselves; anything else is named by its type.
        kind = "" if isinstance(exc, (CliError, ValueError)) else f"{type(exc).__name__}: "
        print(f"error: {kind}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
