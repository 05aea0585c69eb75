import argparse
import gc
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

import qwalg
from qwalg import intlattice
from qwalg.cli import COMMANDS, OPTIONS, SUBS, _parse, main
from qwalg.qwa import format_presentation, parse_presentation

from support import CORPUS, cli_output, corpus, parse_output, reference_parser

README = Path(__file__).parents[1] / "README.md"


def machine_block(out: str) -> dict:
    lines = out.splitlines()
    sep = lines.index("---")
    pairs = [ln.split("=", 1) for ln in lines[sep + 1:] if ln]
    return {k: v for k, v in pairs}


def test_check_admissible(capsys):
    rc = main(["check", corpus("s22q.qwa")])
    out = capsys.readouterr().out
    assert rc == 0
    block = machine_block(out)
    assert block["verdict"] == "admissible"
    assert block["confluent"] == "true"
    assert block["semantics"] == "generic-parameters"


def test_check_inadmissible(tmp_path, capsys):
    bad = tmp_path / "bad.qwa"
    bad.write_text("""\
scalars { free q }
generators a, b, c
relations {
  a b = b a + 1
  a c = q * c a
  b c = q * c b
}
""")
    rc = main(["check", str(bad)])
    out = capsys.readouterr().out
    assert rc == 1
    block = machine_block(out)
    assert block["verdict"] == "inadmissible"
    assert block["witness"] == "(a,b,c)"


@pytest.mark.parametrize("argv", [["reduce"], ["invariants"], ["embed", "mixed"]])
def test_inadmissible_error_names_generators(tmp_path, capsys, argv):
    bad = tmp_path / "bad.qwa"
    bad.write_text("scalars { free q }\ngenerators a, b, c\nrelations {\n"
                   "  a b = b a + 1\n  a c = q * c a\n  b c = q * c b\n}\n")
    for args in (argv + [str(bad)], ["equiv", str(bad), str(bad)]):
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err == "error: presentation is inadmissible; violating triple (a,b,c)\n"
        assert "ScalarGroup(" not in err


def test_check_empty_relations(tmp_path, capsys):
    f = tmp_path / "comm.qwa"
    f.write_text("generators a, b, c\n")
    assert main(["check", str(f)]) == 0


def test_check_missing_file(capsys):
    rc = main(["check", "/nonexistent/file.qwa"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_huge_root_order_fails_fast(tmp_path, capsys):
    f = tmp_path / "huge.qwa"
    f.write_text("scalars { root zeta : 20011 ; free q }\ngenerators y1, y2\n"
                 "relations {\n  y1 y2 = q * y2 y1\n}\n")
    start = time.perf_counter()
    assert main(["check", str(f)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: root order 20011 is too large")
    assert main(["torus", "simple", str(f)]) == 0  # no coefficient ring needed


def test_prime_root_order_past_the_table_bound_fails_fast(tmp_path):
    """A prime e past the bound is refused before phi(e) is computed, whose
    trial division would take sqrt(e) steps."""
    f = tmp_path / "huge.qwa"
    f.write_text("scalars { root z : 1000000000000000003 }\ngenerators a, b\n"
                 "relations {\n  a b = z * b a\n}\n")
    start = time.perf_counter()
    assert cli_output(["check", str(f)]) == (
        2, "", "error: root order 1000000000000000003 is too large: its table of "
               "roots would need e * phi(e) > 400000 entries\n")
    assert time.perf_counter() - start < 1.0


def test_reduce_triangle(capsys, tmp_path):
    out_path = tmp_path / "canon.qwa"
    rc = main(["reduce", corpus("weyl_triangle.qwa"), "--emit-qwa", str(out_path)])
    out = capsys.readouterr().out
    assert rc == 0
    block = machine_block(out)
    assert (block["n"], block["r"]) == ("2", "1")
    emitted = parse_presentation(out_path.read_text())
    assert emitted.n == 3


def test_invariants_s22(capsys):
    rc = main(["invariants", corpus("s22q.qwa"), "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert data["gk_dim"] == 4
    assert data["w_supdeg"] == 4
    assert data["E"] == "k"
    assert data["torus_simple"] == "true"


def test_torus_simple_and_center(capsys):
    assert main(["torus", "simple", corpus("torus_q2.qwa")]) == 0
    out = capsys.readouterr().out
    assert machine_block(out)["simple"] == "true"
    assert main(["torus", "center", corpus("torus_counterexample4.qwa")]) == 0
    out = capsys.readouterr().out
    block = machine_block(out)
    assert block["rank"] == "2"
    assert json.loads(block["basis"]) == [[0, 0, 2, 0], [0, 0, 0, 2]]
    # On every corpus torus the simplicity witness is the first centre row.
    tori = 0
    for path in sorted(CORPUS.glob("*.qwa")):
        if main(["torus", "center", str(path), "--json"]) != 0:
            capsys.readouterr()
            continue
        basis = json.loads(json.loads(capsys.readouterr().out)["basis"])
        assert main(["torus", "simple", str(path), "--json"]) == 0
        simple = json.loads(capsys.readouterr().out)
        assert simple["simple"] == str(not basis).lower()
        assert json.loads(simple.get("witness", "[]")) == basis[:1]
        tori += 1
    assert tori >= 4


def test_large_torus_center_needs_no_hermite_form(tmp_path, monkeypatch, capsys):
    """A one-parameter torus on 100 generators with exponents in +-1000 has
    a full-rank exponent matrix: the elimination stops at full rank, so its
    centre is 0 with no Hermite form."""
    def refuse(a):
        raise AssertionError("hermite_nf called")

    rng = random.Random(100)
    n = 100
    rels = [f"  y{i} y{j} = q^{rng.randint(-1000, 1000)} * y{j} y{i}"
            for i in range(n) for j in range(i + 1, n)]
    path = tmp_path / "torus100.qwa"
    path.write_text("scalars { free q }\ngenerators "
                    + ", ".join(f"y{i}" for i in range(n))
                    + "\nrelations {\n" + "\n".join(rels) + "\n}\n")
    monkeypatch.setattr(intlattice, "hermite_nf", refuse)
    assert main(["torus", "center", str(path)]) == 0
    block = machine_block(capsys.readouterr().out)
    assert block["rank"] == "0" and block["basis"] == "[]"


def test_torus_iso(capsys):
    rc = main(["torus", "iso", corpus("torus_q2.qwa"), corpus("torus_d2.qwa"),
               "--param", "q"])
    out = capsys.readouterr().out
    assert rc == 0
    assert machine_block(out)["verdict"] == "not_iso"
    rc = main(["torus", "iso", corpus("torus_q2.qwa"), corpus("torus_q2.qwa"),
               "--param", "q"])
    out = capsys.readouterr().out
    assert machine_block(out)["verdict"] == "iso"


def test_torus_iso_not_applicable(tmp_path):
    """The +-1 torus over { root zeta : 2 ; free q } has a torsion weight, so
    it is not one-parameter in q: a verdict, exit 0, with its block frozen."""
    path = tmp_path / "minus1.qwa"
    path.write_text("scalars { root zeta : 2 ; free q }\ngenerators y1, y2\n"
                    "relations {\n  y1 y2 = -1 * y2 y1\n}\n")
    argv = ["torus", "iso", str(path), str(path), "--param", "q"]
    detail = "a torus is not uniparameter in the given symbol"
    rc, out, err = cli_output(argv)
    assert (rc, err) == (0, "")
    assert out.split("---\n")[1] == (
        f"command=torus.iso\nfile_a={path}\nfile_b={path}\nparam=q\n"
        f"verdict=not_applicable\ndetail={detail}\nsemantics=generic-parameters\n")
    rc, out, err = cli_output(argv + ["--json"])
    assert (rc, err) == (0, "")
    assert out == (
        f'{{"command": "torus.iso", "file_a": "{path}", "file_b": "{path}", '
        f'"param": "q", "verdict": "not_applicable", "detail": "{detail}", '
        f'"semantics": "generic-parameters"}}\n')


def test_torus_morphism(capsys):
    rc = main(["torus", "morphism", corpus("torus_d2.qwa"), corpus("torus_q2.qwa"),
               "--matrix", "[[2,0],[0,1]]"])
    out = capsys.readouterr().out
    assert rc == 0
    block = machine_block(out)
    assert block["verdict"] == "morphism"
    assert block["isomorphism"] == "false"


def test_torus_morphism_violation_names_its_pair():
    a, b = corpus("torus_q2.qwa"), corpus("torus_d2.qwa")
    assert cli_output(["torus", "morphism", "--matrix", "[[1,0],[0,1]]", a, b]) == (0, (
        "matrix violates the weight equations at pair (1,2)\n"
        "note: verdicts are relative to the declared scalar group: free symbols "
        "are taken multiplicatively independent\n"
        f"---\ncommand=torus.morphism\nfile_a={a}\nfile_b={b}\nmatrix=[[1,0],[0,1]]\n"
        "verdict=violation\nat=(1,2)\nsemantics=generic-parameters\n"), "")


def test_qweyl_commands(capsys):
    assert main(["qweyl", "localize", corpus("qweyl_a2.qwa")]) == 0
    block = machine_block(capsys.readouterr().out)
    assert (block["n"], block["r"]) == ("3", "1")
    assert block["verified"] == "true"
    assert main(["qweyl", "invariants", corpus("qweyl_a2.qwa")]) == 0
    block = machine_block(capsys.readouterr().out)
    assert block["w_supdeg"] == "2"
    assert main(["qweyl", "equiv", corpus("qweyl_a2.qwa"),
                 corpus("qweyl_a1.qwa")]) == 0
    block = machine_block(capsys.readouterr().out)
    assert block["verdict"] == "not_equivalent"
    assert block["reason"] == "NEQ_GK"


@pytest.mark.parametrize("sub", ["torus", "mixed"])
def test_embed_line_goes_to_one_central_variable(tmp_path, capsys, sub):
    # y1 -> 1 would send y1 - 1 to zero; the line needs a variable.
    line = tmp_path / "line.qwa"
    line.write_text("generators y1\n")
    assert main(["embed", sub, str(line)]) == 0
    out = capsys.readouterr().out
    assert "  y1 -> z1" in out.splitlines()
    block = machine_block(out)
    assert (block["verified"], block["planes"], block["centrals"]) == ("true", "0", "1")


def test_embed_commands(capsys, tmp_path):
    assert main(["embed", "torus", corpus("quantum_space3.qwa")]) == 0
    block = machine_block(capsys.readouterr().out)
    assert block["verified"] == "true"
    assert main(["embed", "mixed", corpus("s22q.qwa")]) == 0
    block = machine_block(capsys.readouterr().out)
    assert (block["m"], block["planes"], block["centrals"]) == ("2", "1", "0")

    target = tmp_path / "target.qwa"
    target.write_text("""\
scalars { free q }
generators w, y, u, v
relations {
  [w, y] = y
  u v = q * v u
}
""")
    mp = tmp_path / "map.map"
    mp.write_text("map {\n  y1 -> y u\n  y2 -> v\n  w1 -> w\n}\n")
    rc = main(["embed", "verify", corpus("s21q.qwa"), str(target), str(mp)])
    assert rc == 2  # source is the polynomial presentation, not the derivation one
    src = tmp_path / "t21.qwa"
    src.write_text("""\
scalars { free q }
generators y1, y2, w1
relations {
  y1 y2 = q * y2 y1
  [w1, y1] = y1
}
""")
    rc = main(["embed", "verify", str(src), str(target), str(mp)])
    out = capsys.readouterr().out
    assert rc == 0
    assert machine_block(out)["verified"] == "true"

    # A map that fails a relation is a negative verdict: exit 1, full block.
    bad = tmp_path / "bad.map"
    bad.write_text("map {\n  y1 -> y u\n  y2 -> u\n  w1 -> w\n}\n")
    assert main(["embed", "verify", str(src), str(target), str(bad)]) == 1
    block = machine_block(capsys.readouterr().out)
    assert (block["verified"], block["failing_pair"]) == ("false", "(y1,y2)")


def test_embed_verify_inverts_target_generators(tmp_path):
    """--invert adjoins y1^-1 to the quantum plane before the map is read:
    a -> y1^-1, b -> y2 carries a b = q^-1 b a and fails a b = q b a."""
    plane = corpus("quantum_plane.qwa")
    mp = tmp_path / "inv.map"
    mp.write_text("map {\n  a -> y1^-1\n  b -> y2\n}\n")
    src, bad = tmp_path / "src.qwa", tmp_path / "bad.qwa"
    for path, power in ((src, "q^-1"), (bad, "q")):
        path.write_text(f"scalars {{ free q }}\ngenerators a, b\n"
                        f"relations {{\n  a b = {power} * b a\n}}\n")
    rc, out, err = cli_output(["embed", "verify", str(src), plane, str(mp), "--invert", "y1"])
    assert (rc, err) == (0, "")
    assert machine_block(out)["verified"] == "true"
    rc, out, err = cli_output(["embed", "verify", str(bad), plane, str(mp), "--invert", "y1"])
    assert (rc, err) == (1, "")
    block = machine_block(out)
    assert (block["verified"], block["failing_pair"]) == ("false", "(a,b)")
    rc, out, err = cli_output(["embed", "verify", str(src), plane, str(mp),
                               "--invert", "bogus"])
    assert (rc, out) == (2, "")
    assert err == "error: unknown generator 'bogus'\n"


def test_equiv_command(capsys):
    rc = main(["equiv", corpus("s21q.qwa"), corpus("s22q.qwa")])
    out = capsys.readouterr().out
    assert rc == 0
    block = machine_block(out)
    assert block["verdict"] == "not_equivalent"
    assert block["reason"] == "NEQ_WSUPDEG"
    rc = main(["equiv", corpus("s22q.qwa"), corpus("s22q.qwa")])
    block = machine_block(capsys.readouterr().out)
    assert block["verdict"] == "equivalent"
    assert block["reason"] == "EQ_SEMICLASSICAL"


QWEYL2 = "qweyl {\n  n = 2\n  q = (q, q)\n  Lambda = [[1, 1], [1, 1]]\n}\n"
# (file text, error message): refusals of a .qwa file that no other test
# triggers through the CLI.
REFUSED_FILES = [
    ("generators a, b\nrelations\n", "line 2: expected '{' after 'relations'"),
    ("scalars { root z : 2 ; root w : 3 }\ngenerators a\n",
     "line 1: only one root of unity may be declared"),
    ("scalars { root z : 0 }\ngenerators a\n", "line 1: root order must be >= 1"),
    ("scalars { fre q }\ngenerators a\n", "line 1: bad scalars clause 'fre q'"),
    ("scalars {\n  root q : 2\n  free q\n}\ngenerators a\n",
     "line 1: scalar symbol names must be distinct"),
    ("relations {\n  a b = b a + 1\n}\n", "line 1: relations block without a generators line"),
    ("# a comment\nscalars { free q }\n",
     "line 1: file declares neither generators nor a qweyl block"),
    ("scalars { free q }\n" + QWEYL2.replace("(q, q)", "(q, )"), "line 4: empty scalar literal"),
    ("scalars { free q }\n" + QWEYL2.replace("n = 2", "m = 2"),
     "line 3: bad qweyl clause 'm = 2'"),
    ("scalars { free q }\n" + QWEYL2.replace("n = 2", "n = 0"), "line 3: bad qweyl size '0'"),
    ("scalars { free q }\n" + QWEYL2.replace("(q, q)", "q, q"),
     "line 4: q list must be parenthesized"),
    ("scalars { free q }\n" + QWEYL2.replace("[[1, 1], [1, 1]]", "[[1]]"),
     "line 5: Lambda must be 2 x 2"),
    ("scalars { free q }\n" + QWEYL2.replace("[[1, 1], [1, 1]]", "1"),
     "line 5: matrix literal must be bracketed"),
    ("scalars { free q }\n" + QWEYL2.replace("[[1, 1], [1, 1]]", "[[1, 1], 1]"),
     "line 5: bad matrix row '[1, 1], 1'"),
]


@pytest.mark.parametrize("text,error", REFUSED_FILES, ids=[e for _, e in REFUSED_FILES])
def test_refused_file_is_exit_2_with_its_line(tmp_path, text, error):
    f = tmp_path / "bad.qwa"
    f.write_text(text)
    assert cli_output(["check", str(f)]) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("text,error", REFUSED_FILES, ids=[e for _, e in REFUSED_FILES])
def test_refused_file_is_exit_2_with_its_line_through_the_torus_reader(tmp_path, text, error):
    """A torus command reads the file its own way and refuses it with the
    same line, qweyl blocks included."""
    f = tmp_path / "bad.qwa"
    f.write_text(text)
    assert cli_output(["torus", "center", str(f)]) == (2, "", f"error: {error}\n")


def test_torus_refusals_and_their_precedence(tmp_path):
    """A relation that is not quantum refuses the file as a torus, but only
    once every file parsed: a parse error on a later line, or in the second
    file of a pair, wins.  A file with a qweyl block alone holds no torus."""
    weyl = tmp_path / "weyl.qwa"
    weyl.write_text("generators a, b, c\nrelations {\n  a b = b a + 1\n}\n")
    euler = tmp_path / "euler.qwa"
    euler.write_text("generators a, b\nrelations {\n  [a, b] = b\n}\n")
    not_torus = (2, "", "error: presentation has a non-quantum relation; not a torus\n")
    for f in (weyl, euler):
        assert cli_output(["torus", "center", str(f)]) == not_torus
        assert cli_output(["torus", "simple", str(f)]) == not_torus
    later = tmp_path / "later.qwa"
    later.write_text("scalars { free q }\ngenerators a, b, c\nrelations {\n"
                     "  a b = b a + 1\n  a c = q * c a\n  b d = q * d b\n}\n")
    assert cli_output(["torus", "center", str(later)]) == (
        2, "", "error: line 6: undeclared generator 'd'\n")
    bad = tmp_path / "bad.qwa"
    bad.write_text("scalars { free q }\ngenerators a, b\nrelations {\n  a b = r * b a\n}\n")
    assert cli_output(["torus", "iso", str(weyl), str(bad), "--param", "q"]) == (
        2, "", "error: line 4: undeclared scalar symbol 'r'\n")
    assert cli_output(["torus", "iso", str(weyl), corpus("torus_q2.qwa"),
                       "--param", "q"]) == not_torus
    qweyl = corpus("qweyl_a1.qwa")
    assert cli_output(["torus", "center", qweyl]) == (
        2, "", f"error: {qweyl} does not contain a presentation\n")


def test_embed_verify_refuses_a_map_file_without_a_map_block(tmp_path):
    empty = tmp_path / "empty.map"
    empty.write_text("# no map here\n")
    assert cli_output(["embed", "verify", corpus("weyl_a1.qwa"), corpus("weyl_a1.qwa"),
                       str(empty)]) == (2, "", "error: line 1: expected map { ... }\n")


def test_embed_verify_refuses_a_target_with_no_ordered_basis(tmp_path):
    bad = tmp_path / "bad.qwa"
    bad.write_text("scalars { free q }\ngenerators a, b, c\nrelations {\n"
                   "  a b = b a + 1\n  a c = q * c a\n  b c = q * c b\n}\n")
    mp = tmp_path / "id.map"
    mp.write_text("map { a -> a ; b -> b ; c -> c }\n")
    assert cli_output(["embed", "verify", str(bad), str(bad), str(mp)]) == (
        2, "", "error: presentation has no ordered-monomial basis; ambiguity at word c b a\n")


def test_torus_morphism_zero_matrix_is_no_isomorphism(tmp_path):
    """The zero matrix maps a commutative torus to itself; its determinant
    is 0, found at the first column with no pivot."""
    f = tmp_path / "comm2.qwa"
    f.write_text("generators y1, y2\n")
    rc, out, err = cli_output(["torus", "morphism", "--matrix", "[[0,0],[0,0]]", str(f), str(f)])
    assert (rc, err) == (0, "")
    assert machine_block(out) == {"command": "torus.morphism", "file_a": str(f),
                                  "file_b": str(f), "matrix": "[[0,0],[0,0]]",
                                  "verdict": "morphism", "isomorphism": "false",
                                  "semantics": "generic-parameters"}


PLANE4 = """\
scalars { free q }
generators y1, y2, y3, y4
relations {
  y1 y2 = q * y2 y1
}
"""

# The canonical algebra with n = r = 2 and lambda_12 = q p: uniparameter in
# neither symbol, with a simple torus.
SEMICLASSICAL_QP = """\
scalars { free q, p }
generators y1, y2, x1, x2
relations {
  y1 y2 = q * p * y2 y1
  x1 y1 = y1 x1 + 1
  y2 x1 = q * p * x1 y2
  x1 x2 = q * p * x2 x1
  x2 y2 = y2 x2 + 1
  y1 x2 = q^-1 * p^-1 * x2 y1
}
"""


@pytest.mark.parametrize("files,options,detail", [
    (("quantum_plane.qwa", "quantum_plane.qwa"), ["--matrix", "[[1,0],[0,1]]"],
     "tori isomorphic; sufficiency is open for n > r"),
    (("plane4.qwa", "planes4.qwa"), [],
     "tori not isomorphic but not simple; no verdict"),
    (("semiclassical_qp.qwa", "semiclassical_qp.qwa"), [],
     "semiclassical with simple tori: equivalent exactly when the tori are "
     "isomorphic; supply a matrix to decide"),
], ids=["supplied-h-n>r", "not-iso-not-simple", "semiclassical-simple"])
def test_equiv_inconclusive_verdicts(tmp_path, files, options, detail):
    """The default output of each open case of ``equiv``, byte for byte."""
    (tmp_path / "plane4.qwa").write_text(PLANE4)
    (tmp_path / "planes4.qwa").write_text(PLANE4[:-2] + "  y3 y4 = q * y4 y3\n}\n")
    (tmp_path / "semiclassical_qp.qwa").write_text(SEMICLASSICAL_QP)
    a, b = (str(tmp_path / f) if (tmp_path / f).exists() else corpus(f) for f in files)
    assert cli_output(["equiv", *options, a, b]) == (0, (
        f"inconclusive: {detail}\n"
        "note: verdicts are relative to the declared scalar group: free symbols "
        "are taken multiplicatively independent\n"
        f"---\ncommand=equiv\nfile_a={a}\nfile_b={b}\n"
        "verdict=inconclusive\nreason=INCONCLUSIVE\nsemantics=generic-parameters\n"), "")


def test_equiv_refuses_a_matrix_that_is_no_torus_isomorphism():
    weyl = corpus("weyl_a1.qwa")
    assert cli_output(["equiv", "--matrix", "[[2]]", weyl, weyl]) == (
        2, "", "error: supplied matrix is not a torus isomorphism\n")


PARAM_COMMANDS = [["torus", "iso", corpus("torus_q2.qwa"), corpus("torus_q2.qwa")],
                  ["equiv", corpus("s22q.qwa"), corpus("s22q.qwa")],
                  ["qweyl", "equiv", corpus("qweyl_a2.qwa"), corpus("qweyl_a2.qwa")]]


@pytest.mark.parametrize("argv", PARAM_COMMANDS, ids=[" ".join(a[:-2]) for a in PARAM_COMMANDS])
def test_param_must_be_a_declared_free_symbol(capsys, argv):
    assert main(argv + ["--param", "zz"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 'zz' is not a free symbol of the scalar group\n"


def test_unwritable_emit_qwa_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "canon.qwa"
    assert main(["reduce", corpus("s22q.qwa"), "--emit-qwa", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")


def test_corpus_roundtrip_and_determinism(capsys):
    for path in sorted(CORPUS.glob("*.qwa")):
        text = path.read_text()
        if "qweyl" in text:
            continue
        p = parse_presentation(text)
        printed = format_presentation(p)
        assert parse_presentation(printed) == p
        assert format_presentation(parse_presentation(printed)) == printed
    # determinism of a full command
    rc1 = main(["invariants", corpus("s22q.qwa"), "--json"])
    out1 = capsys.readouterr().out
    rc2 = main(["invariants", corpus("s22q.qwa"), "--json"])
    out2 = capsys.readouterr().out
    assert (rc1, out1) == (rc2, out2)


def _variant(tmp_path, name: str, old: str, new: str) -> str:
    """A copy of a corpus file with its scalars block rewritten."""
    text = (CORPUS / name).read_text()
    assert old in text
    path = tmp_path / name
    path.write_text(text.replace(old, new))
    return str(path)


def test_pair_commands_merge_declared_groups(tmp_path, capsys):
    q2 = _variant(tmp_path, "torus_q2.qwa", "free q", "free p, q")
    assert main(["torus", "iso", corpus("torus_d2.qwa"), q2, "--param", "q"]) == 0
    block = machine_block(capsys.readouterr().out)
    assert block["verdict"] == "not_iso"
    assert (block["divisors_a"], block["divisors_b"]) == ("[[2]]", "[[1]]")

    zeta4 = _variant(tmp_path, "s22q2.qwa", "free q", "root zeta : 4 ; free q")
    assert main(["equiv", corpus("s22q.qwa"), zeta4]) == 0
    block = machine_block(capsys.readouterr().out)
    assert (block["verdict"], block["reason"]) == ("not_equivalent", "NEQ_G")

    # Reordering the free symbols changes nothing: same block as a self-pair.
    a2 = _variant(tmp_path, "qweyl_a2.qwa", "free q, l", "free l, q")
    assert main(["qweyl", "equiv", corpus("qweyl_a2.qwa"), a2]) == 0
    block = machine_block(capsys.readouterr().out)
    assert main(["qweyl", "equiv", corpus("qweyl_a2.qwa"), corpus("qweyl_a2.qwa")]) == 0
    same = machine_block(capsys.readouterr().out)
    assert block["verdict"] == "inconclusive"
    assert {**block, "file_b": ""} == {**same, "file_b": ""}


def test_embed_verify_merges_declared_groups(tmp_path, capsys):
    src = tmp_path / "t21.qwa"
    src.write_text("scalars { free q }\ngenerators y1, y2, w1\n"
                   "relations {\n  y1 y2 = q * y2 y1\n  [w1, y1] = y1\n}\n")
    target = tmp_path / "target.qwa"
    target.write_text("scalars { free p, q }\ngenerators w, y, u, v\n"
                      "relations {\n  [w, y] = y\n  u v = q * v u\n}\n")
    mp = tmp_path / "map.map"
    mp.write_text("map { y1 -> y u ; y2 -> v ; w1 -> w }\n")
    assert main(["embed", "verify", str(src), str(target), str(mp)]) == 0
    assert machine_block(capsys.readouterr().out)["verified"] == "true"


SINGLE_FILE = [(["torus", "simple"], "torus_q2.qwa"), (["torus", "center"], "torus_q2.qwa"),
               (["qweyl", "localize"], "qweyl_a2.qwa"),
               (["qweyl", "invariants"], "qweyl_a2.qwa"),
               (["embed", "torus"], "torus_q2.qwa"), (["embed", "mixed"], "s22q.qwa")]


@pytest.mark.parametrize("argv,name", SINGLE_FILE,
                         ids=[" ".join(argv) for argv, _ in SINGLE_FILE])
def test_single_file_commands_refuse_extra_files(capsys, argv, name):
    assert main(argv + [corpus(name), "/nonexistent.qwa"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {' '.join(argv)} takes 1 file(s), got 2\n"


def test_pair_commands_reject_conflicting_roots(tmp_path, capsys):
    zeta4 = _variant(tmp_path, "s22q.qwa", "free q", "root zeta : 4 ; free q")
    zeta6 = _variant(tmp_path, "s22q2.qwa", "free q", "root zeta : 6 ; free q")
    assert main(["equiv", zeta4, zeta6]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "incompatible root-of-unity declarations" in captured.err


def test_unexpected_failure_is_exit_2(monkeypatch, capsys):
    from qwalg.qweyl import VerificationError

    def broken(a):
        raise VerificationError("relations failed")

    monkeypatch.setattr("qwalg.cli.localize_to_mixed", broken)
    assert main(["qweyl", "localize", corpus("qweyl_a2.qwa")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: VerificationError: relations failed\n"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Every command pays for importing the package.  Its records are named
    tuples and its value types slotted classes, so that import creates no
    dataclass and loads neither module (-S keeps site hooks out)."""
    env = {**os.environ, "PYTHONPATH": str(Path(qwalg.__file__).parent.parent)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", "import qwalg.cli, sys; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


BAD_MATRICES = ["[[0.5,0],[0,2]]", "[[true,0],[0,true]]", "[[1.0,0],[0,1]]",
                "[[1,0],[0]]", "[]", "[1,0]", "{}", "not json"]


@pytest.mark.parametrize("matrix", BAD_MATRICES)
def test_matrix_must_be_integer_rows(capsys, matrix):
    for argv in (["torus", "morphism", corpus("torus_q2.qwa"), corpus("torus_q2.qwa")],
                 ["equiv", corpus("s22q.qwa"), corpus("s22q.qwa")]):
        assert main(argv + ["--matrix", matrix]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --matrix must be a JSON list of "
                                       "equal-length lists of integers")


def test_matrix_integer_rows_accepted(capsys):
    assert main(["torus", "morphism", corpus("torus_q2.qwa"), corpus("torus_q2.qwa"),
                 "--matrix", "[[1,0],[0,1]]"]) == 0
    assert machine_block(capsys.readouterr().out)["isomorphism"] == "true"
    assert main(["equiv", corpus("s22q.qwa"), corpus("s22q.qwa"),
                 "--matrix", "[[1,0],[0,1]]"]) == 0
    assert machine_block(capsys.readouterr().out)["verdict"] == "equivalent"


KIND_FILES = {"presentation": "s22q.qwa", "torus": "torus_q2.qwa",
              "qweyl": "qweyl_a2.qwa", "map": "s21q.qwa"}
OPTION_VALUES = {"emit-qwa": "out.qwa", "param": "q", "matrix": "[[1,0],[0,1]]",
                 "invert": "y1"}
assert set(OPTION_VALUES) == set(OPTIONS)


def _argv(name: str, options) -> list[str]:
    """A command on corpus files of the kinds it takes, with the options."""
    files = [corpus(KIND_FILES[kind]) for _, kind in COMMANDS[name].files]
    return name.split() + files + [a for opt in options
                                   for a in (f"--{opt}", OPTION_VALUES[opt])]


REFUSED = [(name, opt) for name, cmd in COMMANDS.items()
           for opt in OPTIONS if opt not in cmd.options]


@pytest.mark.parametrize("name,opt", REFUSED, ids=[f"{n} --{o}" for n, o in REFUSED])
def test_options_a_command_does_not_take_are_refused(name, opt):
    required = [o for o, need in COMMANDS[name].options.items() if need == "required"]
    # An option the command's parser does not know is an argparse exit.
    rc, out, err = cli_output(_argv(name, required + [opt]))
    assert rc == 2
    assert out == ""
    assert f"--{opt}" in err


NEEDED = [(name, opt) for name, cmd in COMMANDS.items()
          for opt, need in cmd.options.items() if need == "required"]


@pytest.mark.parametrize("name,opt", NEEDED, ids=[f"{n} --{o}" for n, o in NEEDED])
def test_missing_required_option(capsys, name, opt):
    assert main(_argv(name, [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name} needs --{opt}\n"


# Exit code, stdout and stderr of argv shapes that reach argparse's own
# output (help, version, usage errors, option prefixes), run in the corpus
# directory with 80 columns.  Its wording changes between Python versions,
# so the table is pinned for the version it was captured with.  To add a
# shape, append {"argv": [...]} to the table; rewrite the table from its argv
# list, on the pinned version and only when an output change is intended,
# with
#
#     PYTHONPATH=src python3 tests/test_cli.py
#
# from the repository root.
ARGPARSE_TABLE = Path(__file__).with_name("cli_argparse.json")
ARGPARSE = json.loads(ARGPARSE_TABLE.read_text())
SHAPE_IDS = [" ".join(s["argv"]) or "(none)" for s in ARGPARSE["shapes"]]
PYTHON = f"{sys.version_info[0]}.{sys.version_info[1]}"


@pytest.mark.skipif(PYTHON != ARGPARSE["python"],
                    reason=f"argparse output pinned on Python {ARGPARSE['python']}")
@pytest.mark.parametrize("shape", ARGPARSE["shapes"], ids=SHAPE_IDS)
def test_argparse_output_is_pinned(monkeypatch, shape):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(CORPUS)
    assert cli_output(shape["argv"]) == (shape["rc"], shape["stdout"], shape["stderr"])


@pytest.mark.parametrize("shape", ARGPARSE["shapes"], ids=SHAPE_IDS)
def test_parser_of_argv_matches_the_full_parser(monkeypatch, shape):
    """On any Python: ``cli._parse`` and the parser holding every command and
    argument give the same exit code, output and namespace on each pinned
    shape."""
    monkeypatch.setenv("COLUMNS", "80")
    argv = shape["argv"]
    assert parse_output(_parse, argv) == parse_output(reference_parser().parse_args, argv)


# Words an argv is drawn from: every command and subcommand, options and
# their prefixes, option-like words with "=", "--" and "-".
ARGV_WORDS = (list(SUBS) + sorted({n.split()[-1] for n in COMMANDS})
              + ["bogus", "s22q.qwa", "q", "[[1]]", "-1", "", "a b"]
              + [f"--{o}" for o in [*OPTIONS, "json", "help", "version"]]
              + ["--js", "--par", "--m", "--emit", "--vers", "--he", "-h", "-hx", "-x",
                 "-j", "--bogus", "--", "-", "---", "--=", "--=x", "-=x", "--json=1",
                 "--param=q", "--par=q", "-h=1", "--help=1"])


def test_parse_matches_the_full_parser_on_drawn_argv(monkeypatch):
    """On any Python, ``cli._parse`` reads 500 seeded argv of up to six
    words, four in five starting with a command, as the full parser does."""
    monkeypatch.setenv("COLUMNS", "80")
    rng = random.Random(32)
    for _ in range(500):
        argv = [rng.choice(ARGV_WORDS) for _ in range(rng.randint(0, 6))]
        if argv and rng.random() < 0.8:
            argv[0] = rng.choice(list(SUBS))
        assert (parse_output(_parse, argv)
                == parse_output(reference_parser().parse_args, argv)), argv


# (argv, ArgumentParser objects built): one for an argv that starts with a
# command, whose parser settles it alone (also by an error of its own), and
# the full parser, the root and one per command, for any other argv, after
# the command's parser when that one leaves arguments over.
FULL = 1 + len(SUBS)
PARSERS_BUILT = ([([top], 1) for top in SUBS]
                 + [(["torus", "center", "f"], 1), (["check", "f", "--json"], 1)]
                 + [(argv, FULL) for argv in (["-h", "check"], ["bogus"], [],
                                              ["check", "--=x", "f"])]
                 + [(["check", "f", "extra"], 1 + FULL)])


@pytest.mark.parametrize("argv,built", PARSERS_BUILT,
                         ids=[" ".join(argv) or "(none)" for argv, _ in PARSERS_BUILT])
def test_parser_registers_only_the_command_argv_starts_with(monkeypatch, argv, built):
    """The saving itself, counted in ``ArgumentParser`` constructions: an argv
    that starts with a command builds that command's parser and no
    subparsers action.  No parser outlives the call."""
    made, actions = [], []
    for cls, log in ((argparse.ArgumentParser, made), (argparse._SubParsersAction, actions)):
        def counting(self, *args, _init=cls.__init__, _log=log, **kwargs):
            _log.append(weakref.ref(self))
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    try:
        _parse(argv)
    except SystemExit:
        pass
    assert len(made) == built
    assert len(actions) == (built >= FULL)
    gc.collect()
    assert not [ref for ref in made + actions if ref() is not None]


def _readme_commands() -> dict:
    """README's command-line block as {command: (files, required, optional)}."""
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", README.read_text(), re.S)
    found = {}
    for line in block.group(1).splitlines():
        line = line.split("#")[0]
        optional = set(re.findall(r"\[--([\w-]+)[^\]]*\]", line))
        words = shlex.split(re.sub(r"\[--[^\]]*\]", "", line))
        assert words[0] == "qwalg"
        names = [w for w in words[1:3] if re.fullmatch(r"[a-z|]+", w)]
        rest = words[1 + len(names):]
        required = {w[2:] for w in rest if w.startswith("--")}
        files = len(rest) - 2 * len(required)
        for sub in names[1].split("|") if len(names) > 1 else [""]:
            name = f"{names[0]} {sub}".strip()
            assert name not in found, f"{name} listed twice"
            found[name] = (files, required, optional)
    return found


def test_readme_command_block_matches_table():
    table = {name: (len(cmd.files),
                    {o for o, need in cmd.options.items() if need == "required"},
                    {o for o, need in cmd.options.items() if need == "optional"})
             for name, cmd in COMMANDS.items()}
    assert _readme_commands() == table


def test_readme_exit_code_sentence_matches_table():
    text = " ".join(README.read_text().split())
    negative = set(re.findall(r"`([a-z ]+)` uses `1`", text))
    assert negative == {name for name, cmd in COMMANDS.items() if 1 in cmd.exits}


if __name__ == "__main__":
    if PYTHON != ARGPARSE["python"]:
        sys.exit(f"the argparse table is pinned on Python {ARGPARSE['python']}, "
                 f"not {PYTHON}")
    os.environ["COLUMNS"] = "80"
    os.chdir(CORPUS)
    shapes = [dict(zip(("argv", "rc", "stdout", "stderr"), (s["argv"], *cli_output(s["argv"]))))
              for s in ARGPARSE["shapes"]]
    ARGPARSE_TABLE.write_text(json.dumps({**ARGPARSE, "shapes": shapes}, indent=1) + "\n")
    print(f"pinned {len(shapes)} argv shapes in {ARGPARSE_TABLE}")
