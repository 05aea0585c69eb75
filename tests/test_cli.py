import json
from importlib import resources
from pathlib import Path

import pytest

from qwalg.cli import main
from qwalg.qwa import format_presentation, parse_presentation

CORPUS = Path(resources.files("qwalg") / "corpus")


def corpus(name: str) -> str:
    return str(CORPUS / name)


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


def test_check_empty_relations(tmp_path, capsys):
    f = tmp_path / "comm.qwa"
    f.write_text("generators a, b, c\n")
    assert main(["check", str(f)]) == 0


def test_check_missing_file(capsys):
    rc = main(["check", "/nonexistent/file.qwa"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


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


def test_torus_morphism(capsys):
    rc = main(["torus", "morphism", corpus("torus_d2.qwa"), corpus("torus_q2.qwa"),
               "--matrix", "[[2,0],[0,1]]"])
    out = capsys.readouterr().out
    assert rc == 0
    block = machine_block(out)
    assert block["verdict"] == "morphism"
    assert block["isomorphism"] == "false"


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
