import itertools

import pytest

from qwalg.mixed import Equivalent, NotEquivalent, invariants
from qwalg.qwa import parse_document
from qwalg.qweyl import (QuantumWeylAlgebra, localize_to_mixed, localized_lambda,
                         qweyl_equivalence_necessary, qweyl_invariants)
from qwalg.rewrite import ReductionSystem
from qwalg.scalars import ScalarGroup

from support import cli_output, corpus, run


@pytest.fixture
def grp():
    return ScalarGroup(1, ("q", "l"))


def qweyl(grp, qpattern, lam_weight_exp=0):
    """n from the pattern; Lambda uniparameter in l with the given exponent."""
    n = len(qpattern)
    q = grp.free_gen("q")
    l = grp.free_gen("l", lam_weight_exp)
    one = grp.one()
    lam = [[one for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lam[i][j] = l
            lam[j][i] = l.inv()
    qs = tuple(q if c else one for c in qpattern)
    return QuantumWeylAlgebra(grp, n, qs, lam)


def test_rule_count_n2(grp):
    a = qweyl(grp, (1, 1), 1)
    assert len(a.system().rules) == 6  # one per generator pair


def test_parameters_outside_the_group_and_a_wrongly_shaped_lambda_are_refused(grp):
    """n = 2 with a 3 x 3 Lambda, n = 3 with a 2 x 2 one, a q_i from another
    group and a Lambda that is not antisymmetric, refused before any system
    is built.  The localization's block matrix is not checked again, so this
    is the check that refuses such a Lambda."""
    q, p = grp.free_gen("q"), ScalarGroup(1, ("p",)).free_gen("p")
    lam2, lam3 = qweyl(grp, (1, 1)).lam, qweyl(grp, (1, 1, 1)).lam
    skew = qweyl(grp, (1, 1), 1).lam
    for n, qs, lam, message in ((2, (q, q), lam3, "Lambda must be 2 x 2"),
                                (3, (q, q, q), lam2, "Lambda must be 3 x 3"),
                                (2, (q, p), lam2, "quantization parameter outside the declared group"),
                                (2, (q, q), (skew[0], skew[0][::-1]),
                                 "weight matrix is not multiplicatively antisymmetric")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            QuantumWeylAlgebra(grp, n, qs, lam)


def test_from_spec_roundtrip():
    doc = parse_document("""\
scalars { free q, l }
qweyl {
  n = 2
  q = (1, q)
  Lambda = [[1, l],[l^-1, 1]]
}
""")
    a = QuantumWeylAlgebra.from_spec(doc.qweyl)
    assert a.n == 2 and a.weyl_indices == [0] and a.quantum_indices == [1]


def test_normal_scalars_match_relations(grp):
    # z_1 = 1 + (q-1) y_1 x_1 twists y_1 by q and x_1 by q^-1 and fixes the rest
    a = qweyl(grp, (1, 1), 1)
    sys = a.system()
    el = a.z_element(sys, 0)
    tw = sys.commutation_with_generators(el)
    q = grp.free_gen("q")
    assert tw["y1"] == q and tw["x1"] == q.inv()
    assert tw["y2"].is_one() and tw["x2"].is_one()


def test_localize_classical(grp):
    one = grp.one()
    a = QuantumWeylAlgebra(grp, 1, (one,), [[one]])
    res = localize_to_mixed(a)
    assert (res.canonical.n, res.canonical.r) == (1, 1)
    assert res.relations_checked == 1
    assert not res.normal_scalars  # nothing to invert


def test_localize_single_quantum(grp):
    a = QuantumWeylAlgebra(grp, 1, (grp.free_gen("q"),), [[grp.one()]])
    res = localize_to_mixed(a)
    assert (res.canonical.n, res.canonical.r) == (2, 0)
    q = grp.free_gen("q")
    assert res.canonical.lam[0][1] == q  # z' y = q y z'
    assert res.normal_scalars == {0: {"y1": q, "x1": q.inv()}}


def test_localize_block_formula(grp):
    a = qweyl(grp, (0, 1), 1)  # q-bar = (1, q)
    res = localize_to_mixed(a)
    c = res.canonical
    assert (c.n, c.r) == (3, 1)
    q = grp.free_gen("q")
    l = grp.free_gen("l")
    # order: Weyl-paired y_1, then z'_2, then y_2
    assert c.lam[0][1].is_one()          # y_1 vs z'_2
    assert c.lam[0][2] == l              # y_1 vs y_2
    assert c.lam[1][2] == q              # z'_2 vs y_2
    assert localized_lambda(a).lam == c.lam


def test_localize_purely_quantum(grp):
    a = qweyl(grp, (1, 1), 1)
    res = localize_to_mixed(a)
    assert (res.canonical.n, res.canonical.r) == (4, 0)
    assert res.relations_checked == 6


def test_localize_grid_small(grp):
    # every parameter pattern for n <= 2 and weights in {1, l, l^-1}
    for n in (1, 2):
        for pattern in itertools.product((0, 1), repeat=n):
            for e in ((0,) if n == 1 else (-1, 0, 1)):
                a = qweyl(grp, pattern, e)
                res = localize_to_mixed(a)
                r = n - sum(pattern)
                assert res.canonical.r == r
                assert res.canonical.n == 2 * n - r
                assert qweyl_invariants(a).center_trivial == \
                    (invariants(res.canonical).center_rank == 0)


def test_qweyl_invariants(grp):
    q = grp.free_gen("q")
    one = grp.one()
    a = QuantumWeylAlgebra(grp, 3, (one, one, q),
                           [[one] * 3 for _ in range(3)])
    inv = qweyl_invariants(a)
    assert inv.gk_dim == 6
    assert inv.w_supdeg == 4
    a2 = qweyl(grp, (0, 0), 1)  # all parameters 1
    assert qweyl_invariants(a2).w_supdeg == 4
    a3 = QuantumWeylAlgebra(grp, 1, (q,), [[one]])
    inv3 = qweyl_invariants(a3)
    assert inv3.center_trivial is True


def test_qweyl_invariants_root_of_unity_gate():
    g = ScalarGroup(2, (), "zeta")
    a = QuantumWeylAlgebra(g, 1, (g.scalar(torsion=1),), [[g.one()]])
    assert qweyl_invariants(a).center_trivial is None


def test_equivalence_necessary(grp):
    one = grp.one()
    q = grp.free_gen("q")
    a1 = QuantumWeylAlgebra(grp, 1, (one,), [[one]])
    a2 = qweyl(grp, (0, 1), 0)
    v = qweyl_equivalence_necessary(a1, a2)
    assert isinstance(v, NotEquivalent) and v.reason == "NEQ_GK"
    # same n, different number of classical directions
    b1 = qweyl(grp, (0, 1), 0)
    b2 = qweyl(grp, (1, 1), 0)
    v2 = qweyl_equivalence_necessary(b1, b2)
    assert isinstance(v2, NotEquivalent) and v2.reason == "NEQ_WSUPDEG"


def test_w_supdeg_consistent_with_localization(grp):
    for pattern, e in (((0,), 0), ((1,), 0), ((0, 1), 1), ((1, 1), -1)):
        a = qweyl(grp, pattern, e)
        assert qweyl_invariants(a).w_supdeg == \
            invariants(localize_to_mixed(a).canonical).w_supdeg


def test_equivalence_all_classical_full_decision():
    g = ScalarGroup(1, ("q",))
    q = g.free_gen("q")
    one = g.one()

    def alg(weight):
        return QuantumWeylAlgebra(g, 2, (one, one),
                                  [[one, weight], [weight.inv(), one]])

    v = qweyl_equivalence_necessary(alg(q), alg(q))
    assert isinstance(v, Equivalent)
    v2 = qweyl_equivalence_necessary(alg(q), alg(q.pow(2)))
    assert isinstance(v2, NotEquivalent)


def test_system_is_built_on_first_use(monkeypatch):
    """``qweyl invariants`` and ``qweyl equiv`` read only the parameters, so
    they construct no reduction system; ``qweyl localize`` still builds and
    certifies one, once."""
    built = []
    init = ReductionSystem.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ReductionSystem, "__init__", counted)
    a1, a2 = corpus("qweyl_a1.qwa"), corpus("qweyl_a2.qwa")
    for argv in (["qweyl", "invariants", a2], ["qweyl", "equiv", a1, a2],
                 ["qweyl", "equiv", a2, a2]):
        assert run(argv) == 0
    assert built == []
    rc, out, _ = cli_output(["qweyl", "localize", a2])
    assert rc == 0
    assert "verified=true" in out.splitlines()
    assert len(built) == 1 and built[0].certified


def test_constructor_refusals():
    g = ScalarGroup(1, ("q",))
    with pytest.raises(ValueError, match="^need n >= 1$"):
        QuantumWeylAlgebra(g, 0, (), [])
    with pytest.raises(ValueError, match="^need one quantization parameter per index$"):
        QuantumWeylAlgebra(g, 1, (), [[g.one()]])
