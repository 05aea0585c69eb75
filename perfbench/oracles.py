"""Verdict oracles: stdlib-only checks of every answer, run outside the timed
region.  ``check`` returns None for a correct answer and a reason otherwise.
"""
from __future__ import annotations

import json
from fractions import Fraction

from workloads import Query, rank


def det(rows) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    n, out = len(m), Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return out


def _free_rows(lam, nsyms: int):
    """Rows (one per column j and free symbol c) whose kernel is the rational
    centre: a central exponent vector v has sum_i v_i a^c_ij = 0."""
    n = len(lam)
    return [[lam[i][j][1][c] for i in range(n)] for j in range(n) for c in range(nsyms)]


def _central(lam, e: int, v) -> bool:
    n = len(lam)
    nsyms = len(lam[0][0][1])
    for j in range(n):
        if sum(v[i] * lam[i][j][0] for i in range(n)) % e:
            return False
        for c in range(nsyms):
            if sum(v[i] * lam[i][j][1][c] for i in range(n)):
                return False
    return True


def _parse(stdout: str):
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None


def check(q: Query, rc, stdout: str) -> str | None:
    if q.kind == "golden":
        if rc != q.expect["rc"] or stdout.strip() != q.expect["json"]:
            return f"output differs from the frozen corpus answer (rc={rc})"
        return None
    want_rc = 0 if q.kind != "check" or q.expect["admissible"] else 1
    if rc != want_rc:
        return f"exit code {rc!r}, expected {want_rc}"
    out = _parse(stdout)
    if out is None:
        return "no JSON machine block"
    x = q.expect
    got = None
    if q.kind == "localize":
        n, r = x["n"], x["r"]
        got = (out["n"], out["r"], out["relations_checked"], out["verified"])
        want = (2 * n - r, r, n * (2 * n - 1), "true")
    elif q.kind == "qinv":
        got = (out["gk_dim"], out["w_supdeg"], out["center_trivial"] == "not_applicable")
        want = (2 * x["n"], 2 * x["r"], not x["applicable"])
    elif q.kind == "check":
        got = (out["verdict"], out["confluent"])
        want = ("admissible", "true") if x["admissible"] else ("inadmissible", "false")
    elif q.kind == "reduce":
        got, want = (out["n"], out["r"]), (x["n"], x["r"])
    elif q.kind == "invariants":
        n, r = x["n"], x["r"]
        got = (out["n"], out["r"], out["gk_dim"], out["w_supdeg"], out["E"])
        want = (n, r, n + r, 2 * r, "k" if r else "0")
    elif q.kind == "equiv":
        got, want = out["verdict"], x["verdict"]
    elif q.kind in ("simple", "center"):
        return _check_torus(q, out)
    elif q.kind == "iso":
        return _check_iso(q, out)
    else:
        return f"no oracle for kind {q.kind!r}"
    return None if got == want else f"answer {got}, expected {want}"


def _check_torus(q: Query, out: dict) -> str | None:
    lam, e = q.expect["lam"], q.expect["e"]
    n = len(lam)
    free_rank = rank(_free_rows(lam, len(lam[0][0][1])))
    if q.kind == "simple":
        simple = free_rank == n
        if out["simple"] != str(simple).lower():
            return f"simple={out['simple']}, rational centre rank {n - free_rank}"
        if not simple and not _central(lam, e, json.loads(out["witness"])[0]):
            return "witness exponent is not central"
        return None
    basis = json.loads(out["basis"])
    if out["rank"] != n - free_rank or len(basis) != n - free_rank:
        return f"centre rank {out['rank']}, expected {n - free_rank}"
    if basis and rank(basis) != len(basis):
        return "centre basis is not independent"
    if not all(_central(lam, e, v) for v in basis):
        return "centre basis vector is not central"
    return None


def _check_iso(q: Query, out: dict) -> str | None:
    if out["verdict"] != q.expect["verdict"]:
        return f"verdict {out['verdict']}, expected {q.expect['verdict']}"
    if out["verdict"] != "iso":
        return None
    h = json.loads(out["h"])
    a, b = q.expect["a"], q.expect["b"]
    n = len(a)
    hbh = [[sum(h[k][i] * b[k][t] * h[t][j] for k in range(n) for t in range(n))
            for j in range(n)] for i in range(n)]
    if hbh != a:
        return "witness h does not satisfy h^T B h = A"
    if abs(det(h)) != 1:
        return "witness h is not unimodular"
    return None
