"""Span recorder for the traced run.

Wraps public qwalg functions from the outside (nothing in ``src/`` changes),
keeps spans and counts in memory, and derives per-layer numbers: self time
is a span's duration minus the time covered by its child spans.  Hot
arithmetic (``Scalar`` and ``Coeff`` operations) is aggregated into counts
and times instead of stored span by span.
"""
from __future__ import annotations

import json
import sys
from collections import defaultdict
from dataclasses import fields, is_dataclass
from time import perf_counter

# (module, attribute path, span name, hot).  Span names are "<layer>.<op>";
# functions that share a span name are reported together.
TARGETS = (
    ("qwalg.cli", "main", "cli.main", False),
    ("qwalg.qwa", "parse_document", "qwa.parse", False),
    ("qwalg.scalars", "Scalar.mul", "scalars.op", True),
    ("qwalg.scalars", "Scalar.pow", "scalars.op", True),
    ("qwalg.scalars", "Scalar.inv", "scalars.op", True),
    ("qwalg.cyclo", "Coeff.mul", "cyclo.mul", True),
    ("qwalg.cyclo", "Coeff.add", "cyclo.add", True),
    ("qwalg.cyclo", "Coeff.inv", "cyclo.inv", True),
    ("qwalg.cyclo", "CoeffRing._init", "cyclo.ring_init", False),
    ("qwalg.rewrite", "ReductionSystem.check_confluence", "rewrite.certify", False),
    ("qwalg.rewrite", "ReductionSystem.adjoin_inverse", "rewrite.extend", False),
    ("qwalg.rewrite", "ReductionSystem.invert_generator", "rewrite.extend", False),
    ("qwalg.rewrite", "ReductionSystem.normal_form", "rewrite.normal_form", False),
    ("qwalg.rewrite", "ReductionSystem.commutation_with_generators", "rewrite.normality", False),
    ("qwalg.presentation", "check_admissible", "presentation.admissible", False),
    ("qwalg.presentation", "system_from_presentation", "presentation.system", False),
    ("qwalg.presentation", "apply_op", "presentation.apply", False),
    ("qwalg.mixed", "reduce_to_canonical", "mixed.reduce", False),
    ("qwalg.mixed", "invariants", "mixed.invariants", False),
    ("qwalg.mixed", "equivalence_decide", "mixed.equiv", False),
    ("qwalg.torus", "central_lattice", "torus.center", False),
    ("qwalg.torus", "uniparameter_iso_decide", "torus.iso", False),
    ("qwalg.intlattice", "kernel_with_torsion", "intlattice.kernel", False),
    ("qwalg.intlattice", "kernel", "intlattice.kernel", False),
    ("qwalg.intlattice", "hermite_nf", "intlattice.hnf", False),
    ("qwalg.intlattice", "smith_nf", "intlattice.snf", False),
    ("qwalg.intlattice", "skew_normal_form", "intlattice.skew_nf", False),
    ("qwalg.intlattice", "lattice_intersect", "intlattice.intersect", False),
    ("qwalg.intlattice", "det", "intlattice.det", False),
    ("qwalg.intlattice", "rank", "intlattice.rank", False),
    ("qwalg.intlattice", "matinv_unimodular", "intlattice.matinv", False),
    ("qwalg.qweyl", "QuantumWeylAlgebra.__init__", "qweyl.build", False),
    ("qwalg.qweyl", "localize_to_mixed", "qweyl.localize", False),
    ("qwalg.embeddings", "verify_homomorphism", "embeddings.verify", False),
)

# Counts read from arguments or results: span name -> (key, value to add).
COUNTS = {
    "rewrite.certify": ("certify_rules", lambda args, res: len(args[0].rules)),
    "mixed.reduce": ("certificate_ops", lambda args, res: len(res[1].ops)),
    "qweyl.localize": ("inverted", lambda args, res: len(res.normal_scalars)),
    "embeddings.verify": ("relations_checked",
                          lambda args, res: getattr(res, "relations_checked", 0)),
}


def _max_bits(obj) -> int:
    if isinstance(obj, bool):
        return 0
    if isinstance(obj, int):
        return obj.bit_length()
    if isinstance(obj, (list, tuple)):
        return max((_max_bits(x) for x in obj), default=0)
    if is_dataclass(obj):
        return max((_max_bits(getattr(obj, f.name)) for f in fields(obj)), default=0)
    return 0


class Recorder:
    """Per span name: calls, inclusive time (outermost spans only, so
    recursion is not double counted) and self time, plus stored spans
    (id, parent id, query index, name, start, duration) for non-hot spans."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.extra = defaultdict(int)     # counts gathered from arguments/results
        self.spans: list[tuple] = []
        self.query = -1
        self._stack: list[list] = []      # [child time, span id] per open span
        self._depth = defaultdict(int)
        self._saved: list[tuple] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name: str, hot: bool, observe):
        stack, depth = self._stack, self._depth
        calls, incl, self_time, spans = self.calls, self.incl, self.self_time, self.spans

        def wrapper(*args, **kwargs):
            if hot:
                frame = [0.0, None]
            else:
                frame = [0.0, len(spans)]
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                spans.append(None)
            stack.append(frame)
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][0] += dur
                calls[name] += 1
                self_time[name] += dur - frame[0]
                if not depth[name]:
                    incl[name] += dur
                if not hot:
                    spans[frame[1]] = (frame[1], parent, self.query, name,
                                       round(start, 7), round(dur, 7))
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observer(self, name: str):
        extra = self.extra
        if name.startswith("cyclo.") and name != "cyclo.ring_init":
            def obs(args, res):
                extra["coeff_results"] += 1
                extra["coeff_den"] += bool(res.den)
                extra["coeff_phi_gt1"] += args[0].ring.phi > 1
            return obs
        if name in COUNTS:
            key, value = COUNTS[name]

            def obs(args, res):
                extra[key] += value(args, res)
            return obs
        if name.startswith("intlattice."):
            def obs(args, res):
                extra["max_entry_bits"] = max(extra["max_entry_bits"],
                                              _max_bits(args), _max_bits(res))
            return obs
        return None

    def install(self) -> None:
        """Patch every target, and every qwalg module name bound to it."""
        modules = [m for k, m in sys.modules.items()
                   if k == "qwalg" or k.startswith("qwalg.")]
        for modname, path, name, hot in TARGETS:
            owner = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if outer else getattr(owner, attr)
            wrapped = self._wrap(original, name, hot, self._observer(name))
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            if not outer:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original and mod is not owner:
                            self._saved.append((mod, key, original))
                            setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results ----------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        c, t, s, x = self.calls, self.incl, self.self_time, self.extra
        ops = x["coeff_results"]
        cert = c["rewrite.certify"]
        return {
            "cli.self_s": s["cli.main"],
            "qwa.parse_calls": c["qwa.parse"],
            "qwa.parse_s": t["qwa.parse"],
            "scalars.ops": c["scalars.op"],
            "scalars.self_s": s["scalars.op"],
            "cyclo.mul_calls": c["cyclo.mul"],
            "cyclo.add_calls": c["cyclo.add"],
            "cyclo.inv_calls": c["cyclo.inv"],
            "cyclo.self_s": sum(s[k] for k in ("cyclo.mul", "cyclo.add", "cyclo.inv",
                                                  "cyclo.ring_init")),
            "cyclo.ring_init_s": t["cyclo.ring_init"],
            "cyclo.den_frac": x["coeff_den"] / ops if ops else 0.0,
            "cyclo.phi_gt1_frac": x["coeff_phi_gt1"] / ops if ops else 0.0,
            "rewrite.certify_calls": cert,
            "rewrite.certify_s": s["rewrite.certify"],
            "rewrite.certify_rules": x["certify_rules"] / cert if cert else 0.0,
            "rewrite.extend_calls": c["rewrite.extend"],
            "rewrite.extend_s": s["rewrite.extend"],
            "rewrite.normal_form_calls": c["rewrite.normal_form"],
            "rewrite.normal_form_s": t["rewrite.normal_form"],
            "rewrite.normality_s": t["rewrite.normality"],
            "presentation.admissible_s": t["presentation.admissible"],
            "presentation.system_s": t["presentation.system"],
            "presentation.apply_calls": c["presentation.apply"],
            "mixed.reduce_s": t["mixed.reduce"],
            "mixed.certificate_ops": x["certificate_ops"],
            "mixed.invariants_s": t["mixed.invariants"],
            "mixed.equiv_s": t["mixed.equiv"],
            "torus.center_calls": c["torus.center"],
            "torus.center_s": t["torus.center"],
            "torus.iso_s": t["torus.iso"],
            "intlattice.calls": sum(v for k, v in c.items() if k.startswith("intlattice.")),
            "intlattice.kernel_s": t["intlattice.kernel"],
            "intlattice.hnf_s": t["intlattice.hnf"],
            "intlattice.snf_s": t["intlattice.snf"],
            "intlattice.skew_nf_s": t["intlattice.skew_nf"],
            "intlattice.max_entry_bits": x["max_entry_bits"],
            "qweyl.build_s": t["qweyl.build"],
            "qweyl.localize_s": t["qweyl.localize"],
            "qweyl.inverted": x["inverted"],
            "embeddings.verify_calls": c["embeddings.verify"],
            "embeddings.verify_s": t["embeddings.verify"],
            "embeddings.relations_checked": x["relations_checked"],
        }

    def dump(self, path, meta: dict) -> None:
        table = {k: {"calls": self.calls[k], "incl_s": self.incl[k],
                     "self_s": self.self_time[k]} for k in sorted(self.calls)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "per_span": table, "extra": dict(self.extra),
                       "span_fields": ["id", "parent", "query", "name", "start", "dur"],
                       "spans": self.spans}, fh)
