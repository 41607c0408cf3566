"""Span tracing of hodgekit from outside the package.

`Tracer.install()` wraps the public functions named in SPANS.  The
hodgekit modules bind most of them with `from ... import`, so every
module attribute that is the original function is replaced, in every
loaded hodgekit module.  Hot methods that are only counted (field
multiplication, root-box evaluation, polynomial products) are patched
on their class or module the same way.

A span is (name, start, end, parent index, operation id).  Spans stay
in memory until `dump()`; `self_times()` turns them into per-name self
time and call counts, where self time is a span's duration minus the
durations of its direct children.
"""

import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span name)
SPANS = (
    ("hodgekit.cli", "load_problem_file", "cli.load_problem_file"),
    ("hodgekit.cli", "_emit", "cli.report"),
    ("hodgekit.hodge", "validate_period", "hodge.validate_period"),
    ("hodgekit.hodge", "transcendental_lattice", "hodge.transcendental_lattice"),
    ("hodgekit.hodge", "endomorphism_field", "hodge.endomorphism_field"),
    ("hodgekit.hodge", "hodge_classes_tensor_square",
     "hodge.hodge_classes_tensor_square"),
    ("hodgekit.symalg", "build_tha", "symalg.build_tha"),
    ("hodgekit.symalg", "harmonic_project", "symalg.harmonic_project"),
    ("hodgekit.ksympl", "verify_k_symplectic", "ksympl.verify_k_symplectic"),
    ("hodgekit.ksympl", "pfaffian", "ksympl.pfaffian"),
    ("hodgekit.ksympl", "clifford_operators", "ksympl.clifford_operators"),
    ("hodgekit.qforms", "signature", "qforms.signature"),
    ("hodgekit.qforms", "orth_complement", "qforms.orth_complement"),
    ("hodgekit.perdom", "griffiths_check", "perdom.griffiths_check"),
    ("hodgekit.exactmath.linalg", "rref", "linalg.rref"),
    ("hodgekit.exactmath.linalg", "kernel", "linalg.kernel"),
    ("hodgekit.exactmath.linalg", "solve_linear", "linalg.solve_linear"),
    ("hodgekit.exactmath.linalg", "inverse", "linalg.inverse"),
    ("hodgekit.exactmath.numberfield", "nf_create", "numberfield.nf_create"),
    ("hodgekit.exactmath.numberfield", "nf_embeddings",
     "numberfield.nf_embeddings"),
    ("hodgekit.exactmath.numberfield", "roots_in_field",
     "numberfield.roots_in_field"),
    ("hodgekit.exactmath.numberfield", "conjugation_automorphism",
     "numberfield.conjugation_automorphism"),
    ("hodgekit.exactmath.numberfield", "certified_sign",
     "numberfield.certified_sign"),
    ("hodgekit.exactmath.unipoly", "factor_rational", "unipoly.factor_rational"),
    ("hodgekit.exactmath.rootiso", "isolate_real_roots",
     "rootiso.isolate_real_roots"),
    ("hodgekit.exactmath.rootiso", "isolate_nonreal_roots",
     "rootiso.isolate_nonreal_roots"),
    ("hodgekit.exactmath.mpoly", "mp_pow", "mpoly.mp_pow"),
)
# (module, attribute, counter name)
COUNTED = (
    ("hodgekit.exactmath.mpoly", "mp_mul", "mpoly.mp_mul_calls"),
)
ROOT = "op"


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = None

    @contextmanager
    def operation(self, op):
        """Root span of one benchmark operation; spans opened inside it
        carry its id."""
        self.op = op
        rec = self._open(ROOT)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name):
        rec = [name, time.monotonic(), 0.0,
               self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.monotonic()
        self.stack.pop()

    def _spanned(self, fn, name):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Patch every binding site of the traced functions in the loaded
        hodgekit modules."""
        for module, attr, name in SPANS:
            if module in sys.modules:
                orig = getattr(sys.modules[module], attr)
                wrapped = self._spanned(orig, name)
                if attr == "rref":
                    wrapped = self._rref(wrapped)
                _rebind(orig, wrapped)
        for module, attr, name in COUNTED:
            if module in sys.modules:
                orig = getattr(sys.modules[module], attr)
                _rebind(orig, self._counted(orig, name))
        if "hodgekit.symalg" in sys.modules:
            orig = sys.modules["hodgekit.symalg"].power_top
            _rebind(orig, self._power_top(orig))
        from hodgekit.exactmath.linalg import Matrix
        from hodgekit.exactmath.numberfield import ComplexEmbedding, FieldElement

        matmul = Matrix.__mul__
        spanned = self._spanned(matmul, "linalg.matmul")

        def mul(a, b):
            if isinstance(b, Matrix):
                return spanned(a, b)
            return matmul(a, b)
        Matrix.__mul__ = mul
        field_mul = self._counted(FieldElement.__mul__,
                                  "numberfield.field_mul_calls")
        FieldElement.__mul__ = FieldElement.__rmul__ = field_mul
        ComplexEmbedding.eval_box = self._counted(
            ComplexEmbedding.eval_box, "numberfield.eval_box_calls")

    def _rref(self, fn):
        counts = self.counts

        def wrapper(m):
            counts["linalg.rref_cells"] += m.rows * m.cols
            return fn(m)
        return wrapper

    def _power_top(self, fn):
        """The first top power of an algebra builds its splitting inverse
        (cold); later ones reuse it (warm)."""
        cold = self._spanned(fn, "symalg.power_top_cold")
        warm = self._spanned(fn, "symalg.power_top_warm")
        seen = set()

        def wrapper(alg, x):
            key = (alg.space, alg.top)
            if key in seen:
                return warm(alg, x)
            seen.add(key)
            return cold(alg, x)
        return wrapper

    def dump(self):
        return {"spans": self.spans, "counts": dict(self.counts)}


def _rebind(orig, wrapped):
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "hodgekit"
                                   or name.startswith("hodgekit.")):
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapped)


def self_times(spans):
    """{name: [self seconds, calls, inclusive seconds]} from dumped spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for (name, start, end, _parent, _op), inner in zip(spans, child_time):
        acc = out.setdefault(name, [0.0, 0, 0.0])
        acc[0] += end - start - inner
        acc[1] += 1
        acc[2] += end - start
    return out
