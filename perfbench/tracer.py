"""Per-layer counters for the traced run, installed from outside chandeg.

Each public function is wrapped where its caller looks it up (for example
``chandeg.degradability.numeric_rank``, not ``chandeg.linalg.numeric_rank``),
so calls made inside chandeg are counted.  A wrapper records calls, total time
and self time (total minus the time of wrapped calls made inside it).
Wrapping adds a few microseconds per call, which distorts sub-millisecond
queries; that is why end-to-end metrics come from untraced runs.
"""

import time
from collections import defaultdict

# (module, attribute, counter key).  One key may be patched in several
# modules: every place a caller resolves the name.
PATCHES = [
    ("chandeg.degradability", "numeric_rank", "linalg.numeric_rank"),
    ("chandeg.degradability", "pseudoinverse", "linalg.pseudoinverse"),
    ("chandeg.degradability", "kernel_basis", "linalg.kernel_basis"),
    ("chandeg.degradability", "hermitian_eigs", "linalg.hermitian_eigs"),
    ("chandeg.channel", "hermitian_eigs", "linalg.hermitian_eigs"),
    ("chandeg.channel", "numeric_rank", "linalg.numeric_rank"),
    ("chandeg.degradability", "complement", "channel.complement"),
    ("chandeg.capacity", "complement", "channel.complement"),
    ("chandeg.degradability", "superop_to_choi", "channel.superop_to_choi"),
    ("chandeg.degradability", "is_cp", "channel.is_cp"),
    ("chandeg.capacity", "apply", "channel.apply"),
    ("chandeg.degradability", "candidate_map", "degradability.candidate_map"),
    ("chandeg.degradability", "kernel_family", "degradability.kernel_family"),
    ("chandeg.degradability", "kernel_search", "degradability.kernel_search"),
    ("chandeg.degradability", "decide", "degradability.decide"),
    ("chandeg.degradability", "minimize", "search.minimize"),
    ("chandeg.capacity", "one_shot_optimize", "capacity.one_shot_optimize"),
    ("chandeg.capacity", "covariant_capacity", "capacity.covariant_capacity"),
    ("chandeg.capacity", "coherent_information", "capacity.coherent_information"),
    ("chandeg.capacity", "von_neumann_entropy", "capacity.von_neumann_entropy"),
    ("chandeg.capacity", "minimize", "capacity.minimize"),
]

SVD_KEYS = ("linalg.numeric_rank", "linalg.pseudoinverse", "linalg.kernel_basis")
LINALG_KEYS = SVD_KEYS + ("linalg.hermitian_eigs",)


def stack_bytes(family):
    """Bytes of the dense stacks kernel_search builds (computed, not measured):
    Hermitian and anti-Hermitian Choi parts (n x n) and output partial traces
    (d_in x d_in), complex128, for two real directions per kernel vector."""
    k = len(family.basis)
    d_in, d_out = family.base.d_in, family.base.d_out
    n = d_in * d_out
    return 2 * k * (2 * n * n + d_in * d_in) * 16


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.nfev = defaultdict(int)
        self.nit = defaultdict(int)
        self.stack_mb = 0.0
        self._child_s = []
        self._saved = []

    def _wrap(self, key, fn):
        def wrapper(*args, **kwargs):
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = self._child_s.pop()
                self.calls[key] += 1
                self.total_s[key] += dt
                self.self_s[key] += dt - inner
                if self._child_s:
                    self._child_s[-1] += dt
            if key.endswith(".minimize"):
                self.nfev[key] += int(result.nfev)
                self.nit[key] += int(getattr(result, "nit", 0))
            elif key == "degradability.kernel_search":
                self.stack_mb = max(self.stack_mb, stack_bytes(args[0]) / 2**20)
            return result

        return wrapper

    def install(self):
        import importlib

        for module_name, attr, key in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(key, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def summary(self):
        """Per-key totals, written to the trace file."""
        return {
            key: {
                "calls": self.calls[key],
                "self_ms": 1e3 * self.self_s[key],
                "total_ms": 1e3 * self.total_s[key],
            }
            for key in sorted(self.calls)
        }

    def metrics(self, n_queries):
        """Per-layer metrics, each per query (search.stack_mb: largest)."""
        per_q = 1.0 / n_queries
        c, s = self.calls, self.self_s
        nfev = self.nfev["search.minimize"]
        return {
            "linalg.svd_calls": sum(c[k] for k in SVD_KEYS) * per_q,
            "linalg.eigh_calls": c["linalg.hermitian_eigs"] * per_q,
            "linalg.ms": 1e3 * sum(s[k] for k in LINALG_KEYS) * per_q,
            "channel.complement.calls": c["channel.complement"] * per_q,
            "channel.complement.ms": 1e3 * s["channel.complement"] * per_q,
            "channel.superop_to_choi.calls": c["channel.superop_to_choi"] * per_q,
            "channel.superop_to_choi.ms": 1e3 * s["channel.superop_to_choi"] * per_q,
            "channel.is_cp.ms": 1e3 * s["channel.is_cp"] * per_q,
            "channel.apply.calls": c["channel.apply"] * per_q,
            "degradability.candidate_map.calls": c["degradability.candidate_map"] * per_q,
            "degradability.candidate_map.ms": 1e3 * s["degradability.candidate_map"] * per_q,
            "degradability.kernel_family.calls": c["degradability.kernel_family"] * per_q,
            "degradability.kernel_family.ms": 1e3 * s["degradability.kernel_family"] * per_q,
            "degradability.kernel_search.ms": 1e3 * s["degradability.kernel_search"] * per_q,
            "degradability.decide.ms": 1e3 * s["degradability.decide"] * per_q,
            "degradability.decide.total_ms": 1e3 * self.total_s["degradability.decide"] * per_q,
            "search.minimize.calls": c["search.minimize"] * per_q,
            "search.minimize.nfev": nfev * per_q,
            "search.minimize.nit": self.nit["search.minimize"] * per_q,
            "search.minimize.ms": 1e3 * s["search.minimize"] * per_q,
            "search.ms_per_eval": 1e3 * s["search.minimize"] / nfev if nfev else 0.0,
            "search.stack_mb": self.stack_mb,
            "capacity.one_shot_optimize.ms": 1e3 * s["capacity.one_shot_optimize"] * per_q,
            "capacity.one_shot_optimize.total_ms": 1e3
            * self.total_s["capacity.one_shot_optimize"]
            * per_q,
            "capacity.coherent_information.calls": c["capacity.coherent_information"] * per_q,
            "capacity.von_neumann_entropy.calls": c["capacity.von_neumann_entropy"] * per_q,
            "capacity.minimize.nfev": self.nfev["capacity.minimize"] * per_q,
            "capacity.minimize.ms": 1e3 * s["capacity.minimize"] * per_q,
        }
