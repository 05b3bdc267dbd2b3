"""Span tracing around phimod's public functions, from outside the package.

phimod's modules import each other's functions by name
(``from .linalg import row_reduce``), so a wrapper is bound in place of the
original in every loaded ``phimod`` module that holds it, and the originals
are put back on exit. Spans stay in memory and are written as JSON lines
when the traced run ends.
"""

import json
import sys
from time import perf_counter_ns

# (module, function, split by field): the layer boundaries that get spans.
# A split function's span is named <layer>.<function>.q or .cyc after the
# field of the op that made the call.
TARGETS = (
    ("scalars", "valuation", True),
    ("linalg", "row_reduce", True),
    ("linalg", "solve", True),
    ("linalg", "kernel", True),
    ("linalg", "char_poly", True),
    ("linalg", "lie_closure", True),
    ("linalg", "is_solvable", True),
    ("modules", "build_family", False),
    ("modules", "check_s1_s2", False),
    ("modules", "is_admissible", False),
    ("modules", "cyclic_presentation", False),
    ("classify", "canonical_class", False),
    ("classify", "point_from_module", False),
    ("classify", "wintenberger_type", False),
    ("monodromy", "monodromy_group", False),
    ("monodromy", "toric_generators", False),
    ("monodromy", "group_type", False),
    ("scan", "scan", False),
    ("scan", "class_of_point", False),
    ("cli", "main", False),
)

OP_SPAN = "op"


class Tracer:
    """Records (span id, name, start ns, end ns, parent id, op id) per call."""

    def __init__(self):
        self.spans = []
        self.escalations = 0
        self._stack = [-1]
        self._next_id = 0
        self._op = -1
        self._field = "q"
        self._undo = []

    # -- spans -------------------------------------------------------------

    def begin(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, name, perf_counter_ns(), parent

    def end(self, token):
        end = perf_counter_ns()
        self._stack.pop()
        sid, name, start, parent = token
        self.spans.append((sid, name, start, end, parent, self._op))

    def begin_op(self, op_id, field):
        self._op = op_id
        self._field = field
        return self.begin(OP_SPAN)

    def _wrap(self, name, fn, split):
        tracer = self

        def traced(*args, **kwargs):
            token = tracer.begin(f"{name}.{tracer._field}" if split else name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(token)

        traced.__wrapped__ = fn
        return traced

    # -- installing wrappers -----------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "phimod" or n.startswith("phimod.")]
        for layer, func, split in TARGETS:
            original = getattr(sys.modules[f"phimod.{layer}"], func)
            wrapper = self._wrap(f"{layer}.{func}", original, split)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, original))
                        setattr(module, attr, wrapper)
        self._count_escalations()

    def _count_escalations(self):
        """valuation asks its context for the embedding at precision N once per
        attempt; each ask above the context's precision is one escalation."""
        context = sys.modules["phimod.scalars"].PrimeContext
        original = context.root_mod
        tracer = self

        def root_mod(ctx, N):
            if N > ctx.precision:
                tracer.escalations += 1
            return original(ctx, N)

        self._undo.append((context, "root_mod", original))
        context.root_mod = root_mod

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Span id -> duration minus the part its direct children cover.
        Calls are synchronous on one thread, so children never overlap."""
        covered = {}
        for sid, _, start, end, parent, _ in self.spans:
            covered[parent] = covered.get(parent, 0) + (end - start)
        return {sid: end - start - covered.get(sid, 0) for sid, _, start, end, _, _ in self.spans}

    def totals(self):
        """Name -> [calls, inclusive ns, self ns]."""
        self_ns = self.self_times()
        out = {}
        for sid, name, start, end, _, _ in self.spans:
            row = out.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += self_ns[sid]
        return out

    def write_jsonl(self, path):
        self_ns = self.self_times()
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op in sorted(self.spans):
                rec = {
                    "id": sid,
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    "parent": parent,
                    "op": op,
                    "self_ns": self_ns[sid],
                }
                fh.write(json.dumps(rec) + "\n")
