"""Layer tracing from outside the program.

The tracer replaces selected public functions and methods of ``fluxrecon``
with timing wrappers while it is installed, and restores them afterwards.
Nothing under ``src/`` knows about it.

Each wrapped call is a span.  Its self time is its duration minus the
durations of the spans nested in it.  Durations are per-thread CPU time
(``time.thread_time``): the simulated cluster runs one rank thread at a
time, and a rank blocked in a collective burns no CPU, so a rank's span
does not absorb the work the other rank did meanwhile.  Each span record
also keeps wall-clock start and end for a timeline.

Totals are kept per phase (``setup``, ``steps``, ``output``), which each
thread sets for itself; threads that never set one use the main thread's.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

# (dotted owner, attribute, span name, call counter).  An owner is a module
# or a class; module functions are also replaced wherever another fluxrecon
# module imported them by name.
TARGETS = [
    ("fluxrecon.io.gmsh", "import_gmsh_ascii", "gmsh.import", None),
    ("fluxrecon.io.gmsh", "apply_periodic", "gmsh.import", None),
    ("fluxrecon.mesh_core", "build_face_list", "mesh_core.faces", None),
    ("fluxrecon.mesh_core", "match_local_faces", "mesh_core.faces", None),
    ("fluxrecon.mesh_core", "build_dual_graph", "mesh_core.faces", None),
    ("fluxrecon.prep.partition", "partition_mesh", "partition.partition", None),
    ("fluxrecon.prep.matching", "shard_program", "prep.match", None),
    ("fluxrecon.io.shards", "write_shards", "shards.write", None),
    ("fluxrecon.io.shards", "read_shards", "shards.read", None),
    ("fluxrecon.pipeline.solver.SolverRank", "__init__", "solver.build", None),
    ("fluxrecon.operators", "compute_geometry", "operators.geometry",
     "operators.geometry_calls"),
    ("fluxrecon.operators", "face_geometry", "operators.geometry",
     "operators.face_geometry_calls"),
    ("fluxrecon.pipeline.solver.SolverRank", "compute_residual",
     "solver.residual", "solver.residual_calls"),
    ("fluxrecon.pipeline.solver.SolverRank", "compute_dt", "solver.dt", None),
    ("fluxrecon.physics", "check_positivity", "solver.positivity", None),
    ("fluxrecon.physics", "riemann_flux", "physics.riemann", None),
    ("fluxrecon.physics", "inviscid_flux", "physics.flux", None),
    ("fluxrecon.physics", "viscous_flux", "physics.viscous", None),
    ("fluxrecon.physics", "ldg_interface", "physics.viscous", None),
    ("fluxrecon.physics", "apply_boundary", "physics.boundary", None),
    ("fluxrecon.physics", "sponge_source", "physics.sponge", None),
    ("fluxrecon.pipeline.solver.SolverRank", "halo_exchange_q", "halo.exchange", None),
    ("fluxrecon.pipeline.solver.SolverRank", "halo_exchange_grad", "halo.exchange", None),
    ("fluxrecon.prep.distribute", "allreduce_min", "comm.allreduce",
     "comm.allreduce_calls"),
    ("fluxrecon.prep.distribute", "allreduce_sum", "comm.allreduce",
     "comm.allreduce_calls"),
    ("fluxrecon.io.solution", "write_vtk", "solution.write", None),
    ("fluxrecon.io.solution", "write_surface_csv", "solution.write", None),
]

# nbx_exchange is counted, not timed: its calls and payload bytes are
# charged to the span that made the call (prep, halo or reduction).
NBX = ("fluxrecon.prep.distribute", "nbx_exchange")


def _resolve(dotted: str):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        mod = sys.modules.get(".".join(parts[:cut]))
        if mod is not None:
            obj = mod
            for name in parts[cut:]:
                obj = getattr(obj, name)
            return obj
    raise ImportError(dotted)


def _bindings(owner, attr):
    """Every (namespace, name) that holds the original object."""
    original = getattr(owner, attr)
    if isinstance(owner, type):
        return [(owner, attr)]
    out = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not name.startswith("fluxrecon"):
            continue
        for key, val in list(vars(mod).items()):
            if val is original:
                out.append((mod, key))
    return out


class Tracer:
    """Installs span wrappers; accumulates self time, calls and counters."""

    def __init__(self):
        self.self_s = {}      # (phase, span) -> CPU seconds, nested spans excluded
        self.incl_s = {}      # (phase, span) -> CPU seconds, nested spans included
        self.counts = {}      # (phase, counter) -> number
        self.spans = []       # (id, parent, thread, span, wall0, wall1, cpu_self)
        self.default_phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._saved = []

    # -- per-thread state ---------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def phase(self, name=None):
        """Set this thread's phase (or read it when name is None)."""
        if name is not None:
            self._local.phase = name
            if threading.current_thread() is threading.main_thread():
                self.default_phase = name
        return getattr(self._local, "phase", self.default_phase)

    def count(self, counter, value=1):
        key = (self.phase(), counter)
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def enclosing(self):
        st = self._stack()
        return st[-1][2] if st else None

    # -- wrappers -------------------------------------------------------------

    def _span(self, fn, span, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._stack()
            parent = st[-1][1] if st else -1
            with tracer._lock:
                sid = tracer._next_id
                tracer._next_id += 1
            frame = [0.0, sid, span]
            st.append(frame)
            w0 = time.perf_counter()
            c0 = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.thread_time() - c0
                w1 = time.perf_counter()
                st.pop()
                if st:
                    st[-1][0] += dur
                own = dur - frame[0]
                key = (tracer.phase(), span)
                with tracer._lock:
                    tracer.self_s[key] = tracer.self_s.get(key, 0.0) + own
                    tracer.incl_s[key] = tracer.incl_s.get(key, 0.0) + dur
                    tracer.spans.append((sid, parent, threading.get_ident(),
                                         span, w0, w1, own))
                if counter:
                    tracer.count(counter)

        return wrapper

    def _nbx(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(ctx, sbuffers):
            where = tracer.enclosing() or "other"
            tracer.count(f"nbx_calls@{where}")
            tracer.count(f"nbx_bytes@{where}", sum(len(b) for b in sbuffers.values()))
            return fn(ctx, sbuffers)

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for dotted, attr, span, counter in TARGETS:
            owner = _resolve(dotted)
            self._replace(owner, attr, self._span(getattr(owner, attr), span, counter))
        owner = _resolve(NBX[0])
        self._replace(owner, NBX[1], self._nbx(getattr(owner, NBX[1])))

    def _replace(self, owner, attr, wrapper):
        for ns, key in _bindings(owner, attr):
            self._saved.append((ns, key, getattr(ns, key) if isinstance(ns, type)
                                else vars(ns)[key]))
            setattr(ns, key, wrapper)

    def uninstall(self):
        for ns, key, original in reversed(self._saved):
            setattr(ns, key, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------------

    def self_time(self, phase, span):
        return self.self_s.get((phase, span), 0.0)

    def inclusive_time(self, phase, span):
        return self.incl_s.get((phase, span), 0.0)

    def counter(self, phase, name):
        return self.counts.get((phase, name), 0)

    def write(self, path):
        """Write every span as [id, parent, thread, name, wall0, wall1, self]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"clock": "wall perf_counter; self = thread CPU seconds",
                       "spans": self.spans}, fh, separators=(",", ":"))
