"""Span tracing of vosa's layers, installed from outside the package.

`install` replaces public functions and methods of vosa with wrappers
that open a span around each call.  Spans nest: a span's self time is
its duration minus the time its child spans cover, so the self times of
all spans in a job add up to the job's traced wall time.

Each span also belongs to one phase, the nearest enclosing span that
starts a phase (a Zhu build, a star product, a module computation, ...).
Phase totals partition the traced time, which is what the check of the
dominant cost per workload compares against its design.

Only aggregates are kept for the hot spans; spans at phase boundaries
are kept as records (name, start, end, parent, job) so they can be
written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# span name -> phase it starts; spans not listed inherit their parent's
PHASES = {
    "job": "other",
    "zhu.build": "build",
    "zhu.second_cutoff": "build",
    "zhu.star": "star",
    "zhu.extend_on_read": "star",
    "zhu.center": "structure",
    "zhu.radical": "structure",
    "zhu.blocks": "structure",
    "zhu.assoc": "structure",
    "modules.omega": "module",
    "modules.induce": "module",
    "modules.zhu_rank": "module",
    "fields.verify": "module",
    "liealg.verify": "module",
    "cli.main": "cli",
}

# spans reported by inclusive time: their content is relation generation
# and echelon insertion, whose self time is reported by those layers
INCLUSIVE = ("zhu.second_cutoff", "zhu.extend_on_read")


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, start, child_s, phase, id, builds]
        self.self_s: dict = defaultdict(float)
        self.incl_s: dict = defaultdict(float)
        self.phase_s: dict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.records: list = []
        self.job = None
        self._next_id = 0
        # objects a job touched, read after it for size counters
        self.algebras: list = []
        self.spaces: dict = {}

    def open(self, name: str) -> None:
        phase = PHASES.get(name) or (self.stack[-1][3] if self.stack
                                     else "other")
        self._next_id += 1
        self.stack.append([name, time.perf_counter(), 0.0, phase,
                           self._next_id, 0])

    def close(self, name: str | None = None) -> None:
        end = time.perf_counter()
        entry = self.stack.pop()
        name = name or entry[0]
        dur = end - entry[1]
        own = dur - entry[2]
        self.calls[name] += 1
        self.self_s[name] += own
        self.phase_s[entry[3]] += own
        if name in INCLUSIVE:
            self.incl_s[name] += dur
        if self.stack:
            self.stack[-1][2] += dur
        if name in PHASES:
            parent = self.stack[-1][4] if self.stack else None
            self.records.append({"id": entry[4], "parent": parent,
                                 "job": self.job, "name": name,
                                 "start": entry[1], "end": end})

    def run_job(self, job: str, fn):
        """Run one job under a root span and read its size counters."""
        self.job = job
        self.open("job")
        try:
            return fn()
        finally:
            self.close()
            self._read_sizes()
            self.job = None

    def _read_sizes(self) -> None:
        c = self.counts
        for alg in self.algebras:
            rows = alg.ech.pivots.values()
            c["zhu.relations_independent"] += len(alg.ech.pivots)
            c["exact.echelon_rank"] = max(c["exact.echelon_rank"],
                                          len(alg.ech.pivots))
            bits = max((abs(x).bit_length() for r in rows
                        for x in r.values()), default=0)
            c["exact.pivot_max_bits"] = max(c["exact.pivot_max_bits"], bits)
            c["zhu.star_computed"] += len(alg._table)
        for space in self.spaces.values():
            n = len(getattr(space, "_mode_cache", ()))
            c["fields.mode_cache_entries"] += n
            if space.algebra is not space:
                c["fields.mode_cache_module_entries"] += n
        self.algebras.clear()
        self.spaces.clear()

    def span(self, fn, name: str):
        """Wrap fn so that each call is one span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close()

        return traced


def install(tracer: Tracer, vosa) -> None:
    """Wrap vosa's layer entry points at the places the package calls them.

    Module-level functions are replaced in every module that imported
    them by name; methods are replaced on their class.
    """
    cli, exact, fields, fock = vosa.cli, vosa.exact, vosa.fields, vosa.fock
    liealg, modules, zhu = vosa.liealg, vosa.modules, vosa.zhu
    span = tracer.span
    counts = tracer.counts

    # -- zhu: relation generation, builds, star table, structure --------
    o_relations = zhu.o_relations

    @functools.wraps(o_relations)
    def traced_relations(*args, **kwargs):
        it = o_relations(*args, **kwargs)
        while True:
            tracer.open("zhu.relations")
            try:
                rel = next(it)
            except StopIteration:
                return
            finally:
                tracer.close()
            counts["zhu.relations_generated"] += 1
            yield rel

    zhu.o_relations = traced_relations

    Zhu = zhu.ZhuAlgebra
    zhu_init, zhu_extend, zhu_star = (Zhu.__init__, Zhu._extend,
                                      Zhu.star_coords)

    @functools.wraps(zhu_init)
    def traced_init(self, *args, **kwargs):
        # the second build inside one certification is the
        # stabilization cutoff
        parent = tracer.stack[-1] if tracer.stack else None
        second = bool(parent and parent[0] == "modules.certify"
                      and parent[5])
        if parent:
            parent[5] += 1
        tracer.open("zhu.second_cutoff" if second else "zhu.build")
        try:
            zhu_init(self, *args, **kwargs)
        finally:
            tracer.close()
        tracer.algebras.append(self)

    @functools.wraps(zhu_extend)
    def traced_extend(self, w_amb):
        # during construction the extension is the build itself; after
        # it, a read that reaches past the covered weight grows the span
        if not hasattr(self, "basis") or w_amb <= self._covered:
            return zhu_extend(self, w_amb)
        tracer.open("zhu.extend_on_read")
        try:
            return zhu_extend(self, w_amb)
        finally:
            tracer.close()

    @functools.wraps(zhu_star)
    def traced_star(self, i, j):
        counts["zhu.star_calls"] += 1
        if (i, j) in self._table:
            return zhu_star(self, i, j)
        tracer.open("zhu.star")
        try:
            return zhu_star(self, i, j)
        finally:
            tracer.close()

    Zhu.__init__ = traced_init
    Zhu._extend = traced_extend
    Zhu.star_coords = traced_star
    Zhu.check_associative = span(Zhu.check_associative, "zhu.assoc")
    zhu.center_basis = span(zhu.center_basis, "zhu.center")
    zhu.trace_form_radical_dim = span(zhu.trace_form_radical_dim,
                                      "zhu.radical")
    zhu.block_profile = span(zhu.block_profile, "zhu.blocks")

    # -- exact: echelon writes and reads, nullspace ----------------------
    ech_add, ech_reduce = exact.Echelon.add, exact.Echelon.reduce

    @functools.wraps(ech_add)
    def traced_add(self, vec):
        tracer.open("exact.echelon_add")
        try:
            new = ech_add(self, vec)
        finally:
            tracer.close()
        counts["exact.echelon_add_new"] += new
        return new

    exact.Echelon.add = traced_add
    exact.Echelon.reduce = span(ech_reduce, "exact.echelon_reduce")
    exact.nullspace = modules.nullspace = span(exact.nullspace,
                                               "exact.nullspace")

    # -- fields: the mode recursion --------------------------------------
    mode = fields.mode

    @functools.wraps(mode)
    def traced_mode(space, *args, **kwargs):
        tracer.spaces[id(space)] = space
        tracer.open("fields.mode")
        try:
            return mode(space, *args, **kwargs)
        finally:
            tracer.close()

    fields.mode = modules.mode = liealg.mode = traced_mode
    fields.verify_commutator = span(fields.verify_commutator,
                                    "fields.verify")

    # -- fock: basis enumeration ------------------------------------------
    fock.Sector.basis = span(fock.Sector.basis, "fock.basis")

    # -- modules: certification, Omega, induction, zero-mode rank --------
    modules.certified_zhu = span(modules.certified_zhu, "modules.certify")
    modules.OmegaSpace.__init__ = span(modules.OmegaSpace.__init__,
                                       "modules.omega")
    modules.induce_truncated = span(modules.induce_truncated,
                                    "modules.induce")
    modules.zhu_rank = span(modules.zhu_rank, "modules.zhu_rank")

    # -- liealg -----------------------------------------------------------
    liealg.verify_jacobi = span(liealg.verify_jacobi, "liealg.verify")

    # -- cli: command overhead and the result cache ----------------------
    cache_get = cli._cache_get

    @functools.wraps(cache_get)
    def traced_get(*args, **kwargs):
        tracer.open("cli.cache_read")
        hit = None
        try:
            hit = cache_get(*args, **kwargs)
            return hit
        finally:
            tracer.close("cli.cache_hit" if hit is not None
                         else "cli.cache_miss")

    cli._cache_get = traced_get
    cli._cache_put = span(cli._cache_put, "cli.cache_write")
    cli.main = span(cli.main, "cli.main")
