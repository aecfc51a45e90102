"""Spans and counters around the layers of staggered_xx, installed from outside.

``Tracer.install()`` replaces each layer's public functions at the places
that call them: the module attribute for callers that go through the module
(``cli`` uses ``thermo.internal_energy``, ``ground.qcp_scan`` calls its own
``energy``) and the imported name for callers that did ``from .x import f``
(``entanglement.g1``, ``thermo.integrate``).  ``uninstall()`` puts the
originals back.  Nothing in the package is edited.

A span is (id, parent id, request, layer, start, end).  Spans stay in memory
until ``write_spans`` at the end of a run.  A layer's self time is its
spans' durations minus the time covered by their child spans.

Layers:

* ``cli``: ``cli.main``, wrapped by the caller through ``Tracer.wrap``;
* ``thermo``, ``correlations``, ``entanglement``, ``ground``, ``oracle``:
  their public functions;
* ``quadrature``: ``integrate``; its integrand becomes a child span named
  after the module that built it (``thermo.integrand``, ...), and each call
  adds to the counters nodes, rounds (integrand evaluations, one per
  refinement round), panels, unconverged and the distinct
  (integrand, parameters, interval) keys of the current request;
* ``model.theta``: ``theta_of_q``.
"""

from __future__ import annotations

import functools
import math
import time
from array import array
from collections import Counter, defaultdict

_THERMO = ("internal_energy", "magnetization", "staggered_magnetization",
           "ln_z_per_site", "thermo_point")
_CORRELATIONS = ("g1", "g_even", "g_odd", "g_site", "sigma_z", "sigma_z_pair",
                 "correlation_set", "zz_correlator", "xx_plus_yy")
_ENTANGLEMENT = ("c1", "c2", "witness")
_GROUND = ("energy", "magnetization_t0", "staggered_magnetization_t0",
           "meyer_wallach", "ground_report", "qcp_scan")


def _integrand_key(f, lo, hi):
    cells = tuple(c.cell_contents for c in (f.__closure__ or ()))
    key = (f.__code__, cells, lo, hi)
    try:
        hash(key)
    except TypeError:
        key = (f.__code__, id(f), lo, hi)
    return key


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self._layer_id: dict[str, int] = {}
        self.ids = array("q")
        self.parents = array("q")
        self.requests = array("q")
        self.layer_of = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack: list[list] = []  # [span id, layer id, start, child time]
        self._next_id = 0
        self._request = -1
        self._distinct: set = set()
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _lid(self, layer: str) -> int:
        lid = self._layer_id.get(layer)
        if lid is None:
            lid = self._layer_id[layer] = len(self.layers)
            self.layers.append(layer)
        return lid

    def _enter(self, lid: int) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, lid, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        sid, lid, start, child = self._stack.pop()
        dur = end - start
        layer = self.layers[lid]
        self.self_s[layer] += dur - child
        self.total_s[layer] += dur
        self.calls[layer] += 1
        parent = 0
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        self.ids.append(sid)
        self.parents.append(parent)
        self.requests.append(self._request)
        self.layer_of.append(lid)
        self.starts.append(start)
        self.ends.append(end)

    def wrap(self, layer: str, fn, count: str | None = None):
        """``fn`` recorded as a span of ``layer``; ``count`` also counts its calls."""
        lid = self._lid(layer)
        enter, leave, counts = self._enter, self._exit, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            enter(lid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return traced

    def begin_request(self, request: int) -> None:
        self._request = request
        self._distinct = set()

    def end_request(self) -> None:
        self.counts["quadrature.distinct"] += len(self._distinct)
        self.counts["requests"] += 1

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _wrap_integrate(self, integrate):
        lid = self._lid("quadrature")
        enter, leave, counts = self._enter, self._exit, self.counts
        integrand_ids = {}

        @functools.wraps(integrate)
        def traced(f, spec=None, lo=0.0, hi=math.pi):
            self._distinct.add(_integrand_key(f, lo, hi))
            module = f.__module__.rsplit(".", 1)[-1]
            ilid = integrand_ids.get(module)
            if ilid is None:
                ilid = integrand_ids[module] = self._lid(module + ".integrand")

            def integrand(q):
                counts["quadrature.rounds"] += 1
                counts["quadrature.nodes"] += q.size
                enter(ilid)
                try:
                    return f(q)
                finally:
                    leave()

            enter(lid)
            try:
                res = integrate(integrand, spec, lo, hi)
            finally:
                leave()
            counts["quadrature.panels"] += res.n_panels
            counts["quadrature.unconverged"] += not res.converged
            return res

        return traced

    def install(self) -> None:
        from staggered_xx import (
            cli, correlations, entanglement, ground, model, quadrature, thermo,
        )

        integrate = self._wrap_integrate(quadrature.integrate)
        for mod in (thermo, correlations, ground):
            self._patch(mod, "integrate", integrate)

        theta = self.wrap("model.theta", model.theta_of_q)
        for mod in (model, thermo, ground):
            self._patch(mod, "theta_of_q", theta)

        # Each public function, at its own module and wherever another layer
        # imported it by name.
        wrappers = {}
        for layer, mod, names in (
            ("thermo", thermo, _THERMO),
            ("correlations", correlations, _CORRELATIONS),
            ("entanglement", entanglement, _ENTANGLEMENT),
            ("ground", ground, _GROUND),
        ):
            for name in names:
                fn = getattr(mod, name)
                count = "ground.energy_calls" if fn is ground.energy else None
                wrappers[id(fn)] = (fn, self.wrap(layer, fn, count))
        for site in (thermo, correlations, entanglement, ground):
            for name, value in list(vars(site).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(site, name, hit[1])

        self._patch(cli, "dense_ed", self.wrap("oracle.dense_ed", cli.dense_ed))
        self._patch(cli, "finite_free_fermion",
                    self.wrap("oracle.free_fermion", cli.finite_free_fermion))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- output ----------------------------------------------------------------

    def write_spans(self, path) -> int:
        """Write every span as CSV; returns the number written."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,parent,request,layer,start_s,end_s\n")
            t0 = min(self.starts, default=0.0)
            for i in range(len(self.ids)):
                out.write(
                    f"{self.ids[i]},{self.parents[i]},{self.requests[i]},"
                    f"{self.layers[self.layer_of[i]]},{self.starts[i] - t0:.9f},"
                    f"{self.ends[i] - t0:.9f}\n"
                )
        return len(self.ids)
