"""Spans around the public functions of each specflow layer, recorded from
the benchmark's side.

:class:`Tracer` replaces every public function of ``cli``, ``bifurcate``,
``sfpath``, ``hamsys`` and ``symlin`` at every module that binds it by name
(``locate_crossings`` lives in ``sfpath``, ``bifurcate`` and ``hamsys``),
plus ``OperatorPath.evaluate``, ``SymMatrix.__post_init__`` and the LAPACK
entry points ``numpy.linalg.eigvalsh``/``eigh`` (the ``linalg`` layer).
Spans stay in memory as ``[name, start, end, parent, problem, work]`` until
:meth:`Tracer.write`; ``work`` is ``batch * d**3`` for eigen-solves.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "bifurcate", "sfpath", "hamsys", "symlin")

# Per-layer metrics, in the order BENCHMARK.json lists them.
METRICS = (
    ("cli.parse_config_s", "s"),
    ("cli.self_s", "s"),
    ("cli.eig_calls", "count"),
    ("sfpath.locate_crossings_s", "s"),
    ("sfpath.locate_crossings_eig_calls", "count"),
    ("sfpath.classify_crossings_s", "s"),
    ("sfpath.evaluate_calls", "count"),
    ("sfpath.extended_sf_s", "s"),
    ("hamsys.assemble_hessian_s", "s"),
    ("hamsys.assemble_hessian_calls", "count"),
    ("hamsys.galerkin_sf_s", "s"),
    ("hamsys.galerkin_path_calls", "count"),
    ("hamsys.eig_range_s", "s"),
    ("bifurcate.analyze_path_s", "s"),
    ("bifurcate.trace_components_s", "s"),
    ("bifurcate.sweep2d_s", "s"),
    ("bifurcate.krasnoselskii_s", "s"),
    ("symlin.SymMatrix_calls", "count"),
    ("symlin.eigensym_calls", "count"),
    ("symlin.inertia_calls", "count"),
    ("linalg.eigvalsh_calls", "count"),
    ("linalg.eigvalsh_s", "s"),
    ("linalg.eigvalsh_dim3", "count"),
    ("linalg.eigh_calls", "count"),
    ("linalg.eigh_s", "s"),
)

EIG_SPANS = ("linalg.eigvalsh", "linalg.eigh")


def _eig_work(args) -> int:
    shape = np.shape(args[0])
    return int(np.prod(shape[:-2], dtype=np.int64)) * shape[-1] ** 3


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.problem: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, work=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.problem, work(args) if work else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import specflow

        modules = {name: getattr(__import__(f"specflow.{name}"), name) for name in LAYERS}
        binders = [specflow, *modules.values()]
        for short, mod in modules.items():
            for name in mod.__all__:
                fn = getattr(mod, name)
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                traced = self._wrap(f"{short}.{name}", fn)
                for binder in binders:
                    for attr, value in list(vars(binder).items()):
                        if value is fn:
                            self._set(binder, attr, traced)
        sfpath, symlin = modules["sfpath"], modules["symlin"]
        self._set(sfpath.OperatorPath, "evaluate", self._wrap("sfpath.evaluate", sfpath.OperatorPath.evaluate))
        self._set(symlin.SymMatrix, "__post_init__", self._wrap("symlin.SymMatrix", symlin.SymMatrix.__post_init__))
        for name in ("eigvalsh", "eigh"):
            self._set(np.linalg, name, self._wrap(f"linalg.{name}", getattr(np.linalg, name), _eig_work))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,problem,work\n")
            for i, (name, start, end, parent, problem, work) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},{problem},{work}\n")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer times and counts summed over the recorded spans.

    ``<name>_s`` is the inclusive time of the outermost spans of that name,
    ``<name>_calls`` the number of spans; ``cli.self_s`` is ``cli.run`` minus
    its child spans and ``cli.eig_calls`` the eigen-solves whose parent span
    is ``cli.run``.
    """
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    child_time: dict[int, float] = defaultdict(float)
    work = 0
    cli_eig = 0
    locate_eig = 0
    for i, (name, start, end, parent, _problem, w) in enumerate(spans):
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += end - start
        ancestors = []
        p = parent
        while p >= 0:
            ancestors.append(spans[p][0])
            p = spans[p][3]
        if name not in ancestors:
            busy[name] += end - start
        if name in EIG_SPANS:
            if name == "linalg.eigvalsh":
                work += w
            if parent >= 0 and spans[parent][0] == "cli.run":
                cli_eig += 1
            if "sfpath.locate_crossings" in ancestors:
                locate_eig += 1
    cli_self = sum(
        (s[2] - s[1]) - child_time[i] for i, s in enumerate(spans) if s[0] == "cli.run"
    )
    out = {}
    for metric, _unit in METRICS:
        if metric == "cli.self_s":
            out[metric] = cli_self
        elif metric == "cli.eig_calls":
            out[metric] = cli_eig
        elif metric == "sfpath.locate_crossings_eig_calls":
            out[metric] = locate_eig
        elif metric == "linalg.eigvalsh_dim3":
            out[metric] = work
        elif metric.endswith("_calls"):
            out[metric] = calls[metric[: -len("_calls")]]
        else:
            out[metric] = busy[metric[: -len("_s")]]
    return out
