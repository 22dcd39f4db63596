"""RPR101 — the dense-materialisation guard.

The whole point of the reproduction is that the n×k distance block is
never materialised outside the chunked reduction engine (the paper's
popcorn trick computes it tile-by-tile).  This rule watches the hot
paths (``src/repro/engine/``, ``src/repro/core/``) for the two ways the
invariant historically regressed:

* allocating a 2-D array whose *both* dimensions are dynamic
  (``np.zeros((n, k))`` and friends) — a static dimension (e.g.
  ``(n, 3)`` scratch) is fine;
* calling the unfused reference distance helpers from code that should
  go through :mod:`repro.engine.reduction` instead;
* converting a whole kernel matrix with ``.astype(...)`` and no
  ``copy=False`` — every such call copies all ``n^2`` entries (the fit
  once spent 2x the K bytes on one, only to read ``k`` centroid norms).
  Gather the block you need and convert that instead.

The reduction engine itself is exempt (tiling there is the mechanism),
and the reference implementations keep their own allocations behind
justified inline suppressions — they exist to be the slow, obviously
correct baseline.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from ..core import Finding, Rule, SourceModule
from ._util import call_tail, dotted_name, is_constant

__all__ = ["DenseMaterialisationRule"]

#: allocation callables whose first argument is a shape
_ALLOCATORS = {"zeros", "empty", "ones", "full"}

#: unfused reference helpers that materialise a full distance block,
#: mapped to the module that is allowed to define/use them
_UNFUSED_HELPERS = {
    "popcorn_distances_host": "src/repro/core/distances.py",
    "weighted_distances_host": "src/repro/core/weighted.py",
    "_tiled_popcorn_distances_host": "src/repro/bench/experiments/reduction.py",
}

#: names the hot paths give a whole kernel matrix (``state.k_host`` too)
_KERNEL_MATRIX_NAMES = {"k_mat", "km", "kmat", "kernel_matrix", "kernel_host", "k_host"}

#: wrappers that hand back the same matrix (a view, or the array itself)
_PASSTHROUGH = {"asarray", "asanyarray", "ascontiguousarray"}

_HOT_PREFIXES = ("src/repro/engine/", "src/repro/core/")
_EXEMPT_PATHS = ("src/repro/engine/reduction.py",)


class DenseMaterialisationRule(Rule):
    rule_id = "RPR101"
    title = "no dense n×k materialisation in hot paths"
    rationale = (
        "Hot paths (src/repro/engine/, src/repro/core/) must not allocate "
        "2-D arrays with two dynamic dimensions or call the unfused "
        "reference distance helpers; route the computation through the "
        "chunked reduction engine (repro.engine.reduction), which tiles "
        "the n×k block so it never exists in memory.  Nor may they convert "
        "a whole kernel matrix with .astype(...) unless copy=False; gather "
        "the block that is needed and convert that.  Reference "
        "implementations that exist to be the slow baseline carry a "
        "justified '# repro-lint: disable=RPR101 -- ...' suppression."
    )

    def _in_scope(self, module: SourceModule) -> bool:
        if module.path in _EXEMPT_PATHS:
            return False
        return module.path.startswith(_HOT_PREFIXES)

    def check(self, module: SourceModule) -> Iterable[Finding]:
        if not self._in_scope(module) or module.tree is None:
            return ()
        out: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            tail = call_tail(node)
            if tail in _ALLOCATORS and self._dynamic_2d_shape(node):
                shape = ast.unparse(node.args[0])
                out.append(
                    self.finding(
                        module,
                        node.lineno,
                        f"dense 2-D allocation {tail}({shape}, ...) with two "
                        "dynamic dimensions in a hot path; tile it through "
                        "the reduction engine",
                    )
                )
            elif tail == "astype" and self._whole_kernel_copy(node):
                out.append(
                    self.finding(
                        module,
                        node.lineno,
                        f"{ast.unparse(node.func.value)}.astype(...) copies the "
                        "whole kernel matrix; pass copy=False or convert only "
                        "the gathered block that is needed",
                    )
                )
            elif tail in _UNFUSED_HELPERS and module.path != _UNFUSED_HELPERS[tail]:
                out.append(
                    self.finding(
                        module,
                        node.lineno,
                        f"unfused distance helper {tail}() called outside its "
                        "home module; use the fused chunked reduction "
                        "(repro.engine.reduction) in hot paths",
                    )
                )
        return out

    @staticmethod
    def _whole_kernel_copy(node: ast.Call) -> bool:
        if not isinstance(node.func, ast.Attribute):
            return False
        for kw in node.keywords:
            if kw.arg == "copy" and isinstance(kw.value, ast.Constant) and kw.value.value is False:
                return False
        target = node.func.value
        while isinstance(target, ast.Call) and call_tail(target) in _PASSTHROUGH and target.args:
            target = target.args[0]
        name = dotted_name(target)
        return name is not None and name.rsplit(".", 1)[-1] in _KERNEL_MATRIX_NAMES

    @staticmethod
    def _dynamic_2d_shape(node: ast.Call) -> bool:
        # only numpy-style allocators: bare names or numpy/np attributes
        if isinstance(node.func, ast.Attribute):
            base = dotted_name(node.func.value)
            if base not in ("np", "numpy"):
                return False
        if not node.args:
            return False
        shape = node.args[0]
        if not isinstance(shape, (ast.Tuple, ast.List)) or len(shape.elts) != 2:
            return False
        return all(not is_constant(dim) for dim in shape.elts)
