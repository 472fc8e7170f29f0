"""repro.kernels — pluggable compute-kernel backends for the hot primitives.

The ROADMAP's "pluggable compute-kernel backend" item: every layer of the
planner stack (``Environment`` collision queries, ``BruteForceNN``
distance blocks, ``StraightLinePlanner`` batch validation, ``QueryEngine``
and ``PlanService``) bottoms out in the four primitives of
:class:`~repro.kernels.base.KernelBackend`, dispatched through this
registry:

* ``reference`` — today's float64 NumPy expressions, bit-exact with the
  historical inline code.  The default everywhere.
* ``fast32`` — float32 blocked/tiled kernels over the structure-of-arrays
  snapshot (:class:`~repro.kernels.data.EnvKernelData`); statistically
  equivalent, ~2x on medium scenes (see BENCH_perf.json).
* ``bvh`` — BVH-culled collision kernels for obstacle-heavy scenes
  (10³–10⁵ primitives, see ``repro.geometry.scenarios``); *bit-exact*
  with the reference (the tree culls, the reference pair tests decide
  every candidate), distance primitives delegate to ``reference``.
* ``numba`` — compiled scalar loops with early exit; registered only when
  numba imports, silently absent otherwise.

Select a backend per plan request with
``ExecutionPolicy(kernel_backend="fast32")``, per environment with
``Environment.set_kernel_backend``, or per call via the ``kernels=``
parameter the hot-path entry points accept.

Adding a backend is ``register(name, factory)`` plus the four methods —
see the recipe in DESIGN.md.
"""

from __future__ import annotations

from .base import KernelBackend
from .bvh_backend import BVHKernels
from .data import EnvKernelData
from .fast32 import Fast32Kernels
from .reference import ReferenceKernels
from .select import select_canonical, select_canonical_rows

__all__ = [
    "KernelBackend",
    "EnvKernelData",
    "ReferenceKernels",
    "Fast32Kernels",
    "BVHKernels",
    "DEFAULT_BACKEND",
    "register",
    "get_backend",
    "available_backends",
    "numba_available",
    "select_canonical",
    "select_canonical_rows",
]

DEFAULT_BACKEND = "reference"

#: name -> zero-arg factory.  Instantiation is deferred (and cached) so
#: registering an expensive backend costs nothing until first use.
_FACTORIES: "dict[str, type[KernelBackend] | object]" = {}
_INSTANCES: "dict[str, KernelBackend]" = {}


def register(name: str, factory) -> None:
    """Register a backend factory (a ``KernelBackend`` subclass or any
    zero-arg callable returning one) under ``name``.  Re-registering a
    name replaces the factory and drops the cached instance."""
    if not name or not isinstance(name, str):
        raise ValueError("backend name must be a non-empty string")
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def available_backends() -> "list[str]":
    """Registered backend names, sorted (``numba`` appears only when the
    import succeeded)."""
    return sorted(_FACTORIES)


def get_backend(name: "str | KernelBackend | None" = None) -> KernelBackend:
    """Resolve a backend by name (cached singleton per name).

    ``None`` resolves to :data:`DEFAULT_BACKEND`; an already-constructed
    :class:`KernelBackend` passes through unchanged, so call sites accept
    either form.  Unknown names raise ``ValueError`` listing what is
    registered.
    """
    if name is None:
        name = DEFAULT_BACKEND
    if isinstance(name, KernelBackend):
        return name
    try:
        inst = _INSTANCES.get(name)
        if inst is None:
            inst = _INSTANCES[name] = _FACTORIES[name]()
        return inst
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; available: {available_backends()}"
        ) from None


def numba_available() -> bool:
    """True when the numba backend registered at import time."""
    return "numba" in _FACTORIES


register("reference", ReferenceKernels)
register("fast32", Fast32Kernels)
register("bvh", BVHKernels)

try:  # numba is optional: absent => the backend simply isn't listed.
    from .numba_backend import NumbaKernels
except ImportError:  # pragma: no cover - exercised on the no-numba CI leg
    pass
else:  # pragma: no cover - exercised on the numba CI leg
    register("numba", NumbaKernels)
