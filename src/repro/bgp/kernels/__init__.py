"""Stable-state settling: two kernels behind one fixed dispatch.

Every routing table the repo builds from a snapshot — through
:func:`repro.bgp.routing.compute_routes`, the session's serial sweeps and
pool workers, and the differential oracle — is settled here, by one of
two kernels that return the same table (values *and* dict insertion
order, held byte-equal by the oracle's ``kernel:<name>`` modes):

* ``scalar`` — the index-space heap kernel
  (:func:`repro.bgp.routing.compute_routes_snapshot`); no dependencies.
* ``batched`` — the vectorized wave kernel
  (:mod:`repro.bgp.kernels.batched`): whole frontier waves settled as
  numpy operations over the snapshot's flat CSR arrays, with whole
  destination sweeps batched into one call.  Requires numpy (the
  ``[accel]`` extra).

Two limits of ``batched`` are plain code, not flags: its waves assume
every candidate tail is already settled, which pinned routes break, so
:func:`settle` runs pinned requests on ``scalar``; and its tables cannot
seed :func:`repro.bgp.routing.recompute_routes`, which therefore settles
large affected regions in full while it is active.

Selection precedence (first match wins):

1. an explicit ``kernel=`` argument at the call site,
2. the process-wide override installed by :func:`set_active` (the CLI's
   ``--kernel`` flag),
3. the ``REPRO_KERNEL`` environment variable,
4. :data:`DEFAULT_KERNEL` (``"scalar"``).

Selecting ``batched`` without numpy falls back to ``scalar`` with a
one-time warning instead of failing, so ``REPRO_KERNEL=batched`` is safe
to export machine-wide.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Any, Dict, Iterable, Optional, Tuple

from ...errors import KernelError
from ...obs import get_logger, get_registry, get_tracer
from ..route import Route
from ..routing import compute_routes_snapshot
from . import batched

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...topology.snapshot import TopologySnapshot

_LOG = get_logger("kernels")
_SETTLE_SECONDS = get_registry().histogram(
    "repro_routing_settle_seconds",
    "Wall-clock seconds per full table settling, by kernel backend",
    labels=("backend",),
)

#: The settling kernels, scalar (the default and the fallback) first.
KERNELS: Tuple[str, ...] = ("scalar", "batched")

#: The kernel used when nothing else is selected.
DEFAULT_KERNEL = "scalar"

#: Environment variable naming the default kernel for the process.
KERNEL_ENV_VAR = "REPRO_KERNEL"

_ACTIVE_OVERRIDE: Optional[str] = None
_FALLBACK_WARNED = False


def _known(name: str) -> str:
    if name not in KERNELS:
        raise KernelError(
            f"unknown kernel backend {name!r}; choose from "
            f"{', '.join(KERNELS)}"
        )
    return name


def available() -> Tuple[str, ...]:
    """The kernels that can run in this process (scalar always can)."""
    return KERNELS if batched.numpy_available() else (DEFAULT_KERNEL,)


def set_active(name: Optional[str]) -> Optional[str]:
    """Install (or with None clear) the process-wide kernel override.

    Unknown names raise before anything is installed; returns the
    previous override so callers (the CLI, test fixtures) can restore it.
    """
    global _ACTIVE_OVERRIDE
    if name is not None:
        _known(name)
    previous = _ACTIVE_OVERRIDE
    _ACTIVE_OVERRIDE = name
    return previous


def resolve(name: Optional[str] = None) -> str:
    """The kernel a settle call runs on, per selection precedence.

    Unknown names raise; ``batched`` without numpy degrades to scalar
    with a one-time warning.
    """
    global _FALLBACK_WARNED
    if name is None:
        name = (
            _ACTIVE_OVERRIDE or os.environ.get(KERNEL_ENV_VAR) or DEFAULT_KERNEL
        )
    if _known(name) == "batched" and not batched.numpy_available():
        if not _FALLBACK_WARNED:
            _FALLBACK_WARNED = True
            _LOG.warning(
                "kernel_unavailable", backend=name, requires="numpy",
                fallback=DEFAULT_KERNEL,
            )
        return DEFAULT_KERNEL
    return name


def settle(
    snapshot: "TopologySnapshot",
    destination: int,
    pinned: Optional[Dict[int, Route]] = None,
    kernel: Optional[str] = None,
) -> Dict[int, Route]:
    """Settle one destination's full table on the selected kernel.

    Pinned requests always settle on scalar; the wall-clock cost lands
    in the per-kernel ``repro_routing_settle_seconds`` histogram.
    """
    name = resolve(kernel)
    start = time.perf_counter()
    if name == "batched" and not pinned:
        best = batched.settle_batched(snapshot, destination)
    else:
        name = DEFAULT_KERNEL
        best = compute_routes_snapshot(snapshot, destination, pinned)
    _SETTLE_SECONDS.labels(backend=name).observe(time.perf_counter() - start)
    return best


def settle_many(
    snapshot: "TopologySnapshot",
    destinations: Iterable[int],
    kernel: Optional[str] = None,
) -> Dict[int, Dict[int, Route]]:
    """Settle a whole (un-pinned) destination sweep on the selected kernel.

    ``batched`` settles the sweep's waves jointly; ``scalar`` loops.
    Same tables either way, duplicates computed once.
    """
    name = resolve(kernel)
    requested = list(destinations)
    start = time.perf_counter()
    with get_tracer().span(
        "settle_many", backend=name, destinations=len(requested)
    ):
        if name == "batched":
            out = batched.settle_many(snapshot, requested)
        else:
            out = {
                destination: compute_routes_snapshot(snapshot, destination)
                for destination in dict.fromkeys(requested)
            }
    _SETTLE_SECONDS.labels(backend=name).observe(time.perf_counter() - start)
    return out


def describe() -> Dict[str, Any]:
    """JSON-ready view of the kernel selection, for exports and stats."""
    return {
        "active": resolve(),
        "default": DEFAULT_KERNEL,
        "env": os.environ.get(KERNEL_ENV_VAR),
        "available": list(available()),
    }
