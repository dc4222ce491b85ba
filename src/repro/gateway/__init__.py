"""Always-on solve gateway: long-lived workers + fingerprint cache.

``repro serve`` runs a :class:`Gateway` — an asyncio front door on a
unix socket (and optionally HTTP) that multiplexes verify / generate /
optimize / fuzz requests onto a pool of import-warm fork workers, and
caches results keyed by the instance fingerprint.  An exact repeat is
served from the cache without touching a worker; a *delta-close*
repeat (same network/trains, different arrival deadlines) warm-starts
from the cached model after clause-level re-certification.  See
``doc/architecture.md`` §9.
"""

from repro.gateway.cache import CacheEntry, ResultCache
from repro.gateway.client import GatewayClient, GatewayError
from repro.gateway.fingerprint import exact_key, family_key
from repro.gateway.pool import (
    DeadlineExceeded,
    TaskWorkerPool,
    WorkerCrashed,
)
from repro.gateway.requests import RequestError, execute
from repro.gateway.server import (
    Gateway,
    GatewayConfig,
    GatewayThread,
    serve,
)

__all__ = [
    "CacheEntry",
    "DeadlineExceeded",
    "Gateway",
    "GatewayClient",
    "GatewayConfig",
    "GatewayError",
    "GatewayThread",
    "RequestError",
    "ResultCache",
    "TaskWorkerPool",
    "WorkerCrashed",
    "exact_key",
    "execute",
    "family_key",
    "serve",
]
