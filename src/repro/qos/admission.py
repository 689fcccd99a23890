"""The admission controller: policy table → per-tenant buckets → decisions.

One :class:`AdmissionController` sits at a request boundary (the single
service's HTTP layer, or the fleet router's proxy — never both at once) and
answers one question: *may this tenant's request proceed right now?*  The
answer is an :class:`AdmissionDecision` — allowed, **throttled** (denied now,
``retry_after`` says when capacity returns), or **rejected** (can never be
admitted under the current policy, e.g. a single append larger than the
whole byte quota).  Nothing is ever queued: deferred work is the tenant's
client's job, signalled with ``429`` + ``Retry-After``.

Bucket state is per tenant and per process.  Policy comes from the shared
:class:`~repro.qos.policy.PolicyStore`; rules are cached and re-resolved
when the store's generation counter moves — immediately in-process (the
store's ``on_change`` hook) and within ``refresh_interval`` seconds across
processes.  A policy change rebuilds the affected tenants' buckets; the
admitted/throttled/rejected counters are monotone for the life of the
process regardless (the chaos suite kills workers under load and asserts
exactly that on the surviving router).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from ..obs.metrics import MetricsRegistry, StatsView
from .bucket import QuotaWindow, TokenBucket
from .policy import PolicyStore, Resolution


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check.

    ``allowed`` is the only field a fast-path caller needs; denied
    decisions carry the (positive) ``retry_after`` hint, the limiting
    dimension in ``reason`` (``"rate"``, ``"quota"`` or ``"too_large"``)
    and whether the denial is a retryable throttle or a hard reject.
    """

    allowed: bool
    retry_after: float = 0.0
    reason: str = ""
    rejected: bool = False  #: True when retrying can never help

    @property
    def throttled(self) -> bool:
        return not self.allowed and not self.rejected


ALLOWED = AdmissionDecision(allowed=True)

#: Verdict → telemetry counter; each tenant counts in a scope of the
#: controller's registry, so the controller's own counters are the totals.
_VERDICTS = {
    "admitted": "qos.admitted",
    "throttled": "qos.throttled",
    "rejected": "qos.rejected",
}


class _TenantState:
    """One tenant's buckets, verdict counts, and the rule they were built from."""

    __slots__ = ("resolution", "bucket", "quota", "verdicts")

    def __init__(
        self, resolution: Resolution, clock: Callable[[], float], verdicts: StatsView
    ):
        self.resolution = resolution
        self.verdicts = verdicts
        rule = resolution.rule
        self.bucket = (
            None
            if rule.rate is None
            else TokenBucket(rule.rate, rule.effective_burst, clock=clock)
        )
        self.quota = (
            None
            if rule.byte_quota is None
            else QuotaWindow(rule.byte_quota, rule.window_seconds, clock=clock)
        )


class AdmissionController:
    """Per-tenant admission decisions over a shared policy table.

    Parameters
    ----------
    policies:
        The policy store to resolve tenants against.  The controller
        registers itself on the store's ``on_change`` hook for same-process
        invalidation.
    refresh_interval:
        How often (seconds) to poll the store's generation counter for
        *cross-process* policy changes.  ``0`` polls on every check (tests).
    clock:
        Injectable time source used for buckets, windows, and the refresh
        schedule.
    """

    def __init__(
        self,
        policies: PolicyStore,
        *,
        refresh_interval: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.policies = policies
        self.refresh_interval = float(refresh_interval)
        self._clock = clock
        self._lock = threading.Lock()
        self._tenants: dict[str, _TenantState] = {}
        self._generation = policies.generation()
        self._next_refresh = clock() + self.refresh_interval
        self._dirty = False
        #: The controller's scope (the service attaches it to its own, so
        #: verdicts show up in /service/telemetry); ``stats`` reads its totals.
        self.metrics = MetricsRegistry()
        self.stats = StatsView(self.metrics, _VERDICTS)
        policies.on_change = self._mark_dirty

    def _mark_dirty(self) -> None:
        self._dirty = True

    # ------------------------------------------------------------- checks
    def admit(self, tenant: str, nbytes: int = 0) -> AdmissionDecision:
        """Check (and, when allowed, charge) one request for ``tenant``.

        A single check-and-charge under one lock: a granted decision has
        already consumed one rate token and ``nbytes`` of quota, so callers
        must only call this once per request, after cheap validation but
        before any real work.  Denials charge nothing — a throttled tenant's
        bucket is not further drained by its own retries.
        """
        with self._lock:
            self._maybe_refresh()
            state = self._tenant(tenant)
            rule = state.resolution.rule
            if rule.byte_quota is not None and nbytes > rule.byte_quota:
                state.verdicts["rejected"].inc()
                return AdmissionDecision(
                    allowed=False,
                    retry_after=rule.window_seconds,
                    reason="too_large",
                    rejected=True,
                )
            # Probe the bucket before charging quota: both limits must pass
            # before either is charged, so a rate-throttled request does not
            # silently eat byte quota (and vice versa).
            if state.bucket is not None and state.bucket.level < 1.0:
                state.verdicts["throttled"].inc()
                wait = max((1.0 - state.bucket.level) / state.bucket.rate, 1e-9)
                return AdmissionDecision(False, retry_after=wait, reason="rate")
            if state.quota is not None and nbytes > 0:
                wait = state.quota.try_consume(nbytes)
                if wait > 0.0:
                    state.verdicts["throttled"].inc()
                    return AdmissionDecision(False, retry_after=wait, reason="quota")
            if state.bucket is not None:
                state.bucket.try_take(1.0)
            state.verdicts["admitted"].inc()
            return ALLOWED

    def resolve(self, tenant: str) -> Resolution:
        """The rule currently governing ``tenant`` (building state lazily)."""
        with self._lock:
            self._maybe_refresh()
            return self._tenant(tenant).resolution

    def job_priority(self, tenant: str) -> int:
        """The ``jobs.priority`` integer for the tenant's priority class."""
        return self.resolve(tenant).rule.job_priority

    # -------------------------------------------------------------- stats
    def snapshot(self, tenant: str | None = None) -> dict[str, Any]:
        """Counters and live bucket levels, for the stats routes.

        With ``tenant`` given, that tenant's block (creating its state so
        the levels reflect its policy even before its first request);
        otherwise every tenant seen so far plus fleet-wide totals.
        """
        with self._lock:
            self._maybe_refresh()
            if tenant is not None:
                return self._tenant_stats(self._tenant(tenant))
            tenants = {
                name: self._tenant_stats(state)
                for name, state in sorted(self._tenants.items())
            }
            return {
                "generation": self._generation,
                **self.stats.as_dict(),
                "tenants": tenants,
            }

    @staticmethod
    def _tenant_stats(state: _TenantState) -> dict[str, Any]:
        stats: dict[str, Any] = {
            **state.verdicts.as_dict(),
            "policy": state.resolution.as_dict(),
        }
        if state.bucket is not None:
            stats["bucket_level"] = round(state.bucket.level, 6)
        if state.quota is not None:
            stats["quota_remaining"] = state.quota.remaining
        return stats

    # ----------------------------------------------------------- internal
    def _tenant(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            state = _TenantState(
                self.policies.resolve(tenant),
                self._clock,
                StatsView(self.metrics.scope(), _VERDICTS),
            )
            self._tenants[tenant] = state
        return state

    def _maybe_refresh(self) -> None:
        """Re-resolve tenants whose rule changed; counters survive."""
        now = self._clock()
        if not self._dirty and now < self._next_refresh:
            return
        self._next_refresh = now + self.refresh_interval
        self._dirty = False
        generation = self.policies.generation()
        if generation == self._generation:
            return
        self._generation = generation
        for name, state in self._tenants.items():
            resolution = self.policies.resolve(name)
            if resolution == state.resolution:
                continue
            self._tenants[name] = _TenantState(resolution, self._clock, state.verdicts)
