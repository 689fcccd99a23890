"""The declarative per-tenant policy table, with write-time conflict detection.

A policy is an ordered list of **rules** persisted in the ``qos_policies``
table of a host-level database (``<root>/.flor-qos.db``).  Each rule binds a
*selector* to admission limits and a priority class:

* an **exact selector** (``tenant_03``) matches one tenant;
* a **prefix selector** (``team_a_*``) matches every tenant whose name
  starts with the prefix;
* the ``*`` selector is the **default fallback** — it sits outside the
  ordered scan and answers only when no other rule matched (so writing it
  can never shadow anything).

Resolution is **first-match-wins** over the non-``*`` rules in ``position``
order, then the ``*`` default, then the built-in unlimited policy.  That
ordering is what makes conflicts *decidable at write time* — the shape the
conflict-aware ACL-configuration work argues for: reject a bad rule when the
operator writes it, not when a tenant discovers it in production.

Two conflict families are rejected by :meth:`PolicyStore.put`:

* **Shadowing** (structural): a rule placed after another rule whose
  selector *covers* it (matches a superset of its names) can never fire —
  and dually, a broad rule inserted early makes existing later rules
  unreachable.  Both directions raise
  :class:`~repro.errors.PolicyConflictError` with ``code="shadowed"`` /
  ``code="shadows"`` naming both selectors.
* **Contradiction** (semantic): limits that can never admit a request —
  a burst below one token, a zero byte quota, a non-positive rate or
  window, an unknown priority class.  ``code="contradiction"`` names the
  offending field.

``NULL``/``None`` limits mean "unlimited" for that dimension, so "no rate
limit but a byte quota" and vice versa are both expressible.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..errors import PolicyConflictError, QosError
from ..storage.protocols import RelationalStore

#: Filename of the host-level QoS policy database under a service root
#: (same dot-prefix convention as the jobs database: never a tenant name).
QOS_DB_FILENAME = ".flor-qos.db"

#: Priority classes and their mapping onto the ``jobs.priority`` integer
#: column (higher claims first).  The spread leaves room for explicit
#: per-job overrides between classes.
PRIORITY_CLASSES: dict[str, int] = {"high": 100, "normal": 0, "low": -100}

#: ``meta`` key bumped on every policy write; cross-process admission
#: controllers poll it to invalidate their cached rules.
GENERATION_KEY = "qos_policy_generation"

_EXACT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_PREFIX_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*\*$")

_RULE_COLUMNS = (
    "selector",
    "position",
    "rate",
    "burst",
    "byte_quota",
    "window_seconds",
    "priority",
    "updated_at",
)
_RULE_COLUMNS_SQL = ", ".join(_RULE_COLUMNS)


def validate_selector(selector: str) -> str:
    """A selector is ``*``, an exact tenant name, or ``prefix*``."""
    if selector == "*":
        return selector
    if _EXACT_RE.match(selector) or _PREFIX_RE.match(selector):
        return selector
    raise QosError(
        f"invalid policy selector {selector!r}: expected '*', a tenant name, "
        "or a 'prefix*' pattern"
    )


def selector_matches(selector: str, tenant: str) -> bool:
    if selector == "*":
        return True
    if selector.endswith("*"):
        return tenant.startswith(selector[:-1])
    return tenant == selector


def selector_covers(a: str, b: str) -> bool:
    """Whether every tenant matching ``b`` also matches ``a`` (``a`` ≠ ``b``).

    The shadow test: with first-match-wins, an earlier covering rule makes
    the later one unreachable.  ``*`` is excluded from the ordered scan and
    never participates.
    """
    if a == b or a == "*" or b == "*":
        return False
    if a.endswith("*"):
        prefix = a[:-1]
        if b.endswith("*"):
            return b[:-1].startswith(prefix)
        return b.startswith(prefix)
    return False  # an exact selector covers only itself


@dataclass(frozen=True)
class PolicyRule:
    """One admission rule.  ``None`` limits mean unlimited on that axis."""

    selector: str
    rate: float | None = None  #: sustained requests/second
    burst: float | None = None  #: bucket capacity; defaults to max(rate, 1)
    byte_quota: int | None = None  #: bytes admitted per window
    window_seconds: float = 60.0  #: byte-quota window length
    priority: str = "normal"  #: job priority class (see PRIORITY_CLASSES)
    position: int = 0  #: scan order among non-``*`` rules (lower first)
    updated_at: float = 0.0

    @property
    def effective_burst(self) -> float | None:
        if self.rate is None:
            return None
        return self.burst if self.burst is not None else max(self.rate, 1.0)

    @property
    def job_priority(self) -> int:
        return PRIORITY_CLASSES[self.priority]

    @property
    def unlimited(self) -> bool:
        return self.rate is None and self.byte_quota is None

    def as_dict(self) -> dict[str, Any]:
        return {
            "selector": self.selector,
            "rate": self.rate,
            "burst": self.burst,
            "byte_quota": self.byte_quota,
            "window_seconds": self.window_seconds,
            "priority": self.priority,
            "position": self.position,
            "updated_at": self.updated_at,
        }

    @classmethod
    def from_row(cls, row: tuple) -> "PolicyRule":
        return cls(
            selector=str(row[0]),
            position=int(row[1]),
            rate=None if row[2] is None else float(row[2]),
            burst=None if row[3] is None else float(row[3]),
            byte_quota=None if row[4] is None else int(row[4]),
            window_seconds=float(row[5]),
            priority=str(row[6]),
            updated_at=float(row[7]),
        )


#: The built-in fallback when neither a rule nor a ``*`` default matches:
#: unlimited, normal priority.  QoS-enabled services stay permissive for
#: tenants the operator never mentioned.
BUILTIN_DEFAULT = PolicyRule(selector="*")


def validate_rule(rule: PolicyRule) -> None:
    """Reject intra-rule contradictions (limits that can never admit)."""

    def contradiction(field_name: str, message: str) -> PolicyConflictError:
        return PolicyConflictError(
            f"contradictory policy for {rule.selector!r}: {message}",
            code="contradiction",
            selector=rule.selector,
            field=field_name,
        )

    validate_selector(rule.selector)
    if rule.rate is not None and rule.rate <= 0:
        raise contradiction("rate", f"rate {rule.rate} can never admit a request (must be > 0 or null)")
    if rule.burst is not None:
        if rule.rate is None:
            raise contradiction("burst", "burst without a rate is meaningless (set rate or drop burst)")
        if rule.burst < 1:
            raise contradiction("burst", f"burst {rule.burst} holds less than one token — every request denied")
    if rule.byte_quota is not None and rule.byte_quota <= 0:
        raise contradiction(
            "byte_quota",
            f"byte quota {rule.byte_quota} admits zero bytes — every append denied",
        )
    if rule.window_seconds <= 0:
        raise contradiction("window_seconds", f"window of {rule.window_seconds}s never accrues quota")
    if rule.priority not in PRIORITY_CLASSES:
        raise contradiction(
            "priority",
            f"unknown priority class {rule.priority!r}; expected one of {sorted(PRIORITY_CLASSES)}",
        )


@dataclass(frozen=True)
class Resolution:
    """Outcome of resolving one tenant: the rule plus where it came from."""

    rule: PolicyRule
    source: str  #: "rule" | "default" | "builtin"

    def as_dict(self) -> dict[str, Any]:
        return {"source": self.source, **self.rule.as_dict()}


class PolicyStore:
    """CRUD + conflict detection over one ``qos_policies`` table.

    Thread-safe to the extent the underlying store's transactions are (the
    service opens one per process).  Every successful write bumps the
    ``meta.qos_policy_generation`` counter so cached admission state — in
    this process (via :attr:`on_change`) or another (via polling
    :meth:`generation`) — knows to reload.
    """

    def __init__(self, db: RelationalStore, *, clock: Callable[[], float] = time.time):
        self.db = db
        self._clock = clock
        self._owns_db = False
        #: Called (with no arguments) after every successful write; the
        #: in-process admission controller hooks its cache invalidation here.
        self.on_change: Callable[[], None] | None = None

    @classmethod
    def open(cls, root: Path | str, **kwargs: Any) -> "PolicyStore":
        """Open (creating if needed) the host-level policy store under ``root``."""
        from ..relational.database import Database

        store = cls(Database(Path(root) / QOS_DB_FILENAME), **kwargs)
        store._owns_db = True
        return store

    def close(self) -> None:
        if self._owns_db:
            self.db.close()

    def __enter__(self) -> "PolicyStore":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # --------------------------------------------------------------- reads
    def rules(self) -> list[PolicyRule]:
        """Non-``*`` rules in scan order (position, then selector)."""
        rows = self.db.query(
            f"SELECT {_RULE_COLUMNS_SQL} FROM qos_policies WHERE selector != '*'"
            " ORDER BY position ASC, selector ASC"
        )
        return [PolicyRule.from_row(row) for row in rows]

    def default(self) -> PolicyRule | None:
        """The stored ``*`` fallback, if the operator wrote one."""
        row = self.db.query_one(
            f"SELECT {_RULE_COLUMNS_SQL} FROM qos_policies WHERE selector = '*'"
        )
        return None if row is None else PolicyRule.from_row(row)

    def get(self, selector: str) -> PolicyRule | None:
        row = self.db.query_one(
            f"SELECT {_RULE_COLUMNS_SQL} FROM qos_policies WHERE selector = ?",
            (selector,),
        )
        return None if row is None else PolicyRule.from_row(row)

    def resolve(self, tenant: str) -> Resolution:
        """First matching rule, else the ``*`` default, else the built-in."""
        for rule in self.rules():
            if selector_matches(rule.selector, tenant):
                return Resolution(rule, "rule")
        default = self.default()
        if default is not None:
            return Resolution(default, "default")
        return Resolution(BUILTIN_DEFAULT, "builtin")

    def generation(self) -> int:
        """Monotone write counter (0 before the first write); cheap to poll."""
        row = self.db.query_one("SELECT value FROM meta WHERE key = ?", (GENERATION_KEY,))
        return 0 if row is None else int(row[0])

    # -------------------------------------------------------------- writes
    def put(self, rule: PolicyRule) -> PolicyRule:
        """Insert or replace the rule for ``rule.selector``; returns it durably.

        Raises :class:`~repro.errors.PolicyConflictError` on any shadow or
        contradiction — rejected writes leave the table untouched.  A new
        non-``*`` rule with ``position=0`` (the default) is appended after
        the current last rule; an explicit position is honored as given.
        An update keeps the rule's existing position unless one is passed.
        """
        validate_rule(rule)
        now = self._clock()
        with self.db.transaction() as conn:
            existing = {
                r.selector: r
                for r in (
                    PolicyRule.from_row(row)
                    for row in conn.execute(
                        f"SELECT {_RULE_COLUMNS_SQL} FROM qos_policies WHERE selector != '*'"
                        " ORDER BY position ASC, selector ASC"
                    ).fetchall()
                )
            }
            position = rule.position
            if rule.selector != "*":
                if position == 0:
                    prior = existing.get(rule.selector)
                    if prior is not None:
                        position = prior.position
                    else:
                        tail = max((r.position for r in existing.values()), default=0)
                        position = tail + 1
                self._check_shadowing(rule.selector, position, existing)
            conn.execute(
                "INSERT INTO qos_policies"
                " (selector, position, rate, burst, byte_quota, window_seconds, priority, updated_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)"
                " ON CONFLICT(selector) DO UPDATE SET"
                " position = excluded.position, rate = excluded.rate,"
                " burst = excluded.burst, byte_quota = excluded.byte_quota,"
                " window_seconds = excluded.window_seconds,"
                " priority = excluded.priority, updated_at = excluded.updated_at",
                (
                    rule.selector,
                    position,
                    rule.rate,
                    rule.burst,
                    rule.byte_quota,
                    rule.window_seconds,
                    rule.priority,
                    now,
                ),
            )
            self._bump_generation(conn)
        if self.on_change is not None:
            self.on_change()
        stored = self.get(rule.selector)
        assert stored is not None
        return stored

    def delete(self, selector: str) -> bool:
        """Remove a rule; returns whether it existed.  Never conflicts —
        removing a rule only ever *uncovers* later rules."""
        validate_selector(selector)
        with self.db.transaction() as conn:
            cursor = conn.execute("DELETE FROM qos_policies WHERE selector = ?", (selector,))
            removed = cursor.rowcount > 0
            if removed:
                self._bump_generation(conn)
        if removed and self.on_change is not None:
            self.on_change()
        return removed

    def load(self, config: dict[str, Any]) -> int:
        """Load a policy document (the ``--qos-policy`` file format).

        ``{"default": {...}, "rules": [{"selector": ..., ...}, ...]}`` —
        rules are applied in list order (so positions follow the document),
        and each write runs the full conflict check.  Returns the number of
        rules written.
        """
        if not isinstance(config, dict):
            raise QosError("policy document must be a JSON object")
        count = 0
        default = config.get("default")
        if default is not None:
            if not isinstance(default, dict):
                raise QosError("'default' must be an object of limits")
            self.put(rule_from_payload("*", default))
            count += 1
        rules = config.get("rules", [])
        if not isinstance(rules, list):
            raise QosError("'rules' must be a list of rule objects")
        for item in rules:
            if not isinstance(item, dict) or not item.get("selector"):
                raise QosError("every rule needs a 'selector'")
            payload = dict(item)
            selector = str(payload.pop("selector"))
            self.put(rule_from_payload(selector, payload))
            count += 1
        return count

    @classmethod
    def load_file(cls, root: Path | str, path: Path | str) -> "PolicyStore":
        """Open the root's store and load the JSON policy document at ``path``."""
        text = Path(path).read_text()
        try:
            config = json.loads(text)
        except json.JSONDecodeError as exc:
            raise QosError(f"policy file {path} is not valid JSON: {exc}") from exc
        store = cls.open(root)
        try:
            store.load(config)
        except Exception:
            store.close()
            raise
        return store

    # ------------------------------------------------------------ conflicts
    @staticmethod
    def _check_shadowing(
        selector: str, position: int, existing: dict[str, PolicyRule]
    ) -> None:
        for other in existing.values():
            if other.selector == selector:
                continue
            # Scan order among distinct selectors: position, then selector
            # (the rules() ordering) — stable even when positions collide.
            before = (other.position, other.selector) < (position, selector)
            if before and selector_covers(other.selector, selector):
                raise PolicyConflictError(
                    f"rule {selector!r} is shadowed by earlier rule "
                    f"{other.selector!r} and can never match",
                    code="shadowed",
                    selector=selector,
                    by=other.selector,
                )
            if not before and selector_covers(selector, other.selector):
                raise PolicyConflictError(
                    f"rule {selector!r} would shadow existing rule "
                    f"{other.selector!r}, making it unreachable",
                    code="shadows",
                    selector=selector,
                    by=other.selector,
                )

    def _bump_generation(self, conn) -> None:
        conn.execute(
            "INSERT INTO meta (key, value) VALUES (?, '1')"
            " ON CONFLICT(key) DO UPDATE SET value = CAST(value AS INTEGER) + 1",
            (GENERATION_KEY,),
        )


_PAYLOAD_FIELDS = frozenset(
    {"rate", "burst", "byte_quota", "window_seconds", "priority", "position"}
)


def rule_from_payload(selector: str, payload: dict[str, Any]) -> PolicyRule:
    """Build a rule from an HTTP/CLI/file payload, rejecting unknown keys."""
    unknown = set(payload) - _PAYLOAD_FIELDS
    if unknown:
        raise QosError(
            f"unknown policy field(s) {sorted(unknown)}; expected {sorted(_PAYLOAD_FIELDS)}"
        )

    def number(key: str) -> float | None:
        value = payload.get(key)
        if value is None:
            return None
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise QosError(f"policy field {key!r} must be a number, got {value!r}") from exc

    def integer(key: str) -> int | None:
        # ``1.5`` is not a position or a byte count: reject it, never
        # truncate, and never round an int through a float (past 2**53).
        value = payload.get(key)
        if value is None:
            return None
        parsed = value if type(value) is int else None
        if (isinstance(value, float) and value.is_integer()
                or isinstance(value, str) and re.fullmatch(r"\s*[+-]?\d{1,19}\s*", value)):
            parsed = int(value)
        if parsed is None or not -(2**63) <= parsed < 2**63:  # a SQLite INTEGER
            raise QosError(f"policy field {key!r} must be a 64-bit integer, got {value!r}")
        return parsed

    window_seconds = number("window_seconds")
    return PolicyRule(
        selector=validate_selector(selector),
        rate=number("rate"),
        burst=number("burst"),
        byte_quota=integer("byte_quota"),
        # An explicit 0 is kept, so validate_rule rejects it as a contradiction.
        window_seconds=60.0 if window_seconds is None else window_seconds,
        priority=str(payload.get("priority", "normal")),
        position=integer("position") or 0,
    )
