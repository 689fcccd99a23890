"""Policy table semantics: selectors, ordering, and write-time conflicts.

The regression surface ISSUE.md cares most about: a conflicting policy
write must be *rejected with a structured error* — never silently
accepted, never detected only at admission time.
"""

from __future__ import annotations

import pytest

from repro.errors import PolicyConflictError, QosError
from repro.qos import (
    BUILTIN_DEFAULT,
    PolicyRule,
    PolicyStore,
    rule_from_payload,
    selector_covers,
    selector_matches,
    validate_selector,
)


@pytest.fixture()
def store(tmp_path):
    with PolicyStore.open(tmp_path) as s:
        yield s


class TestSelectors:
    def test_validate_accepts_exact_prefix_and_star(self):
        for selector in ("tenant_03", "team.a-1", "team_a_*", "*"):
            assert validate_selector(selector) == selector

    @pytest.mark.parametrize("bad", ["", "*tenant", "a b", "-lead", "*.suffix", "a**"])
    def test_validate_rejects_malformed(self, bad):
        with pytest.raises(QosError):
            validate_selector(bad)

    def test_matching(self):
        assert selector_matches("hot", "hot")
        assert not selector_matches("hot", "hot2")
        assert selector_matches("team_*", "team_a")
        assert not selector_matches("team_*", "other")
        assert selector_matches("*", "anything")

    def test_coverage(self):
        assert selector_covers("h*", "hot")
        assert selector_covers("team_*", "team_a_*")
        assert not selector_covers("team_a_*", "team_*")
        assert not selector_covers("hot", "hot")  # a rule never covers itself
        assert not selector_covers("hot", "h*")  # exact covers only itself
        assert not selector_covers("*", "hot")  # default is outside the scan
        assert not selector_covers("h*", "*")


class TestResolution:
    def test_first_match_wins_in_position_order(self, store):
        store.put(PolicyRule(selector="team_a_lead", rate=100.0))
        store.put(PolicyRule(selector="team_a_*", rate=5.0))
        assert store.resolve("team_a_lead").rule.rate == 100.0
        assert store.resolve("team_a_member").rule.rate == 5.0

    def test_default_answers_when_no_rule_matches(self, store):
        store.put(PolicyRule(selector="hot", rate=1.0))
        store.put(PolicyRule(selector="*", rate=9.0))
        resolution = store.resolve("unmentioned")
        assert resolution.source == "default"
        assert resolution.rule.rate == 9.0

    def test_builtin_fallback_is_unlimited(self, store):
        resolution = store.resolve("anyone")
        assert resolution.source == "builtin"
        assert resolution.rule == BUILTIN_DEFAULT
        assert resolution.rule.unlimited

    def test_star_rules_never_enter_the_ordered_scan(self, store):
        store.put(PolicyRule(selector="*", rate=9.0))
        store.put(PolicyRule(selector="hot", rate=1.0))  # written after '*'
        assert store.resolve("hot").rule.rate == 1.0
        assert store.rules() == [store.get("hot")]


class TestConflicts:
    def test_rule_after_covering_prefix_is_rejected_shadowed(self, store):
        store.put(PolicyRule(selector="team_*", rate=5.0))
        with pytest.raises(PolicyConflictError) as exc_info:
            store.put(PolicyRule(selector="team_a", rate=50.0))
        err = exc_info.value
        assert err.code == "shadowed"
        assert err.selector == "team_a"
        assert err.by == "team_*"
        detail = err.as_dict()
        assert detail["code"] == "shadowed" and detail["by"] == "team_*"
        assert store.get("team_a") is None  # rejected write left no trace

    def test_broad_rule_shadowing_later_rules_is_rejected(self, store):
        store.put(PolicyRule(selector="team_a", rate=50.0))
        with pytest.raises(PolicyConflictError) as exc_info:
            store.put(PolicyRule(selector="team_*", rate=5.0, position=-1))
        assert exc_info.value.code == "shadows"
        assert exc_info.value.by == "team_a"

    def test_broad_rule_appended_after_specific_is_fine(self, store):
        store.put(PolicyRule(selector="team_a", rate=50.0))
        store.put(PolicyRule(selector="team_*", rate=5.0))  # appended: a falls through first
        assert store.resolve("team_a").rule.rate == 50.0
        assert store.resolve("team_b").rule.rate == 5.0

    def test_exact_rule_never_shadows_anything(self, store):
        store.put(PolicyRule(selector="h*", rate=5.0))
        # 'hot' after 'h*' is shadowed; but an exact rule can't shadow others.
        store.put(PolicyRule(selector="cold", rate=50.0))
        with pytest.raises(PolicyConflictError):
            store.put(PolicyRule(selector="hot", rate=50.0))

    @pytest.mark.parametrize(
        "rule,field",
        [
            (PolicyRule(selector="t", rate=0.0), "rate"),
            (PolicyRule(selector="t", rate=-2.0), "rate"),
            (PolicyRule(selector="t", rate=1.0, burst=0.25), "burst"),
            (PolicyRule(selector="t", burst=4.0), "burst"),  # burst without rate
            (PolicyRule(selector="t", byte_quota=0), "byte_quota"),
            (PolicyRule(selector="t", rate=1.0, window_seconds=0.0), "window_seconds"),
            (PolicyRule(selector="t", priority="urgent"), "priority"),
        ],
    )
    def test_contradictions_name_the_offending_field(self, store, rule, field):
        with pytest.raises(PolicyConflictError) as exc_info:
            store.put(rule)
        assert exc_info.value.code == "contradiction"
        assert exc_info.value.field == field

    def test_delete_uncovers_previously_conflicting_rule(self, store):
        store.put(PolicyRule(selector="team_*", rate=5.0))
        with pytest.raises(PolicyConflictError):
            store.put(PolicyRule(selector="team_a", rate=50.0))
        assert store.delete("team_*")
        store.put(PolicyRule(selector="team_a", rate=50.0))  # now legal
        assert store.resolve("team_a").rule.rate == 50.0


class TestGenerationAndUpdates:
    def test_generation_bumps_on_every_write_and_delete(self, store):
        assert store.generation() == 0
        store.put(PolicyRule(selector="a", rate=1.0))
        store.put(PolicyRule(selector="b", rate=2.0))
        assert store.generation() == 2
        store.delete("a")
        assert store.generation() == 3
        store.delete("a")  # absent: no bump
        assert store.generation() == 3

    def test_on_change_fires_after_successful_writes_only(self, store):
        calls = []
        store.on_change = lambda: calls.append(1)
        store.put(PolicyRule(selector="a", rate=1.0))
        with pytest.raises(PolicyConflictError):
            store.put(PolicyRule(selector="a", rate=0.0))
        assert len(calls) == 1

    def test_update_keeps_position(self, store):
        store.put(PolicyRule(selector="a", rate=1.0))
        store.put(PolicyRule(selector="b", rate=2.0))
        store.put(PolicyRule(selector="a", rate=10.0))  # update, not re-append
        assert [r.selector for r in store.rules()] == ["a", "b"]
        assert store.get("a").rate == 10.0

    def test_persists_across_reopen(self, store, tmp_path):
        store.put(PolicyRule(selector="a", rate=1.0, byte_quota=512, priority="high"))
        with PolicyStore.open(tmp_path) as reopened:
            rule = reopened.get("a")
            assert rule is not None
            assert (rule.rate, rule.byte_quota, rule.priority) == (1.0, 512, "high")


class TestPolicyDocuments:
    def test_load_applies_default_and_rules_in_order(self, store):
        count = store.load(
            {
                "default": {"rate": 2.0},
                "rules": [
                    {"selector": "hot", "rate": 1.0, "byte_quota": 1024},
                    {"selector": "cold_*", "rate": 50.0, "priority": "high"},
                ],
            }
        )
        assert count == 3
        assert store.resolve("hot").rule.byte_quota == 1024
        assert store.resolve("cold_7").rule.priority == "high"
        assert store.resolve("other").rule.rate == 2.0

    def test_load_rejects_conflicting_documents(self, store):
        with pytest.raises(PolicyConflictError):
            store.load(
                {
                    "rules": [
                        {"selector": "team_*", "rate": 5.0},
                        {"selector": "team_a", "rate": 50.0},
                    ]
                }
            )

    def test_payload_rejects_unknown_fields(self):
        with pytest.raises(QosError) as exc_info:
            rule_from_payload("t", {"rate": 1.0, "speed": 9})
        assert "speed" in str(exc_info.value)

    def test_payload_coerces_and_defaults(self):
        rule = rule_from_payload("t", {"rate": "2.5", "byte_quota": "1024"})
        assert rule.rate == 2.5
        assert rule.byte_quota == 1024
        assert rule.window_seconds == 60.0
        assert rule.priority == "normal"

    def test_payload_zero_window_is_a_contradiction_not_the_default(self, store):
        rule = rule_from_payload("t", {"window_seconds": 0, "byte_quota": 10})
        assert rule.window_seconds == 0.0
        with pytest.raises(PolicyConflictError) as exc_info:
            store.put(rule)
        assert exc_info.value.code == "contradiction"
        assert exc_info.value.field == "window_seconds"
        assert store.get("t") is None

    @pytest.mark.parametrize("field", ["position", "byte_quota"])
    @pytest.mark.parametrize(
        "value",
        ["abc", 1.5, "1.5", [1], float("nan"), float("inf"), True, 10**400, 2**63, "-9223372036854775809"],
    )
    def test_payload_rejects_non_integer_integers(self, field, value):
        with pytest.raises(QosError, match=f"'{field}' must be a 64-bit integer"):
            rule_from_payload("t", {field: value})

    def test_payload_rejects_a_rate_no_float_holds(self):
        with pytest.raises(QosError, match="'rate' must be a number"):
            rule_from_payload("t", {"rate": 10**400})

    def test_payload_accepts_integral_positions(self):
        assert rule_from_payload("t", {"position": 3}).position == 3
        assert rule_from_payload("t", {"position": "3"}).position == 3
        assert rule_from_payload("t", {"position": 3.0}).position == 3
        assert rule_from_payload("t", {"position": None}).position == 0
        # An int is taken exactly: a float round trip would read 2**53.
        assert rule_from_payload("t", {"byte_quota": 2**53 + 1}).byte_quota == 2**53 + 1
        assert rule_from_payload("t", {"byte_quota": 2**63 - 1}).byte_quota == 2**63 - 1
