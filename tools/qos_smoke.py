#!/usr/bin/env python
"""End-to-end smoke test of multi-tenant admission control over real sockets.

What CI runs (and any developer can run locally):

1. boot ``repro serve --qos-policy policy.json`` — a single-process service
   with a rate policy on the ``hot`` tenant and nothing on ``cold``;
2. drive a 10:1 hot/cold request mix through the real HTTP stack: the hot
   tenant must collect ``429`` answers carrying a positive ``Retry-After``
   header, the cold tenant must never see one (never starved, never
   throttled);
3. check ``GET /service/stats`` reports the admission counters (hot
   throttled > 0, cold throttled == 0) and ``GET /service/policy`` shows
   the enforcing table;
4. PUT a conflicting rule and require the structured ``409`` rejection,
   and a rule with a non-integer ``position`` and require a ``400``;
5. SIGTERM the server expecting a clean exit 0.

Every request goes through :class:`repro.fleet.transport.HttpClient`, the
keep-alive client the fleet router uses.

Exits non-zero with a diagnostic on any failure.  Usage::

    PYTHONPATH=src python tools/qos_smoke.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.fleet.transport import HttpClient  # noqa: E402
from repro.testing import ServerProcess  # noqa: E402

POLICY = {"rules": [{"selector": "hot", "rate": 5.0, "burst": 3.0}]}
ROUNDS = 12  #: each round: 10 hot posts, 1 cold post (the 10:1 mix)


def _post(client: HttpClient, project: str, tag: str):
    """One append; returns (status, retry_after_header_or_None)."""
    response = client.post(
        f"/projects/{project}/logs",
        json_body={"records": [{"name": "metric", "value": tag, "ctx_id": 0}]},
    )
    return response.status, response.headers.get("Retry-After")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="flor-qos-smoke-") as tmp:
        policy_file = Path(tmp) / "policy.json"
        policy_file.write_text(json.dumps(POLICY))
        root = Path(tmp) / "host"
        with ServerProcess(
            root, job_workers=0, extra_args=("--qos-policy", str(policy_file))
        ) as server, HttpClient(server.base_url, timeout=10.0) as client:
            print(f"qos service up at {server.base_url} (policy: {POLICY['rules']})")

            hot_throttled = cold_denied = 0
            for i in range(ROUNDS):
                for j in range(10):
                    status, retry_after = _post(client, "hot", f"hot.{i}.{j}")
                    if status == 429:
                        hot_throttled += 1
                        if retry_after is None or float(retry_after) <= 0:
                            print(
                                f"FAIL: 429 without a positive Retry-After ({retry_after!r})",
                                file=sys.stderr,
                            )
                            return 1
                    elif status != 202:
                        print(f"FAIL: hot tenant got {status}", file=sys.stderr)
                        return 1
                status, _ = _post(client, "cold", f"cold.{i}")
                if status != 202:
                    cold_denied += 1
            print(f"mix done: hot saw {hot_throttled} 429s, cold saw {cold_denied} denials")
            if hot_throttled == 0:
                print("FAIL: hot tenant was never throttled", file=sys.stderr)
                return 1
            if cold_denied > 0:
                print(f"FAIL: cold tenant denied {cold_denied} times", file=sys.stderr)
                return 1

            qos = client.get_json("/service/stats")["qos"]
            hot_stats = qos["tenants"]["hot"]
            cold_stats = qos["tenants"]["cold"]
            print(
                f"counters: hot admitted={hot_stats['admitted']} "
                f"throttled={hot_stats['throttled']}, "
                f"cold admitted={cold_stats['admitted']} "
                f"throttled={cold_stats['throttled']}"
            )
            if hot_stats["throttled"] < hot_throttled:
                print("FAIL: stats under-count hot throttles", file=sys.stderr)
                return 1
            if cold_stats["throttled"] != 0 or cold_stats["admitted"] != ROUNDS:
                print("FAIL: cold tenant counters wrong", file=sys.stderr)
                return 1

            table = client.get_json("/service/policy")
            if not table["enforcing"] or not table["rules"]:
                print(f"FAIL: policy table not enforcing: {table}", file=sys.stderr)
                return 1

            # A rule shadowed by hot's prefix sibling must be rejected 409
            # with the structured conflict detail.
            conflict = client.put("/service/policy/h*", json_body={"rate": 50.0, "position": -1})
            detail = conflict.json().get("detail") if not conflict.ok else None
            if conflict.status != 409 or (detail or {}).get("code") != "shadows":
                print(f"FAIL: bad conflict answer {conflict.status}: {conflict.text}", file=sys.stderr)
                return 1
            print(f"conflicting write rejected 409 ({detail})")

            # A position that is not an integer is a malformed payload: a 400,
            # not a 500 and not a silently truncated rule.
            malformed = client.put("/service/policy/warm", json_body={"rate": 1.0, "position": "abc"})
            if malformed.status != 400 or client.get_json("/service/policy/warm")["rule"] is not None:
                print(f"FAIL: non-integer position answered {malformed.status}: {malformed.text}", file=sys.stderr)
                return 1
            print(f"non-integer position rejected 400 ({malformed.json()['error']})")

            code = server.terminate()
            if code != 0:
                print(f"FAIL: server exited {code} after SIGTERM", file=sys.stderr)
                return 1
            print("server drained and exited 0 after SIGTERM")

    print("qos smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
