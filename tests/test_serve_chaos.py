"""Chaos soak: randomized fault injection over the multi-tenant service.

The robustness contract, asserted end to end:

* every query ends in **exactly one** of {bit-identical correct result,
  clean typed :class:`~repro.errors.ReproError`} — no unclassified
  exceptions, no silent wrong answers, no hangs (every future resolves
  within a hard timeout);
* **no cross-tenant corruption**: tenants draw values from disjoint
  ranges, so any tenant dictionary or result row containing a foreign
  value is proof of a leak — none may exist, faults or not;
* the service stays **serviceable after the storm**: with injection
  disarmed, the same service instance answers every request cleanly and
  bit-identically to the fault-free reference.

The CI chaos smoke runs this module with ``REPRO_FAULTS`` forced on,
under two fault seeds; locally the test arms its
own injector when the env knob is absent, so it never silently runs
fault-free.
"""

from collections import Counter

import numpy as np
import pytest

from repro import config
from repro.engine.cancellation import Deadline, checkpoint_scope
from repro.engine.expansion_plan import GUARD, ExpansionPlan
from repro.engine.ops import WorkCounter
from repro.errors import (
    EngineFault,
    QueryTimeout,
    ReproError,
    ServiceOverloaded,
)
from repro.serve.faults import FaultInjector, PoisonedValue, poison_codec
from repro.serve.workloads import (
    build_demo_service,
    demo_requests,
    tenant_name,
    tenant_range,
)

N_TENANTS = 2
SOAK_ROUNDS = 20  # x tenants x 3 query shapes = 120 queries
RESULT_TIMEOUT_S = 60.0


def chaos_injector() -> FaultInjector:
    """The CI-provided fault spec when present, a default storm otherwise."""
    if config.get("REPRO_FAULTS"):
        return FaultInjector.from_env()
    injector = FaultInjector(seed=config.get("REPRO_FAULTS_SEED", default=7))
    injector.arm("worker", probability=0.03)
    injector.arm("engine", probability=0.05)
    injector.arm("alloc", probability=0.03)
    injector.arm("timeout", probability=0.03)
    return injector


def request_key(request: dict) -> tuple:
    return (request["tenant"], request["database"], repr(request["query"]))


def quiet() -> FaultInjector:
    """Unarmed injector: keeps reference runs fault-free even when the CI
    chaos env (``REPRO_FAULTS``) arms services by default."""
    return FaultInjector(seed=0)


def reference_digests(requests: list[dict]) -> dict[tuple, list]:
    """Fault-free canonical rows per distinct (tenant, db, query)."""
    digests: dict[tuple, list] = {}
    with build_demo_service(tenants=N_TENANTS, faults=quiet()) as clean:
        for request in requests:
            key = request_key(request)
            if key in digests:
                continue
            result = clean.execute(
                request["tenant"], request["database"], request["query"],
                engine="generic",
            )
            digests[key] = result.rows
    return digests


def allowed_values(i: int) -> set[int]:
    """Every int tenant ``i`` may legitimately intern: its stored range
    plus the ``add`` UDF's output range (sums of two stored values)."""
    lo, hi = tenant_range(i)
    return set(range(lo, hi)) | set(range(2 * lo, 2 * (hi - 1) + 1))


def reads_poison(ctx: dict) -> bool:
    """Did a stage of this typed failure die on the poisoned entry (at
    the decode boundary, or in a UDF over the poisoned value)?"""
    return any(
        "poisoned codec entry" in absorbed["message"]
        or "PoisonedValue" in absorbed["message"]
        for absorbed in ctx.get("absorbed", ())
    )


def test_chaos_soak_every_query_correct_or_typed():
    requests = demo_requests(tenants=N_TENANTS, rounds=SOAK_ROUNDS, seed=11)
    digests = reference_digests(requests)
    # The poison victim: the tenant0 ``x`` value in the most answers.
    victim = Counter(
        row[0]
        for request in requests
        if request["tenant"] == tenant_name(0)
        for row in digests[request_key(request)]
    ).most_common(1)[0][0]

    injector = chaos_injector()
    service = build_demo_service(
        tenants=N_TENANTS,
        max_workers=4,
        queue_depth=6,
        faults=injector,
        # Below the ~79-value steady-state domain, so compaction fires on
        # every idle window — the soak proves compaction is safe under
        # concurrent traffic.
        dictionary_cap=60,
    )
    outcomes = {"ok": 0, "degraded": 0, "typed": 0, "overload": 0, "poisoned": 0}

    def settle(request, future):
        try:
            # The hard no-hang bound: a stuck worker fails the test.
            result = future.result(timeout=RESULT_TIMEOUT_S)
        except ReproError as err:
            # Clean typed failure: machine-readable context, correct
            # tenant attribution, never a bare string-match error.
            ctx = err.context()
            assert ctx["tenant"] == request["tenant"]
            assert isinstance(ctx["retryable"], bool)
            outcomes["typed"] += 1
            outcomes["poisoned"] += reads_poison(ctx)
            return
        # Any non-ReproError exception propagates and fails the test:
        # that is the "no unclassified errors" gate.
        assert result.rows == digests[request_key(request)], (
            f"wrong answer under chaos for {request_key(request)} "
            f"via {result.backend}"
        )
        outcomes["ok"] += 1
        if result.degraded:
            outcomes["degraded"] += 1

    with service:
        futures = []
        for index, request in enumerate(requests):
            if index == len(requests) // 3:
                # Mid-soak poison, planted on an idle service so the rest
                # of the soak runs into it: corrupt the victim's entry.
                # Every stage of a query that reads it dies on it, so the
                # query ends in a typed fault.
                for pending in futures:
                    settle(*pending)
                futures.clear()
                codec = service.tenant(tenant_name(0)).codec
                code, original = poison_codec(
                    codec, "x", codec.dictionaries["x"].values.index(victim)
                )
            try:
                futures.append((request, service.submit(**request)))
            except ServiceOverloaded:
                outcomes["overload"] += 1
        for pending in futures:
            settle(*pending)

        # The storm actually happened (otherwise this test proves nothing).
        assert sum(injector.fired.values()) > 0 or outcomes["overload"] > 0
        assert outcomes["ok"] > 0, "chaos drowned every request"

        # ---- no cross-tenant corruption -----------------------------
        for i in range(N_TENANTS):
            tenant = service.tenant(tenant_name(i))
            legal = allowed_values(i)
            for attr, dictionary in tenant.codec.dictionaries.items():
                for value in dictionary.values:
                    if isinstance(value, PoisonedValue):
                        continue  # the sentinel we planted (tenant0 only)
                    assert value in legal, (
                        f"tenant{i} dictionary {attr!r} holds foreign "
                        f"value {value!r}"
                    )
            # Results held in the reference digests stay in-range too.
            for (tname, _, _), rows in digests.items():
                if tname != tenant_name(i):
                    continue
                for row in rows:
                    assert all(v in legal for v in row)

        # ---- the poison path ran ------------------------------------
        injector.disarm()
        if service.tenant(tenant_name(0)).codec is codec:
            # No compaction rebuilt the codec, so the poison outlived the
            # storm: a query that reads it ends typed, then the entry is
            # restored.
            reader = next(
                r for r in requests
                if r["tenant"] == tenant_name(0) and r["database"] == "main"
                and any(row[0] == victim for row in digests[request_key(r)])
            )
            with pytest.raises(EngineFault) as excinfo:
                service.execute(
                    reader["tenant"], reader["database"], reader["query"],
                    engine="generic",
                )
            assert excinfo.value.stage == "exhausted"
            outcomes["poisoned"] += reads_poison(excinfo.value.context())
            codec.dictionaries["x"].values[code] = original
        assert outcomes["poisoned"] > 0, "no query read the poisoned value"

        # ---- serviceable after the storm ----------------------------
        for request in {request_key(r): r for r in requests}.values():
            result = service.execute(
                request["tenant"], request["database"], request["query"],
                engine="generic",
            )
            assert result.rows == digests[request_key(request)]
        # tenant1 must have been untouched by tenant0's poison.
        assert not any(
            isinstance(v, PoisonedValue)
            for d in service.tenant(tenant_name(1)).codec.dictionaries.values()
            for v in d.values
        )


def test_chaos_soak_compactions_bound_dictionary_growth():
    """Long-uptime memory: under a tight cap the interned-value count
    stays bounded by the live domain (stored values plus one query's UDF
    outputs), no matter how many requests the service has absorbed."""
    requests = demo_requests(
        tenants=1, rounds=12, engines=("generic",), seed=5
    )
    with build_demo_service(
        tenants=1, dictionary_cap=40, faults=quiet()
    ) as service:
        for request in requests:
            service.execute(**request)
        tenant = service.tenant(tenant_name(0))
        assert tenant.compactions >= 1
        # x, y draw from 20 stored values each; z from stored z plus the
        # UDF's x+y sums (all < 39) — the total can never pass ~79.
        assert tenant.codec.total_values() <= 100
        metrics = service.metrics()
        assert metrics["completed"] == len(requests)
        assert metrics["engine_faults"] == 0


def test_chaos_compaction_after_every_query_stays_bit_identical():
    """With a dictionary cap of one value every query is followed by a
    compaction (a renumbering of every stored twin into a fresh codec),
    under the same fault storm: each answer is still bit-identical to the
    fault-free reference, or a typed error."""
    requests = demo_requests(tenants=N_TENANTS, rounds=6, seed=23)
    digests = reference_digests(requests)
    injector = chaos_injector()
    answered = 0
    with build_demo_service(
        tenants=N_TENANTS, faults=injector, dictionary_cap=1
    ) as service:
        for request in requests:
            try:
                result = service.execute(**request, timeout=RESULT_TIMEOUT_S)
            except ReproError as err:
                assert err.context()["tenant"] == request["tenant"]
                continue
            assert result.rows == digests[request_key(request)], (
                f"wrong answer after compaction for {request_key(request)} "
                f"via {result.backend}"
            )
            answered += 1
        # Queries run one at a time, so every one of them compacted.
        compactions = sum(
            service.tenant(tenant_name(i)).compactions
            for i in range(N_TENANTS)
        )
        assert compactions == len(requests)
    assert answered > 0, "chaos drowned every request"


# ----------------------------------------------------------------------
# Deadlines inside the block executor
# ----------------------------------------------------------------------

def test_expired_deadline_stops_the_block_executor():
    """A pre-expired deadline installed as a checkpoint hook stops
    ``execute_batch_ndarray`` with a ``QueryTimeout`` (the fused pipeline
    checks in per block), and the same call then runs without the hook."""
    plan = ExpansionPlan(
        ("a", "b"),
        ("a", "b", "x"),
        ((GUARD, (0,), {(i,): (i % 5,) for i in range(64)}),),
    )
    rng = np.random.default_rng(17)
    block = rng.integers(0, 64, size=(4096, 2)).astype(np.int64)
    # Warm the plan's lazy ndarray specs outside the hook's scope: this
    # test is about the checkpoint inside the pipeline, not compilation.
    plan.execute_batch_ndarray(block[:4], WorkCounter())
    with checkpoint_scope(Deadline(0.0).check):
        with pytest.raises(QueryTimeout):
            plan.execute_batch_ndarray(block, WorkCounter())
    counter = WorkCounter()
    out, alive = plan.execute_batch_ndarray(block, counter)
    assert out.shape == (4096, 3)
    assert np.array_equal(alive, np.arange(4096))
    assert counter.tuples_touched == 4096
