"""Kernel-mode selection machinery and kernel edge cases.

The replay kernel (:mod:`repro.fastpath.kernel`) is one function with
two execution modes — numba-compiled or pure Python — resolved once
per process from ``$REPRO_FASTPATH_JIT``.  These tests pin the
resolution rules (truthy/falsy/auto spellings, warn-*once* when numba
is requested but missing, diagnostic status), the bit-identity of runs
across mode toggles, the degenerate shapes a sweep can feed the
kernel (single-rank machines with no events beyond process start, and
schedules containing empty rounds), the smoke check's argument list,
and a differential against a frozen copy of the kernel kept at the end
of this file.
"""

from __future__ import annotations

import importlib.util
import inspect
import json
import warnings
from heapq import heappop, heappush

import pytest

from repro.core.algorithms import ALGORITHMS, get_algorithm
from repro.core.problem import BroadcastProblem
from repro.core.runner import run_broadcast
from repro.fastpath import (
    bind_plan,
    evaluate_plan,
    kernel_mode,
    kernel_status,
    lower_schedule,
)
from repro.fastpath import evaluator, kernel
from repro.fastpath.kernel import JIT_ENV_VAR, reset_kernel_cache
from repro.machines import hypercube, machine_from_spec, paragon, t3d
from repro.metrics.report import MetricsReport
from repro.network.wirestate import wire_utilization_from

HAS_NUMBA = importlib.util.find_spec("numba") is not None


def _blob(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))


@pytest.fixture
def kernel_env(monkeypatch):
    """Fresh mode resolution around the test; env restored afterwards.

    Teardown order matters: this fixture's ``reset_kernel_cache`` runs
    *before* monkeypatch undoes the env, so the next activation —
    whichever test triggers it — resolves against the restored
    environment, not this test's.
    """
    reset_kernel_cache()
    yield monkeypatch
    reset_kernel_cache()


# ---------------------------------------------------------------------------
# Mode resolution.


def test_mode_resolves_and_status_is_consistent(kernel_env):
    mode = kernel_mode()
    status = kernel_status()
    assert mode in ("jit", "python")
    assert status["mode"] == mode
    assert status["requested"] in ("jit", "python", "auto")
    if mode == "jit":
        assert status["jit_error"] is None


@pytest.mark.parametrize("raw", ["0", "false", "off", "no", "python"])
def test_falsy_env_forces_python_kernel(kernel_env, raw):
    kernel_env.setenv(JIT_ENV_VAR, raw)
    reset_kernel_cache()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an explicit opt-out never warns
        assert kernel_mode() == "python"
    assert kernel_status()["requested"] == "python"


@pytest.mark.skipif(HAS_NUMBA, reason="needs numba to be absent")
def test_jit_request_without_numba_warns_once(kernel_env):
    kernel_env.setenv(JIT_ENV_VAR, "1")
    reset_kernel_cache()
    with pytest.warns(RuntimeWarning, match="numba is not installed"):
        assert kernel_mode() == "python"
    status = kernel_status()
    assert status["requested"] == "jit"
    assert status["jit_error"] == "numba not installed"
    # Once per process, not once per run: later runs stay silent.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernel_mode() == "python"
        problem = BroadcastProblem(
            machine=machine_from_spec("paragon:4x4"),
            sources=(0, 3),
            message_size=256,
        )
        run_broadcast(problem, "Br_Lin", engine="fast")


@pytest.mark.skipif(HAS_NUMBA, reason="needs numba to be absent")
def test_auto_without_numba_is_silent(kernel_env):
    kernel_env.delenv(JIT_ENV_VAR, raising=False)
    reset_kernel_cache()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # auto degrades without noise
        assert kernel_mode() == "python"
    assert kernel_status()["jit_error"] == "numba not installed"


@pytest.mark.skipif(not HAS_NUMBA, reason="needs numba")
def test_jit_request_with_numba_compiles(kernel_env):
    kernel_env.setenv(JIT_ENV_VAR, "1")
    reset_kernel_cache()
    assert kernel_mode() == "jit"
    assert kernel_status()["jit_error"] is None


def test_mode_toggle_results_identical(kernel_env):
    """Pure-Python and the env-selected mode agree bit-for-bit.

    Without numba this pins python == python across a reset (env
    handling only); with numba installed it is the real differential:
    the same run through the compiled and interpreted kernel.
    """
    problem = BroadcastProblem(
        machine=machine_from_spec("paragon:4x4"),
        sources=(0, 5, 10),
        message_size=1024,
    )
    kernel_env.setenv(JIT_ENV_VAR, "python")
    reset_kernel_cache()
    forced_python = run_broadcast(problem, "PersAlltoAll", engine="fast")
    assert forced_python.debug["kernel"] == "python"
    kernel_env.delenv(JIT_ENV_VAR, raising=False)
    reset_kernel_cache()
    auto = run_broadcast(problem, "PersAlltoAll", engine="fast")
    assert _blob(forced_python) == _blob(auto)


# ---------------------------------------------------------------------------
# Degenerate shapes through the kernel.


@pytest.mark.parametrize("spec", ["paragon:1x1", "t3d:1"])
@pytest.mark.parametrize("algorithm", ["Br_Lin", "PersAlltoAll", "MPI_AllGather"])
def test_single_rank_runs_match_event_engine(spec, algorithm):
    """p = 1: zero rounds, zero sends — the kernel must still terminate
    with the verification and metrics the event engine produces."""
    problem = BroadcastProblem(
        machine=machine_from_spec(spec), sources=(0,), message_size=64
    )
    fast = run_broadcast(problem, algorithm, engine="fast")
    event = run_broadcast(problem, algorithm, engine="event")
    assert fast.num_rounds == 0
    assert fast.num_transfers == 0
    assert _blob(fast) == _blob(event)


def test_empty_round_matches_event_engine():
    """A round with no transfers (single-source pipelined gather) must
    advance every rank past it exactly as the event engine does."""
    problem = BroadcastProblem(
        machine=machine_from_spec("t3d:16"), sources=(0,), message_size=4096
    )
    fast = run_broadcast(problem, "MPI_AllGather", engine="fast")
    event = run_broadcast(problem, "MPI_AllGather", engine="event")
    assert _blob(fast) == _blob(event)


def test_minimal_message_size_matches_event_engine():
    """L = 1 byte: the smallest legal size, exercising near-zero copy
    costs without losing the per-message software overheads."""
    problem = BroadcastProblem(
        machine=machine_from_spec("paragon:4x4"),
        sources=(0, 5, 10),
        message_size=1,
    )
    for algorithm in ("Br_Lin", "2-Step", "PersAlltoAll"):
        fast = run_broadcast(problem, algorithm, engine="fast")
        event = run_broadcast(problem, algorithm, engine="event")
        assert _blob(fast) == _blob(event)


def test_smoke_check_runs_in_python_mode():
    """The JIT activation's smoke check must match the kernel signature.

    It runs at activation only when numba imports, so without this a
    signature change that misses its argument list would fail only
    where numba is installed.
    """
    kernel._smoke_check(kernel.replay_kernel)


# ---------------------------------------------------------------------------
# The frozen reference kernel.
#
# ``reference_kernel`` is the replay kernel before the carry slot, the
# slice-iterated link paths and the plan-derived counters: one
# ``heappush`` per scheduled event, ``range``-indexed path loops, and
# send/receive/byte/round counters accumulated during the replay.
# ``reference_report`` is the reduction it fed.  Both are kept verbatim
# and always run on plain lists; the active kernel (either mode) must
# reproduce their results, wire state and counters bit for bit.

EV_START = 0
EV_SEND_ISSUE = 1
EV_COMPLETION = 2
EV_RECV_GOT = 3
EV_RECV_DONE = 4
OP_SEND = 0
OP_RECV = 1
OP_WAIT = 2


def reference_kernel(
    p,
    num_rounds,
    # -- operation streams (structure of arrays) ------------------------
    op_code,
    op_arg,
    op_aux,
    op_start,
    # -- per-send tables ------------------------------------------------
    send_src,
    send_dst,
    send_round,
    send_nbytes,
    send_ovh,
    recv_total,
    recv_copy,
    durations,
    # -- link paths (flattened, bind-time) ------------------------------
    path_flat,
    path_start,
    # -- fabric configuration -------------------------------------------
    store_forward,
    contention,
    route_setup,
    # -- wire state (mutated: the contention ledger) ---------------------
    free_at,
    busy_time,
    # -- inbox matching (SoA FIFO per destination rank) ------------------
    inbox_store,
    inbox_base,
    inbox_len,
    # -- per-rank replay state -------------------------------------------
    op_ptr,
    finished,
    posted,
    matched,
    pending_wait,
    parked_src,
    parked_round,
    completed,
    waiter,
    # -- metrics accumulators (mutated; reduced by the caller) ------------
    m_sends,
    m_recvs,
    m_bytes_sent,
    m_bytes_recv,
    m_recv_wait,
    m_recv_wait_ct,
    m_link_wait,
    m_copy,
    m_iter_ops,
    m_iter_last,
):
    """Replay the plan; returns the virtual completion time.

    Mirrors the event engine's three disciplines exactly (see
    :mod:`repro.fastpath.evaluator` for the full argument): heap order
    is ``(time, seq)`` with sequence numbers allocated at the engine's
    allocation points, every float expression is kept verbatim
    (``t + (finish - t)``, the wire-reservation max/accumulate order,
    the per-hop store-and-forward chain), and completions deliver to
    the receiver before resuming a waiting sender.
    """
    # Process-start events, one per rank at t=0 in rank order — already
    # a valid heap (equal times, ascending seq), and byte-identical to
    # pushing them one by one as the engine does.
    heap = [(0.0, i, EV_START, i) for i in range(p)]
    seq = p
    now = 0.0
    while len(heap) > 0:
        item = heappop(heap)
        now = item[0]
        code = item[2]
        arg = item[3]
        adv = -1  # rank to drive forward after this event, if any
        if code == EV_COMPLETION:
            sid = arg
            completed[sid] = 1
            # Deliver first (the completion's first callback), which may
            # wake a parked receiver — allocating its sequence number
            # *before* any sender blocked on this request resumes.
            dst = send_dst[sid]
            if parked_src[dst] == send_src[sid] and parked_round[dst] == send_round[sid]:
                parked_src[dst] = -1
                matched[dst] = sid
                heappush(heap, (now, seq, EV_RECV_GOT, dst))
                seq += 1
            else:
                inbox_store[inbox_base[dst] + inbox_len[dst]] = sid
                inbox_len[dst] = inbox_len[dst] + 1
            w = waiter[sid]
            if w >= 0:
                waiter[sid] = -1
                adv = w
        elif code == EV_RECV_GOT:
            rank = arg
            sid = matched[rank]
            wait = now - posted[rank]
            total = recv_total[sid]
            if total > 0.0:
                # comm.recv: yield timeout(overhead + copy), then record.
                pending_wait[rank] = wait
                heappush(heap, (now + total, seq, EV_RECV_DONE, rank))
                seq += 1
            else:
                m_recvs[rank] = m_recvs[rank] + 1
                m_bytes_recv[rank] = m_bytes_recv[rank] + send_nbytes[sid]
                m_recv_wait[rank] = m_recv_wait[rank] + wait
                if wait > 0.0:
                    m_recv_wait_ct[rank] = m_recv_wait_ct[rank] + 1
                m_copy[rank] = m_copy[rank] + recv_copy[sid]
                it = send_round[sid]
                m_iter_ops[rank * num_rounds + it] += 1
                if now > m_iter_last[it]:
                    m_iter_last[it] = now
                adv = rank
        elif code == EV_RECV_DONE:
            rank = arg
            sid = matched[rank]
            m_recvs[rank] = m_recvs[rank] + 1
            m_bytes_recv[rank] = m_bytes_recv[rank] + send_nbytes[sid]
            m_recv_wait[rank] = m_recv_wait[rank] + pending_wait[rank]
            if pending_wait[rank] > 0.0:
                m_recv_wait_ct[rank] = m_recv_wait_ct[rank] + 1
            m_copy[rank] = m_copy[rank] + recv_copy[sid]
            it = send_round[sid]
            m_iter_ops[rank * num_rounds + it] += 1
            if now > m_iter_last[it]:
                m_iter_last[it] = now
            adv = rank
        elif code == EV_SEND_ISSUE:
            sid = arg
            # --- issue ``sid`` to the fabric at ``now`` ----------------
            t = now
            if store_forward:
                pl = durations[sid]
                arrive = t + route_setup
                start = 0.0
                first = True
                for k in range(path_start[sid], path_start[sid + 1]):
                    link = path_flat[k]
                    if contention:
                        s0 = arrive if arrive >= free_at[link] else free_at[link]
                        f0 = s0 + pl
                        free_at[link] = f0
                        busy_time[link] = busy_time[link] + pl
                    else:
                        s0 = arrive
                        f0 = arrive + pl
                    if first:
                        start = s0
                        first = False
                    arrive = f0
                finish = arrive
            elif contention:
                # Wormhole reservation: whole path free, held for the
                # duration (the WireState.reserve_path arithmetic).
                d = durations[sid]
                start = t
                for k in range(path_start[sid], path_start[sid + 1]):
                    free = free_at[path_flat[k]]
                    if free > start:
                        start = free
                finish = start + d
                for k in range(path_start[sid], path_start[sid + 1]):
                    link = path_flat[k]
                    free_at[link] = finish
                    busy_time[link] = busy_time[link] + d
            else:
                start = t
                finish = t + durations[sid]
            src_r = send_src[sid]
            m_sends[src_r] = m_sends[src_r] + 1
            m_bytes_sent[src_r] = m_bytes_sent[src_r] + send_nbytes[sid]
            m_link_wait[src_r] = m_link_wait[src_r] + (start - t)
            it = send_round[sid]
            m_iter_ops[src_r * num_rounds + it] += 1
            if t > m_iter_last[it]:
                m_iter_last[it] = t
            # The engine schedules completion via succeed(delay=finish -
            # now), so the heap time is t + (finish - t) — kept verbatim.
            heappush(heap, (t + (finish - t), seq, EV_COMPLETION, sid))
            seq += 1
            adv = src_r
        else:  # EV_START
            adv = arg

        if adv >= 0:
            # Drive ``adv``'s operation stream until it suspends or ends.
            rank = adv
            i = op_ptr[rank]
            end = op_start[rank + 1]
            t = now
            while True:
                if i >= end:
                    op_ptr[rank] = end
                    finished[rank] = 1
                    break
                oc = op_code[i]
                if oc == OP_SEND:
                    sid = op_arg[i]
                    ovh = send_ovh[sid]
                    if ovh > 0.0:
                        # comm.isend: yield timeout(overhead), issue on
                        # resume (the EV_SEND_ISSUE handler above).
                        op_ptr[rank] = i + 1
                        heappush(heap, (t + ovh, seq, EV_SEND_ISSUE, sid))
                        seq += 1
                        break
                    # Zero-overhead send: issue inline (same block as the
                    # EV_SEND_ISSUE handler; kept literal for numba).
                    if store_forward:
                        pl = durations[sid]
                        arrive = t + route_setup
                        start = 0.0
                        first = True
                        for k in range(path_start[sid], path_start[sid + 1]):
                            link = path_flat[k]
                            if contention:
                                s0 = arrive if arrive >= free_at[link] else free_at[link]
                                f0 = s0 + pl
                                free_at[link] = f0
                                busy_time[link] = busy_time[link] + pl
                            else:
                                s0 = arrive
                                f0 = arrive + pl
                            if first:
                                start = s0
                                first = False
                            arrive = f0
                        finish = arrive
                    elif contention:
                        d = durations[sid]
                        start = t
                        for k in range(path_start[sid], path_start[sid + 1]):
                            free = free_at[path_flat[k]]
                            if free > start:
                                start = free
                        finish = start + d
                        for k in range(path_start[sid], path_start[sid + 1]):
                            link = path_flat[k]
                            free_at[link] = finish
                            busy_time[link] = busy_time[link] + d
                    else:
                        start = t
                        finish = t + durations[sid]
                    src_r = send_src[sid]
                    m_sends[src_r] = m_sends[src_r] + 1
                    m_bytes_sent[src_r] = m_bytes_sent[src_r] + send_nbytes[sid]
                    m_link_wait[src_r] = m_link_wait[src_r] + (start - t)
                    it = send_round[sid]
                    m_iter_ops[src_r * num_rounds + it] += 1
                    if t > m_iter_last[it]:
                        m_iter_last[it] = t
                    heappush(heap, (t + (finish - t), seq, EV_COMPLETION, sid))
                    seq += 1
                    i += 1
                elif oc == OP_RECV:
                    src = op_arg[i]
                    rnd = op_aux[i]
                    posted[rank] = t
                    op_ptr[rank] = i + 1
                    # Buffered match: per-inbox FIFO scan in arrival
                    # order — the Store's non-overtaking (source, tag)
                    # semantics.
                    base = inbox_base[rank]
                    cnt = inbox_len[rank]
                    found = -1
                    for j in range(cnt):
                        sid2 = inbox_store[base + j]
                        if send_src[sid2] == src and send_round[sid2] == rnd:
                            found = j
                            break
                    if found >= 0:
                        matched[rank] = inbox_store[base + found]
                        for j2 in range(found, cnt - 1):
                            inbox_store[base + j2] = inbox_store[base + j2 + 1]
                        inbox_len[rank] = cnt - 1
                        # The Store claims the item and fires the getter
                        # at the current instant (one sequence number).
                        heappush(heap, (t, seq, EV_RECV_GOT, rank))
                        seq += 1
                    else:
                        parked_src[rank] = src
                        parked_round[rank] = rnd
                    break
                else:  # OP_WAIT
                    sid = op_arg[i]
                    if completed[sid] != 0:
                        i += 1
                    else:
                        waiter[sid] = rank
                        op_ptr[rank] = i + 1
                        break
    return now


def reference_report(p: int, num_rounds: int, state: dict) -> MetricsReport:
    """Reduce the kernel's flat accumulators into a MetricsReport.

    Reproduces :meth:`MetricsReport.from_collector` bit-for-bit:
    integer reductions are exact in any order (numpy is fine); float
    reductions are left-to-right Python sums in rank order; divisions
    see the exact same integer operands the collector's dicts would
    have produced.
    """
    import numpy as np

    ops_mat = np.asarray(state["m_iter_ops"], dtype=np.int64)
    ops_mat = ops_mat.reshape(p, num_rounds) if num_rounds else ops_mat.reshape(p, 0)
    active_mask = ops_mat > 0
    #: Per-iteration count of active ranks (the active_by_iter sizes).
    iter_active = active_mask.sum(axis=0)
    iterations = int((iter_active > 0).sum())
    congestion = int(ops_mat.max()) if ops_mat.size else 0

    m_sends = state["m_sends"]
    m_recvs = state["m_recvs"]
    m_bytes_sent = state["m_bytes_sent"]
    m_bytes_recv = state["m_bytes_recv"]
    m_recv_wait_ct = state["m_recv_wait_ct"]
    rank_active = active_mask.sum(axis=1)

    wait_count = 0
    ops = 0
    av_msg = 0.0
    for r in range(p):
        wc = int(m_recv_wait_ct[r])
        if wc > wait_count:
            wait_count = wc
        total_ops = int(m_sends[r]) + int(m_recvs[r])
        if total_ops > ops:
            ops = total_ops
        active_iters = int(rank_active[r])
        if active_iters:
            # sum(msg_lengths) == bytes_sent + bytes_received (ints, so
            # exact); the int/int division is the collector's.
            val = (int(m_bytes_sent[r]) + int(m_bytes_recv[r])) / active_iters
            if val > av_msg:
                av_msg = val
    if iterations:
        av_act = int(iter_active.sum()) / iterations
    else:
        av_act = 0.0

    m_recv_wait = state["m_recv_wait"]
    m_link_wait = state["m_link_wait"]
    m_copy = state["m_copy"]
    total_recv_wait = 0.0
    total_link_wait = 0.0
    total_copy = 0.0
    for r in range(p):
        total_recv_wait += m_recv_wait[r]
        total_link_wait += m_link_wait[r]
        total_copy += m_copy[r]

    m_iter_last = state["m_iter_last"]
    iteration_times = tuple(
        (it, float(m_iter_last[it]))
        for it in range(num_rounds)
        if iter_active[it]
    )

    return MetricsReport(
        p=p,
        iterations=iterations,
        congestion=congestion,
        wait_count=wait_count,
        send_recv_ops=ops,
        av_msg_lgth=float(av_msg),
        av_act_proc=float(av_act),
        total_messages=int(sum(int(v) for v in m_sends)),
        total_bytes=int(sum(int(v) for v in m_bytes_sent)),
        total_recv_wait=float(total_recv_wait),
        total_link_wait=float(total_link_wait),
        total_copy_time=float(total_copy),
        iteration_times=iteration_times,
    )


def _reference_replay(plan, machine, contention, binding):
    """The reference kernel on list containers: ``(now, state)``."""
    import numpy as np

    params = machine.params
    p = plan.p
    num_rounds = plan.num_rounds
    num_sends = plan.num_sends
    nbytes_f = plan.send_nbytes.astype(np.float64)
    store_forward = params.switching == "store_and_forward"
    if store_forward:
        durations = params.t_hop + nbytes_f * params.t_byte
    else:
        durations = (
            params.route_setup + binding.hops * params.t_hop
            + nbytes_f * params.t_byte
        )
    state = {
        name: getattr(plan, name).tolist()
        for name in (
            "op_code", "op_arg", "op_aux", "op_start", "send_src",
            "send_dst", "send_round", "send_nbytes", "send_ovh",
            "recv_total", "recv_copy", "inbox_base",
        )
    }
    num_links = machine.topology.num_links
    state.update(
        p=p,
        num_rounds=num_rounds,
        durations=durations.tolist(),
        path_flat=list(binding.path_flat),
        path_start=list(binding.path_start),
        store_forward=store_forward,
        contention=contention,
        route_setup=params.route_setup,
        free_at=[0.0] * num_links,
        busy_time=[0.0] * num_links,
        inbox_store=[0] * int(plan.inbox_base[p]),
        inbox_len=[0] * p,
        op_ptr=plan.op_start[:p].tolist(),
        finished=[0] * p,
        posted=[0.0] * p,
        matched=[-1] * p,
        pending_wait=[0.0] * p,
        parked_src=[-1] * p,
        parked_round=[-1] * p,
        completed=[0] * num_sends,
        waiter=[-1] * num_sends,
        m_sends=[0] * p,
        m_recvs=[0] * p,
        m_bytes_sent=[0] * p,
        m_bytes_recv=[0] * p,
        m_recv_wait=[0.0] * p,
        m_recv_wait_ct=[0] * p,
        m_link_wait=[0.0] * p,
        m_copy=[0.0] * p,
        m_iter_ops=[0] * (p * num_rounds),
        m_iter_last=[-1.0] * num_rounds,
    )
    names = inspect.signature(reference_kernel).parameters
    now = reference_kernel(*[state[name] for name in names])
    return now, state


#: Machines and their rank-mapping seeds (the T3D's placement is seeded).
REFERENCE_MACHINES = {
    "paragon:4x4": (lambda prm: paragon(4, 4, prm), (0,)),
    "t3d:16": (lambda prm: t3d(16, prm), (0, 1, 2, 3, 4)),
    "hypercube:16": (lambda prm: hypercube(16, prm), (0,)),
}
#: Parameter overrides: both switching modes, plus zero software costs,
#: which take the kernel's inline-send and immediate-receive branches.
REFERENCE_VARIANTS = {
    "wormhole": {},
    "store_and_forward": {"switching": "store_and_forward"},
    "zero_overhead": {
        "t_send_overhead": 0.0, "t_recv_overhead": 0.0, "t_mem_byte": 0.0,
    },
}
REFERENCE_CASES = [
    (spec, variant, name)
    for spec in REFERENCE_MACHINES
    for variant in REFERENCE_VARIANTS
    for name in sorted(alg.name for alg in ALGORITHMS.values())
    if get_algorithm(name).supports(machine_from_spec(spec))
]


@pytest.fixture(params=["active", "arrays"])
def kernel_containers(request, monkeypatch):
    """The active kernel as resolved, or the pure-Python kernel fed the
    JIT mode's numpy arrays — which checks that container layout where
    numba is absent."""
    if request.param == "arrays":
        monkeypatch.setattr(kernel, "_active", kernel.replay_kernel)
        monkeypatch.setattr(kernel, "_active_mode", "jit")
    return request.param


@pytest.mark.parametrize(
    "spec,variant,algorithm",
    REFERENCE_CASES,
    ids=[f"{s}-{v}-{a}" for s, v, a in REFERENCE_CASES],
)
def test_kernel_matches_frozen_reference(
    spec, variant, algorithm, kernel_containers
):
    factory, seeds = REFERENCE_MACHINES[spec]
    params = machine_from_spec(spec).params
    machine = factory(params.with_overrides(**REFERENCE_VARIANTS[variant]))
    problem = BroadcastProblem(machine, (1, 4, 6, 11, 13), message_size=1024)
    plan = lower_schedule(get_algorithm(algorithm).build_schedule(problem))
    counts = dict(zip(
        ("m_sends", "m_recvs", "m_bytes_sent", "m_bytes_recv", "m_iter_ops"),
        (a.ravel().tolist() for a in evaluator._plan_bincounts(plan)),
    ))
    wire_offset = 2 * machine.topology.num_nodes
    for seed in seeds:
        binding = bind_plan(plan, machine, seed)
        for contention in (True, False):
            ref_now, ref = _reference_replay(plan, machine, contention, binding)
            fast = evaluate_plan(
                plan, machine, seed=seed, contention=contention, binding=binding
            )
            now, _, state = evaluator._replay(plan, machine, contention, binding)
            where = f"seed={seed} contention={contention}"
            assert fast.elapsed_us.hex() == now.hex() == ref_now.hex(), where
            expected = reference_report(plan.p, plan.num_rounds, ref)
            assert isinstance(fast.metrics, MetricsReport)
            assert fast.metrics == expected, where
            assert fast.link_utilization == wire_utilization_from(
                ref["busy_time"], wire_offset, ref_now
            ), where
            for name in (
                "free_at", "busy_time", "finished", "m_recv_wait",
                "m_recv_wait_ct", "m_link_wait", "m_copy", "m_iter_last",
            ):
                assert list(state[name]) == ref[name], (name, where)
            for name, values in counts.items():
                assert values == ref[name], (name, where)
