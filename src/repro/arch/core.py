"""The core execution model.

Each core runs one process at a time and is modelled as an in-order
engine whose progress is gated by memory stalls:

* every instruction costs the workload's ``base_cpi`` cycles of pipeline
  time (this folds in L1-hit latency, which real pipelines hide);
* every access that misses L1 additionally stalls the core for the extra
  latency of the level that served it, divided by the workload's
  ``overlap`` factor (memory-level parallelism: streaming codes overlap
  several outstanding misses, pointer chasers cannot).

The model advances one *memory access* at a time — between accesses
the workload retires ``1 / mem_ratio`` instructions — which is what
makes a whole-benchmark simulation tractable in Python while still
reproducing the paper's Figure 3 phenomenon: periods with many LLC
misses are periods with few instructions retired.  The hierarchy
serves the accesses in whole batches with exactly those per-access
semantics.
"""

from __future__ import annotations

import numpy as np

from ..config import MachineConfig
from .hierarchy import CacheHierarchy
from .memory import MainMemory

#: Upper bound on one address batch drawn from a pattern.
_MAX_BATCH = 4096

#: Smallest batch worth classifying for the stream path; a shorter
#: phase remainder goes through the bulk kernel instead.
_VECTOR_MIN_BATCH = 8

#: Longest stretch of budgets a core skips the stream-path attempt for
#: after repeated classify declines.  Declines are sticky: the batch
#: shapes that cause them (within-batch revisits of Zipf and random
#: phases, pointer chases, lines still resident) persist for many
#: budgets, so each consecutive decline doubles the skip, 1, 2, 4, …
#: budgets up to this cap, and a successful classify resets it.
_DECLINE_BACKOFF_CAP = 32


class Core:
    """One core: executes a process against the shared hierarchy."""

    def __init__(
        self,
        core_id: int,
        machine: MachineConfig,
        hierarchy: CacheHierarchy,
        memory: MainMemory,
    ):
        self.core_id = core_id
        self.machine = machine
        self.hierarchy = hierarchy
        self.memory = memory
        #: cumulative cycles this core spent executing (not idling)
        self.cycles_executed = 0.0
        #: cumulative instructions retired on this core
        self.instructions_retired = 0.0
        #: cumulative memory accesses issued
        self.accesses_issued = 0
        #: accesses served per path, counted per batch (telemetry
        #: only): stream-path commits, the bulk kernel, and the
        #: per-access walk of ``access_many``'s fallback
        self.served_vector = 0
        self.served_bulk = 0
        self.served_walk = 0
        #: stream-path classify declines, and budgets the decline
        #: backoff skipped the stream-path attempt for
        self.classify_declines = 0
        self.backoff_skips = 0
        lat = machine.latencies
        # Extra stall beyond an L1 hit, indexed by serving level (1..3);
        # level 4 is priced dynamically by the memory channel.
        self._extra_stall = (0.0, 0.0, float(lat.l2 - lat.l1),
                             float(lat.l3 - lat.l1))
        self._l1_latency = float(lat.l1)
        # Cycles the in-flight access of the previous run() call owes
        # beyond its budget; deducted from the next budget so cycle
        # accounting never exceeds the sum of granted budgets.
        self._stall_debt = 0.0
        # Running estimate of how many accesses one cycle budget
        # executes, sizing the batched paths' batches (see run()).
        self._vector_est = 512
        # Decline backoff: budgets left to skip the stream-path attempt
        # for, and the skip the next decline sets.
        self._vector_skip = 0
        self._vector_backoff = 1

    def path_counts(self) -> dict[str, int]:
        """Accesses served per path, vector declines and backoff skips."""
        return {
            "path.vector": self.served_vector,
            "path.bulk": self.served_bulk,
            "path.walk": self.served_walk,
            "vector.classify_declines": self.classify_declines,
            "vector.backoff_skips": self.backoff_skips,
        }

    def run(self, process: "object", cycle_budget: float) -> float:
        """Execute ``process`` for up to ``cycle_budget`` cycles.

        ``process`` is a :class:`repro.sim.process.SimProcess` (duck
        typed to avoid a package cycle): it exposes ``finished``,
        ``current_phase()`` and ``account(accesses)``.

        Returns the cycles actually consumed — less than the budget only
        if the process ran to completion inside it.
        """
        if cycle_budget <= 0.0:
            return 0.0
        used = self._stall_debt
        if used >= cycle_budget:
            # Still stalled on the previous call's in-flight access:
            # the whole budget drains into the outstanding debt.
            self._stall_debt = used - cycle_budget
            self.cycles_executed += cycle_budget
            return cycle_budget
        self._stall_debt = 0.0
        hierarchy = self.hierarchy
        cid = self.core_id
        # Only kernel-eligible cores try the stream path; a recent
        # classify decline stands it down for this whole budget (see
        # _DECLINE_BACKOFF_CAP).
        kernel = hierarchy.bulk_kernel_ok(cid)
        vector_ok = kernel
        if self._vector_skip:
            self._vector_skip -= 1
            self.backoff_skips += 1
            vector_ok = False
        total_accesses = 0
        total_instructions = 0.0
        access_many = hierarchy.access_many
        memory = self.memory
        extra = self._extra_stall
        l1_lat = self._l1_latency

        while used < cycle_budget and not process.finished:
            phase = process.current_phase()
            hierarchy.set_store_ratio(cid, phase.store_ratio)
            cpa = phase.compute_cycles_per_access
            inv_overlap = 1.0 / phase.overlap
            chunk = process.accesses_left_in_phase()
            done = 0
            # Whole batches, priced by serving level: an L1 hit costs
            # the compute cycles, a miss adds the serving level's extra
            # latency over the L1's, scaled by the phase's overlap (the
            # memory channel prices every access in a period
            # identically).  Both batched paths stop where a per-access
            # walk would — access i executes only while the total
            # before it is under the budget, with left-to-right float
            # adds — so the unexecuted suffix of a batch goes back to
            # the stream untouched and the budget is served in one pass.
            c2 = cpa + extra[2] * inv_overlap
            c3 = cpa + extra[3] * inv_overlap
            mem_unit = memory.latency + memory.current_queue_delay
            c4 = cpa + (mem_unit - l1_lat) * inv_overlap
            costs = (0.0, cpa, c2, c3, c4)
            vector = vector_ok
            if vector:
                vec_classify = hierarchy.vector_classify
                vec_commit = hierarchy.vector_commit
                costs_np = np.array(costs, dtype=np.float64)
                # The running total seeds slot 0 so the accumulate
                # replays the walk's exact left-to-right IEEE-754 add
                # sequence.
                fold = np.empty(_MAX_BATCH + 1, dtype=np.float64)
            # Size batches by what one budget buys, so miss-heavy
            # phases don't draw ~4096 addresses to execute a few
            # hundred; the 25% overdraw absorbs estimate drift.
            cap = self._vector_est + (self._vector_est >> 2)
            if cap < 64:
                cap = 64
            elif cap > _MAX_BATCH:
                cap = _MAX_BATCH
            while done < chunk and used < cycle_budget:
                batch = chunk - done
                if batch > cap:
                    batch = cap
                if vector and batch >= _VECTOR_MIN_BATCH:
                    addr_arr = phase.take_addresses_array(batch)
                    plan = vec_classify(cid, addr_arr)
                    if plan is None:
                        # Not a cold ascending stream: return the batch
                        # untouched, serve the rest of this budget on
                        # the bulk kernel, and back off.
                        phase.push_back_array(addr_arr, 0)
                        self.classify_declines += 1
                        self._vector_skip = self._vector_backoff
                        if self._vector_backoff < _DECLINE_BACKOFF_CAP:
                            self._vector_backoff <<= 1
                        vector = vector_ok = False
                        continue
                    self._vector_backoff = 1
                    fold[0] = used
                    np.take(costs_np, plan.levels, out=fold[1:batch + 1])
                    np.add.accumulate(fold[:batch + 1],
                                      out=fold[:batch + 1])
                    n_exec = int(np.searchsorted(
                        fold[:batch], cycle_budget, side="left"
                    ))
                    if not vec_commit(cid, plan, n_exec):
                        # Nothing was mutated and the pricing may be
                        # wrong: hand the whole batch to the bulk
                        # kernel.
                        phase.push_back_array(addr_arr, 0)
                        vector = False
                        continue
                    # Every executed collapsed access went to memory.
                    n_mem = int(np.searchsorted(
                        plan.keep_raw, n_exec, side="left"
                    ))
                    used = float(fold[n_exec])
                    if n_mem:
                        memory.access_bulk(n_mem)
                    done += n_exec
                    self.served_vector += n_exec
                    if n_exec < batch:
                        phase.push_back_array(addr_arr, n_exec)
                        break
                    continue
                addrs = phase.take_addresses(batch)
                levels = access_many(cid, addrs, costs, used, cycle_budget)
                n_exec = len(levels)
                used = hierarchy.batch_cycles
                n_mem = levels.count(4)
                if n_mem:
                    memory.access_bulk(n_mem)
                done += n_exec
                if kernel:
                    self.served_bulk += n_exec
                else:
                    self.served_walk += n_exec
                if n_exec < batch:
                    phase.push_back(addrs, n_exec)
                    break
            total_accesses += done
            total_instructions += done * phase.instructions_per_access
            process.account(done)

        if used >= cycle_budget and total_accesses:
            # Budget-limited run: what it executed is what one budget
            # buys — the estimate the batch sizing needs.
            self._vector_est = total_accesses
        if used > cycle_budget:
            # The final access overshot; carry the excess into the next
            # call so charged cycles never exceed granted budgets.
            self._stall_debt = used - cycle_budget
            used = cycle_budget
        self.cycles_executed += used
        self.accesses_issued += total_accesses
        self.instructions_retired += total_instructions
        return used

    def idle(self, cycles: float) -> None:
        """Account an idle stretch (no counters advance; hook for tests)."""

    def charge_overhead(self, cycles: float) -> None:
        """Charge runtime-overhead cycles to this core.

        Used by the perfmon layer to model the (small) cost of probing
        the PMU each period: the cycles are consumed but retire no
        instructions.
        """
        if cycles < 0:
            raise ValueError(f"overhead cycles must be >= 0, got {cycles}")
        self.cycles_executed += cycles

    def __repr__(self) -> str:
        return (
            f"Core({self.core_id}, cycles={self.cycles_executed:.0f}, "
            f"instructions={self.instructions_retired:.0f})"
        )
