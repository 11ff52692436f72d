/**
 * @file
 * Calibration constants of the RNIC / PCIe / fabric model.
 *
 * The defaults are calibrated so that the modelled platform matches the
 * paper's testbed headlines: 110 MOP/s small-op hardware limit, ~1.5 us
 * unloaded round-trip, 200 Gbps link, PCIe 3.0 x16 (~16 GB/s), doorbell
 * collapse beyond ~32 threads with the default 4+12 UAR layout, WQE-cache
 * knee at ~768 outstanding work requests, and ~93 -> ~180 DRAM bytes/WR
 * when the WQE cache starts thrashing (paper Figs. 3 and 4).
 */

#ifndef SMART_RNIC_RNIC_CONFIG_HPP
#define SMART_RNIC_RNIC_CONFIG_HPP

#include <cstdint>

#include "sim/types.hpp"

namespace smart::rnic {

using sim::Time;

/** Tunable hardware parameters for one RNIC (and its host's PCIe/CPU). */
struct RnicConfig
{
    // ---- Doorbell registers (UARs) ----
    /** Low-latency doorbells: dedicated, one QP each (mlx5 default: 4). */
    std::uint32_t numLowLatencyUars = 4;
    /**
     * Medium-latency doorbells shared round-robin by later QPs (mlx5
     * default: 12). SMART raises this via the MLX5_TOTAL_UUARS-style knob;
     * the ConnectX-6 hardware cap is 512.
     */
    std::uint32_t numMediumUars = 12;
    /** Hardware limit on total doorbells (ConnectX-6: 512). */
    std::uint32_t maxUars = 512;
    /**
     * Model the driver reserving the low-latency UARs for kernel/control
     * QPs: application QPs then round-robin over the medium-latency pool
     * only. Disable to hand low-latency doorbells to the first app QPs.
     */
    bool reserveLowLatencyUars = true;
    /** MMIO write + write-combining flush for one doorbell ring. */
    Time doorbellRingNs = 200;
    /** Spinlock cache-line bounce penalty per concurrent waiter. */
    Time lockBouncePerWaiterNs = 280;
    /** Waiter count beyond which extra spinners stop adding cost. */
    std::uint32_t lockBounceWaiterCap = 8;
    /**
     * Window for deciding whether a QP counts as an "active sharer" of a
     * doorbell. Cores that rang the doorbell within this window still
     * hold the lock cache line, so every handoff pays a bounce cost per
     * such core even when nobody is queued at that instant.
     */
    Time bounceWindowNs = 100'000;

    // ---- CPU-side posting/polling costs ----
    /** Building one 64 B WQE in the send queue. */
    Time wqeBuildNs = 40;
    /** Base cost of taking an uncontended QP/CQ lock. */
    Time lockBaseNs = 30;
    /** Processing one polled CQE (mlx5 cqe -> ibv_wc). */
    Time cqePollNs = 30;

    // ---- Processing pipeline ----
    /** Pipeline occupancy to issue one request (initiator side). */
    Time pipeIssueNs = 5;
    /** Pipeline occupancy to absorb one completion (initiator side). */
    Time pipeCompletionNs = 4;
    /** Pipeline occupancy to serve one inbound request (responder side). */
    Time pipeResponderNs = 9;
    /** Responder atomic execution units (CAS/FAA): pool size. */
    std::uint32_t atomicUnits = 8;
    /** Atomic unit occupancy per CAS/FAA (PCIe read-modify-write). */
    Time atomicServiceNs = 140;

    // ---- On-chip caches ----
    /** WQE cache capacity, in outstanding work requests. */
    std::uint32_t wqeCacheCapacity = 600;
    /** Extra DRAM bytes fetched on a WQE cache miss (WQE + QP state). */
    std::uint32_t wqeMissBytes = 128;
    /** MTT/MPT cache capacity, in (MR, 2 MB page) translation entries. */
    std::uint32_t mttCacheCapacity = 1024;
    /** Extra DRAM bytes on an MTT/MPT miss (translation fetch). */
    std::uint32_t mttMissBytes = 64;
    /** Added latency for a translation refetch. */
    Time mttMissLatencyNs = 600;
    /**
     * ICM working-set entries (MPT segments, QPC roots, EQ state) that
     * each device context adds to the on-chip MTT/MPT cache. Opening a
     * context per thread multiplies this footprint — the paper's
     * argument for sharing one context (§2.2, §4.1).
     */
    std::uint32_t icmEntriesPerContext = 16;
    /** Extra pipeline occupancy when a context ICM entry misses. */
    Time icmMissExtraPipeNs = 18;

    // ---- DMA engines (serve WQE-cache refetches) ----
    std::uint32_t dmaEngines = 22;
    /** Engine occupancy per WQE refetch after a cache miss. */
    Time dmaMissServiceNs = 580;

    // ---- PCIe (3.0 x16 on the paper's platform) ----
    /** Host PCIe bandwidth, bytes per ns (effective ~13 B/ns incl. TLP overheads). */
    double pcieBytesPerNs = 13.0;
    /** Fixed latency of one PCIe DMA transaction. */
    Time pcieLatencyNs = 250;

    // ---- DRAM traffic accounting (per-WR, initiator side) ----
    /** Size of one WQE in host memory. */
    std::uint32_t wqeBytes = 64;
    /** Bytes written per CQE (with ConnectX CQE compression). */
    std::uint32_t cqeBytes = 16;
    /** Fixed padding added to payload landing writes. */
    std::uint32_t payloadPadBytes = 5;

    // ---- Network fabric ----
    /** Link bandwidth, bytes per ns (200 Gbps = 25 B/ns). */
    double linkBytesPerNs = 25.0;
    /** One-way propagation + switch latency. */
    Time propagationNs = 250;
    /** Request/response header bytes (IB transport headers). */
    std::uint32_t headerBytes = 30;

    // ---- Persistent memory (FORD experiments) ----
    /** Extra latency for writes that must persist to NVM at the blade. */
    Time nvmPersistNs = 300;

    // ---- Fault / recovery model ----
    /**
     * Transport-level retry budget before an unreachable responder turns
     * into a RetryExceeded completion (IB retry_cnt x local_ack_timeout,
     * collapsed into one delay).
     */
    Time transportRetryNs = 20'000;
    /** Cost of one QP state transition (ibv_modify_qp); a full
     *  Reset->Init->RTR->RTS reconnect pays three of these. */
    Time qpModifyNs = 2'000;
};

} // namespace smart::rnic

#endif // SMART_RNIC_RNIC_CONFIG_HPP
