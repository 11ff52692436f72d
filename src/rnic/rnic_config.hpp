/**
 * @file
 * Calibration constants of the RNIC / PCIe / fabric model.
 *
 * The constants are calibrated so that the modelled platform matches the
 * paper's testbed headlines: 110 MOP/s small-op hardware limit, ~1.5 us
 * unloaded round-trip, 200 Gbps link, PCIe 3.0 x16 (~16 GB/s), doorbell
 * collapse beyond ~32 threads with the default 4+12 UAR layout, WQE-cache
 * knee at ~768 outstanding work requests, and ~93 -> ~180 DRAM bytes/WR
 * when the WQE cache starts thrashing (paper Figs. 3 and 4).
 *
 * One value of each is used everywhere, so they are named constants;
 * RnicConfig holds only the values some caller varies.
 */

#ifndef SMART_RNIC_RNIC_CONFIG_HPP
#define SMART_RNIC_RNIC_CONFIG_HPP

#include <cstdint>

#include "sim/types.hpp"

namespace smart::rnic {

using sim::Time;

// ---- Doorbell registers (UARs) ----
/** Low-latency doorbells: dedicated, one QP each (mlx5 default: 4). */
inline constexpr std::uint32_t kNumLowLatencyUars = 4;
/**
 * Medium-latency doorbells shared round-robin by later QPs (mlx5
 * default: 12). SMART raises this via the MLX5_TOTAL_UUARS-style knob;
 * the ConnectX-6 hardware cap is 512.
 */
inline constexpr std::uint32_t kNumMediumUars = 12;
/** Hardware limit on total doorbells (ConnectX-6: 512). */
inline constexpr std::uint32_t kMaxUars = 512;
/** MMIO write + write-combining flush for one doorbell ring. */
inline constexpr Time kDoorbellRingNs = 200;
/** Waiter count beyond which extra spinners stop adding cost. */
inline constexpr std::uint32_t kLockBounceWaiterCap = 8;
/**
 * Window for deciding whether a QP counts as an "active sharer" of a
 * doorbell. Cores that rang the doorbell within this window still
 * hold the lock cache line, so every handoff pays a bounce cost per
 * such core even when nobody is queued at that instant.
 */
inline constexpr Time kBounceWindowNs = 100'000;

// ---- CPU-side posting/polling costs ----
/** Building one 64 B WQE in the send queue. */
inline constexpr Time kWqeBuildNs = 40;
/** Base cost of taking an uncontended QP/CQ lock. */
inline constexpr Time kLockBaseNs = 30;
/** Processing one polled CQE (mlx5 cqe -> ibv_wc). */
inline constexpr Time kCqePollNs = 30;

// ---- Processing pipeline ----
/** Pipeline occupancy to issue one request (initiator side). */
inline constexpr Time kPipeIssueNs = 5;
/** Pipeline occupancy to absorb one completion (initiator side). */
inline constexpr Time kPipeCompletionNs = 4;
/** Pipeline occupancy to serve one inbound request (responder side). */
inline constexpr Time kPipeResponderNs = 9;
/** Responder atomic execution units (CAS/FAA): pool size. */
inline constexpr std::uint32_t kAtomicUnits = 8;
/** Atomic unit occupancy per CAS/FAA (PCIe read-modify-write). */
inline constexpr Time kAtomicServiceNs = 140;

// ---- On-chip caches ----
/** Extra DRAM bytes fetched on a WQE cache miss (WQE + QP state). */
inline constexpr std::uint32_t kWqeMissBytes = 128;
/** MTT/MPT cache capacity, in (MR, 2 MB page) translation entries. */
inline constexpr std::uint32_t kMttCacheCapacity = 1024;
/** Extra DRAM bytes on an MTT/MPT miss (translation fetch). */
inline constexpr std::uint32_t kMttMissBytes = 64;
/** Added latency for a translation refetch. */
inline constexpr Time kMttMissLatencyNs = 600;
/**
 * ICM working-set entries (MPT segments, QPC roots, EQ state) that
 * each device context adds to the on-chip MTT/MPT cache. Opening a
 * context per thread multiplies this footprint — the paper's
 * argument for sharing one context (§2.2, §4.1).
 */
inline constexpr std::uint32_t kIcmEntriesPerContext = 16;
/** Extra pipeline occupancy when a context ICM entry misses. */
inline constexpr Time kIcmMissExtraPipeNs = 18;

// ---- DMA engines (serve WQE-cache refetches) ----
inline constexpr std::uint32_t kDmaEngines = 22;
/** Engine occupancy per WQE refetch after a cache miss. */
inline constexpr Time kDmaMissServiceNs = 580;

// ---- PCIe (3.0 x16 on the paper's platform) ----
/** Host PCIe bandwidth, bytes per ns (effective ~13 B/ns incl. TLP overheads). */
inline constexpr double kPcieBytesPerNs = 13.0;
/** Fixed latency of one PCIe DMA transaction. */
inline constexpr Time kPcieLatencyNs = 250;

// ---- DRAM traffic accounting (per-WR, initiator side) ----
/** Size of one WQE in host memory. */
inline constexpr std::uint32_t kWqeBytes = 64;
/** Bytes written per CQE (with ConnectX CQE compression). */
inline constexpr std::uint32_t kCqeBytes = 16;
/** Fixed padding added to payload landing writes. */
inline constexpr std::uint32_t kPayloadPadBytes = 5;

// ---- Network fabric ----
/** Link bandwidth, bytes per ns (200 Gbps = 25 B/ns). */
inline constexpr double kLinkBytesPerNs = 25.0;
/** One-way propagation + switch latency. */
inline constexpr Time kPropagationNs = 250;
/** Request/response header bytes (IB transport headers). */
inline constexpr std::uint32_t kHeaderBytes = 30;

// ---- Persistent memory (FORD experiments) ----
/** Extra latency for writes that must persist to NVM at the blade. */
inline constexpr Time kNvmPersistNs = 300;

// ---- Fault / recovery model ----
/**
 * Transport-level retry budget before an unreachable responder turns
 * into a RetryExceeded completion (IB retry_cnt x local_ack_timeout,
 * collapsed into one delay).
 */
inline constexpr Time kTransportRetryNs = 20'000;
/** Cost of one QP state transition (ibv_modify_qp); a full
 *  Reset->Init->RTR->RTS reconnect pays three of these. */
inline constexpr Time kQpModifyNs = 2'000;

/** The hardware parameters some caller varies, for one RNIC. */
struct RnicConfig
{
    /**
     * Model the driver reserving the low-latency UARs for kernel/control
     * QPs: application QPs then round-robin over the medium-latency pool
     * only. Disable to hand low-latency doorbells to the first app QPs —
     * the mlx5 default mapping of paper Fig. 2b, which test_verbs pins
     * (LaterQpsRoundRobinOverMediumUars).
     */
    bool reserveLowLatencyUars = true;
    /** Spinlock cache-line bounce penalty per concurrent waiter
     *  (swept by ablation_model). */
    Time lockBouncePerWaiterNs = 280;
    /** WQE cache capacity, in outstanding work requests (swept by
     *  ablation_model). */
    std::uint32_t wqeCacheCapacity = 600;
};

} // namespace smart::rnic

#endif // SMART_RNIC_RNIC_CONFIG_HPP
