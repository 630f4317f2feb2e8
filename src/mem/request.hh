/**
 * @file
 * Stream-level memory request descriptors.
 *
 * The timing layer works at the granularity of *streams*: a primitive
 * invocation turns into one or a few streams ("read 48 KB sequentially
 * from 0x...", "perform 37 random 16 B accesses around 0x...").  The
 * pattern determines both achievable DRAM efficiency and the access
 * granularity an agent can use.
 */

#ifndef CHARON_MEM_REQUEST_HH
#define CHARON_MEM_REQUEST_HH

#include <cstdint>

#include "mem/addr.hh"
#include "sim/types.hh"

namespace charon::mem
{

/** Spatial behaviour of a stream. */
enum class AccessPattern
{
    Sequential, ///< dense, ascending addresses (Copy, Search, bitmap scan)
    Strided,    ///< regular stride larger than a burst (card-table walk)
    Random,     ///< pointer-chasing / scattered (Scan&Push object loads)
};

/** One stream request as seen by a memory system model. */
struct StreamRequest
{
    Addr addr = 0;              ///< first byte touched
    std::uint64_t bytes = 0;    ///< total bytes moved
    bool write = false;         ///< direction (writes include RMW stores)
    AccessPattern pattern = AccessPattern::Sequential;
    /**
     * Requester-imposed bandwidth cap in bytes/tick: how fast the agent
     * can *issue* (MLP x granularity / latency).  The memory system may
     * further reduce the achieved rate via sharing and DRAM efficiency.
     */
    double maxRate = 0;
    /** Access granularity the agent uses, bytes (64 host, <=256 HMC). */
    int granularity = 64;
};

} // namespace charon::mem

#endif // CHARON_MEM_REQUEST_HH
