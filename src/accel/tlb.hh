/**
 * @file
 * Functional model of Charon's accelerator-side address translation
 * (Section 4.6 "Virtual Memory and Multi-Process Support").
 *
 * The JVM pins its heap in 1 GiB huge pages at launch and interleaves
 * them over cubes; Charon keeps just enough duplicate TLB entries on
 * the DRAM side to cover those pinned pages, so steady-state
 * execution sees no misses or page faults.  Entries are tagged with a
 * process-context id (PCID) so multiple JVM processes can share the
 * accelerator; attempting to insert beyond physical capacity fails,
 * which is exactly the paper's admission-control story ("an attempt
 * to pin down a huge page would fail beyond the capacity of physical
 * memory").
 */

#ifndef CHARON_ACCEL_TLB_HH
#define CHARON_ACCEL_TLB_HH

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mem/addr.hh"
#include "sim/config.hh"

namespace charon::accel
{

/** One pinned huge-page mapping. */
struct TlbEntry
{
    std::uint16_t pcid = 0;      ///< process-context id
    mem::Addr virtualPage = 0;   ///< VA >> pageShift
    mem::Addr physicalPage = 0;  ///< PA >> pageShift
    int homeCube = 0;            ///< cube owning the physical page
};

/**
 * The accelerator TLB: pinned huge-page entries, optionally sliced
 * per cube (the Figure 15 "distributed" design).
 */
class AcceleratorTlb
{
  public:
    /**
     * @param cfg Charon configuration (huge-page size)
     * @param cubes cubes in the system
     * @param physical_pages huge pages of physical memory available
     *        (the admission-control budget)
     */
    AcceleratorTlb(const sim::CharonConfig &cfg, int cubes,
                   std::uint64_t physical_pages);

    int pageShift() const { return pageShift_; }

    /**
     * Pin a huge page for @p pcid at @p vaddr; the physical page is
     * assigned round-robin over cubes (numa_alloc_onnode-style
     * interleaving).
     * @retval false physical memory is exhausted (admission control)
     */
    bool pinPage(std::uint16_t pcid, mem::Addr vaddr);

    /** Release every page of a process (process exit). */
    void releaseProcess(std::uint16_t pcid);

    /**
     * Translate @p vaddr for @p pcid.
     * @return the entry, or nullopt (an unpinned access: a fault the
     *         design guarantees cannot happen in steady state)
     */
    std::optional<TlbEntry> translate(std::uint16_t pcid,
                                      mem::Addr vaddr);

    /** Cube whose TLB slice serves @p vaddr (distributed design). */
    int sliceOf(mem::Addr vaddr) const;

    /**
     * True when a lookup from @p cube for @p vaddr needs a remote
     * slice (distributed) or the central structure (unified).
     */
    bool lookupIsRemote(int cube, mem::Addr vaddr,
                        bool distributed) const;

    std::uint64_t pinnedPages() const { return entries_.size(); }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t faults() const { return faults_; }

  private:
    static std::uint64_t key(std::uint16_t pcid, mem::Addr vpage)
    {
        return (static_cast<std::uint64_t>(pcid) << 48) | vpage;
    }

    int pageShift_;
    int cubes_;
    std::uint64_t physicalPages_;
    std::uint64_t nextPhysicalPage_ = 0;
    std::uint64_t freedPages_ = 0;
    std::unordered_map<std::uint64_t, TlbEntry> entries_;
    std::uint64_t hits_ = 0;
    std::uint64_t faults_ = 0;
};

} // namespace charon::accel

#endif // CHARON_ACCEL_TLB_HH
