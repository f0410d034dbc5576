/**
 * @file
 * DieHard-style randomized heap placement.
 *
 * Section 1.3 / 4.4 of the paper: "we use a custom memory allocator
 * based on DieHard that essentially assigns random addresses to
 * heap-allocated objects to elicit perturbations due to conflict misses
 * in the data caches". DieHard's allocator segregates objects into
 * power-of-two size classes and places each object in a uniformly random
 * free slot of an over-provisioned arena.
 *
 * HeapLayout reproduces that placement model for the Program's Heap
 * regions: with randomization off, heap regions are packed in allocation
 * order (a deterministic malloc); with randomization on, each region
 * lands in a random slot of its size class's arena, keyed by the heap
 * seed. Global regions and the stack are never randomized (the paper
 * disables stack address randomization, Section 5.5).
 */

#ifndef INTERF_LAYOUT_HEAP_HH
#define INTERF_LAYOUT_HEAP_HH

#include <vector>

#include "trace/program.hh"
#include "util/types.hh"

namespace interf::layout
{

/**
 * @{ Virtual-address anchors of the data address space. Every data
 * address the layout engines can produce lies in [kGlobalBase,
 * kStackBase): globals pack upward from kGlobalBase, heap arenas from
 * kHeapBase, and stack regions grow downward from just below
 * kStackBase.
 */
inline constexpr Addr kGlobalBase = 0x00600000;
inline constexpr Addr kHeapBase = 0x10000000;
inline constexpr Addr kStackBase = 0x7fff00000000ULL;
/** @} */

/** Reproducible recipe for one data layout. */
struct HeapKey
{
    u64 seed = 0;
    bool randomize = true;
    /** DieHard over-provisioning: arena slots per object in a class. */
    u32 expansionFactor = 4;

    /** Deterministic packing (randomization off). */
    static HeapKey deterministic();
};

/** Immutable mapping from logical data ids to virtual addresses. */
class HeapLayout
{
  public:
    /**
     * Place all of the program's data regions.
     *
     * @param prog The program whose regions to place.
     * @param key Placement recipe; equal keys give identical layouts.
     */
    HeapLayout(const trace::Program &prog, const HeapKey &key);

    /** Base virtual address of a region. */
    Addr regionBase(u32 region_id) const;

    /** Translate a logical data id (region, offset) to an address. */
    Addr dataAddr(u64 logical_id) const;

    /** Total bytes spanned by the heap arenas (randomized mode). */
    u64 heapSpan() const { return heapSpan_; }

  private:
    std::vector<Addr> regionBase_;
    u64 heapSpan_ = 0;
};

} // namespace interf::layout

#endif // INTERF_LAYOUT_HEAP_HH
