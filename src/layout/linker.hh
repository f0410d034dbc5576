/**
 * @file
 * The layout engine: Camino-style reordering plus a linker model.
 *
 * Section 5.3 of the paper: "The Camino infrastructure is then used to
 * reorder procedures within files ... The resulting object files are
 * randomly reordered and linked to make an executable. Camino accepts a
 * seed to a pseudorandom number generator to generate pseudo-random but
 * reproducible orderings of procedures and object files."
 *
 * The Linker reproduces exactly that: given a Program and a LayoutKey
 * (the seed), it permutes procedures within each object file, permutes
 * the object files on the link line, and lays code out contiguously in
 * that order with the usual alignment rules. The resulting CodeLayout
 * maps every (procedure, block) to a virtual address; semantics never
 * change, only addresses do.
 */

#ifndef INTERF_LAYOUT_LINKER_HH
#define INTERF_LAYOUT_LINKER_HH

#include <vector>

#include "trace/program.hh"
#include "util/types.hh"

namespace interf::layout
{

/** Default text-segment base: a Linux x86_64 non-PIE executable. */
inline constexpr Addr kDefaultTextBase = 0x400000;

/**
 * Highest end (one past the last byte) a linked text segment may have.
 * The BTB keeps u32 full-PC tags, so every branch PC must stay below
 * 2^32 - 1, its all-ones sentinel; Linker::link fails closed past it.
 */
inline constexpr Addr kMaxTextEnd = (Addr{1} << 32) - 1;

/** Reproducible recipe for one code layout. */
struct LayoutKey
{
    u64 seed = 0;               ///< PRNG seed for the permutations.
    bool reorderProcedures = true; ///< Shuffle procedures within files.
    bool reorderObjectFiles = true; ///< Shuffle files on the link line.

    /** The identity layout: authored order, no perturbation. */
    static LayoutKey identity();
};

/**
 * An explicit code-layout permutation: the link-line order of object
 * files plus, per authored file, the order of that file's procedures.
 *
 * LayoutKey describes a layout *implicitly* (a seed the Linker expands
 * into permutations); LayoutSpec is the expanded form, the natural
 * representation for code that *edits* layouts — the opt::Neighborhood
 * moves permute these vectors directly, so every candidate it produces
 * is a valid permutation by construction. Linker::specFor() expands a
 * key into the spec it would link, and linking the spec yields a
 * byte-identical CodeLayout (see tests/test_linker.cc).
 */
struct LayoutSpec
{
    /** Link-line order: a permutation of [0, files). */
    std::vector<u32> fileOrder;

    /**
     * procOrder[f] is the memory order of file f's procedures — a
     * permutation of the authored ObjectFile::procIds — indexed by
     * *authored* file index, not link-line position, so moves on
     * fileOrder never invalidate the per-file vectors.
     */
    std::vector<std::vector<u32>> procOrder;

    /** The authored (identity) spec for a program. */
    static LayoutSpec authored(const trace::Program &prog);

    /** Sanity-check against a program; panics on violation. */
    void validate(const trace::Program &prog) const;
};

/**
 * Immutable result of linking: every block's virtual address.
 *
 * Addresses are precomputed into flat arrays so the hot timing loops can
 * translate (proc, block) -> Addr with two array reads.
 */
class CodeLayout
{
  public:
    /** Base virtual address of a procedure's first block. */
    Addr procBase(u32 proc_id) const;

    /** Virtual address of a block's first instruction byte. */
    Addr blockAddr(u32 proc_id, u32 block_id) const;

    /**
     * Virtual address of a block's terminating branch instruction
     * (the last instruction of the block). Only meaningful when the
     * block has a terminator.
     */
    Addr branchAddr(u32 proc_id, u32 block_id) const;

    /** First byte of the text segment. */
    Addr textBase() const { return textBase_; }

    /** Bytes of text (including alignment padding). */
    u64 textSize() const { return textSize_; }

    /** Link-line order of object files used for this layout. */
    const std::vector<u32> &fileOrder() const { return fileOrder_; }

    /** Memory order of procedures (global proc ids). */
    const std::vector<u32> &procOrder() const { return procOrder_; }

  private:
    friend class Linker;

    Addr textBase_ = 0;
    u64 textSize_ = 0;
    std::vector<u32> fileOrder_;
    std::vector<u32> procOrder_;
    std::vector<Addr> procBase_;       ///< Indexed by global proc id.
    std::vector<u32> blockOffsetBase_; ///< Per-proc offset into blockOff_.
    std::vector<u32> blockOff_;        ///< Block start offsets in proc.
    std::vector<u32> branchOff_;       ///< Branch-instruction offsets.
};

/** Produces CodeLayouts from (Program, LayoutKey) pairs. */
class Linker
{
  public:
    /**
     * @param text_base Base address of the text segment (default mimics
     *        a Linux x86_64 non-PIE text segment).
     */
    explicit Linker(Addr text_base = kDefaultTextBase);

    /**
     * Link the program under the given key. Deterministic: equal keys
     * always produce identical layouts. Equivalent to
     * link(prog, specFor(prog, key)).
     */
    CodeLayout link(const trace::Program &prog, const LayoutKey &key) const;

    /**
     * Link the program under an explicit permutation. The spec must
     * validate() against the program (asserted in Debug builds).
     * fatal() if the text would end above kMaxTextEnd.
     */
    CodeLayout link(const trace::Program &prog,
                    const LayoutSpec &spec) const;

    /** Expand a key into the explicit permutation link(key) lays out. */
    LayoutSpec specFor(const trace::Program &prog,
                       const LayoutKey &key) const;

  private:
    Addr textBase_;
};

} // namespace interf::layout

#endif // INTERF_LAYOUT_LINKER_HH
