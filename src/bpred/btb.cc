#include "bpred/btb.hh"

#include <algorithm>

#include "util/logging.hh"

namespace interf::bpred
{

Btb::Btb(u32 sets, u32 ways) : sets_(sets), ways_(ways)
{
    // Typed construction-time diagnostics rather than asserts: a bad
    // geometry is a configuration error, and a non-power-of-two set
    // count would otherwise silently alias sets through the index mask.
    if (sets == 0 || (sets & (sets - 1)) != 0)
        fatal("btb: %u sets is not a power of two; the set index masks "
              "low PC bits, so a non-power-of-two count would silently "
              "alias sets",
              sets);
    if (ways == 0)
        fatal("btb: associativity must be >= 1");
    if (ways > 32)
        fatal("btb: associativity %u exceeds 32 (u8 per-set ages and "
              "the packed scan's u32 mask cap the ways)",
              ways);
    size_t n = static_cast<size_t>(sets) * ways;
    tags_.resize(n, kNoTag);
    targets_.resize(n, 0);
    lru_.resize(n, 0);
    setClock_.resize(sets, 0);
}

void
Btb::reset()
{
    std::fill(tags_.begin(), tags_.end(), kNoTag);
    std::fill(targets_.begin(), targets_.end(), Addr{0});
    std::fill(lru_.begin(), lru_.end(), u8{0});
    std::fill(setClock_.begin(), setClock_.end(), u8{0});
}

u64
Btb::sizeBits() const
{
    // Tag (approx. 20 bits stored in real designs) + target (32 offset
    // bits) per entry, as a rough budget figure.
    return static_cast<u64>(sets_) * ways_ * (20 + 32);
}

} // namespace interf::bpred
