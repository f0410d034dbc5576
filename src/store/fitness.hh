/**
 * @file
 * Content-addressed fitness cache for the layout optimizer.
 *
 * The CampaignStore persists a *contiguous prefix* of seed-indexed
 * layouts — the right shape for campaigns, useless for a search that
 * visits an unpredictable set of candidate layouts. The FitnessStore is
 * the random-access sibling: one checksummed file per candidate, named
 * by the candidate's content digest, under a directory named by the
 * base key (everything that can change a measurement's bytes *except*
 * the layout: program structure, behaviour seed, instruction budget,
 * page mapping, machine and runner configs).
 *
 * Because a candidate's measurement noise seed is derived from the same
 * content digest, the stored Measurement is a pure function of
 * (base key, candidate digest) — so concurrent or repeated writers
 * always race to write identical bytes, and the usual tmp+rename commit
 * makes the race harmless. Reads fail closed exactly like the campaign
 * store: a corrupt entry is fatal, never silently re-measured.
 */

#ifndef INTERF_STORE_FITNESS_HH
#define INTERF_STORE_FITNESS_HH

#include <optional>
#include <string>

#include "core/runner.hh"

namespace interf::trace
{
class Program;
}

namespace interf::store
{

/**
 * Everything that shapes a fitness measurement other than the candidate
 * layout itself. Two optimizer runs (or an optimizer and a later
 * verification pass) share cache entries iff their base keys match.
 * Execution knobs (jobs, proposals per step, strategy,
 * search seed) are intentionally excluded: none can change a candidate
 * measurement's bytes.
 */
u64 fitnessBaseKey(const trace::Program &prog, u64 behaviour_seed,
                   u64 instruction_budget, bool physical_pages,
                   u64 page_seed, bool randomize_heap,
                   const core::MachineConfig &machine,
                   const core::RunnerConfig &runner);

/**
 * On-disk cache mapping candidate content digests to Measurements.
 *
 * Layout on disk: `<root>/opt-<hex(baseKey)>/fit-<hex(digest)>.bin`,
 * each file `magic, version, baseKey, digest, checksum, measurement`.
 * Writes use the store-wide tmp+fsync+rename+fsync discipline; reads
 * verify every frame field and the payload checksum and fail closed.
 */
class FitnessStore
{
  public:
    /** Open (creating if needed) the entry directory for @p base_key
     *  under @p root. Never loads anything eagerly. */
    FitnessStore(const std::string &root, u64 base_key);

    /** The entry directory this cache reads and writes. */
    const std::string &dir() const { return dir_; }

    /** The measurement cached for @p cand_digest, or nullopt if the
     *  candidate was never persisted. Corrupt entries are fatal. */
    std::optional<core::Measurement> load(u64 cand_digest) const;

    /** Durably persist @p m as the measurement of @p cand_digest.
     *  Idempotent: racing writers of the same digest write identical
     *  bytes, and the atomic rename lets the last one win harmlessly. */
    void save(u64 cand_digest, const core::Measurement &m) const;

  private:
    std::string entryPath(u64 cand_digest) const;

    u64 baseKey_;
    std::string dir_;
};

} // namespace interf::store

#endif // INTERF_STORE_FITNESS_HH
