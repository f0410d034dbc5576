/**
 * @file
 * Diagnostics for the artifact verifier framework.
 *
 * Every verifier pass (see verify/verify.hh) reports through the same
 * vocabulary: a Diagnostic names the artifact it examined, the pass
 * that found the problem, the entity inside the artifact (kind +
 * index) and a human-readable message, at one of two severities.
 * VerifyResult collects diagnostics across passes and renders them as
 * text or as machine-readable JSON (the `interf_verify --json` output;
 * schema documented in DESIGN.md §5f).
 *
 * Diagnostics are data, not control flow: passes never panic or
 * fatal() on a corrupt artifact — callers decide whether a non-clean
 * result is fatal (trust boundaries), a nonzero exit (the lint tools)
 * or just a report.
 */

#ifndef INTERF_VERIFY_DIAGNOSTIC_HH
#define INTERF_VERIFY_DIAGNOSTIC_HH

#include <cstdio>
#include <string>
#include <vector>

#include "util/types.hh"

namespace interf::verify
{

/** How bad a finding is. Errors make a result not ok(). */
enum class Severity : u8 {
    Warning, ///< Suspicious but not provably corrupt (e.g. stray file).
    Error,   ///< The artifact violates an invariant; do not trust it.
};

/** The entity inside an artifact a diagnostic points at. */
enum class EntityKind : u8 {
    Artifact,  ///< The artifact as a whole (header, framing, sizes).
    ObjectFile,///< Program: an object file on the link line.
    Region,    ///< Program: a data region.
    Procedure, ///< Program: a procedure.
    Block,     ///< Program: a basic block (index = dense site id).
    Branch,    ///< Program: a block's terminating branch site.
    MemRef,    ///< Program: a static memory-reference site.
    Event,     ///< Trace/plan: a dynamic block event (index = position).
    MemAccess, ///< Trace/plan: a memory-stream entry (index = position).
    Site,      ///< Plan: a site-table entry (dense block numbering).
    Placement, ///< Layout: a procedure placement (index = proc id).
    Page,      ///< Layout: a virtual page number.
    Manifest,  ///< Store: the manifest (index = batch-table slot).
    Batch,     ///< Store: a batch file (index = first layout).
};

const char *severityName(Severity s);
const char *entityKindName(EntityKind k);

/** One finding: where, what, and how bad. */
struct Diagnostic
{
    Severity severity = Severity::Error;
    std::string artifact; ///< Path or pseudo-path ("<program>", ...).
    const char *pass = "";///< Name of the pass that emitted it.
    EntityKind entity = EntityKind::Artifact;
    u64 index = 0;        ///< Entity index within the artifact.
    std::string message;

    /** One-line text rendering ("error: <artifact>: block 7: ..."). */
    std::string text() const;
};

/** The report of one verification run: diagnostics across passes. */
class VerifyResult
{
  public:
    /** True when no pass reported an Error (warnings allowed). */
    bool ok() const { return errorCount_ == 0; }

    size_t errorCount() const { return errorCount_; }
    size_t warningCount() const
    {
        return diagnostics_.size() - errorCount_;
    }

    const std::vector<Diagnostic> &diagnostics() const
    {
        return diagnostics_;
    }

    /** Append one diagnostic. */
    void add(Diagnostic d);

    /** Append every diagnostic of @p other. */
    void merge(const VerifyResult &other);

    /** "clean" or "N errors, M warnings". */
    std::string summary() const;

    /** Print every diagnostic, one per line, then the summary. */
    void printText(std::FILE *out) const;

    /**
     * Machine-readable rendering: {"clean": bool, "errors": N,
     * "warnings": N, "diagnostics": [{severity, artifact, pass,
     * entity, index, message}, ...]}.
     */
    std::string toJson() const;

  private:
    std::vector<Diagnostic> diagnostics_;
    size_t errorCount_ = 0;
};

/**
 * Emission helper bound to one (artifact, pass) pair, so pass code
 * reads as sink.error(EntityKind::Block, idx, "..."). Caps emission at
 * kMaxDiagnostics per sink: a single corrupt length field must not
 * turn into millions of per-entity diagnostics.
 */
class Sink
{
  public:
    static constexpr size_t kMaxDiagnostics = 64;

    Sink(VerifyResult &out, std::string artifact, const char *pass)
        : out_(out), artifact_(std::move(artifact)), pass_(pass)
    {
    }

    ~Sink();

    Sink(const Sink &) = delete;
    Sink &operator=(const Sink &) = delete;

    void error(EntityKind entity, u64 index, std::string message)
    {
        emit(Severity::Error, entity, index, std::move(message));
    }

    void warning(EntityKind entity, u64 index, std::string message)
    {
        emit(Severity::Warning, entity, index, std::move(message));
    }

    /** Errors emitted through this sink (suppressed ones included). */
    size_t errors() const { return errors_; }

  private:
    void emit(Severity severity, EntityKind entity, u64 index,
              std::string message);

    VerifyResult &out_;
    std::string artifact_;
    const char *pass_;
    size_t emitted_ = 0;
    size_t suppressed_ = 0;
    size_t errors_ = 0;
};

} // namespace interf::verify

#endif // INTERF_VERIFY_DIAGNOSTIC_HH
