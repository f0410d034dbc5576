/**
 * @file
 * In-memory span ledger for the benchmark's traced pass.
 *
 * The benchmark times the library from outside: each call into a layer
 * is wrapped in a Scope, which records the call's name, start and end
 * (steady clock), the span that was open around it, and the request it
 * served (a profile index plus a layout index within it). Nothing is
 * written while the workload runs; writeJson() dumps the spans at the
 * end.
 *
 * A layer's self time is its span's duration minus the time its direct
 * children cover. Spans nest strictly (the traced pass runs on one
 * thread), so the children of a span lie inside its interval and the
 * subtraction is exact.
 */

#ifndef PERFBENCH_LEDGER_HH
#define PERFBENCH_LEDGER_HH

#include <map>
#include <string>
#include <vector>

#include "util/types.hh"

namespace perfbench
{

using interf::i64;
using interf::u32;
using interf::u64;

/** Monotonic host time in nanoseconds. */
u64 nowNs();

/** Process CPU time (user + system, all threads) in seconds. */
double cpuSeconds();

/** Peak resident set size of the process so far, in MiB. */
double peakRssMib();

/** One recorded call into a layer. */
struct Span
{
    const char *name = "";
    u64 startNs = 0;
    u64 endNs = 0;
    int parent = -1; ///< Index of the enclosing span, -1 at top level.
    u32 request = 0; ///< Index of the request's name (see writeJson).
    i64 item = -1;   ///< Layout index within the request; -1 = none.

    u64 durationNs() const { return endNs - startNs; }
};

class Ledger
{
  public:
    /** RAII span around one call. @p name must be a string literal. */
    class Scope
    {
      public:
        Scope(Ledger &ledger, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Ledger &ledger_;
        int index_;
    };

    /** Call @p fn under a span named @p name and return its result. */
    template <class Fn>
    decltype(auto) call(const char *name, Fn &&fn)
    {
        Scope s(*this, name);
        return fn();
    }

    /** Spans opened from now on belong to request @p name, item -1. */
    void beginRequest(const std::string &name);

    /** Spans opened from now on serve layout @p item of the request. */
    void setItem(i64 item) { item_ = item; }

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time (ns) summed per span name. */
    std::map<std::string, u64> selfNsByName() const;

    /** Durations in microseconds of every span named @p name. */
    std::vector<double> durationsUs(const std::string &name) const;

    /** Total duration (ns) of every span named @p name. */
    u64 totalNs(const std::string &name) const;

    /** Write all spans as one JSON document; false on I/O failure. */
    bool writeJson(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> open_; ///< Stack of open span indices.
    std::vector<std::string> requests_{"(none)"};
    u32 request_ = 0;
    i64 item_ = -1;
};

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HH
