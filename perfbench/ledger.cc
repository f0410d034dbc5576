#include "ledger.hh"

#include <sys/resource.h>

#include <chrono>
#include <fstream>

#include "util/json.hh"

namespace perfbench
{

u64
nowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux.
}

Ledger::Scope::Scope(Ledger &ledger, const char *name)
    : ledger_(ledger), index_(static_cast<int>(ledger.spans_.size()))
{
    Span s;
    s.name = name;
    s.parent = ledger.open_.empty() ? -1 : ledger.open_.back();
    s.request = ledger.request_;
    s.item = ledger.item_;
    ledger.spans_.push_back(s);
    ledger.open_.push_back(index_);
    // Last, so the bookkeeping above is outside the measured interval.
    ledger.spans_[index_].startNs = nowNs();
}

Ledger::Scope::~Scope()
{
    ledger_.spans_[index_].endNs = nowNs();
    ledger_.open_.pop_back();
}

void
Ledger::beginRequest(const std::string &name)
{
    request_ = static_cast<u32>(requests_.size());
    requests_.push_back(name);
    item_ = -1;
}

std::map<std::string, u64>
Ledger::selfNsByName() const
{
    // Start from each span's duration and take every child's duration
    // off its parent.
    std::vector<u64> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].durationNs();
    for (const Span &s : spans_)
        if (s.parent >= 0)
            self[s.parent] -= s.durationNs();
    std::map<std::string, u64> by_name;
    for (size_t i = 0; i < spans_.size(); ++i)
        by_name[spans_[i].name] += self[i];
    return by_name;
}

std::vector<double>
Ledger::durationsUs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (name == s.name)
            out.push_back(static_cast<double>(s.durationNs()) / 1e3);
    return out;
}

u64
Ledger::totalNs(const std::string &name) const
{
    u64 total = 0;
    for (const Span &s : spans_)
        if (name == s.name)
            total += s.durationNs();
    return total;
}

bool
Ledger::writeJson(const std::string &path) const
{
    using interf::Json;
    Json doc = Json::object();
    Json requests = Json::array();
    for (const std::string &r : requests_)
        requests.push(Json(r));
    doc.set("requests", std::move(requests));
    Json spans = Json::array();
    const u64 origin = spans_.empty() ? 0 : spans_.front().startNs;
    for (const Span &s : spans_) {
        Json j = Json::object();
        j.set("name", s.name);
        j.set("start_ns", s.startNs - origin);
        j.set("end_ns", s.endNs - origin);
        j.set("parent", static_cast<i64>(s.parent));
        j.set("request", static_cast<u64>(s.request));
        j.set("item", s.item);
        spans.push(std::move(j));
    }
    doc.set("spans", std::move(spans));
    std::ofstream out(path);
    out << doc.dump() << "\n";
    return static_cast<bool>(out.flush());
}

} // namespace perfbench
