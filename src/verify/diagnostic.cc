#include "verify/diagnostic.hh"

#include "util/logging.hh"

namespace interf::verify
{

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::Warning:
        return "warning";
      case Severity::Error:
        return "error";
    }
    return "unknown";
}

const char *
entityKindName(EntityKind k)
{
    switch (k) {
      case EntityKind::Artifact:
        return "artifact";
      case EntityKind::ObjectFile:
        return "object-file";
      case EntityKind::Region:
        return "region";
      case EntityKind::Procedure:
        return "procedure";
      case EntityKind::Block:
        return "block";
      case EntityKind::Branch:
        return "branch";
      case EntityKind::MemRef:
        return "mem-ref";
      case EntityKind::Event:
        return "event";
      case EntityKind::MemAccess:
        return "mem-access";
      case EntityKind::Site:
        return "site";
      case EntityKind::Placement:
        return "placement";
      case EntityKind::Page:
        return "page";
      case EntityKind::Manifest:
        return "manifest";
      case EntityKind::Batch:
        return "batch";
    }
    return "unknown";
}

std::string
Diagnostic::text() const
{
    return strprintf("%s: %s: [%s] %s %llu: %s", severityName(severity),
                     artifact.c_str(), pass, entityKindName(entity),
                     static_cast<unsigned long long>(index),
                     message.c_str());
}

void
VerifyResult::add(Diagnostic d)
{
    if (d.severity == Severity::Error)
        ++errorCount_;
    diagnostics_.push_back(std::move(d));
}

void
VerifyResult::merge(const VerifyResult &other)
{
    for (const auto &d : other.diagnostics_)
        add(d);
}

std::string
VerifyResult::summary() const
{
    if (diagnostics_.empty())
        return "clean";
    return strprintf("%zu error%s, %zu warning%s", errorCount(),
                     errorCount() == 1 ? "" : "s", warningCount(),
                     warningCount() == 1 ? "" : "s");
}

void
VerifyResult::printText(std::FILE *out) const
{
    for (const auto &d : diagnostics_)
        std::fprintf(out, "%s\n", d.text().c_str());
    std::fprintf(out, "%s\n", summary().c_str());
}

namespace
{

/** Escape a string for inclusion in a JSON string literal. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

} // anonymous namespace

std::string
VerifyResult::toJson() const
{
    std::string out = strprintf(
        "{\"clean\": %s, \"errors\": %zu, \"warnings\": %zu, "
        "\"diagnostics\": [",
        ok() ? "true" : "false", errorCount(), warningCount());
    for (size_t i = 0; i < diagnostics_.size(); ++i) {
        const Diagnostic &d = diagnostics_[i];
        if (i)
            out += ", ";
        out += strprintf("{\"severity\": \"%s\", \"artifact\": \"%s\", "
                         "\"pass\": \"%s\", \"entity\": \"%s\", "
                         "\"index\": %llu, \"message\": \"%s\"}",
                         severityName(d.severity),
                         jsonEscape(d.artifact).c_str(), d.pass,
                         entityKindName(d.entity),
                         static_cast<unsigned long long>(d.index),
                         jsonEscape(d.message).c_str());
    }
    out += "]}";
    return out;
}

Sink::~Sink()
{
    if (suppressed_)
        out_.add({Severity::Warning, artifact_, pass_,
                  EntityKind::Artifact, 0,
                  strprintf("%zu further diagnostics suppressed",
                            suppressed_)});
}

void
Sink::emit(Severity severity, EntityKind entity, u64 index,
           std::string message)
{
    if (severity == Severity::Error)
        ++errors_;
    if (emitted_ >= kMaxDiagnostics) {
        ++suppressed_;
        return;
    }
    ++emitted_;
    out_.add({severity, artifact_, pass_, entity, index,
              std::move(message)});
}

} // namespace interf::verify
