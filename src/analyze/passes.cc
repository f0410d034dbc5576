/**
 * @file
 * Soundness pass plumbing: the composed PassManager, the fail-closed
 * trust-boundary helper Campaign/FitnessOracle call, and the
 * config-override parser the analyze CLI and CI sweeps use.
 */

#include "analyze/analyze.hh"

#include <cstdlib>

#include "core/config.hh"

#include "util/logging.hh"

namespace interf::analyze
{

verify::PassManager
soundnessPasses()
{
    verify::PassManager pm;
    pm.add(makeConfigSoundness()).add(makePlanBounds());
    return pm;
}

verify::VerifyResult
analyzeMachine(const core::MachineConfig &machine,
               const trace::ReplayPlan *plan,
               const trace::Program *prog,
               const std::string &path)
{
    verify::Artifacts a;
    a.machine = &machine;
    a.plan = plan;
    a.program = prog;
    a.path = path;
    return soundnessPasses().run(a);
}

const core::MachineConfig &
requireSoundMachine(const core::MachineConfig &machine,
                    const trace::ReplayPlan *plan, const char *what)
{
    verify::VerifyResult result = analyzeMachine(
        machine, plan, nullptr,
        strprintf("<machine '%s'>", machine.name.c_str()));
    verify::requireClean(result, what);
    return machine;
}

namespace
{

/** Parse "64", "32k", "6m" into bytes; false on garbage. */
bool
parseSize(const std::string &text, u64 *out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    u64 value = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str())
        return false;
    std::string suffix(end);
    if (suffix == "" || suffix == "b")
        *out = value;
    else if (suffix == "k" || suffix == "K")
        *out = value << 10;
    else if (suffix == "m" || suffix == "M")
        *out = value << 20;
    else
        return false;
    return true;
}

bool
applyCacheKey(cache::CacheConfig &cfg, const std::string &field,
              const std::string &value, std::string *error)
{
    u64 n = 0;
    if (field == "repl") {
        if (value == "lru")
            cfg.replacement = cache::Replacement::Lru;
        else if (value == "random")
            cfg.replacement = cache::Replacement::Random;
        else {
            *error = strprintf("unknown replacement '%s' (lru|random)",
                               value.c_str());
            return false;
        }
        return true;
    }
    if (!parseSize(value, &n)) {
        *error = strprintf("bad numeric value '%s'", value.c_str());
        return false;
    }
    if (field == "size")
        cfg.sizeBytes = n;
    else if (field == "assoc")
        cfg.assoc = static_cast<u32>(n);
    else if (field == "line")
        cfg.lineBytes = static_cast<u32>(n);
    else {
        *error = strprintf("unknown cache field '%s' "
                           "(size|assoc|line|repl)",
                           field.c_str());
        return false;
    }
    return true;
}

} // anonymous namespace

bool
applyConfigOverride(core::MachineConfig &machine,
                    const std::string &spec, std::string *error)
{
    std::string err;
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;

        size_t eq = item.find('=');
        size_t dot = item.find('.');
        if (eq == std::string::npos || dot == std::string::npos ||
            dot > eq) {
            err = strprintf("override '%s' is not unit.field=value",
                            item.c_str());
            break;
        }
        std::string unit = item.substr(0, dot);
        std::string field = item.substr(dot + 1, eq - dot - 1);
        std::string value = item.substr(eq + 1);

        if (unit == "l1i" || unit == "l1d" || unit == "l2") {
            cache::CacheConfig &cfg =
                unit == "l1i"   ? machine.hierarchy.l1i
                : unit == "l1d" ? machine.hierarchy.l1d
                                : machine.hierarchy.l2;
            if (!applyCacheKey(cfg, field, value, &err))
                break;
        } else if (unit == "btb") {
            u64 n = 0;
            if (!parseSize(value, &n)) {
                err = strprintf("bad numeric value '%s'",
                                value.c_str());
                break;
            }
            if (field == "sets")
                machine.btbSets = static_cast<u32>(n);
            else if (field == "ways")
                machine.btbWays = static_cast<u32>(n);
            else {
                err = strprintf("unknown btb field '%s' (sets|ways)",
                                field.c_str());
                break;
            }
        } else {
            err = strprintf("unknown unit '%s' (l1i|l1d|l2|btb)",
                            unit.c_str());
            break;
        }
    }
    if (err.empty())
        return true;
    if (error)
        *error = err;
    return false;
}

} // namespace interf::analyze
