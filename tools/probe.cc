#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <vector>

#include "interferometry/campaign.hh"
#include "interferometry/model.hh"
#include "stats/descriptive.hh"
#include "workloads/spec.hh"

using namespace interf;

int
main(int argc, char **argv)
{
    u32 layouts = argc > 1 ? atoi(argv[1]) : 12;
    u64 insts = argc > 2 ? atoll(argv[2]) : 500000;
    const char *only = argc > 3 ? argv[3] : nullptr;
    std::printf("%-16s %7s %7s %7s %7s %7s %7s %7s %7s %6s %6s\n",
                "bench", "cpi", "sdCpi", "mpki", "sdMpki", "l1i",
                "l2", "slope", "icept", "r2", "t");
    for (const auto &entry : workloads::specSuite()) {
        if (only && entry.profile.name.find(only) == std::string::npos)
            continue;
        std::clock_t t0 = std::clock();
        interferometry::CampaignConfig cfg;
        cfg.instructionBudget = insts;
        cfg.initialLayouts = layouts;
        cfg.maxLayouts = layouts;
        interferometry::Campaign camp(entry.profile, cfg);
        auto samples = camp.measureLayouts(0, layouts);
        std::vector<double> cpi, mpki;
        cpi.reserve(samples.size());
        mpki.reserve(samples.size());
        for (auto &m : samples) { cpi.push_back(m.cpi); mpki.push_back(m.mpki); }
        interferometry::PerformanceModel model(entry.profile.name, samples);
        double sec = double(std::clock() - t0) / CLOCKS_PER_SEC;
        std::printf("%-16s %7.3f %7.4f %7.3f %7.4f %7.3f %7.3f %7.3f %7.3f %6.2f %6.2f  (%4.1fs, insts=%llu ev=%zu)\n",
                    entry.profile.name.c_str(),
                    stats::mean(cpi), samples.size()>1?stats::sampleStdDev(cpi):0,
                    stats::mean(mpki), samples.size()>1?stats::sampleStdDev(mpki):0,
                    model.meanL1iMpki(), model.meanL2Mpki(),
                    model.branchModel().fit.slope(),
                    model.branchModel().fit.intercept(),
                    model.branchModel().fit.r2(),
                    model.branchModel().test.statistic,
                    sec,
                    (unsigned long long)camp.trace().instCount,
                    camp.trace().events.size());
        std::fflush(stdout);
    }
    return 0;
}
