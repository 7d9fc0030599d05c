// campaign_runner's numeric options go through the service's strict
// parsers and bounds (DESIGN §12): a bad value exits 2, naming the option
// and the value, before any simulation runs.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

namespace {

struct CliRun {
    int code = -1;
    std::string output;  ///< stdout and stderr
};

CliRun run_cli(const std::string& args) {
    const std::string cmd =
        std::string(CAMPAIGN_RUNNER_PATH) + " " + args + " 2>&1";
    CliRun r;
    FILE* p = popen(cmd.c_str(), "r");
    if (p == nullptr) return r;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, p)) > 0) r.output.append(buf, n);
    const int status = pclose(p);
    if (WIFEXITED(status)) r.code = WEXITSTATUS(status);
    return r;
}

struct BadValue {
    const char* name;
    const char* option;
    const char* value;
};

void PrintTo(const BadValue& b, std::ostream* os) {
    *os << b.option << "='" << b.value << "'";
}

class RunnerCliBadValue : public ::testing::TestWithParam<BadValue> {};

TEST_P(RunnerCliBadValue, ExitsTwoBeforeAnySimulation) {
    const BadValue& b = GetParam();
    // A one-scenario closure campaign, so an accepted value would run it.
    const CliRun r =
        run_cli(std::string("--campaign closure --batches 1 --batch-size 1 ") +
                b.option + " '" + b.value + "'");
    EXPECT_EQ(r.code, 2) << r.output;
    EXPECT_NE(r.output.find(std::string("bad value ") + b.option + "='" +
                            b.value + "'"),
              std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("campaign 'closure'"), std::string::npos)
        << "a simulation started: " << r.output;
}

INSTANTIATE_TEST_SUITE_P(
    Options, RunnerCliBadValue,
    ::testing::Values(
        BadValue{"TargetNan", "--target", "nan"},
        BadValue{"TargetInf", "--target", "inf"},
        BadValue{"TargetNegative", "--target", "-1"},
        BadValue{"TargetAbove1000", "--target", "1000.5"},
        BadValue{"SeedsNegative", "--seeds", "-1"},
        BadValue{"SeedsZero", "--seeds", "0"},
        BadValue{"SeedsAbove4096", "--seeds", "4097"},
        BadValue{"BatchesZero", "--batches", "0"},
        BadValue{"BatchSizeWraps", "--batch-size", "4294967298"},
        BadValue{"JobsWraps", "--jobs", "4294967298"},
        BadValue{"JobsAbove256", "--jobs", "257"},
        BadValue{"SeedNegative", "--seed", "-1"},
        BadValue{"SeedHex", "--seed", "0x10"},
        BadValue{"SeedAboveU64", "--seed", "18446744073709551616"},
        BadValue{"CkptAtZero", "--ckpt-at", "0"},
        BadValue{"CkptAtNegative", "--ckpt-at", "-1"},
        BadValue{"FramesNegative", "--frames", "-1"},
        BadValue{"FramesAboveUnsigned", "--frames", "4294967296"},
        BadValue{"TimeoutSigned", "--timeout-ms", "+5"},
        BadValue{"RetriesSpace", "--retries", " 1"}),
    [](const ::testing::TestParamInfo<BadValue>& info) {
        return std::string(info.param.name);
    });

// A leading zero is decimal, as in the service: --seed 010 is seed 10.
// The standalone checkpoint digest hashes the seeded configuration.
TEST(RunnerCli, SeedIsDecimal) {
    const CliRun ten = run_cli("--seed 10 --ckpt-at 64");
    const CliRun padded = run_cli("--seed 010 --ckpt-at 64");
    const CliRun eight = run_cli("--seed 8 --ckpt-at 64");
    ASSERT_EQ(ten.code, 0) << ten.output;
    ASSERT_EQ(padded.code, 0) << padded.output;
    ASSERT_EQ(eight.code, 0) << eight.output;
    EXPECT_EQ(padded.output, ten.output);
    EXPECT_NE(padded.output, eight.output);
}

// The bounds are inclusive: every extreme good value still parses.
TEST(RunnerCli, BoundaryValuesParse) {
    const CliRun r = run_cli(
        "--jobs 256 --seeds 4096 --batches 4096 --batch-size 4096"
        " --target 1000 --timeout-ms 4294967295 --retries 0 --frames 0"
        " --seed 18446744073709551615 --ckpt-at 64");
    EXPECT_EQ(r.code, 0) << r.output;
}

}  // namespace
