/**
 * @file
 * The bench command-line parser: typed stores, --opt value and
 * --opt=value spellings, flags, optional-value options, positionals,
 * error collection (unknown options, garbage values, missing required
 * arguments) and usage generation; and the run options every bench and
 * examples/simulate register through RunOptions::addTo().
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <vector>

#include "bench/arg_parser.hh"
#include "bench/bench_common.hh"

using namespace nocstar;
using namespace nocstar::bench;

namespace
{

/** argv builder: parse() wants a mutable char** shaped like main's. */
struct Argv
{
    std::vector<std::string> storage;
    std::vector<char *> ptrs;

    explicit Argv(std::initializer_list<const char *> args)
    {
        storage.emplace_back("prog");
        for (const char *a : args)
            storage.emplace_back(a);
        for (std::string &s : storage)
            ptrs.push_back(s.data());
    }

    int argc() const { return static_cast<int>(ptrs.size()); }
    char **argv() { return ptrs.data(); }
};

/** A parser carrying exactly the shared run options. */
struct RunParser
{
    RunOptions options;
    ArgParser parser{"t", ""};

    RunParser() { options.addTo(parser); }

    bool
    parse(std::initializer_list<const char *> args)
    {
        Argv argv(args);
        return parser.parse(argv.argc(), argv.argv());
    }
};

} // namespace

TEST(ParseUnsigned, AcceptsNumbersRejectsGarbage)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(sim::parseUnsigned("12345", v));
    EXPECT_EQ(v, 12345u);
    EXPECT_TRUE(sim::parseUnsigned("0", v));
    EXPECT_FALSE(sim::parseUnsigned("", v));
    EXPECT_FALSE(sim::parseUnsigned("12abc", v));
    EXPECT_FALSE(sim::parseUnsigned("abc", v));
    EXPECT_FALSE(sim::parseUnsigned("-5", v));
    EXPECT_FALSE(sim::parseUnsigned("+5", v));
    EXPECT_FALSE(sim::parseUnsigned(" 5", v));
    EXPECT_FALSE(sim::parseUnsigned("99999999999999999999999", v));
}

TEST(ParseUnsigned, HexForAddresses)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(sim::parseUnsigned("12abc", v, 16));
    EXPECT_EQ(v, 0x12abcu);
    EXPECT_TRUE(sim::parseUnsigned("ffffffffffffffff", v, 16));
    EXPECT_EQ(v, ~std::uint64_t{0});
    EXPECT_FALSE(sim::parseUnsigned("12zz", v, 16));
    EXPECT_FALSE(sim::parseUnsigned("-1", v, 16));
    EXPECT_FALSE(sim::parseUnsigned("10000000000000000", v, 16));
}

TEST(ParseDouble, AcceptsNumbersRejectsGarbage)
{
    double v = 0;
    EXPECT_TRUE(sim::parseDouble("0.25", v));
    EXPECT_DOUBLE_EQ(v, 0.25);
    EXPECT_TRUE(sim::parseDouble("-1.5", v));
    EXPECT_FALSE(sim::parseDouble("", v));
    EXPECT_FALSE(sim::parseDouble("1.5x", v));
    EXPECT_FALSE(sim::parseDouble("x", v));
}

TEST(ArgParser, BothOptionSpellingsWork)
{
    std::uint64_t n = 0;
    double x = 0;
    std::string s;
    ArgParser parser("t", "");
    parser.option("num", &n, "").option("rate", &x, "")
        .option("file", &s, "");
    Argv a{"--num", "7", "--rate=0.5", "--file", "out.json"};
    EXPECT_TRUE(parser.parse(a.argc(), a.argv()));
    EXPECT_EQ(n, 7u);
    EXPECT_DOUBLE_EQ(x, 0.5);
    EXPECT_EQ(s, "out.json");
    EXPECT_TRUE(parser.seen("num"));
    EXPECT_FALSE(parser.seen("nope"));
}

TEST(ArgParser, FlagsAndOptionalValues)
{
    bool flag = false;
    bool bare = false;
    std::string value;
    ArgParser parser("t", "");
    parser.flag("verbose", &flag, "");
    parser.optionalValue(
        "trace", [&bare] { bare = true; },
        [&value](const std::string &v) {
            value = v;
            return true;
        },
        "");
    Argv a{"--verbose", "--trace"};
    EXPECT_TRUE(parser.parse(a.argc(), a.argv()));
    EXPECT_TRUE(flag);
    EXPECT_TRUE(bare);
    EXPECT_TRUE(value.empty());

    ArgParser parser2("t", "");
    parser2.optionalValue(
        "trace", [] {},
        [&value](const std::string &v) {
            value = v;
            return true;
        },
        "");
    Argv b{"--trace=fabric,walk"};
    EXPECT_TRUE(parser2.parse(b.argc(), b.argv()));
    EXPECT_EQ(value, "fabric,walk");
}

TEST(ArgParser, OptionalValueNeverEatsNextArgument)
{
    bool bare = false;
    std::uint64_t pos = 0;
    ArgParser parser("t", "");
    parser.optionalValue(
        "trace", [&bare] { bare = true; },
        [](const std::string &) { return true; }, "");
    parser.positional("N", &pos, "");
    Argv a{"--trace", "42"};
    EXPECT_TRUE(parser.parse(a.argc(), a.argv()));
    EXPECT_TRUE(bare);
    EXPECT_EQ(pos, 42u); // went to the positional, not --trace
}

TEST(ArgParser, PositionalsFillInOrder)
{
    std::string name;
    std::uint64_t count = 99;
    ArgParser parser("t", "");
    parser.positional("NAME", &name, "");
    parser.positional("COUNT", &count, "");
    Argv a{"gups", "123"};
    EXPECT_TRUE(parser.parse(a.argc(), a.argv()));
    EXPECT_EQ(name, "gups");
    EXPECT_EQ(count, 123u);

    // Absent optional positionals keep their defaults.
    std::uint64_t untouched = 7;
    ArgParser parser2("t", "");
    parser2.positional("N", &untouched, "");
    Argv b{};
    EXPECT_TRUE(parser2.parse(b.argc(), b.argv()));
    EXPECT_EQ(untouched, 7u);
}

TEST(ArgParser, CollectsEveryError)
{
    std::uint64_t n = 0;
    ArgParser parser("t", "");
    parser.option("num", &n, "");
    Argv a{"--num", "abc", "--bogus", "extra", "-x"};
    EXPECT_FALSE(parser.parse(a.argc(), a.argv()));
    ASSERT_EQ(parser.errors().size(), 4u);
    EXPECT_NE(parser.errors()[0].find("invalid value 'abc'"),
              std::string::npos);
    EXPECT_NE(parser.errors()[1].find("unknown option --bogus"),
              std::string::npos);
    EXPECT_NE(parser.errors()[2].find("unexpected argument 'extra'"),
              std::string::npos);
    EXPECT_NE(parser.errors()[3].find("unknown option -x"),
              std::string::npos);
}

TEST(ArgParser, MissingValueAndRequiredPositional)
{
    std::uint64_t n = 0;
    std::string req;
    ArgParser parser("t", "");
    parser.option("num", &n, "");
    parser.positional("REQ", &req, "", /*required=*/true);
    Argv a{"--num"};
    EXPECT_FALSE(parser.parse(a.argc(), a.argv()));
    ASSERT_EQ(parser.errors().size(), 2u);
    EXPECT_NE(parser.errors()[0].find("--num needs a value"),
              std::string::npos);
    EXPECT_NE(parser.errors()[1].find("missing required argument REQ"),
              std::string::npos);
}

TEST(ArgParser, UnsignedOptionRejectsOverflowAndNegatives)
{
    unsigned n = 1;
    ArgParser parser("t", "");
    parser.option("num", &n, "");
    Argv a{"--num=4294967296"}; // 2^32: too wide for unsigned
    EXPECT_FALSE(parser.parse(a.argc(), a.argv()));

    unsigned m = 1;
    ArgParser parser2("t", "");
    parser2.option("num", &m, "");
    Argv b{"--num=-3"};
    EXPECT_FALSE(parser2.parse(b.argc(), b.argv()));
    EXPECT_EQ(m, 1u);
}

TEST(ArgParser, CustomStoreValidates)
{
    std::string mode;
    ArgParser parser("t", "");
    parser.option(
        "mode",
        [&mode](const std::string &v) {
            if (v != "fast" && v != "slow")
                return false;
            mode = v;
            return true;
        },
        "");
    Argv bad{"--mode=medium"};
    EXPECT_FALSE(parser.parse(bad.argc(), bad.argv()));

    ArgParser parser2("t", "");
    parser2.option(
        "mode",
        [&mode](const std::string &v) {
            if (v != "fast" && v != "slow")
                return false;
            mode = v;
            return true;
        },
        "");
    Argv good{"--mode=fast"};
    EXPECT_TRUE(parser2.parse(good.argc(), good.argv()));
    EXPECT_EQ(mode, "fast");
}

TEST(ArgParser, HelpIsDetectedAndUsageListsEverything)
{
    std::uint64_t n = 0;
    bool f = false;
    ArgParser parser("mybench", "does things");
    parser.positional("ACCESSES", &n, "accesses per thread");
    parser.option("jobs", &n, "worker count");
    parser.flag("fast", &f, "skip the slow part");
    Argv a{"--help"};
    EXPECT_TRUE(parser.parse(a.argc(), a.argv()));
    EXPECT_TRUE(parser.helpRequested());

    std::ostringstream usage;
    parser.printUsage(usage);
    std::string text = usage.str();
    EXPECT_NE(text.find("usage: mybench [options] [ACCESSES]"),
              std::string::npos);
    EXPECT_NE(text.find("does things"), std::string::npos);
    EXPECT_NE(text.find("--jobs N"), std::string::npos);
    EXPECT_NE(text.find("--fast"), std::string::npos);
    EXPECT_NE(text.find("accesses per thread"), std::string::npos);
    EXPECT_NE(text.find("--help"), std::string::npos);
}

TEST(ArgParser, FlagRejectsAttachedValue)
{
    bool f = false;
    ArgParser parser("t", "");
    parser.flag("fast", &f, "");
    Argv a{"--fast=1"};
    EXPECT_FALSE(parser.parse(a.argc(), a.argv()));
    EXPECT_FALSE(f);
}

TEST(RunOptions, FaultSeedOverridesThePlanInEitherOrder)
{
    const std::string plan = ::testing::TempDir() + "nocstar_args.plan";
    std::ofstream(plan) << "grant-loss 0.01\nseed 7\n";
    RunParser plan_only, seed_last, seed_first;
    ASSERT_TRUE(plan_only.parse({"--fault-plan", plan.c_str()}));
    ASSERT_TRUE(seed_last.parse(
        {"--fault-plan", plan.c_str(), "--fault-seed", "99"}));
    ASSERT_TRUE(seed_first.parse(
        {"--fault-seed", "99", "--fault-plan", plan.c_str()}));
    const cpu::SystemConfig config;
    EXPECT_EQ(plan_only.options.apply(config).org.faults.seed, 7u);
    EXPECT_EQ(seed_last.options.apply(config).org.faults.seed, 99u);
    sim::FaultPlan faults = seed_first.options.apply(config).org.faults;
    EXPECT_EQ(faults.seed, 99u);
    EXPECT_DOUBLE_EQ(faults.grantLossProb, 0.01);
}

TEST(RunOptions, FaultSeedWithoutPlanIsAnError)
{
    RunParser run;
    EXPECT_FALSE(run.parse({"--fault-seed", "99"}));
    ASSERT_EQ(run.parser.errors().size(), 1u);
    EXPECT_NE(run.parser.errors()[0].find(
                  "--fault-seed needs --fault-plan"),
              std::string::npos);
}

TEST(RunOptions, MalformedValuesAreRejected)
{
    for (const char *arg :
         {"--sample=8", "--sample=8,x", "--sample=1,2,3,4,5",
          "--lat-hist=bogus", "--progress=-1",
          // --trace is a plain flag and takes no value.
          "--trace=TLB"}) {
        RunParser run;
        EXPECT_FALSE(run.parse({arg})) << arg;
    }
}

TEST(RunOptions, RemovedKnobsAreParseErrors)
{
    // Epoch snapshots are always cumulative, a trace always samples
    // its counter tracks, and the latency histograms have no
    // per-context split.
    RunParser reset, counters, per_context;
    EXPECT_FALSE(reset.parse({"--epoch", "2000", "--epoch-reset"}));
    EXPECT_FALSE(counters.parse({"--counters", "500"}));
    EXPECT_FALSE(per_context.parse({"--lat-hist=ctx"}));
}

TEST(RunOptions, SweptFlagIsRefused)
{
    // A valid plan, so the refusal is the only error.
    const std::string plan = ::testing::TempDir() + "nocstar_swept.plan";
    std::ofstream(plan) << "grant-loss 0.01\n";
    RunParser with_flag, without_flag;
    rejectSweptFlag(with_flag.parser, "fault-plan", "the fault plan");
    rejectSweptFlag(without_flag.parser, "fault-plan", "the fault plan");
    EXPECT_FALSE(with_flag.parse({"--fault-plan", plan.c_str()}));
    ASSERT_EQ(with_flag.parser.errors().size(), 1u);
    EXPECT_NE(with_flag.parser.errors()[0].find("--fault-plan"),
              std::string::npos);
    EXPECT_TRUE(without_flag.parse({"--lat-hist"}));
}

TEST(ExitOnFatal, BadInputExitsTwoAndBugsStillThrow)
{
    EXPECT_EQ(exitOnFatal("t", [] { return 7; }), 7);
    EXPECT_EXIT(exitOnFatal("t", []() -> int { fatal("no such file"); }),
                ::testing::ExitedWithCode(2), "t: fatal: no such file");
    EXPECT_THROW(exitOnFatal("t", []() -> int { panic("bug"); }),
                 PanicError);
}

TEST(SpeedupVsPrivate, SampledRunsExitNamingSample)
{
    cpu::RunResult full, sampled;
    full.meanCycles = 200;
    sampled.meanCycles = 100;
    sampled.sampled = true;
    EXPECT_DOUBLE_EQ(speedupVsPrivate(full, full), 1.0);
    EXPECT_EXIT(speedupVsPrivate(full, sampled),
                ::testing::ExitedWithCode(2), "--sample");
    EXPECT_EXIT(speedupVsPrivate(sampled, full),
                ::testing::ExitedWithCode(2), "--sample");
}
