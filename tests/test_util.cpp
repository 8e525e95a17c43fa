// Utility substrate: thread pool, argument parser, tables, logging.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/arg_parser.hpp"
#include "util/binary_io.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace dg::util {
namespace {

TEST(ThreadPool, ExecutesSubmittedJobs) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ReturnsValuesThroughFutures) {
  ThreadPool pool(3);
  auto future = pool.submit([](int a, int b) { return a * b; }, 6, 7);
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(1);
  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, WaitIdleBlocksUntilDone) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    (void)pool.submit([&done] { done.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 20);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 30; ++i) {
      (void)pool.submit([&done] { done.fetch_add(1); });
    }
  }  // destructor joins after draining submitted jobs
  EXPECT_EQ(done.load(), 30);
}

TEST(ThreadPool, ManySmallJobsStress) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  std::vector<std::future<void>> futures;
  futures.reserve(2000);
  for (int i = 1; i <= 2000; ++i) {
    futures.push_back(pool.submit([&sum, i] { sum.fetch_add(i); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 2000L * 2001L / 2);
}

// --- ArgParser ---

TEST(ArgParser, ParsesOptionsAndDefaults) {
  ArgParser parser("prog", "test");
  parser.add_option("bots", "100", "number of bots");
  parser.add_option("policy", "RR", "policy");
  const char* argv[] = {"prog", "--bots", "25"};
  ASSERT_TRUE(parser.parse(3, argv));
  EXPECT_EQ(parser.get_int("bots"), 25);
  EXPECT_EQ(parser.get("policy"), "RR");
}

TEST(ArgParser, ParsesEqualsSyntax) {
  ArgParser parser("prog", "test");
  parser.add_option("rate", "1.0", "rate");
  const char* argv[] = {"prog", "--rate=2.5"};
  ASSERT_TRUE(parser.parse(2, argv));
  EXPECT_DOUBLE_EQ(parser.get_double("rate"), 2.5);
}

TEST(ArgParser, ParsesFlags) {
  ArgParser parser("prog", "test");
  parser.add_flag("verbose", "more output");
  parser.add_flag("quiet", "less output");
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(parser.parse(2, argv));
  EXPECT_TRUE(parser.get_flag("verbose"));
  EXPECT_FALSE(parser.get_flag("quiet"));
}

TEST(ArgParser, CollectsPositionalArguments) {
  ArgParser parser("prog", "test");
  const char* argv[] = {"prog", "alpha", "beta"};
  ASSERT_TRUE(parser.parse(3, argv));
  EXPECT_EQ(parser.positional(), (std::vector<std::string>{"alpha", "beta"}));
}

TEST(ArgParser, RejectsUnknownOption) {
  ArgParser parser("prog", "test");
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_FALSE(parser.parse(3, argv));
}

TEST(ArgParser, RejectsMissingValue) {
  ArgParser parser("prog", "test");
  parser.add_option("n", "1", "count");
  const char* argv[] = {"prog", "--n"};
  EXPECT_FALSE(parser.parse(2, argv));
}

TEST(ArgParser, HelpReturnsFalse) {
  ArgParser parser("prog", "test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(parser.parse(2, argv));
}

TEST(ArgParser, GetUndeclaredThrows) {
  ArgParser parser("prog", "test");
  EXPECT_THROW((void)parser.get("ghost"), std::invalid_argument);
}

TEST(ArgParser, UsageMentionsOptionsAndDefaults) {
  ArgParser parser("prog", "does things");
  parser.add_option("bots", "100", "number of bots");
  const std::string usage = parser.usage();
  EXPECT_NE(usage.find("--bots"), std::string::npos);
  EXPECT_NE(usage.find("default: 100"), std::string::npos);
}

// --- Table ---

TEST(Table, RendersAlignedColumns) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "12345"});
  std::ostringstream oss;
  table.render(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("| alpha"), std::string::npos);
  EXPECT_NE(out.find("| 12345"), std::string::npos);
  EXPECT_NE(out.find("+-"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, EmptyHeaderThrows) { EXPECT_THROW(Table({}), std::invalid_argument); }

TEST(Table, WritesCsv) {
  Table table({"x", "y"});
  table.add_row({"1", "hello, world"});
  std::ostringstream oss;
  table.write_csv(oss);
  EXPECT_EQ(oss.str(), "x,y\n1,\"hello, world\"\n");
}

TEST(CsvEscape, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(FormatDouble, RespectsPrecision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(1000.0, 0), "1000");
}

// --- logging ---

TEST(Logging, ParsesLevels) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("WARN"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("garbage"), LogLevel::kInfo);
}

TEST(Logging, LevelNamesRoundTrip) {
  EXPECT_EQ(to_string(LogLevel::kError), "ERROR");
  EXPECT_EQ(parse_log_level(std::string(to_string(LogLevel::kTrace))), LogLevel::kTrace);
}

TEST(Logging, EnabledRespectsThreshold) {
  Logger& logger = Logger::global();
  const LogLevel saved = logger.level();
  logger.set_level(LogLevel::kWarn);
  EXPECT_TRUE(logger.enabled(LogLevel::kError));
  EXPECT_FALSE(logger.enabled(LogLevel::kInfo));
  logger.set_level(saved);
}

TEST(ByteReader, ReadsZeroLengthArrayIntoEmptyVector) {
  // An empty vector's data() may be null; reading zero elements into it must
  // neither touch it nor move the cursor.
  std::vector<std::uint8_t> bytes;
  put_pod(bytes, std::uint64_t{0});
  put_pod(bytes, 7.5);
  ByteReader reader(bytes.data(), bytes.size());
  const auto count = reader.pod<std::uint64_t>();
  std::vector<double> values(count);
  reader.array(values.data(), values.size());
  EXPECT_TRUE(values.empty());
  EXPECT_EQ(reader.remaining(), sizeof(double));
  EXPECT_EQ(reader.pod<double>(), 7.5);
  EXPECT_TRUE(reader.exhausted());
  // Zero bytes are still readable at the very end of the input.
  reader.array(values.data(), 0);
  EXPECT_TRUE(reader.exhausted());
}

TEST(ByteReader, ThrowsOnTruncatedArray) {
  std::vector<std::uint8_t> bytes;
  put_pod(bytes, 1.0);
  ByteReader reader(bytes.data(), bytes.size());
  std::vector<double> values(2);
  EXPECT_THROW(reader.array(values.data(), values.size()), std::runtime_error);
}

}  // namespace
}  // namespace dg::util
