// The bench-artifact checker, `gryphon_report --check-bench`: every
// committed BENCH_*.json and a fresh `bench_wallclock --smoke --out`
// artifact pass it; a violated gate, a gate whose value is not the recorded
// one, a baseline-floor miss and a missing field or block each exit 1.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

namespace {

namespace fs = std::filesystem;

/// Exit status of `command` (stdout/stderr discarded), -1 on abnormal exit.
int run(const std::string& command) {
  const int status = std::system((command + " > /dev/null 2>&1").c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int check_bench(const fs::path& file, const fs::path& baseline = {}) {
  std::string command = std::string(GRYPHON_REPORT_BIN) + " --check-bench " + file.string();
  if (!baseline.empty()) command += " --baseline " + baseline.string();
  return run(command);
}

fs::path temp_file(const std::string& name) {
  return fs::temp_directory_path() /
         ("gryphon_check_bench_" + std::to_string(::getpid()) + "_" + name);
}

fs::path write_fixture(const std::string& name, const std::string& text) {
  const fs::path path = temp_file(name);
  std::ofstream(path) << text;
  return path;
}

/// A one-workload artifact: `rate` is baseline-gated at tolerance 0.15,
/// `errors` is gated == 0 and claimed to hold `gate_errors`, and
/// end_to_end.p99_ms is gated <= 1500 from the latency block.
std::string artifact(double rate, int errors, int gate_errors, bool with_latency = true,
                     bool with_host = true) {
  std::string s = "{\"schema\": \"gryphon-bench-v2\",\n";
  if (with_host) s += "\"host\": {\"machine\": \"x86_64\", \"kernel\": \"6.1\", \"nproc\": 4},\n";
  s += "\"build_type\": \"Release\",\n\"workloads\": [{\n"
       "\"name\": \"w\", \"variant\": \"run\", \"reps\": 3,\n"
       "\"metrics\": {\"rate\": " + std::to_string(rate) +
       ", \"errors\": " + std::to_string(errors) + "},\n"
       "\"spread\": {\"rate\": {\"min\": " + std::to_string(rate * 0.9) +
       ", \"max\": " + std::to_string(rate) + "}},\n"
       "\"counters\": {},\n";
  if (with_latency) s += "\"latency\": {\"end_to_end.p99_ms\": 800},\n";
  s += "\"gates\": {\"errors\": {\"value\": " + std::to_string(gate_errors) +
       ", \"bound\": 0, \"op\": \"==\"},\n"
       "  \"end_to_end.p99_ms\": {\"value\": 800, \"bound\": 1500, \"op\": \"<=\"}},\n"
       "\"baseline_tolerance\": {\"rate\": 0.15}\n}]}\n";
  return s;
}

TEST(BenchCheck, EveryCommittedArtifactPasses) {
  int artifacts = 0;
  for (const auto& entry : fs::directory_iterator(GRYPHON_SOURCE_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) != 0 || entry.path().extension() != ".json") continue;
    ++artifacts;
    EXPECT_EQ(check_bench(entry.path()), 0) << name;
  }
  EXPECT_GE(artifacts, 5);
}

TEST(BenchCheck, FreshWallclockSmokeArtifactPasses) {
  const fs::path out = temp_file("smoke.json");
  ASSERT_EQ(run(std::string(GRYPHON_WALLCLOCK_BIN) + " --smoke --out " + out.string()), 0);
  EXPECT_EQ(check_bench(out), 0);
  fs::remove(out);
}

TEST(BenchCheck, ValidFixturePassesAndMeetsItsFloor) {
  const fs::path file = write_fixture("valid.json", artifact(100, 0, 0));
  const fs::path committed = write_fixture("valid_committed.json", artifact(110, 0, 0));
  EXPECT_EQ(check_bench(file), 0);
  EXPECT_EQ(check_bench(file, committed), 0);  // 100 >= 0.85 x 110
  fs::remove(file);
  fs::remove(committed);
}

TEST(BenchCheck, ViolatedGateFails) {
  const fs::path file = write_fixture("violated.json", artifact(100, 2, 2));
  EXPECT_EQ(check_bench(file), 1);
  fs::remove(file);
}

TEST(BenchCheck, GateValueMustBeTheRecordedOne) {
  // The gate claims errors == 0 holds, but the run recorded 2 errors.
  const fs::path file = write_fixture("untrusted.json", artifact(100, 2, 0));
  EXPECT_EQ(check_bench(file), 1);
  fs::remove(file);
}

TEST(BenchCheck, BaselineFloorMissFails) {
  const fs::path file = write_fixture("slow.json", artifact(80, 0, 0));
  const fs::path committed = write_fixture("slow_committed.json", artifact(100, 0, 0));
  EXPECT_EQ(check_bench(file), 0);             // no floor without a baseline
  EXPECT_EQ(check_bench(file, committed), 1);  // 80 < 0.85 x 100
  fs::remove(file);
  fs::remove(committed);
}

TEST(BenchCheck, MissingFieldOrBlockFails) {
  const fs::path no_latency =
      write_fixture("no_latency.json", artifact(100, 0, 0, /*with_latency=*/false));
  const fs::path no_host = write_fixture(
      "no_host.json", artifact(100, 0, 0, /*with_latency=*/true, /*with_host=*/false));
  EXPECT_EQ(check_bench(no_latency), 1);
  EXPECT_EQ(check_bench(no_host), 1);
  fs::remove(no_latency);
  fs::remove(no_host);
}

}  // namespace
