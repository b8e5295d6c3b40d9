/**
 * @file
 * The "metrics" object of a BENCH_*.json is deterministic (DESIGN.md
 * §9): two runs of the serving and million-tenants benches, run as
 * real subprocesses at a tiny scale, must write byte-identical
 * metrics, while their wall-clock and scheduling-dependent values
 * sit under "timing".
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>

namespace fs = std::filesystem;

namespace
{

class TempDir
{
  public:
    explicit TempDir(const std::string &leaf)
        : path_(fs::temp_directory_path() / leaf)
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~TempDir() { fs::remove_all(path_); }
    std::string str() const { return path_.string(); }

  private:
    fs::path path_;
};

/** Run @p binary with @p env prefixed, its JSON written to @p dir;
 *  return the text of BENCH_<bench>.json. */
std::string
runBench(const std::string &env, const char *binary,
         const std::string &dir, const std::string &bench)
{
    const std::string command = "MOSAIC_JSON_DIR=" + dir + " " + env +
                                " " + binary + " >/dev/null 2>&1";
    const int raw = std::system(command.c_str());
    EXPECT_TRUE(raw != -1 && WIFEXITED(raw) && WEXITSTATUS(raw) == 0)
        << command;
    std::ifstream in(dir + "/BENCH_" + bench + ".json");
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

/** The "metrics" object, which the writer puts last. */
std::string
metricsOf(const std::string &json)
{
    const std::size_t at = json.find("\"metrics\":");
    return at == std::string::npos ? std::string{} : json.substr(at);
}

/** The "timing" object, which the writer puts just before metrics. */
std::string
timingOf(const std::string &json)
{
    const std::size_t at = json.find("\"timing\":");
    const std::size_t end = json.find("\"metrics\":");
    return at == std::string::npos || end == std::string::npos
               ? std::string{}
               : json.substr(at, end - at);
}

TEST(BenchMetrics, ServingMetricsAreByteIdenticalAcrossRuns)
{
    const TempDir a("bench_metrics_serving_a");
    const TempDir b("bench_metrics_serving_b");
    const std::string env = "MOSAIC_SERVE_REQUESTS=200 "
                            "MOSAIC_SERVE_SCALE=0.02 "
                            "MOSAIC_SERVE_WORKERS=2 MOSAIC_THREADS=2";
    const std::string first =
        runBench(env, BENCH_SERVING_BIN, a.str(), "serving");
    const std::string second =
        runBench(env, BENCH_SERVING_BIN, b.str(), "serving");
    const std::string metrics = metricsOf(first);
    ASSERT_FALSE(metrics.empty());
    EXPECT_EQ(metrics, metricsOf(second));
    EXPECT_NE(metrics.find("\"serve.gpu_kv.stateDigest\""),
              std::string::npos);
    EXPECT_EQ(metrics.find("submitted"), std::string::npos);
    EXPECT_EQ(metrics.find("latency."), std::string::npos);
    const std::string timing = timingOf(first);
    for (const char *key :
         {"\"serve.overload.submitted\"", "\"serve.overload.shedTotal\"",
          "\"serve.gpu_kv.opsPerSec\"", "\"latency.overload.count\""}) {
        EXPECT_NE(timing.find(key), std::string::npos) << key;
    }
}

TEST(BenchMetrics, MillionTenantsMetricsAreByteIdenticalAcrossThreads)
{
    const TempDir a("bench_metrics_mt_a");
    const TempDir b("bench_metrics_mt_b");
    const std::string one = runBench(
        "MOSAIC_MT_SCALE=0.02 MOSAIC_THREADS=1",
        BENCH_MILLION_TENANTS_BIN, a.str(), "million_tenants");
    const std::string four = runBench(
        "MOSAIC_MT_SCALE=0.02 MOSAIC_THREADS=4",
        BENCH_MILLION_TENANTS_BIN, b.str(), "million_tenants");
    const std::string metrics = metricsOf(one);
    ASSERT_FALSE(metrics.empty());
    EXPECT_EQ(metrics, metricsOf(four));
    EXPECT_EQ(metrics.find("latency."), std::string::npos);
    EXPECT_EQ(metrics.find("throughput"), std::string::npos);
    const std::string timing = timingOf(one);
    EXPECT_NE(timing.find("\"mt.throughputTouchesPerSec\""),
              std::string::npos);
    EXPECT_NE(timing.find("\"latency.touchBlock.count\""),
              std::string::npos);
}

} // namespace
