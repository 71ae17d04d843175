/**
 * @file
 * Tests for the skeleton analyzer: tree edit distance, clustering,
 * and network/thread model inference -- plus the topology analyzer.
 */

#include <gtest/gtest.h>

#include "app/service.h"
#include "core/skeleton_analyzer.h"
#include "core/topology_analyzer.h"
#include "trace/tracer.h"

namespace {

using namespace ditto;
using namespace ditto::core;

CallTree
tree(std::vector<std::string> paths)
{
    return CallTree::fromPaths(paths);
}

TEST(CallTree, BuildsFromPaths)
{
    const CallTree t = tree({"/a", "/a/b", "/a/c", "/d"});
    EXPECT_EQ(t.size(), 5u);  // root + a,b,c,d
}

TEST(TreeEditDistance, IdenticalTreesZero)
{
    const CallTree a = tree({"/x", "/x/y", "/z"});
    const CallTree b = tree({"/x", "/x/y", "/z"});
    EXPECT_DOUBLE_EQ(treeEditDistance(a, b), 0.0);
}

TEST(TreeEditDistance, SingleRelabelCostsOne)
{
    const CallTree a = tree({"/x", "/x/y"});
    const CallTree b = tree({"/x", "/x/q"});
    EXPECT_DOUBLE_EQ(treeEditDistance(a, b), 1.0);
}

TEST(TreeEditDistance, InsertionCostsOne)
{
    const CallTree a = tree({"/x"});
    const CallTree b = tree({"/x", "/x/y"});
    EXPECT_DOUBLE_EQ(treeEditDistance(a, b), 1.0);
}

TEST(TreeEditDistance, DisjointTreesCostBounded)
{
    const CallTree a = tree({"/a", "/a/b"});
    const CallTree b = tree({"/c", "/c/d", "/e"});
    const double d = treeEditDistance(a, b);
    // At most delete all of a's non-root + insert all of b's
    // non-root; at least the size difference.
    EXPECT_GE(d, 1.0);
    EXPECT_LE(d, 5.0);
}

TEST(TreeEditDistance, Symmetric)
{
    const CallTree a = tree({"/p", "/p/q", "/p/q/r", "/s"});
    const CallTree b = tree({"/p", "/p/z", "/s", "/s/t"});
    EXPECT_DOUBLE_EQ(treeEditDistance(a, b), treeEditDistance(b, a));
}

TEST(Agglomerative, TwoObviousGroups)
{
    // 0-1-2 close; 3-4 close; groups far apart.
    std::vector<std::vector<double>> d(5, std::vector<double>(5, 0.9));
    auto close = [&](int i, int j) { d[i][j] = d[j][i] = 0.05; };
    close(0, 1);
    close(1, 2);
    close(0, 2);
    close(3, 4);
    for (int i = 0; i < 5; ++i)
        d[i][i] = 0;
    const auto clusters = agglomerativeCluster(d, 0.3);
    EXPECT_EQ(clusters[0], clusters[1]);
    EXPECT_EQ(clusters[1], clusters[2]);
    EXPECT_EQ(clusters[3], clusters[4]);
    EXPECT_NE(clusters[0], clusters[3]);
}

TEST(Agglomerative, ThresholdZeroKeepsSingletons)
{
    std::vector<std::vector<double>> d(3, std::vector<double>(3, 0.5));
    for (int i = 0; i < 3; ++i)
        d[i][i] = 0;
    const auto clusters = agglomerativeCluster(d, 0.01);
    EXPECT_NE(clusters[0], clusters[1]);
    EXPECT_NE(clusters[1], clusters[2]);
}

// ---------------------------------------------------------------------------
// Skeleton inference from synthetic observations.
// ---------------------------------------------------------------------------

profile::ThreadObservation
worker_obs(const std::string &name, bool epoll, std::uint64_t reads,
           std::uint64_t emptyReads = 0)
{
    profile::ThreadObservation obs;
    obs.name = name;
    obs.callPaths = {"/fetch", "/fetch/handle", "/fetch/respond"};
    obs.syscallCounts[static_cast<int>(app::SysKind::SocketRead)] =
        reads;
    if (emptyReads) {
        obs.emptySyscallCounts[static_cast<int>(
            app::SysKind::SocketRead)] = emptyReads;
    }
    if (epoll) {
        obs.syscallCounts[static_cast<int>(app::SysKind::EpollWait)] =
            reads;
    }
    obs.syscallCounts[static_cast<int>(app::SysKind::SocketWrite)] =
        reads;
    return obs;
}

profile::ThreadObservation
background_obs(const std::string &name, std::uint64_t sleeps,
               std::uint64_t pwrites = 0)
{
    profile::ThreadObservation obs;
    obs.name = name;
    obs.callPaths = {"/housekeeping"};
    obs.syscallCounts[static_cast<int>(app::SysKind::Nanosleep)] =
        sleeps;
    if (pwrites) {
        obs.syscallCounts[static_cast<int>(app::SysKind::Pwrite)] =
            pwrites;
    }
    return obs;
}

TEST(SkeletonAnalyzer, InfersIoMultiplexPool)
{
    std::vector<profile::ThreadObservation> threads;
    for (int i = 0; i < 4; ++i)
        threads.push_back(
            worker_obs(std::string("w").append(std::to_string(i)), true, 500));
    threads.push_back(background_obs("bg", 20));

    const SkeletonInference inf = analyzeSkeleton(
        threads, sim::milliseconds(200), 16, 0.0);
    EXPECT_EQ(inf.serverModel, app::ServerModel::IoMultiplex);
    EXPECT_EQ(inf.workers, 4u);
    EXPECT_FALSE(inf.threadPerConnection);
    ASSERT_EQ(inf.background.size(), 1u);
    EXPECT_EQ(inf.background[0].count, 1u);
    // 20 sleeps over 200ms -> ~10ms period.
    EXPECT_NEAR(static_cast<double>(inf.background[0].period),
                static_cast<double>(sim::milliseconds(10)),
                static_cast<double>(sim::milliseconds(3)));
    EXPECT_EQ(inf.clientModel, app::ClientModel::Sync);
}

TEST(SkeletonAnalyzer, InfersThreadPerConnection)
{
    std::vector<profile::ThreadObservation> threads;
    for (int i = 0; i < 16; ++i) {
        threads.push_back(
            worker_obs("conn" + std::to_string(i), false, 100));
    }
    const SkeletonInference inf = analyzeSkeleton(
        threads, sim::milliseconds(200), 16, 0.0);
    EXPECT_EQ(inf.serverModel, app::ServerModel::BlockingPerConn);
    EXPECT_TRUE(inf.threadPerConnection);
}

TEST(SkeletonAnalyzer, InfersNonBlockingFromEmptyReads)
{
    std::vector<profile::ThreadObservation> threads;
    // Polling threads: far more empty reads than successful ones.
    threads.push_back(worker_obs("p0", false, 10000, 9500));
    threads.push_back(worker_obs("p1", false, 10000, 9500));
    const SkeletonInference inf = analyzeSkeleton(
        threads, sim::milliseconds(200), 8, 0.0);
    EXPECT_EQ(inf.serverModel, app::ServerModel::NonBlocking);
    EXPECT_FALSE(inf.threadPerConnection);
}

TEST(SkeletonAnalyzer, AsyncClientDetected)
{
    std::vector<profile::ThreadObservation> threads;
    threads.push_back(worker_obs("w0", true, 100));
    const SkeletonInference inf = analyzeSkeleton(
        threads, sim::milliseconds(200), 8, 0.6);
    EXPECT_EQ(inf.clientModel, app::ClientModel::Async);
}

TEST(SkeletonAnalyzer, ClustersWorkersAndBackgroundSeparately)
{
    std::vector<profile::ThreadObservation> threads;
    threads.push_back(worker_obs("w0", true, 400));
    threads.push_back(worker_obs("w1", true, 420));
    threads.push_back(background_obs("bg0", 10, 5));
    const SkeletonInference inf = analyzeSkeleton(
        threads, sim::milliseconds(100), 4, 0.0);
    EXPECT_GE(inf.clusterCount, 2u);
    EXPECT_EQ(inf.clusterOf[0], inf.clusterOf[1]);
    EXPECT_NE(inf.clusterOf[0], inf.clusterOf[2]);
}

// ---------------------------------------------------------------------------
// Topology analyzer.
// ---------------------------------------------------------------------------

TEST(TopologyAnalyzer, RecoversDagAndEdgeStats)
{
    trace::Tracer tracer(1.0);
    // 100 frontend requests; each calls mid once; mid calls leaf on
    // half of its requests.
    for (int i = 0; i < 100; ++i) {
        const std::uint64_t traceId = 1000 + i;
        tracer.recordSpan({traceId, tracer.newSpanId(), 0,
                           "frontend", 0, 0, 10});
        tracer.recordEdge({traceId, 1, "frontend", "mid", 0, 100, 400});
        tracer.recordSpan({traceId, tracer.newSpanId(), 1, "mid", 0,
                           2, 8});
        if (i % 2 == 0) {
            tracer.recordEdge({traceId, 2, "mid", "leaf", 0, 50, 200});
            tracer.recordSpan({traceId, tracer.newSpanId(), 2, "leaf",
                               0, 3, 6});
        }
    }

    const Topology topo = analyzeTopology(tracer);
    EXPECT_EQ(topo.root, "frontend");
    EXPECT_EQ(topo.services.size(), 3u);
    // Dependency order: leaf before mid before frontend.
    EXPECT_EQ(topo.services.front(), "leaf");
    EXPECT_EQ(topo.services.back(), "frontend");

    const auto feEdges = topo.outEdges("frontend");
    ASSERT_EQ(feEdges.size(), 1u);
    EXPECT_EQ(feEdges[0].callee, "mid");
    EXPECT_NEAR(feEdges[0].callsPerCallerRequest, 1.0, 0.01);
    EXPECT_NEAR(feEdges[0].avgRequestBytes, 100, 0.01);

    const auto midEdges = topo.outEdges("mid");
    ASSERT_EQ(midEdges.size(), 1u);
    EXPECT_NEAR(midEdges[0].callsPerCallerRequest, 0.5, 0.01);
    EXPECT_TRUE(topo.contains("leaf"));
    EXPECT_FALSE(topo.contains("nope"));
}

TEST(TopologyAnalyzer, SamplingPreservesRatios)
{
    trace::Tracer tracer(0.25);
    for (int i = 0; i < 4000; ++i) {
        const std::uint64_t traceId = 50 + i * 7;
        if (!tracer.sampled(traceId))
            continue;
        tracer.recordSpan({traceId, tracer.newSpanId(), 0, "a", 0, 0,
                           1});
        tracer.recordEdge({traceId, 1, "a", "b", 0, 10, 10});
        tracer.recordEdge({traceId, 1, "a", "b", 0, 10, 10});
    }
    const Topology topo = analyzeTopology(tracer);
    const auto edges = topo.outEdges("a");
    ASSERT_EQ(edges.size(), 1u);
    // Two calls per request, regardless of the sampling rate.
    EXPECT_NEAR(edges[0].callsPerCallerRequest, 2.0, 0.05);
}

} // namespace
