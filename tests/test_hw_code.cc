/**
 * @file
 * Tests for the machine-level IR: code-image linking, stream
 * allocation (private copies, sharing, pooling), and the block
 * builder's fidelity to its spec.
 */

#include <gtest/gtest.h>

#include "hw/block_builder.h"
#include "hw/code.h"
#include "hw/isa.h"

namespace {

using namespace ditto::hw;

TEST(Code, RoundUpPow2)
{
    EXPECT_EQ(roundUpPow2(0), kLineBytes);
    EXPECT_EQ(roundUpPow2(1), kLineBytes);
    EXPECT_EQ(roundUpPow2(64), 64u);
    EXPECT_EQ(roundUpPow2(65), 128u);
    EXPECT_EQ(roundUpPow2(4096), 4096u);
    EXPECT_EQ(roundUpPow2(5000), 8192u);
}

CodeBlock
blockWithStream(const std::string &label, MemStreamDesc desc)
{
    CodeBlock block;
    block.label = label;
    block.streams.push_back(desc);
    Inst load;
    load.opcode = Isa::instance().opcode("MOV_GPR64_MEM64");
    load.dst = 1;
    load.memStream = 0;
    block.insts.push_back(load);
    return block;
}

TEST(CodeImage, TextLayoutIsContiguousAndAligned)
{
    CodeImage image(0x1000, 0x100000, 4);
    CodeBlock a;
    a.label = "a";
    a.insts.resize(10);  // 40 bytes -> rounds to 64
    CodeBlock b;
    b.label = "b";
    b.insts.resize(100);
    const auto ia = image.addBlock(a);
    const auto ib = image.addBlock(b);
    EXPECT_EQ(image.block(ia).iBase, 0x1000u);
    EXPECT_EQ(image.block(ib).iBase, 0x1040u);
    EXPECT_EQ(image.block(ib).iBase % kLineBytes, 0u);
    EXPECT_GT(image.textBytes(), 100 * kInstBytes);
}

TEST(CodeImage, PrivateStreamsGetPerThreadCopies)
{
    CodeImage image(0x1000, 0x100000, 8);
    const auto id = image.addBlock(blockWithStream(
        "p", MemStreamDesc{4096, StreamKind::Sequential, false, 1}));
    const auto &stream =
        image.stream(image.block(id).streamIds[0]);
    EXPECT_EQ(stream.perThreadSpan, 4096u);
    // 8 thread slots worth of space consumed.
    EXPECT_GE(image.dataEnd() - 0x100000, 8 * 4096u);
}

TEST(CodeImage, SharedStreamsSingleAllocation)
{
    CodeImage image(0x1000, 0x100000, 8);
    const auto id = image.addBlock(blockWithStream(
        "s", MemStreamDesc{4096, StreamKind::Sequential, true, 1}));
    const auto &stream =
        image.stream(image.block(id).streamIds[0]);
    EXPECT_EQ(stream.perThreadSpan, 0u);
    EXPECT_EQ(image.dataEnd() - 0x100000, 4096u);
}

TEST(CodeImage, PooledStreamsShareBaseAcrossBlocks)
{
    CodeImage image(0x1000, 0x100000, 4);
    MemStreamDesc pooled{1 << 20, StreamKind::Sequential, true, 1, 7};
    const auto a = image.addBlock(blockWithStream("a", pooled));
    pooled.kind = StreamKind::Random;  // walk pattern may differ
    const auto b = image.addBlock(blockWithStream("b", pooled));
    const auto &sa = image.stream(image.block(a).streamIds[0]);
    const auto &sb = image.stream(image.block(b).streamIds[0]);
    EXPECT_EQ(sa.base, sb.base);               // one allocation
    EXPECT_EQ(sb.desc.kind, StreamKind::Random);  // per-site pattern
    EXPECT_EQ(image.dataEnd() - 0x100000, 1u << 20);
}

TEST(CodeImage, UnpooledSameSizeStreamsStayDistinct)
{
    CodeImage image(0x1000, 0x100000, 1);
    MemStreamDesc plain{1 << 20, StreamKind::Sequential, true, 1, 0};
    const auto a = image.addBlock(blockWithStream("a", plain));
    const auto b = image.addBlock(blockWithStream("b", plain));
    EXPECT_NE(image.stream(image.block(a).streamIds[0]).base,
              image.stream(image.block(b).streamIds[0]).base);
}

TEST(CodeImage, PoolsDistinguishSizeAndSharing)
{
    CodeImage image(0x1000, 0x100000, 2);
    MemStreamDesc big{1 << 20, StreamKind::Sequential, true, 1, 7};
    MemStreamDesc small{1 << 12, StreamKind::Sequential, true, 1, 7};
    MemStreamDesc priv{1 << 20, StreamKind::Sequential, false, 1, 7};
    const auto a = image.addBlock(blockWithStream("a", big));
    const auto b = image.addBlock(blockWithStream("b", small));
    const auto c = image.addBlock(blockWithStream("c", priv));
    const auto baseOf = [&](std::uint32_t id) {
        return image.stream(image.block(id).streamIds[0]).base;
    };
    EXPECT_NE(baseOf(a), baseOf(b));
    EXPECT_NE(baseOf(a), baseOf(c));
}

TEST(BlockBuilder, HonorsInstructionCountAndFootprint)
{
    BlockSpec spec;
    spec.label = 't';
    spec.instCount = 500;
    spec.seed = 1;
    const CodeBlock block = buildBlock(spec);
    EXPECT_EQ(block.insts.size(), 500u);
    EXPECT_EQ(block.iFootprintBytes(), 2000u);
    EXPECT_EQ(block.label, "t");
}

TEST(BlockBuilder, DeterministicPerSeed)
{
    BlockSpec spec;
    spec.label = 't';
    spec.instCount = 200;
    spec.memFraction = 0.3;
    spec.branchFraction = 0.1;
    spec.seed = 5;
    const CodeBlock a = buildBlock(spec);
    const CodeBlock b = buildBlock(spec);
    ASSERT_EQ(a.insts.size(), b.insts.size());
    for (std::size_t i = 0; i < a.insts.size(); ++i) {
        EXPECT_EQ(a.insts[i].opcode, b.insts[i].opcode);
        EXPECT_EQ(a.insts[i].dst, b.insts[i].dst);
    }
    spec.seed = 6;
    const CodeBlock c = buildBlock(spec);
    int different = 0;
    for (std::size_t i = 0; i < a.insts.size(); ++i)
        different += a.insts[i].opcode != c.insts[i].opcode;
    EXPECT_GT(different, 10);
}

TEST(BlockBuilder, FractionsApproximatelyHonored)
{
    BlockSpec spec;
    spec.label = 't';
    spec.instCount = 2000;
    spec.memFraction = 0.30;
    spec.branchFraction = 0.10;
    spec.seed = 7;
    const CodeBlock block = buildBlock(spec);
    const Isa &isa = Isa::instance();
    int mem = 0;
    int branches = 0;
    for (const Inst &inst : block.insts) {
        mem += inst.memStream != kNoStream;
        branches += inst.branch != kNoBranch;
    }
    (void)isa;
    EXPECT_NEAR(mem / 2000.0, 0.30, 0.05);
    EXPECT_NEAR(branches / 2000.0, 0.10, 0.03);
    // Each branch instruction has its own descriptor.
    EXPECT_EQ(block.branches.size(),
              static_cast<std::size_t>(branches));
}

TEST(BlockBuilder, StreamWeightsDistributeMemoryOps)
{
    BlockSpec spec;
    spec.label = 't';
    spec.instCount = 3000;
    spec.memFraction = 0.4;
    spec.streams = {
        {4096, StreamKind::Sequential, false, 0.8},
        {1 << 20, StreamKind::Random, false, 0.2},
    };
    spec.seed = 8;
    const CodeBlock block = buildBlock(spec);
    ASSERT_EQ(block.streams.size(), 2u);
    int counts[2] = {0, 0};
    for (const Inst &inst : block.insts) {
        if (inst.memStream != kNoStream)
            counts[inst.memStream]++;
    }
    EXPECT_GT(counts[0], 2 * counts[1]);
    EXPECT_GT(counts[1], 0);
}

TEST(BlockBuilder, DepTightnessControlsChainLengths)
{
    auto avg_raw_distance = [](double tightness) {
        BlockSpec spec;
        spec.label = 't';
        spec.instCount = 2000;
        spec.depTightness = tightness;
        spec.seed = 9;
        const CodeBlock block = buildBlock(spec);
        std::int64_t lastWrite[kNumRegs];
        std::fill(std::begin(lastWrite), std::end(lastWrite), -1);
        double sum = 0;
        int n = 0;
        for (std::size_t i = 0; i < block.insts.size(); ++i) {
            const Inst &inst = block.insts[i];
            if (inst.src0 != kNoReg && lastWrite[inst.src0] >= 0) {
                sum += static_cast<double>(
                    static_cast<std::int64_t>(i) -
                    lastWrite[inst.src0]);
                ++n;
            }
            if (inst.dst != kNoReg)
                lastWrite[inst.dst] = static_cast<std::int64_t>(i);
        }
        return n ? sum / n : 0.0;
    };
    EXPECT_LT(avg_raw_distance(0.9), avg_raw_distance(0.05));
}

} // namespace
